(* Host-speed calibration. This host's speed swings by tens of percent
   over seconds (other tenants share its cores and caches; no steal time
   shows in the guest), far more than the changes the benchmark must
   resolve. A fixed kernel (library perfbench_calib, built with its own
   fixed flags) is timed before every job, and the job's host times are
   scaled by [reference_s / kernel time]: they are reported in seconds of
   a host on which the kernel takes [reference_s].

   One untimed run first brings the kernel's array back into the caches
   the previous job has evicted, so the estimate does not depend on the
   simulator's memory footprint. The estimate is the fastest of
   [samples] timed runs, so a preemption during one sample does not pass
   for a slow host. *)

let reference_s = 0.45e-3
let samples = 3

(* Host seconds for one kernel run on the current host. *)
let time () =
  Perfbench_calib.Kernel.run ();
  let best = ref Float.infinity in
  for _ = 1 to samples do
    let t0 = Span.now () in
    Perfbench_calib.Kernel.run ();
    best := Float.min !best (Span.now () -. t0)
  done;
  !best
