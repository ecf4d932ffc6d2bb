(* One benchmark run: repeat whole passes over a workload's jobs for the
   run length, check every job, and reduce the passes to the end-to-end
   metrics (untraced) or to the per-layer table (traced). *)

open Ms_util

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* ------------------------------------------------------------------ *)
(* Modeled-output checks                                                *)
(* ------------------------------------------------------------------ *)

(* Modeled insns, cycles and switch count of every job at the default
   seed, as recorded by [record-expected]. Cycles are kept as hex floats
   so the comparison is exact. *)
type golden = (string, int * string * int) Hashtbl.t

let golden_of_json j : golden =
  let t = Hashtbl.create 512 in
  (match Json.member "jobs" j with
  | Some (Json.Obj kvs) ->
    List.iter
      (fun (k, v) ->
        match (Json.member "insns" v, Json.member "cycles" v, Json.member "switches" v) with
        | Some (Json.Int i), Some (Json.String c), Some (Json.Int s) -> Hashtbl.replace t k (i, c, s)
        | _ -> failwith ("expected: malformed entry " ^ k))
      kvs
  | _ -> failwith "expected: no jobs object");
  t

let golden_entry (r : Jobs.result) = (r.Jobs.insns, Printf.sprintf "%h" r.Jobs.cycles, r.Jobs.switches)

let golden_error (golden : golden option) key (r : Jobs.result) =
  match golden with
  | None -> None
  | Some g -> (
    match Hashtbl.find_opt g key with
    | None -> Some "no recorded modeled values for this job"
    | Some e when e = golden_entry r -> None
    | Some (i, c, s) ->
      let i', c', s' = golden_entry r in
      Some
        (Printf.sprintf "modeled (insns %d, cycles %s, switches %d) <> recorded (%d, %s, %d)" i' c'
           s' i c s))

(* ------------------------------------------------------------------ *)
(* Reductions                                                           *)
(* ------------------------------------------------------------------ *)

(* Geomean overhead (cycles / same-profile baseline cycles) per config,
   over the profiles where both runs passed. [rows] are
   (profile, config, cycles) with config "baseline" for the baselines. *)
let geomeans rows =
  let base = Hashtbl.create 32 in
  List.iter (fun (p, c, cy) -> if c = "baseline" then Hashtbl.replace base p cy) rows;
  let by_cfg = Hashtbl.create 32 and order = ref [] in
  List.iter
    (fun (p, c, cy) ->
      match Hashtbl.find_opt base p with
      | Some b when c <> "baseline" && b > 0.0 && cy > 0.0 ->
        if not (Hashtbl.mem by_cfg c) then order := c :: !order;
        Hashtbl.add by_cfg c (cy /. b)
      | _ -> ())
    rows;
  List.rev_map (fun c -> (c, Stats.geomean (Hashtbl.find_all by_cfg c))) !order

(* Mean |ln(simulated geomean / paper geomean)| over the configs that have
   a paper geomean. *)
let model_err ~paper geos =
  let errs =
    List.filter_map
      (fun (c, p) -> Option.map (fun g -> Float.abs (log (g /. p))) (List.assoc_opt c geos))
      paper
  in
  if errs = [] then Float.nan else Stats.mean errs

(* ------------------------------------------------------------------ *)
(* Passes                                                               *)
(* ------------------------------------------------------------------ *)

type pass = {
  wall : float;  (** host seconds of the jobs, summed *)
  setup : float;
  exec : float;
  cal_wall : float;
      (** [wall] in reference-host seconds: each job's time scaled by the
          calibration kernel timed just before it (see Calib) *)
  cal_setup : float;
  cal_exec : float;
  calib : float;  (** mean calibration-kernel seconds *)
  insns : int;
  words : float;
  results : (string * Jobs.result) list;  (** keyed as in the golden file *)
}

type settings = {
  workload : Jobs.workload;
  seed : int;
  seconds : int;
  size : Jobs.size;
  golden : golden option;  (** applies to default-seed passes *)
  oracle : Workloads.Profile.t -> int;
}

(* Ir.Interp's answer for every profile the workload builds, computed
   before any timing starts. *)
let oracle (w : Jobs.workload) =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (j : Jobs.job) ->
      let name = j.Jobs.prof.Workloads.Profile.name in
      if not (Hashtbl.mem tbl name) then
        Hashtbl.add tbl name (Jobs.interp_rax ~iterations:w.Jobs.iterations j.Jobs.prof))
    w.Jobs.jobs;
  fun (p : Workloads.Profile.t) -> Hashtbl.find tbl p.Workloads.Profile.name

let run_pass ?tracer ?gc s =
  let kernel = ref [] in
  let results =
    List.map
      (fun (job : Jobs.job) ->
        kernel := Calib.time () :: !kernel;
        let expected_rax = s.oracle job.Jobs.prof in
        let r =
          match tracer with
          | None -> Jobs.run ~iterations:s.workload.Jobs.iterations ~expected_rax job
          | Some (t : Jobs.tracer) ->
            Span.set_job t.Jobs.spans job.Jobs.id;
            Span.record t.Jobs.spans "perfbench.job" (fun () ->
                Jobs.run ~tracer:t ~iterations:s.workload.Jobs.iterations ~expected_rax job)
        in
        Option.iter Gc_events.poll gc;
        let key = Jobs.key s.workload job in
        let r =
          match r.Jobs.error with
          | None when s.seed = Jobs.default_seed -> { r with Jobs.error = golden_error s.golden key r }
          | _ -> r
        in
        (key, r))
      s.workload.Jobs.jobs
  in
  let kernel = List.rev !kernel in
  let sum f = List.fold_left (fun a (_, r) -> a +. f r) 0.0 results in
  let cal f =
    List.fold_left2 (fun a (_, r) k -> a +. (f r *. Calib.reference_s /. k)) 0.0 results kernel
  in
  {
    wall = sum (fun r -> r.Jobs.wall_s);
    setup = sum (fun r -> r.Jobs.setup_s);
    exec = sum (fun r -> r.Jobs.exec_s);
    cal_wall = cal (fun r -> r.Jobs.wall_s);
    cal_setup = cal (fun r -> r.Jobs.setup_s);
    cal_exec = cal (fun r -> r.Jobs.exec_s);
    calib = Stats.mean kernel;
    insns = List.fold_left (fun a (_, r) -> a + r.Jobs.insns) 0 results;
    words = sum (fun r -> r.Jobs.exec_words);
    results;
  }

(* Whole passes until [seconds] have elapsed, at least one. *)
let run_passes ?tracer ?gc s ~seconds =
  let deadline = Span.now () +. seconds in
  let rec go acc =
    let acc = run_pass ?tracer ?gc s :: acc in
    if Span.now () >= deadline then List.rev acc else go acc
  in
  go []

let failures passes =
  List.concat_map
    (fun p -> List.filter_map (fun (k, r) -> Option.map (fun e -> (k, e)) r.Jobs.error) p.results)
    passes

let attempted passes = List.fold_left (fun a p -> a + List.length p.results) 0 passes

let median f passes = Stats.median (List.map f passes)

let heap_peak_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let workload_model_err s (model : pass) =
  let rows =
    List.filter_map
      (fun (_, (r : Jobs.result)) ->
        if r.Jobs.error = None then
          Some (r.Jobs.job.Jobs.prof.Workloads.Profile.name, r.Jobs.job.Jobs.cname, r.Jobs.cycles)
        else None)
      model.results
  in
  model_err ~paper:s.workload.Jobs.paper (geomeans rows)

let end_to_end s ~model passes =
  let n = attempted (model :: passes) and f = List.length (failures (model :: passes)) in
  [
    m "sim_mips" "MIPS" (median (fun p -> float_of_int p.insns /. p.cal_exec /. 1e6) passes);
    m "wall_s" "s" (median (fun p -> p.cal_wall) passes);
    m "setup_s" "s" (median (fun p -> p.cal_setup) passes);
    m "minor_words_per_insn" "words/insn" (median (fun p -> p.words /. float_of_int p.insns) passes);
    m "heap_peak_mb" "MB" (heap_peak_mb ());
    m "model_err_vs_paper" "ln" (workload_model_err s model);
    m "job_ok_frac" "frac" (1.0 -. (float_of_int f /. float_of_int n));
  ]

(* ------------------------------------------------------------------ *)
(* Traced run: per-layer table                                          *)
(* ------------------------------------------------------------------ *)

let span_layers =
  [
    "workloads.generate"; "ir.lower"; "memsentry.prepare"; "memsentry.verify";
    "memsentry.cost_model"; "x86sim.run"; "x86sim.run_hooked"; "memsentry.profiler";
    "memsentry.fastprof";
  ]

(* The end-to-end metric each per-layer metric should move, and where. *)
let target name =
  let pre p = String.length name >= String.length p && String.sub name 0 (String.length p) = p in
  if List.mem name Micro.names then "sim_mips via count x cost"
  else if List.mem name [ "workloads.generate_s"; "ir.lower_s"; "memsentry.prepare_s" ] then
    "setup_s (most on addr-sweep)"
  else if List.mem name [ "memsentry.verify_s"; "memsentry.cost_model_s" ] then
    "setup_s on gateopt-profiled"
  else if name = "x86sim.run_s" then "sim_mips on the three sweeps"
  else if List.mem name [ "x86sim.run_hooked_s"; "memsentry.profiler_s" ] then
    "sim_mips on gateopt-profiled"
  else if name = "memsentry.fastprof_s" then "wall_s on domain-gates"
  else if pre "gc." then "minor_words_per_insn, sim_mips (most on crypt)"
  else if pre "x86sim.trace." then "sim_mips on addr-sweep; no change on domain-gates"
  else if pre "x86sim.ublock." then "sim_mips on domain-gates"
  else if pre "x86sim.tlb." || pre "x86sim.pagetable." || pre "x86sim.cache." then "sim_mips on addr-sweep and VMFUNC in domain-gates"
  else if name = "aesni.ops_per_insn" then "sim_mips, wall_s on crypt"
  else if List.mem name [ "vmx.vmcalls_per_kinsn"; "gates.wrpkru_per_kinsn"; "vmx.vmfuncs_per_kinsn" ]
  then "wall_s on domain-gates"
  else if name = "x86sim.machine.shootdowns" then "wall_s on domain-gates (4-vCPU part)"
  else if pre "x86sim.pipeline.cpi_" then "modeled: identical under speed-only changes"
  else if pre "trace.overhead" then "none: traced minus untraced wall_s"
  else if name = "x86sim.run.explained_frac" then "explains sim_mips"
  else "-"

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let per_k a b = 1000.0 *. ratio a b

let cache_accesses (c : Jobs.counts) = c.l1_hits + c.l2_hits + c.l3_hits + c.dram

let count_metrics ~npasses (c : Jobs.counts) =
  let open Jobs in
  let per_pass v = float_of_int v /. float_of_int npasses in
  let acc = cache_accesses c in
  [
    m "x86sim.trace.coverage" "frac" (ratio c.covered c.insns);
    m "x86sim.trace.formed" "count" (per_pass c.formed);
    m "x86sim.trace.invalidated" "count" (per_pass c.invalidated);
    m "x86sim.trace.inline_hit_ratio" "frac" (ratio c.inline_hits (c.inline_hits + c.inline_misses));
    m "x86sim.ublock.block_execs_per_kinsn" "1/kinsn" (per_k c.block_execs c.insns);
    m "x86sim.ublock.compiles" "count" (per_pass c.compiles);
    m "x86sim.tlb.lookups_per_insn" "1/insn" (ratio (c.tlb_hits + c.tlb_misses) c.insns);
    m "x86sim.tlb.miss_rate" "frac" (ratio c.tlb_misses (c.tlb_hits + c.tlb_misses));
    m "x86sim.pagetable.walks_per_kinsn" "1/kinsn" (per_k c.tlb_misses c.insns);
    m "x86sim.cache.accesses_per_insn" "1/insn" (ratio acc c.insns);
    m "x86sim.cache.l1_miss_rate" "frac" (ratio (acc - c.l1_hits) acc);
    m "x86sim.cache.dram_per_kinsn" "1/kinsn" (per_k c.dram c.insns);
    m "aesni.ops_per_insn" "1/insn" (ratio c.aes_ops c.insns);
    m "vmx.vmcalls_per_kinsn" "1/kinsn" (per_k c.vmcalls c.insns);
    m "gates.wrpkru_per_kinsn" "1/kinsn" (per_k c.wrpkrus c.insns);
    m "vmx.vmfuncs_per_kinsn" "1/kinsn" (per_k c.vmfuncs c.insns);
    m "x86sim.machine.shootdowns" "count" (per_pass c.shootdowns);
  ]
  @ Array.to_list
      (Array.mapi
         (fun i cls ->
           m ("x86sim.pipeline.cpi_" ^ cls) "cycles/insn"
             (if c.insns = 0 then 0.0 else c.cpi.(i) /. float_of_int c.insns))
         X86sim.Pipeline.cls_names)

(* Count × cost reconciliation: each term is operations per pass × host ns
   per operation. Fast-path jobs are priced layer by layer; a memory
   access is one translation (TLB probe included), one cache access and
   one Physmem word; each TLB miss adds one walk-cache-hit page walk.
   Hooked jobs are priced as whole Cpu.step calls. *)
let reconcile ~(fast : Jobs.counts) ~hooked_insns (costs : Micro.cost list) =
  let ns n = match List.find_opt (fun c -> c.Micro.name = n) costs with Some c -> c.Micro.ns | None -> Float.nan in
  let acc = cache_accesses fast in
  [
    ("pipeline issue", fast.Jobs.insns, ns "x86sim.pipeline.issue_ns");
    ("mmu translate_va", acc, ns "x86sim.mmu.translate_va_ns");
    ("pagetable walk", fast.Jobs.tlb_misses, ns "x86sim.pagetable.find_entry_hit_ns");
    ("cache L1 hit", fast.Jobs.l1_hits, ns "x86sim.cache.access_l1_hit_ns");
    ("cache L1 miss", acc - fast.Jobs.l1_hits, ns "x86sim.cache.access_l1_miss_ns");
    ("physmem read64", acc, ns "x86sim.physmem.read64_ns");
    ("aesni aesenc", fast.Jobs.aes_ops, ns "aesni.aesenc_ns");
    ("cpu step (hooked)", hooked_insns, ns "x86sim.cpu.step_ns");
  ]

(* [run_s] is the execution self time, [insns] the simulated insns and
   each term's count the operations, all totals over the traced passes. *)
let print_reconciliation ~workload ~run_s ~insns terms =
  let measured = run_s *. 1e9 and n = float_of_int (max 1 insns) in
  Printf.printf "\ncount x cost reconciliation, %s (%d simulated insns):\n" workload insns;
  Printf.printf "  %-20s %14s %10s %12s %8s\n" "term" "ops/insn" "ns/op" "ns/insn" "share";
  let row label ops ns per_insn share =
    Printf.printf "  %-20s %14s %10s %12.3f %7.1f%%\n" label ops ns per_insn share
  in
  let explained =
    List.fold_left
      (fun total (label, count, ns) ->
        let t = float_of_int count *. ns in
        row label (Printf.sprintf "%.4f" (float_of_int count /. n)) (Printf.sprintf "%.2f" ns)
          (t /. n) (100.0 *. t /. measured);
        total +. t)
      0.0 terms
  in
  row "explained" "" "" (explained /. n) (100.0 *. explained /. measured);
  row "measured run" "" "" (measured /. n) 100.0;
  explained /. measured

(* ------------------------------------------------------------------ *)
(* Whole runs                                                           *)
(* ------------------------------------------------------------------ *)

type outcome = {
  metrics : metric list;
  passes : pass list;  (** the passes the metrics were reduced from *)
  failed : (string * string) list;  (** (job key, reason) *)
  attempted_jobs : int;
  spans : Span.t list;  (** traced runs only *)
}

(* One untimed pass of the workload's model check, at the committed
   profile seeds, so model_err_vs_paper does not depend on --seed. *)
let model_pass s =
  let w = Jobs.model_check ~size:s.size s.workload.Jobs.name in
  run_pass { s with workload = w; seed = Jobs.default_seed; oracle = oracle w }

let untraced s =
  let model = model_pass s in
  let passes = run_passes s ~seconds:(float_of_int s.seconds) in
  {
    metrics = end_to_end s ~model passes;
    passes;
    failed = failures (model :: passes);
    attempted_jobs = attempted (model :: passes);
    spans = [];
  }

(* Half the run length untraced, half traced; then the microbenchmarks. *)
let traced ~micro_quota s =
  let half = float_of_int s.seconds /. 2.0 in
  let plain = run_passes s ~seconds:half in
  let all = Jobs.new_counts () and fast = Jobs.new_counts () in
  let tracer = { Jobs.spans = Span.create (); all; fast } in
  let gc = Gc_events.start () in
  let traced_passes = run_passes ~tracer ~gc s ~seconds:half in
  Gc_events.stop gc;
  let costs = Micro.measure ~quota:micro_quota in
  let npasses = List.length traced_passes in
  let spans = Span.spans tracer.Jobs.spans in
  let selfs = Span.self_times spans in
  let per_pass v = v /. float_of_int npasses in
  let self n = per_pass (Option.value (List.assoc_opt n selfs) ~default:0.0) in
  let span_metrics = List.map (fun n -> m (n ^ "_s") "s" (self n)) span_layers in
  let gc_metrics =
    [ m "gc.minor_s" "s" (per_pass !(gc.Gc_events.minor_s)); m "gc.major_s" "s" (per_pass !(gc.Gc_events.major_s)) ]
  in
  let run_s = self "x86sim.run" +. self "x86sim.run_hooked" in
  let explained =
    print_reconciliation ~workload:s.workload.Jobs.name
      ~run_s:(run_s *. float_of_int npasses) ~insns:all.Jobs.insns
      (reconcile ~fast ~hooked_insns:(all.Jobs.insns - fast.Jobs.insns) costs)
  in
  let overhead =
    median (fun p -> p.cal_wall) traced_passes -. median (fun p -> p.cal_wall) plain
  in
  let cost_metrics = List.map (fun c -> m c.Micro.name "ns" c.Micro.ns) costs in
  let metrics =
    span_metrics @ gc_metrics @ count_metrics ~npasses all @ cost_metrics
    @ [ m "x86sim.run.explained_frac" "frac" explained; m "trace.overhead_s" "s" overhead ]
  in
  Printf.printf "\nmicrobenchmark fit (OLS):\n";
  List.iter (fun c -> Printf.printf "  %-40s %10.2f ns  r2 %.4f\n" c.Micro.name c.Micro.ns c.Micro.r2) costs;
  if !(gc.Gc_events.lost) > 0 then
    Printf.printf "warning: %d runtime events were lost; gc.* undercount\n" !(gc.Gc_events.lost);
  let passes = plain @ traced_passes in
  {
    metrics;
    passes;
    failed = failures passes;
    attempted_jobs = attempted passes;
    spans;
  }

let print_metrics ~traced metrics =
  Printf.printf "\n%s metrics:\n" (if traced then "per-layer" else "end-to-end");
  List.iter
    (fun x ->
      if traced then Printf.printf "  %-44s %14.6g %-12s -> %s\n" x.name x.value x.unit_ (target x.name)
      else Printf.printf "  %-24s %14.6g %s\n" x.name x.value x.unit_)
    metrics

let metric_json x = Json.Obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit_) ]

let metrics_json ms = Json.Obj (List.map (fun x -> (x.name, metric_json x)) ms)

let result_line o =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (o.failed = []));
         ("attempted", Json.Int o.attempted_jobs);
         ("failed", Json.Int (List.length o.failed));
         ("metrics", metrics_json o.metrics);
       ])

let pass_json p =
  Json.Obj
    [
      ("wall_s", Json.Float p.wall);
      ("cal_wall_s", Json.Float p.cal_wall);
      ("cal_setup_s", Json.Float p.cal_setup);
      ("cal_exec_s", Json.Float p.cal_exec);
      ("calib_s", Json.Float p.calib);
      ("setup_s", Json.Float p.setup);
      ("exec_s", Json.Float p.exec);
      ("insns", Json.Int p.insns);
      ("minor_words", Json.Float p.words);
    ]

let result_file_json ~manifest o =
  Json.Obj
    [
      ("manifest", Manifest.to_json manifest);
      ("metrics", metrics_json o.metrics);
      ("passes", Json.List (List.map pass_json o.passes));
      ( "failures",
        Json.List
          (List.map (fun (k, e) -> Json.Obj [ ("job", Json.String k); ("error", Json.String e) ]) o.failed)
      );
    ]

let spans_file_json ~manifest spans =
  Json.Obj [ ("manifest", Manifest.to_json manifest); ("spans", Json.List (List.map Span.to_json spans)) ]
