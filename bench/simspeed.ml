(* Simulator-speed benchmark: how fast the simulator itself runs, measured
   in MIPS (millions of *simulated* instructions per wall-clock second).

   This is a meta-benchmark: it measures the engine, not the modeled
   hardware. It is what bounds how many iterations/configs the figure
   sweeps can afford, so we track it across PRs in BENCH_simspeed.json:
   the file keeps the first recorded run as "baseline", a "history" list
   of per-PR snapshots (carried through verbatim; entries are added by
   hand when a PR lands, so local reruns don't spam it), and overwrites
   "latest" on every run — the whole optimization trajectory stays
   visible in one place.

   With [guard_factor] set (the [--speed-guard F] CLI flag), the run
   additionally acts as a perf-regression gate: it fails (exit 1) if the
   freshly measured baseline-mode MIPS drops below F times the
   baseline-mode MIPS recorded in the committed file's "latest" entry.

   Only the execution phase ([Framework.run]) is timed: program lowering
   and [Framework.prepare] are one-time setup, amortized away in any
   long-running use of the simulator, and timing them would let setup
   churn mask engine regressions. Minor-heap words allocated per simulated
   instruction during the timed phase are reported alongside MIPS — the
   honesty metric for the allocation-free fast path (0.00 means the
   engine's steady state never touches the GC).

   Three rows bracket the engine's operating modes:
   - baseline: uninstrumented workload, no hooks — the pure fast path;
   - MPK: instrumented workload, no hooks — fast path plus gate traffic;
   - MPK+hooks: step+event hooks attached — the instrumented slow path. *)

open Ms_util
open Memsentry

let out_file = "BENCH_simspeed.json"

(* When [Some f], fail the run if measured baseline-mode MIPS < f times the
   committed "latest" baseline-mode MIPS. Set via main.exe --speed-guard. *)
let guard_factor : float option ref = ref None

(* Disable the superblock tier for the timed runs (main.exe --no-traces):
   isolates how much of the measured MIPS the trace tier contributes, and
   gives a stable point of comparison with pre-trace-tier history
   entries. Recorded in the JSON provenance. *)
let no_traces = ref false

(* A spread of profiles: pointer-chasing (low ILP), cache-resident high
   ILP, and call-heavy — so the MIPS number is not dominated by one
   instruction mix. *)
let profile_names = [ "429.mcf"; "456.hmmer"; "453.povray" ]

let profiles =
  List.filter
    (fun p -> List.mem p.Workloads.Profile.name profile_names)
    Workloads.Spec2006.all

(* The figure sweeps default to 40 iterations per run; a single 40-iteration
   run is over in ~10 ms, far too short to time reliably. Scale up by 30x
   (and take the best of [reps] attempts) so one mode's timed phase runs
   long enough that per-sweep warm-up (first-touch of the simulated memory
   image) and timer quantization stop biasing the rate low — at a 10x
   scale the steady-state MIPS read ~6% under a 30x run on the same host.
   [--iterations] still scales the measurement down for CI smoke. *)
let speed_iterations () = !Bench_common.iterations * 30
let reps = 5

let mips insns secs = if secs <= 0.0 then 0.0 else float_of_int insns /. secs /. 1e6

(* Run one mode over all profiles; return (total simulated insns, wall
   seconds, minor words per simulated instruction), all measured over the
   timed [Framework.run] phase only. Wall time and words/insn are each the
   best of [reps] sweeps — robust against scheduler and GC-timing noise.
   Each rep re-prepares (untimed): [Framework.run] consumes its prepared
   state. *)
let measure_mode prepare_one =
  let sweep () =
    List.fold_left
      (fun (insns, secs, words) prof ->
        let p = prepare_one prof in
        let w0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        (match Framework.run p with
        | X86sim.Cpu.Halted -> ()
        | X86sim.Cpu.Out_of_fuel -> failwith "simspeed: out of fuel");
        let t1 = Unix.gettimeofday () in
        let w1 = Gc.minor_words () in
        let n = p.Framework.cpu.X86sim.Cpu.counters.X86sim.Cpu.insns in
        (insns + n, secs +. (t1 -. t0), words +. (w1 -. w0)))
      (0, 0.0, 0.0) profiles
  in
  (* The first sweep is warm-up only (host-side effects: lazily-reached
     code paths, allocator growth, page cache) and is discarded; the
     steady-state rate is the best of [reps] post-warm-up sweeps. *)
  ignore (sweep ());
  let first = sweep () in
  let rec best (bi, bs, bw) n =
    if n = 0 then (bi, bs, bw /. float_of_int (max bi 1))
    else
      let _, s, w = sweep () in
      best (bi, Float.min bs s, Float.min bw w) (n - 1)
  in
  best first (reps - 1)

let apply_trace_mode (p : Framework.prepared) =
  if !no_traces then X86sim.Cpu.set_traces_enabled p.Framework.cpu false;
  p

let prepare_baseline prof =
  let iterations = speed_iterations () in
  apply_trace_mode (Framework.prepare_baseline (Workloads.Synth.lowered ~iterations prof))

let prepare_mpk cfg prof =
  let iterations = speed_iterations () in
  apply_trace_mode (Framework.prepare cfg (Workloads.Synth.lowered ~iterations prof))

let prepare_hooked cfg prof =
  let p = prepare_mpk cfg prof in
  (* A step hook and an event hook that observe but do not interfere:
     exactly what the differential property test holds fixed. *)
  let steps = ref 0 and events = ref 0 in
  ignore (X86sim.Cpu.add_step_hook p.Framework.cpu (fun _ _ -> incr steps));
  ignore (X86sim.Cpu.add_event_hook p.Framework.cpu (fun _ -> incr events));
  p

let json_of_mode (name, insns, secs, words) =
  ( name,
    Json.Obj
      [
        ("insns", Json.Int insns);
        ("wall_s", Json.Float secs);
        ("mips", Json.Float (mips insns secs));
        ("minor_words_per_insn", Json.Float words);
      ] )

(* Provenance stamp for the recorded entries: when and at which commit a
   number was measured, so history entries are self-describing. *)
let iso_date () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday

let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

let read_existing () =
  if Sys.file_exists out_file then (
    let ic = open_in_bin out_file in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    try Some (Json.of_string s) with Json.Parse_error _ -> None)
  else None

let run () =
  let iterations = speed_iterations () in
  let mpk = Bench_common.mpk_cfg Instr.At_safe_accesses in
  let modes =
    [
      ("baseline", measure_mode prepare_baseline);
      ("MPK", measure_mode (prepare_mpk mpk));
      ("MPK+hooks", measure_mode (prepare_hooked mpk));
    ]
  in
  let rows = List.map (fun (n, (i, s, w)) -> (n, i, s, w)) modes in
  let t = Table_fmt.create [ "mode"; "sim insns"; "wall s"; "MIPS"; "words/insn" ] in
  List.iter
    (fun (n, insns, secs, words) ->
      Table_fmt.add_row t
        [
          n;
          string_of_int insns;
          Printf.sprintf "%.3f" secs;
          Printf.sprintf "%.2f" (mips insns secs);
          Printf.sprintf "%.2f" words;
        ])
    rows;
  Printf.printf "Simulator speed (simulated MIPS; %d workload iterations, %d profiles%s)\n"
    iterations (List.length profiles)
    (if !no_traces then ", trace tier off" else "");
  Table_fmt.print t;
  let this_run =
    Json.Obj
      (("date", Json.String (iso_date ()))
      :: ("commit", Json.String (git_commit ()))
      :: ("iterations", Json.Int iterations)
      :: ("traces", Json.Bool (not !no_traces))
      :: ("profiles", Json.List (List.map (fun p -> Json.String p) profile_names))
      :: List.map json_of_mode rows)
  in
  let prior = read_existing () in
  let member_of name = function Some j -> Json.member name j | None -> None in
  let baseline =
    match member_of "baseline" prior with Some b -> b | None -> this_run
  in
  (* Per-PR snapshots are carried through verbatim: entries are appended by
     hand when a PR lands, so ad-hoc local runs don't grow the list. *)
  let history =
    match member_of "history" prior with Some h -> h | None -> Json.List []
  in
  let total sel j =
    match Json.member sel j with
    | Some m -> (
      match Json.member "mips" m with
      | Some (Json.Float f) -> f
      | Some (Json.Int i) -> float_of_int i
      | _ -> 0.0)
    | None -> 0.0
  in
  let recorded_latest_mips =
    match member_of "latest" prior with Some l -> total "baseline" l | None -> 0.0
  in
  let speedup =
    let b = total "baseline" baseline in
    if b > 0.0 then total "baseline" this_run /. b else 1.0
  in
  Json.to_file out_file
    (Json.Obj
       [
         ("metric", Json.String "simulated-MIPS");
         ("baseline", baseline);
         ("history", history);
         ("latest", this_run);
         ("speedup_vs_baseline", Json.Float speedup);
       ]);
  Printf.printf "baseline-mode speedup vs recorded baseline: %.2fx (%s)\n" speedup out_file;
  match !guard_factor with
  | None -> ()
  | Some f ->
    let measured = total "baseline" this_run in
    let floor_mips = f *. recorded_latest_mips in
    if recorded_latest_mips <= 0.0 then
      Printf.printf "speed guard: no recorded latest to compare against, skipping\n"
    else if measured < floor_mips then begin
      Printf.eprintf
        "speed guard FAILED: measured %.2f MIPS < %.2f (%.2fx of recorded %.2f MIPS)\n" measured
        floor_mips f recorded_latest_mips;
      exit 1
    end
    else
      Printf.printf "speed guard OK: measured %.2f MIPS >= %.2f (%.2fx of recorded %.2f MIPS)\n"
        measured floor_mips f recorded_latest_mips
