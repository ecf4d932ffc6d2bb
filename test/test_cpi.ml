(* The fast-path profiler: counter saturation, the CPI-stack accounting
   invariant, profile JSON round-trips, observation-only differential
   equality, flamegraph export, and perf-diff regression flagging. *)

open X86sim
open Memsentry
module J = Ms_util.Json
module Fg = Ms_util.Flamegraph

let mpk_prepared () =
  let prof = Workloads.Spec2006.find "429.mcf" in
  let cfg =
    Framework.config ~switch_policy:Instr.At_call_ret (Technique.Mpk Mpk.Pkey.No_access)
  in
  let lowered = Workloads.Synth.lowered ~iterations:3 prof in
  Framework.prepare cfg lowered

let run_profiled () =
  let p = mpk_prepared () in
  Fastprof.install p;
  (match Framework.run p with
  | Cpu.Halted -> ()
  | Cpu.Out_of_fuel -> Alcotest.fail "run out of fuel");
  (p, Fastprof.capture ~workload:"429.mcf" p)

(* --- counter saturation --- *)

let test_bump_saturation () =
  Alcotest.(check int) "increments" 1 (Ublock.bump 0);
  Alcotest.(check int) "reaches max" max_int (Ublock.bump (max_int - 1));
  (* max_int is the fixed point: a saturated counter stays put instead of
     wrapping negative. *)
  Alcotest.(check int) "saturates" max_int (Ublock.bump max_int)

(* --- CPI-stack accounting invariant --- *)

let test_cpi_sum_invariant () =
  let p, fp = run_profiled () in
  let cpu = p.Framework.cpu in
  let total = Cpu.cycles cpu in
  let close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 b in
  (* Every cycle lands in exactly one (row, class) cell: the per-issue
     deltas telescope, so the grand total is the run total. *)
  Alcotest.(check bool) "rows sum to run total" true
    (close (Fastprof.total_cycles fp) total);
  Alcotest.(check bool) "pipeline accountant agrees" true
    (close (Pipeline.cycles_accounted cpu.Cpu.pipe) total);
  Alcotest.(check bool) "has site rows beyond app" true (List.length fp.Fastprof.p_rows > 1);
  let site_gate =
    List.fold_left
      (fun acc (r : Fastprof.row) ->
        if r.Fastprof.fp_rip >= 0 then
          acc +. r.Fastprof.fp_classes.(Pipeline.cls_gate)
        else acc)
      0.0 fp.Fastprof.p_rows
  in
  (* MPK gates are wrpkru pairs: their cost must appear in the gate class
     of the site rows, not be smeared over the app row. *)
  Alcotest.(check bool) "gate cycles attributed to sites" true (site_gate > 0.0)

let test_site_map_validation () =
  let p = mpk_prepared () in
  let cpu = p.Framework.cpu in
  let len = Program.length cpu.Cpu.program in
  Alcotest.(check bool) "short map rejected" true
    (try Cpu.set_site_rows cpu (Array.make (len - 1) 0) ~rows:1; false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "out-of-range row rejected" true
    (try Cpu.set_site_rows cpu (Array.make len 3) ~rows:2; false
     with Invalid_argument _ -> true)

(* --- profile JSON round-trip --- *)

let test_fastprof_json_roundtrip () =
  let _, fp = run_profiled () in
  let j = Fastprof.to_json fp in
  let reparsed = J.of_string (J.to_string ~pretty:true j) in
  Alcotest.(check bool) "JSON text round-trips" true (J.equal j reparsed);
  let fp' = Fastprof.of_json reparsed in
  (* float_repr prints shortest round-tripping floats, so the decoded
     profile is structurally identical, not merely close. *)
  Alcotest.(check bool) "profile round-trips exactly" true (fp' = fp)

let test_fastprof_json_traces () =
  let p = mpk_prepared () in
  let tier = p.Framework.cpu.Cpu.traces in
  Trace.set_hot_threshold tier 2;
  Trace.set_min_samples tier 1;
  Fastprof.install p;
  (match Framework.run p with
  | Cpu.Halted -> ()
  | Cpu.Out_of_fuel -> Alcotest.fail "run out of fuel");
  let fp = Fastprof.capture ~workload:"429.mcf" p in
  Alcotest.(check bool) "profile has formed traces" true (fp.Fastprof.p_traces <> []);
  Alcotest.(check bool) "coverage recorded" true (fp.Fastprof.p_trace_covered > 0);
  let j = Fastprof.to_json fp in
  let fp' = Fastprof.of_json (J.of_string (J.to_string j)) in
  Alcotest.(check bool) "trace section round-trips exactly" true (fp' = fp);
  (* Artifacts written before the trace tier existed have no "traces"
     member: of_json must default it, not reject the profile. *)
  let stripped =
    match j with
    | J.Obj fields -> J.Obj (List.filter (fun (k, _) -> k <> "traces") fields)
    | _ -> Alcotest.fail "profile JSON is not an object"
  in
  let fp0 = Fastprof.of_json stripped in
  Alcotest.(check int) "absent traces: zero formed" 0 fp0.Fastprof.p_traces_formed;
  Alcotest.(check bool) "absent traces: empty list" true (fp0.Fastprof.p_traces = []);
  Alcotest.(check int) "remaining fields intact" fp.Fastprof.p_insns fp0.Fastprof.p_insns;
  (* Older profiles carry trace-optimizer and hoisting counters this
     version no longer writes: of_json must ignore them. *)
  let add_obsolete = function
    | J.Obj fields -> J.Obj (fields @ [ ("hoisted", J.Int 0) ])
    | v -> v
  in
  let with_obsolete =
    match j with
    | J.Obj fields ->
      J.Obj
        (List.map
           (function
             | "traces", J.Obj tf ->
               ( "traces",
                 J.Obj
                   (List.map
                      (function
                        | "list", J.List l -> ("list", J.List (List.map add_obsolete l))
                        | kv -> kv)
                      tf
                   @ List.map
                       (fun k -> (k, J.Int 1))
                       [ "hoisted_checks"; "fused_uops"; "cached_slots"; "dead_flags";
                         "inline_hits"; "inline_misses" ]) )
             | kv -> kv)
           fields)
    | _ -> Alcotest.fail "profile JSON is not an object"
  in
  Alcotest.(check bool) "obsolete keys ignored" true (Fastprof.of_json with_obsolete = fp)

(* --- observation is free: counters never change the modeled run --- *)

let test_differential_observation_only () =
  let plain = mpk_prepared () in
  let counted = mpk_prepared () in
  Fastprof.install counted;
  let run p =
    match Framework.run p with
    | Cpu.Halted -> ()
    | Cpu.Out_of_fuel -> Alcotest.fail "run out of fuel"
  in
  run plain;
  run counted;
  let a = plain.Framework.cpu and b = counted.Framework.cpu in
  Alcotest.(check (float 0.0)) "cycles identical" (Cpu.cycles a) (Cpu.cycles b);
  Alcotest.(check int) "insns identical" a.Cpu.counters.Cpu.insns b.Cpu.counters.Cpu.insns;
  Alcotest.(check int) "rip identical" a.Cpu.rip b.Cpu.rip;
  Alcotest.(check bool) "registers identical" true (a.Cpu.gpr = b.Cpu.gpr);
  Alcotest.(check bool) "xmm state identical" true (Bytes.equal a.Cpu.xmm b.Cpu.xmm)

(* --- one counter spine: the hooked profiler's cycles are the CPI rows --- *)

let profiled_run ?(install_first = false) p =
  if install_first then Fastprof.install p;
  let profiler = Profiler.attach p in
  (match Framework.run p with
  | Cpu.Halted -> ()
  | Cpu.Out_of_fuel -> Alcotest.fail "run out of fuel");
  Profiler.stop profiler;
  (profiler, Fastprof.capture p)

let check_spine what (profiler, fp) =
  match fp.Fastprof.p_rows with
  | app :: sites ->
    (* Exact float equality: both sides sum the same cells in the same
       order. *)
    Alcotest.(check (float 0.0)) (what ^ ": app row = residual")
      (Fastprof.row_cycles app) (Profiler.residual profiler).Profiler.r_cycles;
    let rows = Profiler.rows profiler in
    Alcotest.(check int) (what ^ ": one CPI row per site") (List.length rows)
      (List.length sites);
    List.iter2
      (fun (r : Profiler.row) (f : Fastprof.row) ->
        Alcotest.(check int) (what ^ ": row order") r.Profiler.site.Sitemap.orig_rip
          f.Fastprof.fp_rip;
        Alcotest.(check (float 0.0)) (what ^ ": site cycles") (Fastprof.row_cycles f)
          r.Profiler.cycles)
      rows sites
  | [] -> Alcotest.fail "profile has no rows"

let test_profiler_cycles_from_spine () =
  let sfi = Framework.config ~address_kind:Instr.Reads_and_writes Technique.Sfi in
  let mpk =
    Framework.config ~switch_policy:Instr.At_call_ret (Technique.Mpk Mpk.Pkey.No_access)
  in
  List.iter
    (fun (what, cfg) ->
      let prepare () =
        Framework.prepare cfg
          (Workloads.Synth.lowered ~iterations:3 (Workloads.Spec2006.find "429.mcf"))
      in
      let fresh = profiled_run (prepare ()) in
      check_spine what fresh;
      (* A site map installed before attach is replaced, not summed into. *)
      let reinstalled = profiled_run ~install_first:true (prepare ()) in
      check_spine (what ^ " (installed first)") reinstalled;
      List.iter2
        (fun (a : Profiler.row) (b : Profiler.row) ->
          Alcotest.(check (float 0.0)) (what ^ ": install before attach changes nothing")
            a.Profiler.cycles b.Profiler.cycles)
        (Profiler.rows (fst fresh)) (Profiler.rows (fst reinstalled)))
    [ ("SFI-rw", sfi); ("MPK", mpk) ]

let test_sitemap_site_lookup () =
  let sm = Sitemap.create () in
  for i = 0 to 99 do
    ignore (Sitemap.new_site sm ~label:(string_of_int i) ~technique:"t" ~orig_rip:(i * 3))
  done;
  Alcotest.(check int) "site by id" 141 (Sitemap.site sm 47).Sitemap.orig_rip;
  Alcotest.(check (list int)) "sites in id order" (List.init 100 Fun.id)
    (List.map (fun (s : Sitemap.site) -> s.Sitemap.id) (Sitemap.sites sm));
  List.iter
    (fun id ->
      Alcotest.(check bool) (Printf.sprintf "unknown id %d rejected" id) true
        (try ignore (Sitemap.site sm id); false with Invalid_argument _ -> true))
    [ -1; 100; 1000 ]

(* --- flamegraph emitters --- *)

let test_collapsed_emitter () =
  let stacks =
    [
      ([ "MPK"; "site@20"; "gate" ], 110.0);
      ([ "app"; "app"; "base" ], 40.0);
      ([ "MPK"; "site@20"; "gate" ], 10.0);
      ([ "bad;frame\nname" ], 1.0);
      ([ "dropped" ], 0.0);
    ]
  in
  let out = Fg.emit_collapsed stacks in
  (* Repeated stacks merge, first-occurrence order is kept, separators in
     frame names are sanitized so the line stays parseable. *)
  Alcotest.(check string) "collapsed output"
    "MPK;site@20;gate 120\napp;app;base 40\nbad_frame_name 1\n" out

let test_speedscope_emitter () =
  let stacks = [ ([ "a"; "b" ], 2.0); ([ "a"; "c" ], 3.0) ] in
  let j = Fg.to_speedscope ~name:"t" ~unit:"none" stacks in
  let get name v = match J.member name v with Some x -> x | None -> Alcotest.fail name in
  (match get "shared" j |> get "frames" with
  | J.List frames -> Alcotest.(check int) "frames interned" 3 (List.length frames)
  | _ -> Alcotest.fail "frames not a list");
  match get "profiles" j with
  | J.List [ prof ] ->
    (match (get "samples" prof, get "weights" prof, get "endValue" prof) with
    | J.List samples, J.List weights, J.Float total ->
      Alcotest.(check int) "one sample per stack" 2 (List.length samples);
      Alcotest.(check int) "one weight per sample" 2 (List.length weights);
      Alcotest.(check (float 1e-9)) "endValue is total weight" 5.0 total
    | _ -> Alcotest.fail "samples/weights/endValue shape")
  | _ -> Alcotest.fail "expected exactly one profile"

(* --- perf-diff regression flagging --- *)

let test_diff_flags_regressions () =
  let row label rip cycles =
    { Fastprof.fp_label = label; fp_technique = "MPK"; fp_rip = rip;
      fp_classes = [| cycles |] }
  in
  let mk rows =
    { Fastprof.p_workload = "w"; p_technique = "MPK"; p_cycles = 0.0; p_insns = 0;
      p_rows = rows; p_blocks = []; p_traces = []; p_traces_formed = 0;
      p_traces_invalidated = 0; p_trace_covered = 0; p_abort_cold = 0;
      p_abort_indirect = 0; p_abort_cap = 0; p_abort_handler = 0;
      p_compiles = 0; p_invalidations = 0;
      p_l1_evictions = 0; p_l2_evictions = 0; p_l3_evictions = 0; p_tlb_evictions = 0;
      p_walk_cycles = 0 }
  in
  let before = mk [ row "app" (-1) 100.0; row "gate" 20 50.0 ] in
  let after =
    mk [ row "app" (-1) 103.0; row "gate" 20 80.0; row "gate" 44 10.0 ]
  in
  let regs = Fastprof.diff ~threshold:0.05 ~before ~after in
  (* app grew 3% (under threshold): not flagged. gate@20 grew 60%: flagged.
     gate@44 is new: flagged with infinite ratio, sorted first. *)
  match regs with
  | [ first; second ] ->
    Alcotest.(check int) "new row first" 44 first.Fastprof.rg_rip;
    Alcotest.(check bool) "new row has infinite ratio" true
      (first.Fastprof.rg_ratio = infinity);
    Alcotest.(check int) "regressed site flagged" 20 second.Fastprof.rg_rip;
    Alcotest.(check (float 1e-9)) "ratio computed" 1.6 second.Fastprof.rg_ratio
  | l -> Alcotest.failf "expected 2 regressions, got %d" (List.length l)

let suite =
  [
    Alcotest.test_case "bump saturates" `Quick test_bump_saturation;
    Alcotest.test_case "cpi sum invariant" `Quick test_cpi_sum_invariant;
    Alcotest.test_case "site map validation" `Quick test_site_map_validation;
    Alcotest.test_case "fastprof json round-trip" `Quick test_fastprof_json_roundtrip;
    Alcotest.test_case "fastprof json: trace section + leniency" `Quick
      test_fastprof_json_traces;
    Alcotest.test_case "observation-only differential" `Quick test_differential_observation_only;
    Alcotest.test_case "profiler cycles = Fastprof CPI rows" `Quick
      test_profiler_cycles_from_spine;
    Alcotest.test_case "sitemap site lookup by id" `Quick test_sitemap_site_lookup;
    Alcotest.test_case "collapsed flamegraph" `Quick test_collapsed_emitter;
    Alcotest.test_case "speedscope export" `Quick test_speedscope_emitter;
    Alcotest.test_case "perf-diff flags regressions" `Quick test_diff_flags_regressions;
  ]
