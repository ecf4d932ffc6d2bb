(* The telemetry subsystem: metrics registry, JSON round-trips, typed
   events, span matching, and gate-site attributed profiling end to end. *)

open X86sim
open Memsentry
module J = Ms_util.Json
module M = Ms_util.Metrics

(* --- metrics registry --- *)

let test_counter_basics () =
  let reg = M.registry () in
  let c = M.counter reg "crossings" in
  M.incr c;
  M.incr ~by:41 c;
  Alcotest.(check int) "accumulates" 42 (M.value c);
  Alcotest.(check int) "find-or-create returns same instrument" 42
    (M.value (M.counter reg "crossings"));
  Alcotest.(check bool) "negative increment rejected" true
    (try M.incr ~by:(-1) c; false with Invalid_argument _ -> true)

let test_counter_labels () =
  let reg = M.registry () in
  let a = M.counter reg ~labels:[ ("site", "0"); ("technique", "MPK") ] "crossings" in
  let b = M.counter reg ~labels:[ ("site", "1"); ("technique", "MPK") ] "crossings" in
  (* Label order must not matter: same dimensions = same instrument. *)
  let a' = M.counter reg ~labels:[ ("technique", "MPK"); ("site", "0") ] "crossings" in
  M.incr a;
  M.incr ~by:2 b;
  M.incr a';
  Alcotest.(check int) "labeled separately" 2 (M.value a);
  Alcotest.(check int) "other dimension untouched" 2 (M.value b);
  Alcotest.(check int) "three series registered" 3
    (List.length (List.filter (fun ((n, _), _) -> n = "crossings") (M.counters reg))
     + 1)

let test_kind_conflict () =
  let reg = M.registry () in
  ignore (M.counter reg "x");
  Alcotest.(check bool) "histogram under counter name raises" true
    (try ignore (M.histogram reg "x"); false with Invalid_argument _ -> true)

let test_histogram_empty () =
  let reg = M.registry () in
  let h = M.histogram reg "latency" in
  Alcotest.(check int) "no samples" 0 (M.count h);
  Alcotest.(check (float 0.0)) "empty p50 is 0" 0.0 (M.p50 h);
  Alcotest.(check (float 0.0)) "empty p99 is 0" 0.0 (M.p99 h);
  Alcotest.(check (float 0.0)) "empty mean is 0" 0.0 (M.mean h)

let test_histogram_percentiles () =
  let reg = M.registry () in
  let h = M.histogram reg "latency" in
  (* 1..1000: the sketch must place percentiles within its ~4.5% bucket
     relative error. *)
  for v = 1 to 1000 do
    M.observe h (float_of_int v)
  done;
  Alcotest.(check int) "count" 1000 (M.count h);
  let within p expected =
    let v = M.percentile h p in
    Alcotest.(check bool)
      (Printf.sprintf "p%.0f=%.1f within 5%% of %.0f" p v expected)
      true
      (Float.abs (v -. expected) /. expected < 0.05)
  in
  within 50.0 500.0;
  within 95.0 950.0;
  within 99.0 990.0;
  Alcotest.(check bool) "p0 is the floor" true (M.percentile h 0.0 <= M.percentile h 50.0);
  Alcotest.(check bool) "p100 is the ceiling" true (M.percentile h 100.0 >= 950.0);
  Alcotest.(check bool) "out-of-range percentile raises" true
    (try ignore (M.percentile h 101.0); false with Invalid_argument _ -> true)

let test_histogram_zero_bucket () =
  let reg = M.registry () in
  let h = M.histogram reg "latency" in
  M.observe h 0.0;
  M.observe h (-5.0);
  M.observe h Float.nan;
  Alcotest.(check int) "all land in the zeros bucket" 3 (M.count h);
  Alcotest.(check (float 0.0)) "p99 of zeros is 0" 0.0 (M.p99 h);
  M.observe h 100.0;
  Alcotest.(check bool) "p99 escapes the zeros bucket" true (M.p99 h > 90.0)

let test_metrics_json () =
  let reg = M.registry () in
  M.incr ~by:7 (M.counter reg ~labels:[ ("site", "3") ] "crossings");
  M.observe (M.histogram reg "residency") 10.0;
  let j = M.to_json reg in
  (* The export must survive the repo's own JSON parser. *)
  let reparsed = J.of_string (J.to_string ~pretty:true j) in
  Alcotest.(check bool) "round-trips" true (J.equal j reparsed);
  match (J.member "counters" j, J.member "histograms" j) with
  | Some (J.List [ c ]), Some (J.List [ _ ]) ->
    Alcotest.(check bool) "counter value present" true (J.member "value" c = Some (J.Int 7))
  | _ -> Alcotest.fail "expected one counter and one histogram"

(* --- JSON parser --- *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("s", J.String "a\"b\\c\n\t\x01é");
        ("i", J.Int (-42));
        ("f", J.Float 1.5);
        ("whole", J.Float 3.0);
        ("z", J.Null);
        ("b", J.Bool true);
        ("l", J.List [ J.Int 1; J.List []; J.Obj [] ]);
      ]
  in
  Alcotest.(check bool) "compact round-trips" true (J.equal v (J.of_string (J.to_string v)));
  Alcotest.(check bool) "pretty round-trips" true
    (J.equal v (J.of_string (J.to_string ~pretty:true v)));
  Alcotest.(check bool) "whole float stays a float" true
    (match J.of_string (J.to_string (J.Float 3.0)) with J.Float _ -> true | _ -> false);
  Alcotest.(check bool) "garbage rejected" true
    (try ignore (J.of_string "{\"a\": }"); false with J.Parse_error _ -> true);
  Alcotest.(check bool) "trailing junk rejected" true
    (try ignore (J.of_string "1 2"); false with J.Parse_error _ -> true)

(* Mutation fuzz: valid documents over the whole data model, broken by
   byte flips, truncations and splices of another document's bytes. The
   parser may accept or reject each input, but the only exception it may
   raise is [Parse_error]. *)
let gen_json =
  QCheck.Gen.(
    fix
      (fun self depth ->
        let leaf =
          oneof
            [
              return J.Null;
              map (fun b -> J.Bool b) bool;
              map (fun i -> J.Int i) int;
              map (fun f -> J.Float f) float;
              map (fun s -> J.String s) (string_size ~gen:char (int_bound 8));
            ]
        in
        if depth = 0 then leaf
        else
          frequency
            [
              (2, leaf);
              (1, map (fun l -> J.List l) (list_size (int_bound 4) (self (depth - 1))));
              ( 1,
                map
                  (fun l -> J.Obj l)
                  (list_size (int_bound 4)
                     (pair (string_size ~gen:printable (int_bound 5)) (self (depth - 1)))) );
            ])
      3)

let mutate doc donor (kind, a, b) =
  let n = String.length doc in
  match kind with
  | 0 when n > 0 ->
    let bytes = Bytes.of_string doc in
    Bytes.set bytes (a mod n) (Char.chr (b land 255));
    Bytes.to_string bytes
  | 1 -> String.sub doc 0 (a mod (n + 1))
  | _ ->
    let pos = a mod (n + 1) in
    let start = b mod (String.length donor + 1) in
    let len = min 16 (String.length donor - start) in
    String.sub doc 0 pos ^ String.sub donor start len ^ String.sub doc pos (n - pos)

let gen_mutated_json =
  QCheck.Gen.(
    gen_json >>= fun doc ->
    gen_json >>= fun donor ->
    bool >>= fun pretty ->
    list_size (int_range 1 4) (triple (int_bound 2) nat nat) >|= fun ops ->
    List.fold_left
      (fun s op -> mutate s (J.to_string donor) op)
      (J.to_string ~pretty doc) ops)

let prop_json_mutation_fuzz =
  QCheck.Test.make ~name:"json: mutated documents raise only Parse_error" ~count:2000
    (QCheck.make ~print:String.escaped gen_mutated_json)
    (fun s ->
      match J.of_string s with
      | _ -> true
      | exception J.Parse_error _ -> true
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

(* --- typed events and span matching --- *)

let test_gate_events_from_wrpkru () =
  let cpu = Cpu.create () in
  let items =
    (Program.Label "main"
     :: List.map (fun x -> Program.I x)
          (Mpk.Pkey.open_seq @ Mpk.Pkey.close_seq ~key:1 ~protection:Mpk.Pkey.No_access))
    @ [ Program.I Insn.Halt ]
  in
  Cpu.load_program cpu (Program.assemble items);
  let events = ref [] in
  let id = Cpu.add_event_hook cpu (fun e -> events := e :: !events) in
  ignore (Cpu.run cpu);
  Cpu.remove_event_hook cpu id;
  let gates =
    List.filter_map
      (function
        | Event.Gate_enter _ -> Some `Enter | Event.Gate_exit _ -> Some `Exit | _ -> None)
      (List.rev !events)
  in
  Alcotest.(check bool) "open then close" true (gates = [ `Enter; `Exit ])

let test_event_hook_removal () =
  let cpu = Cpu.create () in
  Alcotest.(check bool) "no hooks initially" false (Cpu.has_event_hooks cpu);
  let seen = ref 0 in
  let id = Cpu.add_event_hook cpu (fun _ -> incr seen) in
  Cpu.emit cpu (Event.Vm_exit { rip = 0; reason = "test" });
  Cpu.remove_event_hook cpu id;
  Cpu.emit cpu (Event.Vm_exit { rip = 1; reason = "test" });
  Alcotest.(check int) "only the subscribed emit seen" 1 !seen

let gate = Event.Seq "test"

let test_spans_nested () =
  let cpu = Cpu.create () in
  let rec_ = Tracer.record_spans cpu in
  Cpu.emit cpu (Event.Gate_enter { rip = 1; gate });
  Cpu.emit cpu (Event.Gate_enter { rip = 2; gate });
  Cpu.emit cpu (Event.Gate_exit { rip = 3; gate });
  Cpu.emit cpu (Event.Gate_exit { rip = 4; gate });
  Tracer.stop rec_;
  match Tracer.spans rec_ with
  | [ inner; outer ] ->
    Alcotest.(check int) "inner enter" 2 inner.Tracer.enter_rip;
    Alcotest.(check int) "inner depth" 1 inner.Tracer.depth;
    Alcotest.(check bool) "inner closed" true inner.Tracer.closed;
    Alcotest.(check int) "outer enter" 1 outer.Tracer.enter_rip;
    Alcotest.(check int) "outer exit" 4 outer.Tracer.exit_rip;
    Alcotest.(check int) "outer depth" 0 outer.Tracer.depth;
    Alcotest.(check int) "nothing unmatched" 0 (Tracer.unmatched_exits rec_)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_spans_unbalanced () =
  let cpu = Cpu.create () in
  let rec_ = Tracer.record_spans cpu in
  Cpu.emit cpu (Event.Gate_exit { rip = 1; gate });
  Cpu.emit cpu (Event.Gate_enter { rip = 2; gate });
  Alcotest.(check int) "one dangling enter" 1 (Tracer.open_spans rec_);
  Tracer.stop rec_;
  Alcotest.(check int) "stray exit counted" 1 (Tracer.unmatched_exits rec_);
  (match Tracer.spans rec_ with
  | [ s ] -> Alcotest.(check bool) "force-closed span marked" false s.Tracer.closed
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans));
  Alcotest.(check int) "stop closed everything" 0 (Tracer.open_spans rec_);
  Tracer.stop rec_ (* idempotent *)

(* --- perf report --- *)

let test_perf_report_safe_rates () =
  (* A machine that never ran: every denominator is zero, and every rate
     must be 1.0 (a level with no traffic served all of it), never nan. *)
  let r = Perf_report.capture (Cpu.create ()) in
  Alcotest.(check (float 0.0)) "l1 rate" 1.0 r.Perf_report.l1_hit_rate;
  Alcotest.(check (float 0.0)) "l2 rate" 1.0 r.Perf_report.l2_hit_rate;
  Alcotest.(check (float 0.0)) "l3 rate" 1.0 r.Perf_report.l3_hit_rate;
  Alcotest.(check (float 0.0)) "tlb rate" 1.0 r.Perf_report.tlb_hit_rate;
  let j = Perf_report.to_json r in
  Alcotest.(check bool) "json round-trips" true
    (J.equal j (J.of_string (J.to_string j)))

(* --- end-to-end: MPK profile --- *)

let mpk_profiled () =
  let prof = Workloads.Spec2006.find "429.mcf" in
  let cfg =
    Framework.config ~switch_policy:Instr.At_call_ret (Technique.Mpk Mpk.Pkey.No_access)
  in
  let lowered = Workloads.Synth.lowered ~iterations:3 prof in
  let p = Framework.prepare cfg lowered in
  let profiler = Profiler.attach p in
  (match Framework.run p with
  | Cpu.Halted -> ()
  | Cpu.Out_of_fuel -> Alcotest.fail "did not halt");
  Profiler.stop profiler;
  (p, profiler)

let test_mpk_crossings_equal_wrpkrus () =
  let p, profiler = mpk_profiled () in
  let wrpkrus = p.Framework.cpu.Cpu.counters.Cpu.wrpkrus in
  Alcotest.(check bool) "workload switches domains" true (wrpkrus > 0);
  (* Every crossing executes exactly one wrpkru: the attribution must
     account for each of them, none double counted, none missed. *)
  Alcotest.(check int) "total crossings = wrpkrus" wrpkrus
    (Profiler.total_crossings profiler);
  Alcotest.(check int) "each open+close pair is one span" (wrpkrus / 2)
    (List.length (Profiler.spans profiler));
  Alcotest.(check int) "no stray exits" 0 (Profiler.unmatched_exits profiler);
  Alcotest.(check int) "no checks for a domain-based technique" 0
    (Profiler.total_checks profiler);
  Alcotest.(check bool) "gates cost cycles" true (Profiler.overhead_cycles profiler > 0.0);
  List.iter
    (fun (r : Profiler.row) ->
      Alcotest.(check bool) "crossings are enter+exit pairs" true (r.Profiler.crossings mod 2 = 0))
    (Profiler.rows profiler)

let test_mpx_checks_counted () =
  let prof = Workloads.Spec2006.find "429.mcf" in
  let cfg = Framework.config Technique.Mpx in
  let lowered = Workloads.Synth.lowered ~iterations:2 prof in
  let p = Framework.prepare cfg lowered in
  let profiler = Profiler.attach p in
  ignore (Framework.run p);
  Profiler.stop profiler;
  Alcotest.(check bool) "checks executed" true (Profiler.total_checks profiler > 0);
  Alcotest.(check int) "no crossings for address-based" 0
    (Profiler.total_crossings profiler);
  Alcotest.(check int) "no spans for address-based" 0
    (List.length (Profiler.spans profiler))

let test_profile_json_roundtrip () =
  let _, profiler = mpk_profiled () in
  let j = Profiler.to_json profiler in
  (* The golden property behind `profile --json`: what we write, our own
     parser reads back identically. *)
  let reparsed = J.of_string (J.to_string ~pretty:true j) in
  Alcotest.(check bool) "profile JSON round-trips" true (J.equal j reparsed);
  (match J.member "sites" j with
  | Some (J.List sites) ->
    Alcotest.(check bool) "has sites" true (sites <> []);
    List.iter
      (fun s ->
        Alcotest.(check bool) "site rows carry crossings" true
          (J.member "crossings" s <> None))
      sites
  | _ -> Alcotest.fail "profile JSON lacks sites");
  Alcotest.(check bool) "report renders" true
    (String.length (Report.site_table profiler) > 100)

let test_chrome_trace_valid () =
  let _, profiler = mpk_profiled () in
  let trace = J.of_string (J.to_string (Profiler.trace_json profiler)) in
  match J.member "traceEvents" trace with
  | Some (J.List events) ->
    let complete =
      List.filter (fun e -> J.member "ph" e = Some (J.String "X")) events
    in
    Alcotest.(check int) "one X event per span" (List.length (Profiler.spans profiler))
      (List.length complete);
    List.iter
      (fun e ->
        let has k = J.member k e <> None in
        Alcotest.(check bool) "event is well-formed" true
          (has "name" && has "ts" && has "dur" && has "pid" && has "tid");
        match J.member "args" e with
        | Some args ->
          Alcotest.(check bool) "span annotated with site" true (J.member "site" args <> None)
        | None -> Alcotest.fail "X event lacks args")
      complete
  | _ -> Alcotest.fail "no traceEvents array"

let test_crypt_synthetic_spans () =
  (* Crypt has no hardware gate instruction; the profiler's injected Seq
     events must still produce balanced spans. *)
  let prof = Workloads.Spec2006.find "429.mcf" in
  let cfg = Framework.config ~switch_policy:Instr.At_call_ret Technique.Crypt in
  let lowered =
    Workloads.Synth.lowered ~iterations:2 ~xmm_pool:Ir.Lower.crypt_xmm_pool prof
  in
  let p = Framework.prepare cfg lowered in
  let profiler = Profiler.attach p in
  ignore (Framework.run p);
  Profiler.stop profiler;
  let crossings = Profiler.total_crossings profiler in
  Alcotest.(check bool) "crossings observed" true (crossings > 0);
  Alcotest.(check int) "balanced spans" (crossings / 2)
    (List.length (Profiler.spans profiler));
  Alcotest.(check int) "no stray exits" 0 (Profiler.unmatched_exits profiler)

let suite =
  [
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "counter label dimensions" `Quick test_counter_labels;
    Alcotest.test_case "instrument kind conflict" `Quick test_kind_conflict;
    Alcotest.test_case "histogram empty" `Quick test_histogram_empty;
    Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
    Alcotest.test_case "histogram zero bucket" `Quick test_histogram_zero_bucket;
    Alcotest.test_case "metrics json export" `Quick test_metrics_json;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_json_mutation_fuzz;
    Alcotest.test_case "wrpkru gate events" `Quick test_gate_events_from_wrpkru;
    Alcotest.test_case "event hook removal" `Quick test_event_hook_removal;
    Alcotest.test_case "nested spans" `Quick test_spans_nested;
    Alcotest.test_case "unbalanced spans" `Quick test_spans_unbalanced;
    Alcotest.test_case "perf report safe rates" `Quick test_perf_report_safe_rates;
    Alcotest.test_case "mpk crossings = wrpkrus" `Quick test_mpk_crossings_equal_wrpkrus;
    Alcotest.test_case "mpx checks counted" `Quick test_mpx_checks_counted;
    Alcotest.test_case "profile json round-trip" `Quick test_profile_json_roundtrip;
    Alcotest.test_case "chrome trace valid" `Quick test_chrome_trace_valid;
    Alcotest.test_case "crypt synthetic spans" `Quick test_crypt_synthetic_spans;
  ]
