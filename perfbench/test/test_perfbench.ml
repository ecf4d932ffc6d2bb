(* Tests of the benchmark's own code: its reductions, its provenance
   manifest, a tiny end-to-end run of every workload, and the failure
   accounting. *)

open Ms_util
open Perfbench

let feq = Alcotest.float 1e-12

let test_geomeans_and_model_err () =
  let rows =
    [
      ("a", "baseline", 100.0); ("a", "X", 110.0); ("a", "Y", 300.0);
      ("b", "baseline", 200.0); ("b", "X", 240.0);
      (* no baseline for c: its row cannot be normalized and is skipped *)
      ("c", "X", 999.0);
    ]
  in
  let geos = Run.geomeans rows in
  Alcotest.(check (list string)) "configs in order" [ "X"; "Y" ] (List.map fst geos);
  Alcotest.check feq "X geomean" (sqrt (1.1 *. 1.2)) (List.assoc "X" geos);
  Alcotest.check feq "Y geomean" 3.0 (List.assoc "Y" geos);
  (* Z has a paper value but was not run: it does not count *)
  let err = Run.model_err ~paper:[ ("X", 1.0); ("Y", 6.0); ("Z", 2.0) ] geos in
  Alcotest.check feq "mean |ln ratio|"
    ((Float.abs (log (sqrt (1.1 *. 1.2))) +. Float.abs (log 0.5)) /. 2.0)
    err

let span ~id ~parent name start stop = { Span.id; parent; job = 0; name; start; stop }

let test_self_times () =
  let spans =
    [
      span ~id:0 ~parent:(-1) "job" 0.0 10.0;
      span ~id:1 ~parent:0 "a" 1.0 4.0;
      (* overlaps a: the union of the children, 1..6, is subtracted once *)
      span ~id:2 ~parent:0 "b" 3.0 6.0;
      span ~id:3 ~parent:1 "c" 2.0 3.0;
      (* a second "a" adds to the same total *)
      span ~id:4 ~parent:0 "a" 7.0 8.0;
    ]
  in
  let st = Span.self_times spans in
  Alcotest.(check (list string)) "first-appearance order" [ "job"; "a"; "b"; "c" ] (List.map fst st);
  Alcotest.check feq "job: 10 - |1..6 u 7..8|" 4.0 (List.assoc "job" st);
  Alcotest.check feq "a" 3.0 (List.assoc "a" st);
  Alcotest.check feq "b" 3.0 (List.assoc "b" st);
  Alcotest.check feq "c" 1.0 (List.assoc "c" st)

let test_recorder_nesting () =
  let r = Span.create () in
  Span.set_job r 7;
  Span.record r "outer" (fun () -> Span.record r "inner" ignore);
  (try Span.record r "raises" (fun () -> failwith "boom") with Failure _ -> ());
  match Span.spans r with
  | [ inner; outer; raises ] ->
    Alcotest.(check string) "inner first to close" "inner" inner.Span.name;
    Alcotest.(check int) "inner's parent" outer.Span.id inner.Span.parent;
    Alcotest.(check int) "root" (-1) outer.Span.parent;
    Alcotest.(check int) "job id" 7 inner.Span.job;
    Alcotest.(check int) "closed on exception, at top level" (-1) raises.Span.parent;
    Alcotest.(check bool) "ordered" true (inner.Span.start >= outer.Span.start && inner.Span.stop <= outer.Span.stop)
  | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l)

let manifest =
  {
    Manifest.schema = Manifest.schema_version; commit = "abc"; source_digest = "d41d8";
    bench_digest = "9e107"; workload = "crypt"; seed = 3; seconds = 20; traced = false; vcpus = 1;
    traces_enabled = true; trace_fusion = true; iterations = 40; ocaml = "5.1.1";
    build_profile = "release"; nproc = 2;
  }

let test_manifest_round_trip () =
  let back = Manifest.of_json (Json.of_string (Json.to_string (Manifest.to_json manifest))) in
  Alcotest.(check bool) "round trip" true (back = manifest);
  let other = { manifest with Manifest.commit = "def"; source_digest = "x"; seed = 9 } in
  Alcotest.(check (list string)) "code and seed may differ" [] (Manifest.mismatches manifest other);
  let other =
    { manifest with Manifest.bench_digest = "e4d90"; seconds = 10; trace_fusion = false; nproc = 4 }
  in
  Alcotest.(check (list string)) "settings may not"
    [ "bench_digest"; "seconds"; "trace_fusion"; "nproc" ]
    (Manifest.mismatches manifest other)

let declared kind =
  let j = Json.of_string (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all) in
  match Json.member kind j with
  | Some (Json.List ms) ->
    List.map
      (fun x ->
        match (Json.member "name" x, Json.member "unit" x) with
        | Some (Json.String n), Some (Json.String u) -> (n, u)
        | _ -> Alcotest.fail "malformed metric")
      ms
  | _ -> Alcotest.failf "BENCHMARK.json has no %s" kind

let settings ?oracle name =
  let w = Jobs.make ~size:Jobs.Tiny ~seed:5 name in
  let oracle = match oracle with Some f -> f (Run.oracle w) | None -> Run.oracle w in
  { Run.workload = w; seed = 5; seconds = 0; size = Jobs.Tiny; golden = None; oracle }

let check_emitted ~kind (o : Run.outcome) =
  Alcotest.(check (list (pair string string))) "no job failed" [] o.Run.failed;
  List.iter
    (fun (n, u) ->
      match List.find_opt (fun x -> x.Run.name = n) o.Run.metrics with
      | Some x ->
        Alcotest.(check string) (n ^ " unit") u x.Run.unit_;
        Alcotest.(check bool) (n ^ " is a number") false (Float.is_nan x.Run.value)
      | None -> Alcotest.failf "%s not emitted" n)
    (declared kind)

let test_smoke name () =
  check_emitted ~kind:"end_to_end" (Run.untraced (settings name));
  check_emitted ~kind:"per_layer" (Run.traced ~micro_quota:0.001 (settings name))

let test_wrong_result_counted () =
  let wrong f (p : Workloads.Profile.t) =
    if p.Workloads.Profile.name = "400.perlbench" then f p + 1 else f p
  in
  let s = settings ~oracle:wrong "addr-sweep" in
  let o = Run.untraced s in
  let perl =
    List.length
      (List.filter
         (fun (j : Jobs.job) -> j.Jobs.prof.Workloads.Profile.name = "400.perlbench")
         s.Run.workload.Jobs.jobs)
  in
  Alcotest.(check int) "every perlbench job failed" (perl * List.length o.Run.passes)
    (List.length o.Run.failed);
  let ok = List.find (fun x -> x.Run.name = "job_ok_frac") o.Run.metrics in
  Alcotest.check feq "job_ok_frac"
    (1.0 -. (float_of_int (List.length o.Run.failed) /. float_of_int o.Run.attempted_jobs))
    ok.Run.value;
  Alcotest.(check bool) "result line says incorrect" true
    (match Json.member "correct" (Json.of_string (Run.result_line o)) with
    | Some (Json.Bool b) -> not b
    | _ -> false)

let () =
  Alcotest.run "perfbench"
    [
      ( "reductions",
        [
          Alcotest.test_case "geomeans and model_err_vs_paper" `Quick test_geomeans_and_model_err;
          Alcotest.test_case "self times" `Quick test_self_times;
          Alcotest.test_case "recorder nesting" `Quick test_recorder_nesting;
        ] );
      ("manifest", [ Alcotest.test_case "round trip and mismatches" `Quick test_manifest_round_trip ]);
      ( "runs",
        List.map (fun w -> Alcotest.test_case ("tiny " ^ w) `Quick (test_smoke w)) Jobs.names
        @ [ Alcotest.test_case "wrong result counted" `Quick test_wrong_result_counted ] );
    ]
