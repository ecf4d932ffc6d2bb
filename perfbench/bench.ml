(* Benchmark driver: run one workload, record the modeled values the
   checks compare against, or compare two result files.

     bench.exe --workload W --seed N --seconds S --trace 0|1 [--out DIR]
     bench.exe record-expected [--expected FILE]
     bench.exe compare BASE.json NEW.json

   A run prints human-readable tables, then as its last line one JSON
   object with the keys correct, attempted, failed and metrics. It exits 1
   when any job failed and 2 on bad arguments or a missing input file. *)

open Ms_util
open Perfbench

let die code fmt = Printf.ksprintf (fun s -> prerr_endline ("bench: " ^ s); exit code) fmt

let manifest ~(w : Jobs.workload) ~seed ~seconds ~traced =
  let cpu = X86sim.Cpu.create () in
  {
    Manifest.schema = Manifest.schema_version;
    commit = Manifest.git_commit ();
    source_digest = Manifest.source_digest [ "lib"; "bin" ];
    bench_digest = Manifest.bench_digest "perfbench";
    workload = w.Jobs.name;
    seed;
    seconds;
    traced;
    vcpus = w.Jobs.vcpus;
    traces_enabled = X86sim.Cpu.traces_enabled cpu;
    trace_fusion = X86sim.Cpu.trace_fusion cpu;
    iterations = w.Jobs.iterations;
    ocaml = Sys.ocaml_version;
    build_profile = Build_info.profile;
    nproc = Domain.recommended_domain_count ();
  }

let load_golden path =
  if not (Sys.file_exists path) then die 2 "missing %s (run record-expected)" path;
  Run.golden_of_json (Json.of_string (In_channel.with_open_bin path In_channel.input_all))

let rec mkdir_p d =
  if d <> "" && d <> "." && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let run_workload ~name ~seed ~seconds ~trace ~out ~expected =
  let size = Jobs.Full in
  let w = try Jobs.make ~size ~seed name with Invalid_argument e -> die 2 "%s" e in
  let s =
    { Run.workload = w; seed; seconds; size; golden = Some (load_golden expected); oracle = Run.oracle w }
  in
  Printf.printf "perfbench: %s, seed %d, %d s, %d jobs per pass, tracing %s\n%!" name seed seconds
    (List.length w.Jobs.jobs)
    (if trace then "on" else "off");
  let o = if trace then Run.traced ~micro_quota:0.2 s else Run.untraced s in
  Printf.printf "\n%d passes, %d jobs attempted, %d failed\n" (List.length o.Run.passes)
    o.Run.attempted_jobs (List.length o.Run.failed);
  List.iteri (fun i (k, e) -> if i < 20 then Printf.printf "  FAILED %s: %s\n" k e) o.Run.failed;
  if not trace then
    Printf.printf "  job_fail_frac %.6g frac\n"
      (float_of_int (List.length o.Run.failed) /. float_of_int o.Run.attempted_jobs);
  Run.print_metrics ~traced:trace o.Run.metrics;
  let manifest = manifest ~w ~seed ~seconds ~traced:trace in
  if out <> "" then begin
    mkdir_p out;
    let base = Printf.sprintf "%s/%s-seed%d-%s" out name seed (if trace then "traced" else "untraced") in
    Json.to_file (base ^ ".json") (Run.result_file_json ~manifest o);
    if trace then Json.to_file (base ^ "-spans.json") (Run.spans_file_json ~manifest o.Run.spans)
  end;
  print_endline (Run.result_line o);
  if o.Run.failed <> [] then exit 1

let record_expected ~expected =
  let size = Jobs.Full and seed = Jobs.default_seed in
  let entries =
    List.concat_map
      (fun name ->
        let w = Jobs.make ~size ~seed name in
        let s =
          { Run.workload = w; seed; seconds = 0; size; golden = None; oracle = Run.oracle w }
        in
        let passes = [ Run.run_pass s; Run.model_pass s ] in
        (match Run.failures passes with
        | [] -> ()
        | (k, e) :: _ -> die 1 "%s failed: %s" k e);
        List.concat_map
          (fun p ->
            List.map
              (fun (k, r) ->
                let i, c, sw = Run.golden_entry r in
                ( k,
                  Json.Obj
                    [ ("insns", Json.Int i); ("cycles", Json.String c); ("switches", Json.Int sw) ] ))
              p.Run.results)
          passes)
      Jobs.names
  in
  let w = Jobs.make ~size ~seed "addr-sweep" in
  let m = { (manifest ~w ~seed ~seconds:0 ~traced:false) with Manifest.workload = "all"; iterations = 0 } in
  Json.to_file expected (Json.Obj [ ("manifest", Manifest.to_json m); ("jobs", Json.Obj entries) ]);
  Printf.printf "recorded %d jobs in %s\n" (List.length entries) expected

let compare_files a b =
  let load path =
    let j = Json.of_string (In_channel.with_open_bin path In_channel.input_all) in
    match (Json.member "manifest" j, Json.member "metrics" j) with
    | Some mf, Some (Json.Obj ms) -> (Manifest.of_json mf, ms)
    | _ -> die 2 "%s is not a result file" path
  in
  let ma, xa = load a and mb, xb = load b in
  (match Manifest.mismatches ma mb with
  | [] -> ()
  | fs -> die 2 "refusing to compare: manifests differ in %s" (String.concat ", " fs));
  let value j = match Json.member "value" j with Some (Json.Float f) -> f | Some (Json.Int i) -> float_of_int i | _ -> Float.nan in
  Printf.printf "%-44s %14s %14s %8s\n" "metric" "base" "new" "new/base";
  List.iter
    (fun (k, ja) ->
      match List.assoc_opt k xb with
      | Some jb ->
        let va = value ja and vb = value jb in
        Printf.printf "%-44s %14.6g %14.6g %8.4f\n" k va vb (vb /. va)
      | None -> Printf.printf "%-44s %14.6g %14s\n" k (value ja) "absent")
    xa

let () =
  let workload = ref "" and seed = ref Jobs.default_seed and seconds = ref 10 in
  let trace = ref 0 and out = ref "perfbench/results" in
  let expected = ref "perfbench/expected.json" and anon = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  one of " ^ String.concat ", " Jobs.names);
      ("--seed", Arg.Set_int seed, "N  input seed (0 = the committed profile seeds)");
      ("--seconds", Arg.Set_int seconds, "S  run length");
      ("--trace", Arg.Set_int trace, "0|1  1 = traced per-layer run");
      ("--out", Arg.Set_string out, "DIR  where result files go (\"\" = none)");
      ("--expected", Arg.Set_string expected, "FILE  recorded modeled values");
    ]
  in
  let usage = "bench.exe --workload W --seed N --seconds S --trace 0|1 | record-expected | compare A B" in
  (try Arg.parse_argv Sys.argv spec (fun a -> anon := a :: !anon) usage with
  | Arg.Bad msg -> die 2 "%s" msg
  | Arg.Help msg -> print_string msg; exit 0);
  match List.rev !anon with
  | [ "record-expected" ] -> record_expected ~expected:!expected
  | [ "compare"; a; b ] -> compare_files a b
  | [] ->
    if !trace <> 0 && !trace <> 1 then die 2 "--trace must be 0 or 1";
    if !seconds < 0 then die 2 "--seconds must be >= 0";
    run_workload ~name:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~out:!out
      ~expected:!expected
  | _ -> die 2 "%s" usage
