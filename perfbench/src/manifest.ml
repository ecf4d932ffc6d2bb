(* Provenance stamped into every result file the benchmark writes, so a
   comparison cannot mix up runs made under different settings. *)

open Ms_util

type t = {
  schema : int;
  commit : string;  (** git HEAD, or ["none"] outside a git checkout *)
  source_digest : string;  (** digest of the code under test: [lib/] and [bin/] *)
  bench_digest : string;  (** digest of the benchmark itself: every file under [perfbench/] *)
  workload : string;
  seed : int;
  seconds : int;  (** run length *)
  traced : bool;
  vcpus : int;  (** largest machine the workload builds *)
  traces_enabled : bool;  (** superblock tier on a fresh CPU *)
  trace_fusion : bool;  (** trace-lane optimizer on a fresh CPU *)
  iterations : int;  (** synthetic-program iterations per job *)
  ocaml : string;
  build_profile : string;
  nproc : int;
}

let schema_version = 1

(* Fields allowed to differ between two runs that are compared: the code
   under test and the input seed. Everything else, the benchmark's own
   code and recorded values included, is a setting. *)
let free_fields = [ "commit"; "source_digest"; "seed" ]

let fields m =
  Json.
    [
      ("schema", Int m.schema);
      ("commit", String m.commit);
      ("source_digest", String m.source_digest);
      ("bench_digest", String m.bench_digest);
      ("workload", String m.workload);
      ("seed", Int m.seed);
      ("seconds", Int m.seconds);
      ("traced", Bool m.traced);
      ("vcpus", Int m.vcpus);
      ("traces_enabled", Bool m.traces_enabled);
      ("trace_fusion", Bool m.trace_fusion);
      ("iterations", Int m.iterations);
      ("ocaml", String m.ocaml);
      ("build_profile", String m.build_profile);
      ("nproc", Int m.nproc);
    ]

let to_json m = Json.Obj (fields m)

let of_json j =
  let get k =
    match Json.member k j with Some v -> v | None -> failwith ("manifest: missing " ^ k)
  in
  let int k = match get k with Json.Int i -> i | _ -> failwith ("manifest: " ^ k) in
  let str k = match get k with Json.String s -> s | _ -> failwith ("manifest: " ^ k) in
  let bool k = match get k with Json.Bool b -> b | _ -> failwith ("manifest: " ^ k) in
  {
    schema = int "schema";
    commit = str "commit";
    source_digest = str "source_digest";
    bench_digest = str "bench_digest";
    workload = str "workload";
    seed = int "seed";
    seconds = int "seconds";
    traced = bool "traced";
    vcpus = int "vcpus";
    traces_enabled = bool "traces_enabled";
    trace_fusion = bool "trace_fusion";
    iterations = int "iterations";
    ocaml = str "ocaml";
    build_profile = str "build_profile";
    nproc = int "nproc";
  }

(* Names of the setting fields on which [a] and [b] differ; [] means the
   two runs may be compared. *)
let mismatches a b =
  List.filter_map
    (fun ((k, va), (_, vb)) ->
      if List.mem k free_fields || Json.equal va vb then None else Some k)
    (List.combine (fields a) (fields b))

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The commit of a git checkout in the current directory, read from .git
   directly so no subprocess is needed; ["none"] elsewhere. *)
let git_commit () =
  let trim = String.trim in
  try
    let head = trim (read_file ".git/HEAD") in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then begin
      let r = String.sub head 5 (String.length head - 5) in
      if Sys.file_exists (".git/" ^ r) then trim (read_file (".git/" ^ r))
      else
        let packed = String.split_on_char '\n' (read_file ".git/packed-refs") in
        match
          List.find_opt
            (fun l -> String.length l > 41 && String.sub l 41 (String.length l - 41) = r)
            packed
        with
        | Some l -> String.sub l 0 40
        | None -> "none"
    end
    else head
  with Sys_error _ -> "none"

(* Digest of the files under [dirs] that [keep] accepts, in sorted path
   order: identifies the code a run measured even without git. Build
   output, dot files and the benchmark's result directory are skipped. *)
let digest_tree ~keep dirs =
  let rec walk acc path =
    if Sys.is_directory path then
      Array.fold_left
        (fun acc e ->
          if e = "_build" || e = "results" || e.[0] = '.' then acc
          else walk acc (Filename.concat path e))
        acc
        (let es = Sys.readdir path in
         Array.sort compare es;
         es)
    else if keep path then Digest.string path :: Digest.file path :: acc
    else acc
  in
  let ds = List.fold_left (fun acc d -> if Sys.file_exists d then walk acc d else acc) [] dirs in
  Digest.to_hex (Digest.string (String.concat "" (List.rev ds)))

(* The OCaml sources and dune files of the code under test. *)
let source_digest dirs =
  digest_tree dirs ~keep:(fun path ->
      Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
      || Filename.basename path = "dune")

(* Every file of the benchmark: its code, build files and recorded
   modeled values. *)
let bench_digest dir = digest_tree [ dir ] ~keep:(fun _ -> true)
