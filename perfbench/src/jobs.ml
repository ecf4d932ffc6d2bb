(* The four workloads as lists of jobs, and how one job is built, run and
   checked. A job is one profile under one configuration: generate the
   synthetic program, lower it, prepare the machine, run it. Jobs run one
   at a time in one OCaml domain (a closed loop). *)

open X86sim
open Memsentry
module Profile = Workloads.Profile

(* Synthetic-program iterations per job at full size. 40 is the figure
   harnesses' default. The sweeps that exercise
   the engine run longer: a block needs 64 executions before the trace
   tier forms a superblock, so at 40 iterations no trace ever forms,
   while at 300 the loop profiles run about 80% of their instructions in
   superblocks. *)
let full_iterations = function "addr-sweep" | "domain-gates" -> 300 | _ -> 40
let tiny_iterations = 2

(* The seed whose programs are the committed Profile seeds. *)
let default_seed = 0

type size = Full | Tiny

type kind =
  | Baseline  (** uninstrumented, fast path *)
  | Fast of Framework.config  (** instrumented, fast path *)
  | Profiled of Framework.config
      (** optimized, re-verified, cost-predicted, run with a Profiler *)
  | Smp of Framework.config  (** [smp_vcpus] cores with Fastprof *)

type job = { id : int; prof : Profile.t; cname : string; kind : kind }

type workload = {
  name : string;
  iterations : int;  (** synthetic-program iterations per job *)
  jobs : job list;
  paper : (string * float) list;  (** configs with a paper geomean *)
  vcpus : int;
}

let smp_vcpus = 4

let addr cfg_name kind tech = (cfg_name, Framework.config ~address_kind:kind tech)
let mpk p = Framework.config ~switch_policy:p (Technique.Mpk Mpk.Pkey.No_access)
let vmfunc p = Framework.config ~switch_policy:p Technique.Vmfunc
let crypt p = Framework.config ~switch_policy:p Technique.Crypt

let policies =
  [ ("call-ret", Instr.At_call_ret); ("indirect", Instr.At_indirect_branches); ("syscall", Instr.At_syscalls) ]

(* Paper geomeans: Figure 3 (MPX/SFI at w, r, rw) and Figures 4-6 (MPK,
   VMFUNC, crypt at each switch point), as bench/fig3..6.ml print them. *)
let fig3 =
  [
    (addr "MPX-w" Instr.Writes Technique.Mpx, 1.028);
    (addr "SFI-w" Instr.Writes Technique.Sfi, 1.04);
    (addr "MPX-r" Instr.Reads Technique.Mpx, 1.12);
    (addr "SFI-r" Instr.Reads Technique.Sfi, 1.171);
    (addr "MPX-rw" Instr.Reads_and_writes Technique.Mpx, 1.147);
    (addr "SFI-rw" Instr.Reads_and_writes Technique.Sfi, 1.196);
  ]

let paper_domain =
  [
    ("MPK@call-ret", 2.30); ("VMFUNC@call-ret", 4.57); ("crypt@call-ret", 3.17);
    ("MPK@indirect", 1.34); ("VMFUNC@indirect", 1.82); ("crypt@indirect", 1.60);
    ("MPK@syscall", 1.011); ("VMFUNC@syscall", 1.055); ("crypt@syscall", 1.22);
  ]

let domain_configs techs =
  List.concat_map
    (fun (pname, p) -> List.map (fun (tname, mk) -> (tname ^ "@" ^ pname, mk p)) techs)
    policies

let paper_for names =
  List.filter_map (fun n -> Option.map (fun v -> (n, v)) (List.assoc_opt n paper_domain)) names

(* Profile seeds: the committed ones at [default_seed], otherwise derived
   from (seed, committed seed), so every seed gives every profile its own
   program with the same instruction mix. *)
let reseed ~seed (p : Profile.t) =
  if seed = default_seed then p else { p with Profile.seed = Hashtbl.hash (seed, p.Profile.seed) }

let spec size =
  match size with
  | Full -> Workloads.Spec2006.all
  | Tiny ->
    List.filter
      (fun p -> List.mem p.Profile.name [ "400.perlbench"; "444.namd" ])
      Workloads.Spec2006.all

let servers size =
  match size with
  | Full -> Workloads.Servers.all
  | Tiny -> [ Workloads.Servers.find "nginx-like" ]

let names = [ "addr-sweep"; "domain-gates"; "crypt"; "gateopt-profiled" ]

(* Only addr-sweep, whose Figure 3 baselines are part of what it measures,
   runs uninstrumented baselines in its timed passes. With [baselines],
   every profile's baseline comes first in its group, so overheads can be
   formed from the group alone. *)
let build ~size ~seed ~baselines name =
  let per_profile ?(baselines = baselines) configs kind =
    List.concat_map
      (fun p ->
        let p = reseed ~seed p in
        let jobs = List.map (fun (n, c) -> (p, n, kind c)) configs in
        if baselines then (p, "baseline", Baseline) :: jobs else jobs)
      (spec size)
  in
  let with_ids jobs = List.mapi (fun id (prof, cname, kind) -> { id; prof; cname; kind }) jobs in
  let iterations = match size with Full -> full_iterations name | Tiny -> tiny_iterations in
  let w jobs paper vcpus = { name; iterations; jobs = with_ids jobs; paper; vcpus } in
  match name with
  | "addr-sweep" ->
    let configs = List.map fst fig3 in
    w
      (per_profile ~baselines:true configs (fun c -> Fast c))
      (List.map (fun ((n, _), v) -> (n, v)) fig3)
      1
  | "domain-gates" ->
    let configs = domain_configs [ ("MPK", mpk); ("VMFUNC", vmfunc) ] in
    let smp =
      List.map
        (fun p -> (reseed ~seed p, "MPK@syscall/4vcpu", Smp (mpk Instr.At_syscalls)))
        (servers size)
    in
    w (per_profile configs (fun c -> Fast c) @ smp) (paper_for (List.map fst configs)) smp_vcpus
  | "crypt" ->
    let configs = domain_configs [ ("crypt", crypt) ] in
    w (per_profile configs (fun c -> Fast c)) (paper_for (List.map fst configs)) 1
  | "gateopt-profiled" ->
    let configs =
      [
        addr "SFI-rw" Instr.Reads_and_writes Technique.Sfi;
        addr "MPX-rw" Instr.Reads_and_writes Technique.Mpx;
        addr "ISBoxing-rw" Instr.Reads_and_writes Technique.Isboxing;
        ("MPK@call-ret", mpk Instr.At_call_ret);
        ("VMFUNC@call-ret", vmfunc Instr.At_call_ret);
      ]
    in
    let paper =
      List.filter_map
        (fun (n, _) ->
          match List.find_opt (fun ((m, _), _) -> m = n) fig3 with
          | Some (_, v) -> Some (n, v)
          | None -> List.assoc_opt n paper_domain |> Option.map (fun v -> (n, v)))
        configs
    in
    w (per_profile configs (fun c -> Profiled c)) paper 1
  | other -> invalid_arg ("unknown workload: " ^ other)

let make ~size ~seed name = build ~size ~seed ~baselines:false name

(* The figure harnesses' run length (bench/bench_common.ml). *)
let figure_iterations = 40

(* The model check: the workload's configurations that have a paper
   geomean, and their baselines, built as bench/fig3..6.ml build them
   (committed profile seeds, 40 iterations), whatever the run's seed. *)
let model_check ~size name =
  let w = build ~size ~seed:default_seed ~baselines:true name in
  let jobs = List.filter (fun j -> j.cname = "baseline" || List.mem_assoc j.cname w.paper) w.jobs in
  let iterations = match size with Full -> figure_iterations | Tiny -> tiny_iterations in
  { w with name = name ^ "/model-check"; iterations; jobs }

let key w j = Printf.sprintf "%s/%s/%s" w.name j.prof.Profile.name j.cname

(* ------------------------------------------------------------------ *)
(* Running one job                                                      *)
(* ------------------------------------------------------------------ *)

(* Deterministic per-layer operation counts, summed over the jobs of the
   traced passes. *)
type counts = {
  mutable insns : int;
  mutable covered : int;
  mutable formed : int;
  mutable invalidated : int;
  mutable inline_hits : int;
  mutable inline_misses : int;
  mutable block_execs : int;
  mutable compiles : int;
  mutable tlb_hits : int;
  mutable tlb_misses : int;
  mutable l1_hits : int;
  mutable l2_hits : int;
  mutable l3_hits : int;
  mutable dram : int;
  mutable aes_ops : int;
  mutable vmcalls : int;
  mutable vmfuncs : int;
  mutable wrpkrus : int;
  mutable shootdowns : int;
  cpi : float array;  (** cycles per Pipeline class *)
}

let new_counts () =
  {
    insns = 0; covered = 0; formed = 0; invalidated = 0; inline_hits = 0; inline_misses = 0;
    block_execs = 0; compiles = 0; tlb_hits = 0; tlb_misses = 0; l1_hits = 0; l2_hits = 0;
    l3_hits = 0; dram = 0; aes_ops = 0; vmcalls = 0; vmfuncs = 0; wrpkrus = 0; shootdowns = 0;
    cpi = Array.make Pipeline.cls_count 0.0;
  }

(* Add one core's counters. [shared] is false for all but one core of a
   machine, whose L3 and DRAM counters are socket-wide. *)
let add_cpu c ~shared (cpu : Cpu.t) =
  let k = cpu.Cpu.counters and tier = cpu.Cpu.traces and mmu = cpu.Cpu.mmu in
  c.insns <- c.insns + k.Cpu.insns;
  c.covered <- c.covered + tier.Trace.covered_insns;
  c.formed <- c.formed + tier.Trace.formed_count;
  c.invalidated <- c.invalidated + tier.Trace.invalidated_count;
  c.inline_hits <- c.inline_hits + tier.Trace.inline_hits;
  c.inline_misses <- c.inline_misses + tier.Trace.inline_misses;
  c.block_execs <-
    List.fold_left (fun a s -> a + s.Ublock.s_exec) c.block_execs (Ublock.stats cpu.Cpu.tcache);
  c.compiles <- c.compiles + Ublock.compiles cpu.Cpu.tcache;
  c.tlb_hits <- c.tlb_hits + Tlb.hits mmu.Mmu.tlb;
  c.tlb_misses <- c.tlb_misses + Tlb.misses mmu.Mmu.tlb;
  c.l1_hits <- c.l1_hits + Cache.l1_hits mmu.Mmu.cache;
  c.l2_hits <- c.l2_hits + Cache.l2_hits mmu.Mmu.cache;
  if shared then begin
    c.l3_hits <- c.l3_hits + Cache.l3_hits mmu.Mmu.cache;
    c.dram <- c.dram + Cache.dram_accesses mmu.Mmu.cache
  end;
  c.aes_ops <- c.aes_ops + k.Cpu.aes_ops;
  c.vmcalls <- c.vmcalls + k.Cpu.vmcalls;
  c.vmfuncs <- c.vmfuncs + k.Cpu.vmfuncs;
  c.wrpkrus <- c.wrpkrus + k.Cpu.wrpkrus;
  Array.iteri (fun i v -> c.cpi.(i) <- c.cpi.(i) +. v) (Pipeline.cpi_totals cpu.Cpu.pipe)

(* What one job produced. Timings are host seconds; the rest is modeled
   and deterministic. *)
type result = {
  job : job;
  wall_s : float;  (** the whole job *)
  setup_s : float;  (** generate + lower + prepare (+ optimize/verify/predict) *)
  exec_s : float;  (** inside Framework.run / run_smp *)
  exec_words : float;  (** minor words allocated inside the execution call *)
  insns : int;
  cycles : float;
  switches : int;
  error : string option;  (** why the job failed, [None] when it passed *)
}

(* [all] gathers every job's counts; [fast] only those of jobs on the
   no-hook engine, which the cost reconciliation prices layer by layer. *)
type tracer = {
  spans : Span.recorder;
  all : counts;
  fast : counts;
}

let span tr name f = match tr with None -> f () | Some t -> Span.record t.spans name f

let pool_for (cfg : Framework.config) =
  match cfg.Framework.technique with
  | Technique.Crypt -> Some Ir.Lower.crypt_xmm_pool
  | _ -> None

let status_error = function
  | Cpu.Halted -> None
  | Cpu.Out_of_fuel -> Some "out of fuel"

let rax_error ~expected cpus =
  match List.find_opt (fun cpu -> Cpu.get_gpr cpu Reg.rax <> expected) cpus with
  | None -> None
  | Some cpu ->
    Some (Printf.sprintf "rax %d, interpreter returned %d" (Cpu.get_gpr cpu Reg.rax) expected)

let first_error l = List.find_map Fun.id l

let add_counts tr ~hooked (cpus : Cpu.t array) =
  match tr with
  | None -> ()
  | Some t ->
    let add c =
      Array.iteri (fun i cpu -> add_cpu c ~shared:(i = 0) cpu) cpus;
      c.shootdowns <- c.shootdowns + Mmu.shootdown_count cpus.(0).Cpu.mmu
    in
    add t.all;
    if not hooked then add t.fast

(* Build, run and check one job; returns the machine's cores, the cores
   whose rax the interpreter predicts, and any failure found. *)
let execute tr ~iterations ~setup_done ~timed_exec job =
  let lower ?xmm_pool () =
    let m = span tr "workloads.generate" (fun () -> Workloads.Synth.generate ~iterations job.prof) in
    span tr "ir.lower" (fun () -> Ir.Lower.lower ?xmm_pool m)
  in
  match job.kind with
  | Baseline | Fast _ ->
    let p =
      match job.kind with
      | Fast cfg ->
        let l = lower ?xmm_pool:(pool_for cfg) () in
        span tr "memsentry.prepare" (fun () -> Framework.prepare cfg l)
      | _ ->
        let l = lower () in
        span tr "memsentry.prepare" (fun () -> Framework.prepare_baseline l)
    in
    setup_done ();
    let st = timed_exec (fun () -> span tr "x86sim.run" (fun () -> Framework.run p)) in
    ([| p.Framework.cpu |], [ p.Framework.cpu ], status_error st)
  | Profiled cfg ->
    let l = lower ?xmm_pool:(pool_for cfg) () in
    let p = span tr "memsentry.prepare" (fun () -> Framework.prepare ~optimize:true cfg l) in
    let verify_err =
      span tr "memsentry.verify" (fun () ->
          match Framework.verify_prepared p with
          | Some r when r.Gate_analysis.violations <> [] ->
            Some (Printf.sprintf "%d verifier violations" (List.length r.Gate_analysis.violations))
          | Some _ | None -> None)
    in
    let model =
      span tr "memsentry.cost_model" (fun () ->
          Cost_model.predict p.Framework.program p.Framework.sitemap)
    in
    setup_done ();
    let profiler = span tr "memsentry.profiler" (fun () -> Profiler.attach p) in
    let st = timed_exec (fun () -> span tr "x86sim.run_hooked" (fun () -> Framework.run p)) in
    span tr "memsentry.profiler" (fun () -> Profiler.stop profiler);
    let v = span tr "memsentry.cost_model" (fun () -> Cost_model.validate model profiler) in
    let model_err =
      if v.Cost_model.ok then None
      else Some (Printf.sprintf "%d cost-model violations" v.Cost_model.n_violated)
    in
    ([| p.Framework.cpu |], [ p.Framework.cpu ], first_error [ status_error st; verify_err; model_err ])
  | Smp cfg ->
    let l = lower ?xmm_pool:(pool_for cfg) () in
    let s = span tr "memsentry.prepare" (fun () -> Framework.prepare_smp ~vcpus:smp_vcpus cfg l) in
    setup_done ();
    span tr "memsentry.fastprof" (fun () -> Fastprof.install_smp s);
    let st = timed_exec (fun () -> span tr "x86sim.run" (fun () -> Framework.run_smp s)) in
    ignore (span tr "memsentry.fastprof" (fun () -> Fastprof.capture_smp s));
    (* The cores share the program's globals, so each core's result
       depends on the interleaving and the single-threaded interpreter is
       no oracle for it; the recorded modeled values check these jobs at
       the default seed. *)
    (Machine.cpus s.Framework.machine, [], status_error st)

(* Run one job. [expected_rax] is Ir.Interp's return value for the job's
   generated module. A host exception, a modeled fault or a wrong result
   marks the job failed; it never stops the workload. *)
let run ?tracer:tr ~iterations ~expected_rax job =
  let t_start = Span.now () in
  let setup_end = ref t_start and exec_s = ref 0.0 and exec_words = ref 0.0 in
  let setup_done () = setup_end := Span.now () in
  let timed_exec f =
    let w0 = Gc.minor_words () and t0 = Span.now () in
    let r = f () in
    exec_s := Span.now () -. t0;
    exec_words := Gc.minor_words () -. w0;
    r
  in
  let sum f cpus = Array.fold_left (fun a c -> a + f c.Cpu.counters) 0 cpus in
  let insns, cycles, switches, error =
    try
      let cpus, checked, err = execute tr ~iterations ~setup_done ~timed_exec job in
      add_counts tr ~hooked:(match job.kind with Profiled _ -> true | _ -> false) cpus;
      ( sum (fun k -> k.Cpu.insns) cpus,
        Array.fold_left (fun a c -> Float.max a (Cpu.cycles c)) 0.0 cpus,
        sum (fun k -> k.Cpu.wrpkrus + k.Cpu.vmfuncs) cpus,
        first_error [ err; rax_error ~expected:expected_rax checked ] )
    with e -> (0, 0.0, 0, Some ("exception: " ^ Printexc.to_string e))
  in
  {
    job;
    wall_s = Span.now () -. t_start;
    setup_s = !setup_end -. t_start;
    exec_s = !exec_s;
    exec_words = !exec_words;
    insns;
    cycles;
    switches;
    error;
  }

(* Ir.Interp's return value for a profile's generated module: the oracle
   every build of that profile must halt with in rax. *)
let interp_rax ~iterations prof =
  match (Ir.Interp.run (Workloads.Synth.generate ~iterations prof)).Ir.Interp.return_value with
  | Some v -> v
  | None -> failwith ("interpreter returned nothing for " ^ prof.Profile.name)
