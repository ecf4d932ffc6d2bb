open X86sim

let src = Logs.Src.create "memsentry" ~doc:"MemSentry framework events"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  technique : Technique.t;
  address_kind : Instr.access_kind;
  switch_policy : Instr.switch_policy;
  crypt_seed : int;
  crypt_keys : Instr_crypt.key_location;
}

let config ?(address_kind = Instr.Reads_and_writes) ?(switch_policy = Instr.At_safe_accesses)
    ?(crypt_seed = 1) ?(crypt_keys = Instr_crypt.Ymm_high) technique =
  { technique; address_kind; switch_policy; crypt_seed; crypt_keys }

type prepared = {
  cpu : Cpu.t;
  program : Program.t;
  regions : Safe_region.region list;
  hypervisor : Vmx.Hypervisor.t option;
  cfg : config;
  sitemap : Sitemap.t;
  opt_stats : Gate_opt.stats option;
}

let policy_of_config cfg =
  match cfg.technique with
  | Technique.Sfi -> Some Gate_analysis.Sfi_policy
  | Technique.Mpx -> Some Gate_analysis.Mpx_policy
  | Technique.Isboxing -> Some Gate_analysis.Isboxing_policy
  | Technique.Mpk protection -> Some (Gate_analysis.Mpk_policy protection)
  | Technique.Vmfunc -> Some Gate_analysis.Vmfunc_policy
  | Technique.Crypt -> Some Gate_analysis.Crypt_policy
  | Technique.Mprotect | Technique.Sgx -> None

let verify_prepared p =
  match policy_of_config p.cfg with
  | None -> None
  | Some policy ->
    let kind =
      match policy with
      | Gate_analysis.Sfi_policy | Gate_analysis.Mpx_policy | Gate_analysis.Isboxing_policy ->
        p.cfg.address_kind
      | _ -> Instr.Reads_and_writes
    in
    Some (Gate_analysis.analyze ~kind ~policy p.program)

let map_regions cpu regions =
  List.iter
    (fun (r : Safe_region.region) ->
      Mmu.map_range cpu.Cpu.mmu ~va:r.Safe_region.va ~len:r.Safe_region.size ~writable:true)
    regions

let prepare_on ?(extra_regions = []) ?(verify = false) ?(optimize = false) cpu cfg
    (lowered : Ir.Lower.t) =
  Ir.Lower.setup_memory cpu lowered;
  let regions = Safe_region.of_sensitive_globals lowered @ extra_regions in
  map_regions cpu extra_regions;
  let mitems = lowered.Ir.Lower.mitems in
  let technique = Technique.name cfg.technique in
  let (items, sitemap), hypervisor =
    match cfg.technique with
    | Technique.Sfi ->
      Instr_sfi.setup cpu;
      ( Instr.address_based_sites ~check:Instr_sfi.check ~kind:cfg.address_kind ~technique
          ~label:"sfi-mask" mitems,
        None )
    | Technique.Mpx ->
      Instr_mpx.setup cpu;
      ( Instr.address_based_sites ~check:Instr_mpx.check ~kind:cfg.address_kind ~technique
          ~label:"mpx-check" mitems,
        None )
    | Technique.Mpk protection ->
      let st = Instr_mpk.setup cpu ~protection regions in
      ( Instr.domain_based_sites ~enter:(Instr_mpk.enter st) ~leave:(Instr_mpk.leave st)
          ~policy:cfg.switch_policy ~technique ~label:"wrpkru-pair" mitems,
        None )
    | Technique.Vmfunc ->
      let st = Instr_vmfunc.setup cpu regions in
      ( Instr.domain_based_sites ~enter:Instr_vmfunc.enter ~leave:Instr_vmfunc.leave
          ~policy:cfg.switch_policy ~technique ~label:"vmfunc-pair" mitems,
        Some (Instr_vmfunc.hypervisor st) )
    | Technique.Crypt ->
      let st = Instr_crypt.setup cpu ~key_location:cfg.crypt_keys ~seed:cfg.crypt_seed regions in
      ( Instr.domain_based_sites ~enter:(Instr_crypt.enter st) ~leave:(Instr_crypt.leave st)
          ~policy:cfg.switch_policy ~technique ~label:"aes-bracket" mitems,
        None )
    | Technique.Mprotect ->
      let st = Instr_mprotect.setup cpu regions in
      ( Instr.domain_based_sites ~enter:(Instr_mprotect.enter st) ~leave:(Instr_mprotect.leave st)
          ~policy:cfg.switch_policy ~technique ~label:"mprotect-pair" mitems,
        None )
    | Technique.Isboxing ->
      (* Free truncation to 4 GiB; safe regions live above the 64 TiB split,
         far outside the reachable window. No machine setup needed. *)
      (Instr.address_based_lea32_sites ~kind:cfg.address_kind ~technique mitems, None)
    | Technique.Sgx ->
      invalid_arg
        "Framework.prepare: SGX isolation requires restructuring code into an enclave; use \
         Sgx_sim.Enclave directly"
  in
  let items, sitemap, opt_stats =
    if not optimize then (items, sitemap, None)
    else
      match policy_of_config cfg with
      | None -> (items, sitemap, None)
      | Some policy ->
        let kind =
          match policy with
          | Gate_analysis.Sfi_policy | Gate_analysis.Mpx_policy | Gate_analysis.Isboxing_policy
            ->
            cfg.address_kind
          | _ -> Instr.Reads_and_writes
        in
        let r = Gate_opt.optimize ~policy ~kind items sitemap in
        Log.info (fun m ->
            m "optimized %s: %a" (Technique.name cfg.technique) Gate_opt.pp_stats
              r.Gate_opt.stats);
        (r.Gate_opt.items, r.Gate_opt.sitemap, Some r.Gate_opt.stats)
  in
  let program = Program.assemble items in
  Log.info (fun m ->
      m "prepared %s: %d regions, %d instructions (%d before instrumentation)"
        (Technique.name cfg.technique) (List.length regions) (Program.length program)
        (List.length mitems));
  Cpu.load_program cpu program;
  let p = { cpu; program; regions; hypervisor; cfg; sitemap; opt_stats } in
  if verify then
    (match verify_prepared p with
    | Some { Gate_analysis.violations = _ :: _ as vs; _ } ->
      invalid_arg
        (Format.asprintf "Framework.prepare: instrumented output failed verification:@.%a"
           (Format.pp_print_list (fun fmt (v : Gate_analysis.finding) ->
                Format.fprintf fmt "  @%d  %s  (%s)" v.index v.insn v.reason))
           vs)
    | Some _ | None -> ());
  p

let prepare ?extra_regions ?verify ?optimize cfg lowered =
  prepare_on ?extra_regions ?verify ?optimize (Cpu.create ()) cfg lowered

let prepare_baseline_on cpu (lowered : Ir.Lower.t) =
  Ir.Lower.setup_memory cpu lowered;
  let program = Ir.Lower.assemble lowered in
  Cpu.load_program cpu program;
  {
    cpu;
    program;
    regions = Safe_region.of_sensitive_globals lowered;
    hypervisor = None;
    cfg = config Technique.Sfi;
    sitemap = Sitemap.create ();
    opt_stats = None;
  }

let prepare_baseline lowered = prepare_baseline_on (Cpu.create ()) lowered

let run ?fuel p = Cpu.run ?fuel p.cpu

let overhead ~baseline ~instrumented =
  Ms_util.Stats.overhead ~baseline:(Cpu.cycles baseline.cpu)
    ~measured:(Cpu.cycles instrumented.cpu)

(* ------------------------------------------------------------------ *)
(* Multi-vCPU preparation                                              *)
(* ------------------------------------------------------------------ *)

type smp = {
  machine : Machine.t;
  prepared : prepared;  (** core 0's view; [cpu] inside it is [Machine.cpu machine 0] *)
}

(* Memory-resident setup (region mapping, page-table permissions, key
   tables, encrypted images) is shared and was done once by [prepare_on]
   on core 0. What remains per sibling core is register state: the
   program, MPX bounds, the closed-by-default PKRU, and crypt's in-ymm
   round keys. *)
let sibling_setup cfg cpu =
  match cfg.technique with
  | Technique.Sfi | Technique.Isboxing | Technique.Mprotect -> ()
  | Technique.Mpx -> Instr_mpx.setup cpu
  | Technique.Mpk protection ->
    (* Same key as [Instr_mpk.setup]'s default assignment on core 0. *)
    Mpk.Pkey.close_default cpu ~key:1 ~protection
  | Technique.Crypt ->
    Instr_crypt.install_keys cpu ~key_location:cfg.crypt_keys ~seed:cfg.crypt_seed ()
  | Technique.Vmfunc | Technique.Sgx -> assert false (* rejected below *)

let prepare_smp ?(vcpus = 1) ?extra_regions ?verify ?optimize cfg (lowered : Ir.Lower.t) =
  if vcpus < 1 then invalid_arg "Framework.prepare_smp: need at least one vCPU";
  (match cfg.technique with
  | Technique.Vmfunc ->
    invalid_arg
      "Framework.prepare_smp: the VMFUNC hypervisor virtualizes a single CPU; multi-vCPU \
       virtualization is future work (see ROADMAP)"
  | Technique.Sgx -> invalid_arg "Framework.prepare_smp: SGX requires Sgx_sim.Enclave directly"
  | _ -> ());
  let machine = Machine.create ~vcpus () in
  let prepared = prepare_on ?extra_regions ?verify ?optimize (Machine.cpu machine 0) cfg lowered in
  for i = 1 to vcpus - 1 do
    let cpu = Machine.cpu machine i in
    Cpu.load_program cpu prepared.program;
    sibling_setup cfg cpu
  done;
  { machine; prepared }

let prepare_baseline_smp ?(vcpus = 1) (lowered : Ir.Lower.t) =
  if vcpus < 1 then invalid_arg "Framework.prepare_baseline_smp: need at least one vCPU";
  let machine = Machine.create ~vcpus () in
  let prepared = prepare_baseline_on (Machine.cpu machine 0) lowered in
  for i = 1 to vcpus - 1 do
    Cpu.load_program (Machine.cpu machine i) prepared.program
  done;
  { machine; prepared }

let run_smp ?fuel ?quantum s = Machine.run ?fuel ?quantum s.machine
