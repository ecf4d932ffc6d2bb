(* The no-hook fast loop and the hooked per-step loop are two paths
   through the same engine ([Cpu.run_fast] vs [Cpu.step]); attaching an
   observe-only hook must not change a single modeled number. Random
   programs pin that down differentially: identical cycle count, counters,
   final registers and memory, with and without hooks, uninstrumented and
   under MPK instrumentation.

   Also covers the direct-mapped store buffer's capacity edge: two store
   lines that collide in a slot must evict (not merge), and only the
   resident line supplies store-to-load forwarding. *)

open Memsentry

type outcome = {
  cycles : float;
  counters : X86sim.Cpu.counters;
  gprs : int array;
  mem_g : int;
}

(* Run a prepared machine to completion and snapshot everything the two
   paths must agree on. [hooks] attaches observe-only step+event hooks,
   which forces every instruction through the instrumented [step] loop. *)
let snapshot ?cfg ~hooks recipe =
  let m = Test_differential.build_program recipe in
  let lowered = Ir.Lower.lower m in
  let p =
    match cfg with
    | None -> Framework.prepare_baseline lowered
    | Some c -> Framework.prepare c lowered
  in
  let cpu = p.Framework.cpu in
  let steps = ref 0 and events = ref 0 in
  if hooks then begin
    ignore (X86sim.Cpu.add_step_hook cpu (fun _ _ -> incr steps));
    ignore (X86sim.Cpu.add_event_hook cpu (fun _ -> incr events))
  end;
  (match Framework.run p with
  | X86sim.Cpu.Halted -> ()
  | X86sim.Cpu.Out_of_fuel -> Alcotest.fail "fastpath run out of fuel");
  if hooks && !steps = 0 then Alcotest.fail "step hook never fired";
  {
    cycles = X86sim.Cpu.cycles cpu;
    counters = cpu.X86sim.Cpu.counters;
    gprs = Array.init X86sim.Reg.gpr_count (X86sim.Cpu.get_gpr cpu);
    mem_g =
      X86sim.Mmu.peek64 cpu.X86sim.Cpu.mmu ~va:(Ir.Lower.global_va lowered "g");
  }

let same_outcome a b =
  a.cycles = b.cycles && a.counters = b.counters && a.gprs = b.gprs && a.mem_g = b.mem_g

let prop_fast_equals_hooked =
  QCheck.Test.make ~name:"no-hook fast loop = hooked loop (baseline)" ~count:60
    Test_differential.arb_recipe (fun r ->
      same_outcome (snapshot ~hooks:false r) (snapshot ~hooks:true r))

let prop_fast_equals_hooked_mpk =
  QCheck.Test.make ~name:"no-hook fast loop = hooked loop (MPK instrumented)" ~count:40
    Test_differential.arb_recipe (fun r ->
      let cfg = Framework.config (Technique.Mpk Mpk.Pkey.No_access) in
      same_outcome (snapshot ~cfg ~hooks:false r) (snapshot ~cfg ~hooks:true r))

(* --- store-buffer capacity edge ---------------------------------------- *)

(* Two 64-byte lines exactly [sb_slots] lines apart map to the same
   direct-mapped slot. *)
let va_a = 0x100000
let va_b = va_a + (X86sim.Cpu.sb_slots * 64)

let run_asm text =
  let cpu = X86sim.Cpu.create () in
  X86sim.Mmu.map_range cpu.X86sim.Cpu.mmu ~va:va_a ~len:4096 ~writable:true;
  X86sim.Mmu.map_range cpu.X86sim.Cpu.mmu ~va:va_b ~len:4096 ~writable:true;
  X86sim.Cpu.load_program cpu (X86sim.Asm.parse_program text);
  (match X86sim.Cpu.run cpu with
  | X86sim.Cpu.Halted -> ()
  | X86sim.Cpu.Out_of_fuel -> Alcotest.fail "asm program out of fuel");
  cpu

let store_buffer_eviction () =
  let cpu =
    run_asm
      (Printf.sprintf
         "main:\n  mov rbx, %d\n  mov rcx, %d\n  mov [rbx], rax\n  mov [rcx], rax\n  hlt\n"
         va_a va_b)
  in
  let slot = va_a lsr 6 land (X86sim.Cpu.sb_slots - 1) in
  Alcotest.(check int) "colliding store evicted the earlier line" (va_b lsr 6)
    cpu.X86sim.Cpu.sb_line.(slot);
  Alcotest.(check bool) "evicting store left a ready time" true
    (cpu.X86sim.Cpu.sb_ready.(slot) > 0.0)

let store_buffer_forwarding_only_resident () =
  (* Store A, then a colliding store B, then load one of them. Only the
     resident line (B) can forward, so loading B must not finish earlier
     than loading A, which reads through the cache with no forwarding
     dependency. *)
  let prog target =
    Printf.sprintf
      "main:\n\
      \  mov rbx, %d\n\
      \  mov rcx, %d\n\
      \  mov [rbx], rax\n\
      \  mov [rcx], rax\n\
      \  mov rdx, [%s]\n\
      \  hlt\n"
      va_a va_b target
  in
  let evicted = X86sim.Cpu.cycles (run_asm (prog "rbx")) in
  let resident = X86sim.Cpu.cycles (run_asm (prog "rcx")) in
  Alcotest.(check bool)
    (Printf.sprintf "forwarding stall only from resident line (%.2f <= %.2f)" evicted resident)
    true (evicted <= resident)

let store_buffer_bounded () =
  (* Streaming stores over more distinct lines than the buffer has slots
     must stay within the fixed arrays (no growth, no error) and leave at
     most [sb_slots] lines tracked. *)
  let lines = X86sim.Cpu.sb_slots + 8 in
  let cpu = X86sim.Cpu.create () in
  X86sim.Mmu.map_range cpu.X86sim.Cpu.mmu ~va:va_a ~len:(lines * 64) ~writable:true;
  X86sim.Cpu.load_program cpu
    (X86sim.Asm.parse_program
       (Printf.sprintf
          "main:\n\
          \  mov rbx, %d\n\
          \  mov rcx, %d\n\
          loop:\n\
          \  mov [rbx], rax\n\
          \  add rbx, 64\n\
          \  sub rcx, 1\n\
          \  cmp rcx, 0\n\
          \  jne loop\n\
          \  hlt\n"
          va_a lines));
  (match X86sim.Cpu.run cpu with
  | X86sim.Cpu.Halted -> ()
  | X86sim.Cpu.Out_of_fuel -> Alcotest.fail "streaming stores out of fuel");
  Alcotest.(check int) "store-buffer arrays stay at capacity" X86sim.Cpu.sb_slots
    (Array.length cpu.X86sim.Cpu.sb_line);
  (* The first 8 lines were overwritten by the wrap-around tail. *)
  let slot0 = va_a lsr 6 land (X86sim.Cpu.sb_slots - 1) in
  Alcotest.(check int) "wrapped slot holds the latest colliding line"
    ((va_a lsr 6) + X86sim.Cpu.sb_slots)
    cpu.X86sim.Cpu.sb_line.(slot0)

(* --- exhaustive per-constructor differential sweep --------------------- *)

(* Random programs above give breadth; this sweep gives coverage: every
   [Insn.t] constructor (and the interesting variants within one — each
   ALU op, every condition taken and not taken, the addressing shapes,
   and the architectural fault cases, natively and inside a Dune-style
   VMX guest) runs through the hooked [step] loop, the block tier and
   the trace tier. The complete architectural state — status, rip,
   flags, cycle count, all counters, gprs, the full vector file, bound
   registers, pkru, data memory and the touched stack — must match
   across tiers and match the frozen oracle in
   [data/insn_sweep.golden], one line per case. *)

open X86sim

let data_va = 0x200000

type full_snap = {
  f_status : string;
  f_rip : int;
  f_cmp : int;
  f_cycles : float;
  f_counters : Cpu.counters;
  f_gprs : int array;
  f_vec : Bytes.t;
  f_bnd_lo : int array;
  f_bnd_hi : int array;
  f_pkru : int;
  f_data : Bytes.t;
  f_stack : Bytes.t;
}

(* [run] performs the actual execution so the same setup/snapshot logic
   serves both the direct [Cpu.run] path and a 1-vCPU [Machine.run]. *)
let run_case_on ~hooks ?(guest = false) cpu run items =
  Mmu.map_range cpu.Cpu.mmu ~va:data_va ~len:8192 ~writable:true;
  for k = 0 to 31 do
    Mmu.poke64 cpu.Cpu.mmu ~va:(data_va + (8 * k)) ((k + 1) * 0x0101010101)
  done;
  (* Deterministic nonzero register file (rsp keeps its stack pointer). *)
  for r = 0 to Reg.gpr_count - 1 do
    if r <> Reg.rsp then Cpu.set_gpr cpu r ((r * 3) + 7)
  done;
  for x = 0 to Reg.xmm_count - 1 do
    Cpu.set_xmm cpu x (Bytes.init 16 (fun j -> Char.chr (((x * 16) + j) land 0xff)));
    Cpu.set_ymm_high cpu x (Bytes.init 16 (fun j -> Char.chr ((0xa0 + x + j) land 0xff)))
  done;
  (* Fault cases terminate the run instead of unwinding, so a faulting
     constructor snapshots exactly like a halting one. *)
  cpu.Cpu.fault_handler <- (fun _ _ -> Cpu.Fault_halt);
  (* Guest cases run under the two-EPT sandbox: vmfunc and vmcall become
     legal, syscalls pay the hypercall tax, and the first touch of each
     page takes an EPT-violation exit and a retry. *)
  if guest then ignore (Vmx.Sandbox.enter cpu);
  let rsp0 = Cpu.get_gpr cpu Reg.rsp in
  if hooks then begin
    ignore (Cpu.add_step_hook cpu (fun _ _ -> ()));
    ignore (Cpu.add_event_hook cpu (fun _ -> ()))
  end;
  Cpu.load_program cpu (Program.assemble items);
  let status = match run () with Cpu.Halted -> "halted" | Cpu.Out_of_fuel -> "fuel" in
  {
    f_status = status;
    f_rip = cpu.Cpu.rip;
    f_cmp = cpu.Cpu.cmp;
    f_cycles = Cpu.cycles cpu;
    f_counters = cpu.Cpu.counters;
    f_gprs = Array.init Reg.gpr_count (Cpu.get_gpr cpu);
    f_vec = Bytes.copy cpu.Cpu.xmm;
    f_bnd_lo = Array.copy cpu.Cpu.bnd_lower;
    f_bnd_hi = Array.copy cpu.Cpu.bnd_upper;
    f_pkru = Cpu.pkru cpu;
    f_data = Mmu.peek_bytes cpu.Cpu.mmu ~va:data_va ~len:256;
    f_stack = Mmu.peek_bytes cpu.Cpu.mmu ~va:(rsp0 - 64) ~len:64;
  }

let run_case ~hooks ?guest items =
  let cpu = Cpu.create () in
  run_case_on ~hooks ?guest cpu (fun () -> Cpu.run cpu) items

let diff_fields a b =
  List.filter_map
    (fun (n, eq) -> if eq then None else Some n)
    [
      ("status", a.f_status = b.f_status);
      ("rip", a.f_rip = b.f_rip);
      ("cmp", a.f_cmp = b.f_cmp);
      ("cycles", a.f_cycles = b.f_cycles);
      ("counters", a.f_counters = b.f_counters);
      ("gprs", a.f_gprs = b.f_gprs);
      ("vec", a.f_vec = b.f_vec);
      ("bnd_lower", a.f_bnd_lo = b.f_bnd_lo);
      ("bnd_upper", a.f_bnd_hi = b.f_bnd_hi);
      ("pkru", a.f_pkru = b.f_pkru);
      ("data", a.f_data = b.f_data);
      ("stack", a.f_stack = b.f_stack);
    ]

(* Compile-time exhaustiveness guard: adding an [Insn.t] constructor
   without extending [exhaustive_cases] below makes this match (no
   wildcard) fail to compile. *)
let _covered (x : Insn.t) =
  match x with
  | Insn.Nop | Insn.Halt | Insn.Mov_rr _ | Insn.Mov_ri _ | Insn.Mov_label _ | Insn.Load _
  | Insn.Store _ | Insn.Store_i _ | Insn.Lea _ | Insn.Lea32 _ | Insn.Alu_rr _ | Insn.Alu_ri _
  | Insn.Cmp_rr _ | Insn.Cmp_ri _ | Insn.Test_rr _ | Insn.Jmp _ | Insn.Jcc _ | Insn.Jmp_r _
  | Insn.Call _ | Insn.Call_r _ | Insn.Ret | Insn.Push _ | Insn.Pop _ | Insn.Syscall
  | Insn.Mfence | Insn.Cpuid | Insn.Bnd_set _ | Insn.Bndcu _ | Insn.Bndcl _
  | Insn.Bndmov_store _ | Insn.Bndmov_load _ | Insn.Wrpkru | Insn.Rdpkru | Insn.Vmfunc
  | Insn.Vmcall | Insn.Movdqa_load _ | Insn.Movdqa_store _ | Insn.Movq_xr _ | Insn.Movq_rx _
  | Insn.Pxor _ | Insn.Aesenc _ | Insn.Aesenclast _ | Insn.Aesdec _ | Insn.Aesdeclast _
  | Insn.Aeskeygenassist _ | Insn.Aesimc _ | Insn.Vext_high _ | Insn.Vins_high _
  | Insn.Fp_arith _ ->
    ()

let exhaustive_cases : (string * (unit -> Program.item list)) list =
  let i x = Program.I x and lbl s = Program.Label s in
  let tgt = Insn.target in
  let m = Insn.mem in
  let abs = Insn.mem_abs in
  let halt = [ i Insn.Halt ] in
  let alu_name = function
    | Insn.Add -> "add"
    | Insn.Sub -> "sub"
    | Insn.And -> "and"
    | Insn.Or -> "or"
    | Insn.Xor -> "xor"
    | Insn.Shl -> "shl"
    | Insn.Shr -> "shr"
    | Insn.Imul -> "imul"
  in
  let cond_name = function
    | Insn.Eq -> "eq"
    | Insn.Ne -> "ne"
    | Insn.Lt -> "lt"
    | Insn.Le -> "le"
    | Insn.Gt -> "gt"
    | Insn.Ge -> "ge"
  in
  let all_alu = [ Insn.Add; Insn.Sub; Insn.And; Insn.Or; Insn.Xor; Insn.Shl; Insn.Shr; Insn.Imul ] in
  let all_cond = [ Insn.Eq; Insn.Ne; Insn.Lt; Insn.Le; Insn.Gt; Insn.Ge ] in
  [
    ("nop", fun () -> i Insn.Nop :: halt);
    ("halt", fun () -> halt);
    ("mov_rr", fun () -> i (Insn.Mov_rr (Reg.rbx, Reg.rcx)) :: halt);
    ("mov_ri", fun () -> i (Insn.Mov_ri (Reg.rbx, 0x1234_5678_9ab)) :: halt);
    ("mov_label", fun () -> [ i (Insn.Mov_label (Reg.rbx, tgt "end")); lbl "end" ] @ halt);
    ("load_abs", fun () -> i (Insn.Load (Reg.rbx, abs data_va)) :: halt);
    ( "load_base_index_scale_disp",
      fun () ->
        [
          i (Insn.Mov_ri (Reg.rbx, data_va));
          i (Insn.Mov_ri (Reg.rcx, 2));
          i (Insn.Load (Reg.rdx, m ~base:Reg.rbx ~index:Reg.rcx ~scale:8 8));
        ]
        @ halt );
    ("load_unmapped_faults", fun () -> i (Insn.Load (Reg.rbx, abs 0x900000)) :: halt);
    ( "store",
      fun () ->
        [ i (Insn.Mov_ri (Reg.rbx, data_va)); i (Insn.Store (m ~base:Reg.rbx 16, Reg.rcx)) ]
        @ halt );
    ("store_i", fun () -> i (Insn.Store_i (abs (data_va + 24), 0xfeed)) :: halt);
    ("store_unmapped_faults", fun () -> i (Insn.Store (abs 0x900000, Reg.rcx)) :: halt);
    ("lea", fun () -> i (Insn.Lea (Reg.rbx, m ~base:Reg.rcx ~index:Reg.rdx ~scale:4 100)) :: halt);
    ( "lea32_truncates",
      fun () ->
        [ i (Insn.Mov_ri (Reg.rbx, 0x1_0000_0040)); i (Insn.Lea32 (Reg.rcx, m ~base:Reg.rbx 8)) ]
        @ halt );
    ("cmp_rr", fun () -> i (Insn.Cmp_rr (Reg.rbx, Reg.rcx)) :: halt);
    ("cmp_ri", fun () -> i (Insn.Cmp_ri (Reg.rbx, 13)) :: halt);
    ("test_rr", fun () -> i (Insn.Test_rr (Reg.rbx, Reg.rcx)) :: halt);
    ( "jmp",
      fun () -> [ i (Insn.Jmp (tgt "over")); i (Insn.Mov_ri (Reg.rdx, 111)); lbl "over" ] @ halt );
    ( "jmp_r",
      fun () ->
        [
          i (Insn.Mov_label (Reg.rbx, tgt "over"));
          i (Insn.Jmp_r Reg.rbx);
          i (Insn.Mov_ri (Reg.rdx, 111));
          lbl "over";
        ]
        @ halt );
    ( "call_ret",
      fun () ->
        [
          i (Insn.Call (tgt "f"));
          i (Insn.Jmp (tgt "end"));
          lbl "f";
          i (Insn.Mov_ri (Reg.rdx, 7));
          i Insn.Ret;
          lbl "end";
        ]
        @ halt );
    ( "call_r",
      fun () ->
        [
          i (Insn.Mov_label (Reg.rbx, tgt "f"));
          i (Insn.Call_r Reg.rbx);
          i (Insn.Jmp (tgt "end"));
          lbl "f";
          i (Insn.Mov_ri (Reg.rdx, 7));
          i Insn.Ret;
          lbl "end";
        ]
        @ halt );
    ( "push_pop",
      fun () -> [ i (Insn.Mov_ri (Reg.rbx, 0xdead)); i (Insn.Push Reg.rbx); i (Insn.Pop Reg.rcx) ] @ halt
    );
    ("syscall_nop", fun () -> [ i (Insn.Mov_ri (Reg.rax, Cpu.sys_nop)); i Insn.Syscall ] @ halt);
    ("mfence", fun () -> i Insn.Mfence :: halt);
    ("cpuid", fun () -> i Insn.Cpuid :: halt);
    ("bnd_set", fun () -> i (Insn.Bnd_set (0, 10, 20)) :: halt);
    ( "bndcu_pass",
      fun () ->
        [ i (Insn.Bnd_set (0, 0, 1000)); i (Insn.Mov_ri (Reg.rbx, 500)); i (Insn.Bndcu (0, Reg.rbx)) ]
        @ halt );
    ( "bndcu_violation",
      fun () ->
        [ i (Insn.Bnd_set (0, 0, 1000)); i (Insn.Mov_ri (Reg.rbx, 2000)); i (Insn.Bndcu (0, Reg.rbx)) ]
        @ halt );
    ( "bndcl_pass",
      fun () ->
        [ i (Insn.Bnd_set (0, 100, 1000)); i (Insn.Mov_ri (Reg.rbx, 500)); i (Insn.Bndcl (0, Reg.rbx)) ]
        @ halt );
    ( "bndcl_violation",
      fun () ->
        [ i (Insn.Bnd_set (0, 100, 1000)); i (Insn.Mov_ri (Reg.rbx, 50)); i (Insn.Bndcl (0, Reg.rbx)) ]
        @ halt );
    ( "bndmov_store_load",
      fun () ->
        [
          i (Insn.Bnd_set (0, 7, 99));
          i (Insn.Mov_ri (Reg.rbx, data_va));
          i (Insn.Bndmov_store (m ~base:Reg.rbx 32, 0));
          i (Insn.Bndmov_load (1, m ~base:Reg.rbx 32));
        ]
        @ halt );
    ( "wrpkru",
      fun () ->
        [
          i (Insn.Mov_ri (Reg.rax, 0b1100));
          i (Insn.Mov_ri (Reg.rcx, 0));
          i (Insn.Mov_ri (Reg.rdx, 0));
          i Insn.Wrpkru;
        ]
        @ halt );
    ("wrpkru_gp_faults", fun () -> [ i (Insn.Mov_ri (Reg.rcx, 1)); i Insn.Wrpkru ] @ halt);
    ("rdpkru", fun () -> [ i (Insn.Mov_ri (Reg.rcx, 0)); i Insn.Rdpkru ] @ halt);
    ("rdpkru_gp_faults", fun () -> [ i (Insn.Mov_ri (Reg.rcx, 2)); i Insn.Rdpkru ] @ halt);
    ("vmfunc_outside_guest_faults", fun () -> i Insn.Vmfunc :: halt);
    ("vmcall_outside_guest_faults", fun () -> i Insn.Vmcall :: halt);
    ( "movdqa_load",
      fun () ->
        [ i (Insn.Mov_ri (Reg.rbx, data_va)); i (Insn.Movdqa_load (2, m ~base:Reg.rbx 0)) ] @ halt );
    ( "movdqa_store",
      fun () ->
        [ i (Insn.Mov_ri (Reg.rbx, data_va)); i (Insn.Movdqa_store (m ~base:Reg.rbx 48, 1)) ] @ halt
    );
    ( "movdqa_unaligned_faults",
      fun () ->
        [ i (Insn.Mov_ri (Reg.rbx, data_va)); i (Insn.Movdqa_load (2, m ~base:Reg.rbx 8)) ] @ halt );
    ("movq_xr", fun () -> [ i (Insn.Mov_ri (Reg.rbx, 0xabcdef)); i (Insn.Movq_xr (3, Reg.rbx)) ] @ halt);
    ("movq_rx", fun () -> i (Insn.Movq_rx (Reg.rdx, 1)) :: halt);
    ("pxor", fun () -> i (Insn.Pxor (1, 2)) :: halt);
    ("aesenc", fun () -> i (Insn.Aesenc (1, 2)) :: halt);
    ("aesenclast", fun () -> i (Insn.Aesenclast (1, 2)) :: halt);
    ("aesdec", fun () -> i (Insn.Aesdec (1, 2)) :: halt);
    ("aesdeclast", fun () -> i (Insn.Aesdeclast (1, 2)) :: halt);
    ("aeskeygenassist", fun () -> i (Insn.Aeskeygenassist (3, 1, 0x1b)) :: halt);
    ("aesimc", fun () -> i (Insn.Aesimc (3, 1)) :: halt);
    ("vext_high", fun () -> i (Insn.Vext_high (2, 1)) :: halt);
    ("vins_high", fun () -> i (Insn.Vins_high (2, 1)) :: halt);
    ("fp_arith", fun () -> i (Insn.Fp_arith (1, 2)) :: halt);
  ]
  @ List.map
      (fun op ->
        ( "alu_rr_" ^ alu_name op,
          fun () ->
            [
              i (Insn.Mov_ri (Reg.rbx, 1234));
              i (Insn.Mov_ri (Reg.rcx, 3));
              i (Insn.Alu_rr (op, Reg.rbx, Reg.rcx));
            ]
            @ halt ))
      all_alu
  @ List.map
      (fun op ->
        ( "alu_ri_" ^ alu_name op,
          fun () -> [ i (Insn.Mov_ri (Reg.rbx, 1234)); i (Insn.Alu_ri (op, Reg.rbx, 5)) ] @ halt ))
      all_alu
  @ List.concat_map
      (fun c ->
        (* Compare against 5 from below, at, and above: each condition is
           exercised both taken and not taken. *)
        List.map
          (fun (tag, lhs) ->
            ( Printf.sprintf "jcc_%s_rbx%s" (cond_name c) tag,
              fun () ->
                [
                  i (Insn.Mov_ri (Reg.rbx, lhs));
                  i (Insn.Cmp_ri (Reg.rbx, 5));
                  i (Insn.Jcc (c, tgt "over"));
                  i (Insn.Mov_ri (Reg.rdx, 111));
                  lbl "over";
                ]
                @ halt ))
          [ ("3", 3); ("5", 5); ("7", 7) ])
      all_cond

(* The gate and exit instructions inside the VMX guest, where they do
   not simply fault: a valid EPTP switch, the two vmfunc #GP cases, a
   hypercall the hypervisor answers, a syscall converted into a
   hypercall-priced exit, and a first-touch load that exits on an EPT
   violation, is demand-filled and retried. *)
let guest_cases : (string * (unit -> Program.item list)) list =
  let i x = Program.I x in
  let halt = [ i Insn.Halt ] in
  let vmfunc ~rax ~rcx =
    [ i (Insn.Mov_ri (Reg.rax, rax)); i (Insn.Mov_ri (Reg.rcx, rcx)); i Insn.Vmfunc ]
  in
  [
    ("guest_vmfunc_switch", fun () -> vmfunc ~rax:0 ~rcx:1 @ halt);
    ("guest_vmfunc_rax_nonzero_faults", fun () -> vmfunc ~rax:1 ~rcx:0 @ halt);
    ("guest_vmfunc_index_out_of_range_faults", fun () -> vmfunc ~rax:0 ~rcx:5 @ halt);
    ( "guest_vmcall",
      fun () -> [ i (Insn.Mov_ri (Reg.rax, Vmx.Hypervisor.hc_ping)); i Insn.Vmcall ] @ halt );
    ( "guest_syscall_hypercall_tax",
      fun () -> [ i (Insn.Mov_ri (Reg.rax, Cpu.sys_nop)); i Insn.Syscall ] @ halt );
    ("guest_load_ept_fill", fun () -> i (Insn.Load (Reg.rbx, Insn.mem_abs data_va)) :: halt);
  ]

(* Every sweep case as (name, runs in the guest, program). *)
let sweep_cases =
  List.map (fun (name, items) -> (name, false, items)) exhaustive_cases
  @ List.map (fun (name, items) -> (name, true, items)) guest_cases

(* --- the frozen oracle ---------------------------------------------------- *)

(* One line per case: every [full_snap] field as [key=value], cycles in
   exact hex-float notation, the byte fields as MD5 digests. *)
let golden_path = "data/insn_sweep.golden"

let snap_line name s =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  let md5 b = Digest.to_hex (Digest.bytes b) in
  let c = s.f_counters in
  Printf.sprintf
    "%s status=%s rip=%d cmp=%d cycles=%h insns=%d loads=%d stores=%d calls=%d rets=%d \
     ind_branches=%d syscalls=%d vmfuncs=%d vmcalls=%d wrpkrus=%d aes_ops=%d bnd_checks=%d \
     faults=%d vm_exits=%d gprs=%s vec=%s bnd_lower=%s bnd_upper=%s pkru=%d data=%s stack=%s"
    name s.f_status s.f_rip s.f_cmp s.f_cycles c.Cpu.insns c.Cpu.loads c.Cpu.stores
    c.Cpu.calls c.Cpu.rets c.Cpu.ind_branches c.Cpu.syscalls c.Cpu.vmfuncs c.Cpu.vmcalls
    c.Cpu.wrpkrus c.Cpu.aes_ops c.Cpu.bnd_checks c.Cpu.faults c.Cpu.vm_exits (ints s.f_gprs)
    (md5 s.f_vec) (ints s.f_bnd_lo) (ints s.f_bnd_hi) s.f_pkru (md5 s.f_data) (md5 s.f_stack)

(* Golden lines keyed by case name; empty when the file is absent. *)
let golden =
  lazy
    (let tbl = Hashtbl.create 128 in
     (match In_channel.with_open_bin golden_path In_channel.input_all with
     | exception Sys_error _ -> ()
     | text ->
       List.iter
         (fun line ->
           match String.index_opt line ' ' with
           | Some k -> Hashtbl.replace tbl (String.sub line 0 k) line
           | None -> ())
         (String.split_on_char '\n' text));
     tbl)

(* The [key]s whose values differ between two snapshot lines. *)
let line_diff want got =
  let fields l = List.tl (String.split_on_char ' ' l) in
  let key f = match String.index_opt f '=' with Some k -> String.sub f 0 k | None -> f in
  let w = fields want and g = fields got in
  if List.length w <> List.length g then [ "<field count>" ]
  else List.concat (List.map2 (fun a b -> if a = b then [] else [ key a ]) w g)

let check_golden ~tier name s =
  match Hashtbl.find_opt (Lazy.force golden) name with
  | None -> Alcotest.failf "%s: no line in %s" name golden_path
  | Some want ->
    Alcotest.(check (list string))
      (Printf.sprintf "%s: %s = golden" name tier)
      [] (line_diff want (snap_line name s))

(* Hooked [step] loop vs the no-hook fast loop, and both against the
   golden. If any hooked line misses the golden, the complete set of
   hooked lines is written to [insn_sweep.out] in the test's working
   directory first, so a change meant to alter modeled output can
   re-record the file by copying it over [test/data/insn_sweep.golden]. *)
let exhaustive_differential () =
  let runs =
    List.map
      (fun (name, guest, items) ->
        (name, run_case ~hooks:false ~guest (items ()), run_case ~hooks:true ~guest (items ())))
      sweep_cases
  in
  let lines = List.map (fun (name, _, hooked) -> snap_line name hooked) runs in
  let tbl = Lazy.force golden in
  if
    Hashtbl.length tbl <> List.length lines
    || List.exists2 (fun (name, _, _) l -> Hashtbl.find_opt tbl name <> Some l) runs lines
  then begin
    let oc = open_out "insn_sweep.out" in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc
  end;
  List.iter
    (fun (name, fast, hooked) ->
      check_golden ~tier:"hooked step" name hooked;
      check_golden ~tier:"fast loop" name fast;
      Alcotest.(check (list string)) name [] (diff_fields fast hooked))
    runs

(* The differential guard for the multi-vCPU refactor: a 1-vCPU
   [Machine.run] must be byte-identical to a bare [Cpu.run] — same
   cycles, counters, registers, vector file and memory — at any quantum,
   because chaining quanta may not perturb the model. Quantum 1 forces a
   scheduler entry between every pair of instructions. *)
let machine_single_core_differential () =
  List.iter
    (fun quantum ->
      List.iter
        (fun (name, guest, items) ->
          let direct = run_case ~hooks:false ~guest (items ()) in
          let m = Machine.create () in
          let via_machine =
            run_case_on ~hooks:false ~guest (Machine.cpu m 0)
              (fun () -> Machine.run ~quantum m)
              (items ())
          in
          Alcotest.(check (list string))
            (Printf.sprintf "%s (quantum %d)" name quantum)
            [] (diff_fields direct via_machine))
        sweep_cases)
    [ 1; 7; 1000 ]

(* --- trace tier: three-tier differential sweep ------------------------- *)

(* With the default hot threshold (64) the tiny sweep programs never form
   a superblock, so the trace tier must be forced hot to be exercised:
   threshold 2 means the second entry of any block attempts formation,
   and [min_samples 1] trusts the single edge sample recorded by the
   first iteration. (Threshold 1 would trigger before the block's own
   edge profile has any sample, so nothing would ever form.) *)
let force_traces cpu =
  let tier = cpu.Cpu.traces in
  Trace.set_hot_threshold tier 2;
  Trace.set_min_samples tier 1

(* Every constructor through all three execution tiers: the hooked
   [step] loop, the block tier (traces disabled), and the trace tier
   (formation forced hot). One engine, three dispatch strategies — the
   complete architectural state must be bit-identical, and equal to the
   golden. *)
let three_tier_differential () =
  List.iter
    (fun (name, guest, items) ->
      let hooked = run_case ~hooks:true ~guest (items ()) in
      let block_cpu = Cpu.create () in
      Cpu.set_traces_enabled block_cpu false;
      let block =
        run_case_on ~hooks:false ~guest block_cpu (fun () -> Cpu.run block_cpu) (items ())
      in
      let trace_cpu = Cpu.create () in
      force_traces trace_cpu;
      let traced =
        run_case_on ~hooks:false ~guest trace_cpu (fun () -> Cpu.run trace_cpu) (items ())
      in
      check_golden ~tier:"hooked step" name hooked;
      check_golden ~tier:"block tier" name block;
      check_golden ~tier:"trace tier" name traced;
      Alcotest.(check (list string)) (name ^ ": block tier = hooked step") []
        (diff_fields block hooked);
      Alcotest.(check (list string)) (name ^ ": trace tier = block tier") []
        (diff_fields traced block))
    sweep_cases

(* Same sweep through a 1-vCPU [Machine.run] with formation forced hot, at
   quanta that land mid-superblock: the trace executor's batched fuel
   accounting must resume at exactly the right instruction when a quantum
   expires inside a fused segment. *)
let machine_trace_tier_differential () =
  List.iter
    (fun quantum ->
      List.iter
        (fun (name, guest, items) ->
          let direct = run_case ~hooks:false ~guest (items ()) in
          let m = Machine.create () in
          let cpu = Machine.cpu m 0 in
          force_traces cpu;
          let via_machine =
            run_case_on ~hooks:false ~guest cpu (fun () -> Machine.run ~quantum m) (items ())
          in
          Alcotest.(check (list string))
            (Printf.sprintf "%s (traced, quantum %d)" name quantum)
            [] (diff_fields direct via_machine))
        sweep_cases)
    [ 1; 7; 1000 ]

(* --- AES-NI in place on the register file -------------------------------- *)

(* The AES-NI and 128-bit lane instructions run directly on [Cpu.xmm], so
   with [d = s] one instruction reads and writes the same 16 bytes. Each
   case runs one of them in a counted loop from a random vector file
   through the hooked [Cpu.step] loop, the block tier and a
   1-vCPU machine whose traces form, and compares the whole file, high
   halves included, with the [Aesni.Aes] block API applied to a copy of the
   same initial file once per iteration. *)
let vec_iters = 6

let vec_model (insn : Insn.t) file =
  let lo r = Bytes.sub file (32 * r) 16 in
  let set_lo r b = Bytes.blit b 0 file (32 * r) 16 in
  let module A = Aesni.Aes in
  match insn with
  | Insn.Aesenc (d, s) -> set_lo d (A.aesenc (lo d) (lo s))
  | Insn.Aesenclast (d, s) -> set_lo d (A.aesenclast (lo d) (lo s))
  | Insn.Aesdec (d, s) -> set_lo d (A.aesdec (lo d) (lo s))
  | Insn.Aesdeclast (d, s) -> set_lo d (A.aesdeclast (lo d) (lo s))
  | Insn.Aeskeygenassist (d, s, imm) -> set_lo d (A.aeskeygenassist (lo s) imm)
  | Insn.Aesimc (d, s) -> set_lo d (A.aesimc (lo s))
  | Insn.Vext_high (d, s) -> set_lo d (Bytes.sub file ((32 * s) + 16) 16)
  | Insn.Vins_high (d, s) -> Bytes.blit (lo s) 0 file ((32 * d) + 16) 16
  | _ -> invalid_arg "vec_model"

let vec_insns ~d ~s ~imm =
  [
    Insn.Aesenc (d, s); Insn.Aesenclast (d, s); Insn.Aesdec (d, s); Insn.Aesdeclast (d, s);
    Insn.Aeskeygenassist (d, s, imm); Insn.Aesimc (d, s); Insn.Vext_high (d, s);
    Insn.Vins_high (d, s);
  ]

let vec_loop insn =
  let i x = Program.I x in
  [
    i (Insn.Mov_ri (Reg.rbx, vec_iters));
    Program.Label "loop";
    i insn;
    i (Insn.Alu_ri (Insn.Sub, Reg.rbx, 1));
    i (Insn.Cmp_ri (Reg.rbx, 0));
    i (Insn.Jcc (Insn.Ne, Insn.target "loop"));
    i Insn.Halt;
  ]

let run_vec_tier tier insn file =
  let cpu, run =
    match tier with
    | `Hooked ->
      let cpu = Cpu.create () in
      ignore (Cpu.add_step_hook cpu (fun _ _ -> ()));
      (cpu, fun () -> Cpu.run cpu)
    | `Block ->
      let cpu = Cpu.create () in
      Cpu.set_traces_enabled cpu false;
      (cpu, fun () -> Cpu.run cpu)
    | `Traced ->
      let m = Machine.create () in
      let cpu = Machine.cpu m 0 in
      force_traces cpu;
      (cpu, fun () -> Machine.run m)
  in
  Bytes.blit file 0 cpu.Cpu.xmm 0 (Bytes.length file);
  Cpu.load_program cpu (Program.assemble (vec_loop insn));
  (match run () with Cpu.Halted -> () | Cpu.Out_of_fuel -> Alcotest.fail "out of fuel");
  if tier = `Traced && cpu.Cpu.traces.Trace.formed_count = 0 then
    Alcotest.failf "%s: no trace formed" (Insn.to_string insn);
  cpu.Cpu.xmm

let gen_vec_case =
  QCheck.Gen.(
    let* file = string_size ~gen:char (return (32 * Reg.xmm_count)) in
    let* d = int_bound (Reg.xmm_count - 1) in
    let* off = int_range 1 (Reg.xmm_count - 1) in
    let* imm = int_bound 255 in
    return (file, d, (d + off) mod Reg.xmm_count, imm))

let prop_vec_in_place =
  QCheck.Test.make ~name:"AES-NI and lane moves in place, d = s and d <> s, all tiers"
    ~count:25
    (QCheck.make
       ~print:(fun (_, d, s, imm) -> Printf.sprintf "d=%d s=%d imm=%d" d s imm)
       gen_vec_case)
    (fun (file, d, s, imm) ->
      let file = Bytes.of_string file in
      List.iter
        (fun insn ->
          let expected = Bytes.copy file in
          for _ = 1 to vec_iters do
            vec_model insn expected
          done;
          let written = match insn with Insn.Vins_high (d, _) -> Some d | _ -> None in
          List.iter
            (fun (tier, tname) ->
              let got = run_vec_tier tier insn file in
              let what = Printf.sprintf "%s (%s)" (Insn.to_string insn) tname in
              for r = 0 to Reg.xmm_count - 1 do
                if written <> Some r then
                  Alcotest.(check bytes) (what ^ ": high half untouched")
                    (Bytes.sub file ((32 * r) + 16) 16)
                    (Bytes.sub got ((32 * r) + 16) 16)
              done;
              Alcotest.(check bytes) (what ^ ": vector file") expected got)
            [ (`Hooked, "hooked step"); (`Block, "block tier"); (`Traced, "traced machine") ])
        (vec_insns ~d ~s:d ~imm @ vec_insns ~d ~s ~imm);
      true)

(* Host-independent allocation gate: with the AES rounds running in place,
   crypt allocates a fraction of a minor word per simulated instruction,
   where the per-round block API it replaced took about 5.7. Words per
   instruction do not depend on host speed, so the bound holds on any
   machine. *)
let crypt_minor_words_per_insn () =
  let lowered =
    Workloads.Synth.lowered ~iterations:50 ~xmm_pool:Ir.Lower.crypt_xmm_pool
      (Workloads.Spec2006.find "mcf")
  in
  let p =
    Framework.prepare (Framework.config ~switch_policy:Instr.At_call_ret Technique.Crypt) lowered
  in
  let cpu = p.Framework.cpu in
  let w0 = Gc.minor_words () in
  (match Framework.run p with
  | Cpu.Halted -> ()
  | Cpu.Out_of_fuel -> Alcotest.fail "crypt run out of fuel");
  let words = Gc.minor_words () -. w0 in
  let c = cpu.Cpu.counters in
  Alcotest.(check bool) "the run executed AES rounds" true (c.Cpu.aes_ops > 0);
  let per_insn = words /. float_of_int c.Cpu.insns in
  if per_insn >= 0.5 then
    Alcotest.failf "crypt@call-ret mcf allocates %.3f minor words per insn (bound 0.5)" per_insn

(* Host-independent allocation bounds on both execution paths: minor
   words per simulated instruction of [Framework.run p] alone, so setup
   (decoding included) stays outside them. *)
let run_words_per_insn what p =
  let w0 = Gc.minor_words () in
  (match Framework.run p with
  | Cpu.Halted -> ()
  | Cpu.Out_of_fuel -> Alcotest.fail (what ^ ": out of fuel"));
  let words = Gc.minor_words () -. w0 in
  words /. float_of_int p.Framework.cpu.Cpu.counters.Cpu.insns

let check_words_bound what ~bound per_insn =
  if per_insn >= bound then
    Alcotest.failf "%s allocates %.3f minor words per insn (bound %g)" what per_insn bound

(* The hooked path with the Profiler attached, on optimized SFI-rw mcf:
   every instruction runs through [Cpu.step] over uops decoded at load,
   so a step allocates nothing. Decoding inside the run would allocate a
   uop for every distinct instruction the run touches. *)
let hooked_minor_words_per_insn () =
  let what = "profiled SFI-rw mcf (hooked step)" in
  let p =
    Workloads.Runner.prepare_instrumented ~iterations:40 ~optimize:true
      (Workloads.Spec2006.find "mcf")
      (Framework.config ~address_kind:Instr.Reads_and_writes Technique.Sfi)
  in
  let profiler = Profiler.attach p in
  let per_insn = run_words_per_insn what p in
  Profiler.stop profiler;
  check_words_bound what ~bound:0.1 per_insn

(* The block and trace tiers at 300 iterations, so superblocks form:
   uninstrumented, and under MPK with a gate at every call and return
   (the default MPK policy adds no gate to these programs), so that
   serializing instructions end block chains thousands of times. *)
let fast_minor_words_per_insn () =
  let mpk = Framework.config ~switch_policy:Instr.At_call_ret (Technique.Mpk Mpk.Pkey.No_access) in
  List.iter
    (fun bench ->
      List.iter
        (fun (cname, cfg) ->
          let lowered = Workloads.Synth.lowered ~iterations:300 (Workloads.Spec2006.find bench) in
          let p =
            match cfg with
            | None -> Framework.prepare_baseline lowered
            | Some c -> Framework.prepare c lowered
          in
          let what = Printf.sprintf "%s/%s (fast path)" bench cname in
          check_words_bound what ~bound:0.05 (run_words_per_insn what p);
          if cfg <> None && p.Framework.cpu.Cpu.counters.Cpu.wrpkrus = 0 then
            Alcotest.failf "%s: no gate ran" what)
        [ ("baseline", None); ("MPK@call-ret", Some mpk) ])
    [ "mcf"; "hmmer"; "povray" ]

(* --- trace tier: fault precision ---------------------------------------- *)

(* A load walking forward 8 bytes per iteration: [run_case_on] maps 8 KiB
   at [data_va], so iteration 1024 page-faults — long after the loop has
   formed a superblock, so the fault unwinds out of a trace segment and
   the executor must settle its batched counters from the faulting
   [rip]. *)
let walking_load_items ~n =
  let i x = Program.I x in
  let m = Insn.mem in
  [
    i (Insn.Mov_ri (Reg.rbx, n));
    i (Insn.Mov_ri (Reg.rdx, data_va));
    Program.Label "loop";
    i (Insn.Load (Reg.rcx, m ~base:Reg.rdx 0));
    i (Insn.Alu_ri (Insn.Add, Reg.rdx, 8));
    i (Insn.Alu_ri (Insn.Sub, Reg.rbx, 1));
    i (Insn.Cmp_ri (Reg.rbx, 0));
    i (Insn.Jcc (Insn.Ne, Insn.target "loop"));
    i Insn.Halt;
  ]

(* A lea+bndcu pair (the MPX check-site shape) whose checked address
   walks past the bound mid-trace: [Bound_violation] is raised after the
   check has issued, mid-segment. *)
let bound_walk_items ~n =
  let i x = Program.I x in
  let m = Insn.mem in
  [
    i (Insn.Bnd_set (0, 0, data_va + 400));
    i (Insn.Mov_ri (Reg.rbx, n));
    i (Insn.Mov_ri (Reg.rdx, data_va));
    Program.Label "loop";
    i (Insn.Lea (Reg.rcx, m ~base:Reg.rdx 0));
    i (Insn.Bndcu (0, Reg.rcx));
    i (Insn.Load (Reg.rax, m ~base:Reg.rdx 0));
    i (Insn.Alu_ri (Insn.Add, Reg.rdx, 8));
    i (Insn.Alu_ri (Insn.Sub, Reg.rbx, 1));
    i (Insn.Cmp_ri (Reg.rbx, 0));
    i (Insn.Jcc (Insn.Ne, Insn.target "loop"));
    i Insn.Halt;
  ]

let trace_fault_precision () =
  List.iter
    (fun (name, items) ->
      let hooked = run_case ~hooks:true (items ()) in
      let trace_cpu = Cpu.create () in
      force_traces trace_cpu;
      let traced =
        run_case_on ~hooks:false trace_cpu (fun () -> Cpu.run trace_cpu) (items ())
      in
      Alcotest.(check (list string)) (name ^ ": mid-trace fault = hooked step") []
        (diff_fields traced hooked);
      Alcotest.(check bool) (name ^ ": run actually executed inside a trace") true
        (trace_cpu.Cpu.traces.Trace.covered_insns > 0))
    [
      ("walking load page fault", fun () -> walking_load_items ~n:1200);
      ("lea+bndcu bound violation", fun () -> bound_walk_items ~n:80);
    ]

(* Random IR programs under the baseline and every isolation technique:
   with formation forced hot, the outcome must be byte-identical to the
   hooked step loop. This is the trace tier's end-to-end
   invisibility property over the techniques' full uop vocabulary (SFI
   masks, MPX checks, pkey switches, AES-NI rounds, ...). *)
let snapshot_hot ?cfg r =
  let mdl = Test_differential.build_program r in
  let lowered = Ir.Lower.lower mdl in
  let p =
    match cfg with
    | None -> Memsentry.Framework.prepare_baseline lowered
    | Some c -> Memsentry.Framework.prepare c lowered
  in
  let cpu = p.Memsentry.Framework.cpu in
  force_traces cpu;
  (match Memsentry.Framework.run p with
  | Cpu.Halted -> ()
  | Cpu.Out_of_fuel -> Alcotest.fail "hot traced run out of fuel");
  {
    cycles = Cpu.cycles cpu;
    counters = cpu.Cpu.counters;
    gprs = Array.init Reg.gpr_count (Cpu.get_gpr cpu);
    mem_g = Mmu.peek64 cpu.Cpu.mmu ~va:(Ir.Lower.global_va lowered "g");
  }

let all_configs = None :: List.map (fun c -> Some c) Test_differential.techniques

let prop_hot_traces_invisible_under_techniques =
  QCheck.Test.make ~name:"hot traces = hooked step (all techniques)"
    ~count:15 Test_differential.arb_recipe (fun r ->
      List.for_all
        (fun cfg -> same_outcome (snapshot ?cfg ~hooks:true r) (snapshot_hot ?cfg r))
        all_configs)

(* --- trace tier: loops, side exits, SMC invalidation ------------------- *)

(* A counted loop whose body is one block: forms a single-segment looping
   superblock. The [add] at index 2 is the SMC test's mutation target. *)
let counted_loop_items ~n ~inc =
  let i x = Program.I x in
  [
    i (Insn.Mov_ri (Reg.rbx, n));
    i (Insn.Mov_ri (Reg.rcx, 0));
    Program.Label "loop";
    i (Insn.Alu_ri (Insn.Add, Reg.rcx, inc));
    i (Insn.Alu_ri (Insn.Sub, Reg.rbx, 1));
    i (Insn.Cmp_ri (Reg.rbx, 0));
    i (Insn.Jcc (Insn.Ne, Insn.target "loop"));
    i Insn.Halt;
  ]

(* A loop that calls a helper from a hot site every iteration and from a
   second, cold site exactly once after the loop: the helper's [ret]
   predicts the hot return address, so the final call must take the
   indirect-guard side exit with the architecturally-correct rip. *)
let biased_call_items ~n =
  let i x = Program.I x in
  [
    i (Insn.Mov_ri (Reg.rbx, n));
    i (Insn.Mov_ri (Reg.rcx, 0));
    Program.Label "loop";
    i (Insn.Call (Insn.target "f"));
    i (Insn.Alu_ri (Insn.Sub, Reg.rbx, 1));
    i (Insn.Cmp_ri (Reg.rbx, 0));
    i (Insn.Jcc (Insn.Ne, Insn.target "loop"));
    i (Insn.Call (Insn.target "f"));
    i Insn.Halt;
    Program.Label "f";
    i (Insn.Alu_ri (Insn.Add, Reg.rcx, 7));
    i Insn.Ret;
  ]

let run_traced_vs_block ~name items =
  let block_cpu = Cpu.create () in
  Cpu.set_traces_enabled block_cpu false;
  let block = run_case_on ~hooks:false block_cpu (fun () -> Cpu.run block_cpu) items in
  let trace_cpu = Cpu.create () in
  force_traces trace_cpu;
  let traced = run_case_on ~hooks:false trace_cpu (fun () -> Cpu.run trace_cpu) items in
  Alcotest.(check (list string)) (name ^ ": trace tier = block tier") []
    (diff_fields traced block);
  trace_cpu.Cpu.traces

let trace_side_exit_jcc () =
  (* 40 iterations: the loop's jcc is overwhelmingly taken, so the formed
     superblock predicts taken and loops internally; the final fall-through
     iteration must leave through the side exit, not corrupt state. *)
  let tier = run_traced_vs_block ~name:"counted loop" (counted_loop_items ~n:40 ~inc:3) in
  Alcotest.(check bool) "superblock formed" true (tier.Trace.formed_count >= 1);
  Alcotest.(check bool) "insns retired inside superblocks" true (tier.Trace.covered_insns > 0);
  let loopers = List.filter (fun s -> s.Trace.t_loops) (Trace.stats tier) in
  Alcotest.(check bool) "a looping trace formed" true (loopers <> []);
  let side_exits =
    List.fold_left (fun a s -> a + s.Trace.t_side_exits) 0 (Trace.stats tier)
  in
  Alcotest.(check bool) "loop exit took a side exit" true (side_exits >= 1)

let trace_side_exit_indirect () =
  (* Both mispredict flavors in one run: the loop-ending jcc fall-through
     and the helper's ret returning to the cold call site. *)
  let tier = run_traced_vs_block ~name:"biased call" (biased_call_items ~n:40) in
  Alcotest.(check bool) "superblocks formed" true (tier.Trace.formed_count >= 1);
  let side_exits =
    List.fold_left (fun a s -> a + s.Trace.t_side_exits) 0 (Trace.stats tier)
  in
  Alcotest.(check bool) "jcc exit and ret mispredict both side-exited" true (side_exits >= 2)

let reset_for_rerun cpu =
  cpu.Cpu.halted <- false;
  cpu.Cpu.rip <- 0

let smc_invalidates_active_superblock () =
  let cpu = Cpu.create () in
  force_traces cpu;
  let prog = Program.assemble (counted_loop_items ~n:50 ~inc:1) in
  Cpu.load_program cpu prog;
  (match Cpu.run cpu with Cpu.Halted -> () | Cpu.Out_of_fuel -> Alcotest.fail "fuel");
  Alcotest.(check int) "original increment" 50 (Cpu.get_gpr cpu Reg.rcx);
  let tier = cpu.Cpu.traces in
  Alcotest.(check bool) "loop ran as a superblock" true
    (tier.Trace.formed_count >= 1 && tier.Trace.covered_insns > 0);
  let formed_before = tier.Trace.formed_count in
  (* Mutate the loop body in place (index 2 = the add), then flush: the
     active superblock must be torn down eagerly... *)
  (Program.code prog).(2) <- Insn.Alu_ri (Insn.Add, Reg.rcx, 2);
  Cpu.flush_translations cpu;
  Alcotest.(check int) "flush empties the trace registry" 0 (Trace.live_count tier);
  Alcotest.(check bool) "flush counted the invalidation" true
    (tier.Trace.invalidated_count >= 1);
  (* ...and the rerun must re-form under the new code and execute the new
     semantics. *)
  reset_for_rerun cpu;
  (match Cpu.run cpu with Cpu.Halted -> () | Cpu.Out_of_fuel -> Alcotest.fail "fuel");
  Alcotest.(check int) "mutated increment after flush" 100 (Cpu.get_gpr cpu Reg.rcx);
  Alcotest.(check bool) "superblock re-formed over the new code" true
    (cpu.Cpu.traces.Trace.formed_count > formed_before)

let eager_link_drop () =
  (* Chained successor links must be severed by the flush itself, not
     left for lazy generation checks: the trace tier bakes block
     references into superblocks, so a dangling link is a correctness
     hazard even if the block tier would never follow it. *)
  let cpu = Cpu.create () in
  Cpu.set_traces_enabled cpu false;
  Cpu.load_program cpu (Program.assemble (counted_loop_items ~n:20 ~inc:1));
  (match Cpu.run cpu with Cpu.Halted -> () | Cpu.Out_of_fuel -> Alcotest.fail "fuel");
  match Ublock.peek cpu.Cpu.tcache 2 with
  | None -> Alcotest.fail "loop block not cached after a hot run"
  | Some b ->
    Alcotest.(check bool) "loop back-edge link populated" true
      (b.Ublock.succ_taken != Ublock.dummy_block);
    Cpu.flush_translations cpu;
    Alcotest.(check bool) "flush severed the taken link" true
      (b.Ublock.succ_taken == Ublock.dummy_block);
    Alcotest.(check bool) "flush severed the fall link" true
      (b.Ublock.succ_fall == Ublock.dummy_block);
    Alcotest.(check bool) "stale block no longer peekable" true
      (Ublock.peek cpu.Cpu.tcache 2 = None)

(* --- trace tier on real workloads: golden cycles ------------------------- *)

(* mcf, hmmer and povray at 300 iterations under the baseline, MPX-rw and
   SFI-rw: enough iterations that superblocks form and carry most of the
   run, with no site map installed (the figures' configuration). Each
   run's insns, then cycles and per-class CPI totals with the trace tier
   on and with it off, are pinned to these values. The two tiers differ
   only by the no-op issue the trace tier charges padded segments (see
   [Trace.seg]); everything else must match to the last bit. *)
let golden_runs =
  [
    ( "mcf", "baseline", 455465,
      (0x1.a8da1p+19, [| 0x1.b5013p+18; 0x1.1cp+5; 0x0p+0; 0x1.1528p+15; 0x1.3b6dep+18; 0x1.a552p+15;
         0x1.337ep+13; 0x1.44p+8 |]),
      (0x1.a8bcfp+19, [| 0x1.b4d73p+18; 0x1.1cp+5; 0x0p+0; 0x1.1528p+15; 0x1.3b5dap+18; 0x1.a552p+15;
         0x1.337ep+13; 0x1.44p+8 |]) );
    ( "mcf", "MPX-rw", 745881,
      (0x1.c44b9p+19, [| 0x1.bab99p+18; 0x1p+5; 0x0p+0; 0x1.1a7ap+15; 0x1.40e78p+18; 0x1.64bcp+15;
         0x1.ace4p+12; 0x1.b29ep+15 |]),
      (0x1.c42e7p+19, [| 0x1.bab99p+18; 0x1p+5; 0x0p+0; 0x1.1a7ap+15; 0x1.40ad4p+18; 0x1.64bcp+15;
         0x1.ace4p+12; 0x1.b29ep+15 |]) );
    ( "mcf", "SFI-rw", 891089,
      (0x1.e3b9e8p+19, [| 0x1.1ab638p+19; 0x1.26p+5; 0x0p+0; 0x1.1cc8p+15; 0x1.44f18p+18; 0x1.23b2p+15;
         0x1.2b1cp+12; 0x1.44p+8 |]),
      (0x1.e3b1c8p+19, [| 0x1.1acb38p+19; 0x1.26p+5; 0x0p+0; 0x1.1cc8p+15; 0x1.44b74p+18; 0x1.23b2p+15;
         0x1.2b1cp+12; 0x1.44p+8 |]) );
    ( "hmmer", "baseline", 262265,
      (0x1.6e038p+17, [| 0x1.5067cp+16; 0x1.39p+7; 0x0p+0; 0x1.8516p+15; 0x1.554p+10; 0x1.0784p+14;
         0x1.fff7p+14; 0x1.44p+8 |]),
      (0x1.6d8fp+17, [| 0x1.4f7ecp+16; 0x1.39p+7; 0x0p+0; 0x1.8516p+15; 0x1.554p+10; 0x1.0784p+14;
         0x1.fff7p+14; 0x1.44p+8 |]) );
    ( "hmmer", "MPX-rw", 588081,
      (0x1.961c4p+17, [| 0x1.a9174p+16; 0x1.16p+7; 0x0p+0; 0x1.88dep+15; 0x1.55cp+10; 0x1.b0a8p+13;
         0x1.a375p+14; 0x1.9dep+12 |]),
      (0x1.961c4p+17, [| 0x1.a9174p+16; 0x1.16p+7; 0x0p+0; 0x1.88dep+15; 0x1.55cp+10; 0x1.b0a8p+13;
         0x1.a375p+14; 0x1.9dep+12 |]) );
    ( "hmmer", "SFI-rw", 750989,
      (0x1.24043p+18, [| 0x1.c8542p+17; 0x1.518p+7; 0x0p+0; 0x1.8fccp+15; 0x1.538p+10; 0x1.ep+12;
         0x1.247cp+12; 0x1.44p+8 |]),
      (0x1.24043p+18, [| 0x1.c8542p+17; 0x1.518p+7; 0x0p+0; 0x1.8fccp+15; 0x1.538p+10; 0x1.ep+12;
         0x1.247cp+12; 0x1.44p+8 |]) );
    ( "povray", "baseline", 546680,
      (0x1.8ad5dp+18, [| 0x1.2d939p+18; 0x0p+0; 0x0p+0; 0x1.23ep+13; 0x1.04p+8; 0x1.2e864p+16;
         0x1.e7acp+12; 0x1.44p+9 |]),
      (0x1.8ad5dp+18, [| 0x1.2d939p+18; 0x0p+0; 0x0p+0; 0x1.23ep+13; 0x1.04p+8; 0x1.2e864p+16;
         0x1.e7acp+12; 0x1.44p+9 |]) );
    ( "povray", "MPX-rw", 781302,
      (0x1.a4236p+18, [| 0x1.33bdap+18; 0x0p+0; 0x0p+0; 0x1.3ab8p+13; 0x1.02p+8; 0x1.2d52p+16;
         0x1.8934p+12; 0x1.4d63p+14 |]),
      (0x1.a4236p+18, [| 0x1.33bdap+18; 0x0p+0; 0x0p+0; 0x1.3ab8p+13; 0x1.02p+8; 0x1.2d52p+16;
         0x1.8934p+12; 0x1.4d63p+14 |]) );
    ( "povray", "SFI-rw", 898613,
      (0x1.d251fp+18, [| 0x1.793ap+18; 0x0p+0; 0x0p+0; 0x1.3d98p+13; 0x1.09p+8; 0x1.29cdp+16;
         0x1.e9d8p+11; 0x1.44p+9 |]),
      (0x1.d2183p+18, [| 0x1.79004p+18; 0x0p+0; 0x0p+0; 0x1.3d98p+13; 0x1.09p+8; 0x1.29cdp+16;
         0x1.e9d8p+11; 0x1.44p+9 |]) );
  ]

let golden_config = function
  | "baseline" -> None
  | "MPX-rw" -> Some (Framework.config ~address_kind:Instr.Reads_and_writes Technique.Mpx)
  | "SFI-rw" -> Some (Framework.config ~address_kind:Instr.Reads_and_writes Technique.Sfi)
  | c -> invalid_arg c

let trace_tier_golden () =
  List.iter
    (fun (bench, cname, insns, traced_golden, block_golden) ->
      let name = bench ^ "/" ^ cname in
      let run ~traces =
        let lowered =
          Workloads.Synth.lowered ~iterations:300 (Workloads.Spec2006.find bench)
        in
        let p =
          match golden_config cname with
          | None -> Framework.prepare_baseline lowered
          | Some c -> Framework.prepare c lowered
        in
        let cpu = p.Framework.cpu in
        Cpu.set_traces_enabled cpu traces;
        (match Framework.run p with
        | Cpu.Halted -> ()
        | Cpu.Out_of_fuel -> Alcotest.fail (name ^ ": out of fuel"));
        cpu
      in
      let traced = run ~traces:true in
      Alcotest.(check bool) (name ^ ": superblocks carried part of the run") true
        (traced.Cpu.traces.Trace.covered_insns > 0);
      List.iter
        (fun (tier, cpu, (cycles, cpi)) ->
          let what = Printf.sprintf "%s (%s)" name tier in
          Alcotest.(check int) (what ^ ": insns") insns cpu.Cpu.counters.Cpu.insns;
          Alcotest.(check (float 0.0)) (what ^ ": cycles") cycles (Cpu.cycles cpu);
          Alcotest.(check (array (float 0.0))) (what ^ ": CPI totals") cpi
            (Pipeline.cpi_totals cpu.Cpu.pipe))
        [ ("trace tier", traced, traced_golden); ("block tier", run ~traces:false, block_golden) ])
    golden_runs

(* --- translation-cache invalidation ------------------------------------ *)

let translation_invalidation () =
  let cpu = Cpu.create () in
  let prog = Program.assemble [ Program.I (Insn.Mov_ri (Reg.rax, 1)); Program.I Insn.Halt ] in
  Cpu.load_program cpu prog;
  (match Cpu.run cpu with Cpu.Halted -> () | Cpu.Out_of_fuel -> Alcotest.fail "fuel");
  Alcotest.(check int) "first run executes original code" 1 (Cpu.get_gpr cpu Reg.rax);
  (* In-place mutation of the code array is invisible to the cached
     translation until flushed — that is the documented contract. *)
  (Program.code prog).(0) <- Insn.Mov_ri (Reg.rax, 2);
  reset_for_rerun cpu;
  (match Cpu.run cpu with Cpu.Halted -> () | Cpu.Out_of_fuel -> Alcotest.fail "fuel");
  Alcotest.(check int) "stale translation still executes old code" 1 (Cpu.get_gpr cpu Reg.rax);
  Cpu.flush_translations cpu;
  reset_for_rerun cpu;
  (match Cpu.run cpu with Cpu.Halted -> () | Cpu.Out_of_fuel -> Alcotest.fail "fuel");
  Alcotest.(check int) "flush_translations picks up mutated code" 2 (Cpu.get_gpr cpu Reg.rax)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_fast_equals_hooked;
    QCheck_alcotest.to_alcotest prop_fast_equals_hooked_mpk;
    Alcotest.test_case "every Insn constructor: fast loop = hooked step = golden" `Quick
      exhaustive_differential;
    Alcotest.test_case "1-vCPU Machine.run = Cpu.run (quanta 1/7/1000)" `Quick
      machine_single_core_differential;
    Alcotest.test_case "every Insn constructor: three tiers = golden" `Quick
      three_tier_differential;
    Alcotest.test_case "trace tier under Machine quanta 1/7/1000" `Quick
      machine_trace_tier_differential;
    Alcotest.test_case "fault precision mid-trace" `Quick trace_fault_precision;
    QCheck_alcotest.to_alcotest prop_vec_in_place;
    Alcotest.test_case "crypt@call-ret allocates < 0.5 minor words/insn" `Quick
      crypt_minor_words_per_insn;
    Alcotest.test_case "profiled SFI-rw mcf, hooked: < 0.1 minor words/insn" `Quick
      hooked_minor_words_per_insn;
    Alcotest.test_case "mcf/hmmer/povray base+MPK, fast: < 0.05 minor words/insn" `Quick
      fast_minor_words_per_insn;
    QCheck_alcotest.to_alcotest prop_hot_traces_invisible_under_techniques;
    Alcotest.test_case "superblock side exit: biased jcc loop" `Quick trace_side_exit_jcc;
    Alcotest.test_case "superblock side exit: ret mispredict" `Quick trace_side_exit_indirect;
    Alcotest.test_case "SMC flush tears down active superblock" `Quick
      smc_invalidates_active_superblock;
    Alcotest.test_case "flush severs chain links eagerly" `Quick eager_link_drop;
    Alcotest.test_case "trace tier golden: mcf/hmmer/povray x base/MPX/SFI" `Quick
      trace_tier_golden;
    Alcotest.test_case "translation cache invalidation" `Quick translation_invalidation;
    Alcotest.test_case "store-buffer collision evicts" `Quick store_buffer_eviction;
    Alcotest.test_case "forwarding only from resident line" `Quick
      store_buffer_forwarding_only_resident;
    Alcotest.test_case "store buffer bounded under streaming" `Quick store_buffer_bounded;
  ]
