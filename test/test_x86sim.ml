(* The machine simulator: assembler, execution semantics, memory system,
   protection mechanisms, and the timing model's qualitative properties. *)

open X86sim

let i x = Program.I x
let lbl s = Program.Label s

(* Run an instruction list (auto-appending Halt) on a fresh CPU. *)
let run_insns ?(setup = fun _ -> ()) insns =
  let cpu = Cpu.create () in
  let prog = Program.assemble (List.map i insns @ [ i Insn.Halt ]) in
  Cpu.load_program cpu prog;
  setup cpu;
  (match Cpu.run cpu with
  | Cpu.Halted -> ()
  | Cpu.Out_of_fuel -> Alcotest.fail "out of fuel");
  cpu

let check_gpr cpu r expected msg = Alcotest.(check int) msg expected (Cpu.get_gpr cpu r)

(* --- assembler --- *)

let test_assemble_resolves_labels () =
  let t = Insn.target "end" in
  let prog = Program.assemble [ i (Insn.Jmp t); i Insn.Nop; lbl "end"; i Insn.Halt ] in
  Alcotest.(check int) "resolved" 2 t.Insn.tidx;
  Alcotest.(check int) "label_index" 2 (Program.label_index prog "end")

let test_assemble_duplicate_label () =
  Alcotest.check_raises "dup" (Invalid_argument "Program.assemble: duplicate label \"a\"")
    (fun () -> ignore (Program.assemble [ lbl "a"; lbl "a"; i Insn.Halt ]))

let test_assemble_undefined_label () =
  Alcotest.check_raises "undef" (Invalid_argument "Program.assemble: undefined label \"nowhere\"")
    (fun () -> ignore (Program.assemble [ i (Insn.Jmp (Insn.target "nowhere")) ]))

(* A label-only listing assembles to zero instructions. It used to get a
   phantom Nop pad (Array.make (max count 1)), so running it silently
   retired one instruction before faulting at index 1 instead of faulting
   at index 0 with nothing retired. *)
let test_assemble_empty_program_faults () =
  let prog = Program.assemble [ lbl "only" ] in
  Alcotest.(check int) "no code" 0 (Program.length prog);
  let cpu = Cpu.create () in
  Cpu.load_program cpu prog;
  Alcotest.(check bool) "fetch at 0 faults" true
    (try
       ignore (Cpu.run cpu);
       false
     with Fault.Fault (Fault.Gp_fault _) -> true);
  Alcotest.(check int) "nothing retired" 0 cpu.Cpu.counters.Cpu.insns

let test_fetch_out_of_range () =
  let prog = Program.assemble [ i Insn.Halt ] in
  Alcotest.(check bool) "fetch raises" true
    (try
       ignore (Program.fetch prog 99);
       false
     with Fault.Fault (Fault.Gp_fault _) -> true)

(* --- basic execution --- *)

let test_arith () =
  let cpu =
    run_insns
      [
        Insn.Mov_ri (Reg.rax, 10);
        Insn.Mov_ri (Reg.rbx, 3);
        Insn.Alu_rr (Insn.Add, Reg.rax, Reg.rbx);
        Insn.Alu_ri (Insn.Imul, Reg.rax, 2);
        Insn.Alu_ri (Insn.Sub, Reg.rax, 1);
      ]
  in
  check_gpr cpu Reg.rax 25 "(10+3)*2-1"

let test_logic_shift () =
  let cpu =
    run_insns
      [
        Insn.Mov_ri (Reg.rax, 0xF0);
        Insn.Alu_ri (Insn.And, Reg.rax, 0x3C);
        Insn.Alu_ri (Insn.Or, Reg.rax, 1);
        Insn.Alu_ri (Insn.Xor, Reg.rax, 0xFF);
        Insn.Alu_ri (Insn.Shl, Reg.rax, 4);
        Insn.Alu_ri (Insn.Shr, Reg.rax, 2);
      ]
  in
  (* 0xF0 & 0x3C = 0x30; |1 = 0x31; ^0xFF = 0xCE; <<4 = 0xCE0; >>2 = 0x338 *)
  check_gpr cpu Reg.rax 0x338 "bit ops"

let test_load_store () =
  let addr = Layout.heap_base in
  let cpu =
    run_insns
      ~setup:(fun cpu -> Mmu.map_range cpu.Cpu.mmu ~va:addr ~len:4096 ~writable:true)
      [
        Insn.Mov_ri (Reg.rbx, addr);
        Insn.Store_i (Insn.mem ~base:Reg.rbx 8, 0xdead);
        Insn.Load (Reg.rax, Insn.mem ~base:Reg.rbx 8);
        Insn.Mov_ri (Reg.rcx, 1);
        Insn.Store (Insn.mem ~base:Reg.rbx ~index:Reg.rcx ~scale:8 8, Reg.rax);
        Insn.Load (Reg.rdx, Insn.mem ~base:Reg.rbx 16);
      ]
  in
  check_gpr cpu Reg.rax 0xdead "load back";
  check_gpr cpu Reg.rdx 0xdead "indexed store"

let test_lea_no_memory_access () =
  let cpu =
    run_insns
      [
        Insn.Mov_ri (Reg.rbx, 0x1000);
        Insn.Mov_ri (Reg.rcx, 4);
        Insn.Lea (Reg.rax, Insn.mem ~base:Reg.rbx ~index:Reg.rcx ~scale:8 16);
      ]
  in
  (* lea must not fault even though 0x1030 is unmapped *)
  check_gpr cpu Reg.rax 0x1030 "effective address";
  Alcotest.(check int) "no loads" 0 cpu.Cpu.counters.Cpu.loads

let test_branches () =
  let prog =
    Program.assemble
      [
        i (Insn.Mov_ri (Reg.rax, 0));
        i (Insn.Mov_ri (Reg.rcx, 5));
        lbl "loop";
        i (Insn.Alu_rr (Insn.Add, Reg.rax, Reg.rcx));
        i (Insn.Alu_ri (Insn.Sub, Reg.rcx, 1));
        i (Insn.Jcc (Insn.Ne, Insn.target "loop"));
        i Insn.Halt;
      ]
  in
  let cpu = Cpu.create () in
  Cpu.load_program cpu prog;
  ignore (Cpu.run cpu);
  check_gpr cpu Reg.rax 15 "sum 5..1"

let test_call_ret () =
  let prog =
    Program.assemble
      [
        lbl "main";
        i (Insn.Mov_ri (Reg.rdi, 20));
        i (Insn.Call (Insn.target "double"));
        i Insn.Halt;
        lbl "double";
        i (Insn.Mov_rr (Reg.rax, Reg.rdi));
        i (Insn.Alu_rr (Insn.Add, Reg.rax, Reg.rdi));
        i Insn.Ret;
      ]
  in
  let cpu = Cpu.create () in
  Cpu.load_program cpu prog;
  ignore (Cpu.run cpu);
  check_gpr cpu Reg.rax 40 "call/ret result";
  Alcotest.(check int) "one call" 1 cpu.Cpu.counters.Cpu.calls;
  Alcotest.(check int) "one ret" 1 cpu.Cpu.counters.Cpu.rets

let test_indirect_call () =
  let prog =
    Program.assemble
      [
        lbl "main";
        i (Insn.Mov_ri (Reg.r11, 4)) (* index of "fn" *);
        i (Insn.Call_r Reg.r11);
        i Insn.Halt;
        i Insn.Nop;
        lbl "fn";
        i (Insn.Mov_ri (Reg.rax, 77));
        i Insn.Ret;
      ]
  in
  let cpu = Cpu.create () in
  Cpu.load_program cpu prog;
  ignore (Cpu.run cpu);
  check_gpr cpu Reg.rax 77 "indirect call";
  Alcotest.(check int) "counted as indirect" 1 cpu.Cpu.counters.Cpu.ind_branches

let test_push_pop () =
  let cpu =
    run_insns
      [
        Insn.Mov_ri (Reg.rax, 111);
        Insn.Mov_ri (Reg.rbx, 222);
        Insn.Push Reg.rax;
        Insn.Push Reg.rbx;
        Insn.Pop Reg.rcx;
        Insn.Pop Reg.rdx;
      ]
  in
  check_gpr cpu Reg.rcx 222 "LIFO first";
  check_gpr cpu Reg.rdx 111 "LIFO second"

(* --- memory protection --- *)

let expect_fault insns setup pred msg =
  let cpu = Cpu.create () in
  let prog = Program.assemble (List.map i insns @ [ i Insn.Halt ]) in
  Cpu.load_program cpu prog;
  setup cpu;
  match Cpu.run cpu with
  | exception Fault.Fault f ->
    Alcotest.(check bool) msg true (pred f);
    cpu
  | _ -> Alcotest.fail (msg ^ ": expected a fault")

let test_unmapped_faults () =
  ignore
  @@ expect_fault
       [ Insn.Mov_ri (Reg.rbx, 0x9999000); Insn.Load (Reg.rax, Insn.mem ~base:Reg.rbx 0) ]
       (fun _ -> ())
       (function Fault.Page_fault { access = Fault.Read; _ } -> true | _ -> false)
       "read of unmapped page"

let test_write_to_readonly_faults () =
  ignore
  @@ expect_fault
       [ Insn.Mov_ri (Reg.rbx, Layout.heap_base); Insn.Store_i (Insn.mem ~base:Reg.rbx 0, 1) ]
       (fun cpu -> Mmu.map_range cpu.Cpu.mmu ~va:Layout.heap_base ~len:4096 ~writable:false)
       (function Fault.Page_fault { access = Fault.Write; _ } -> true | _ -> false)
       "write to read-only page"

let test_prot_none_faults () =
  ignore
  @@ expect_fault
       [ Insn.Mov_ri (Reg.rbx, Layout.heap_base); Insn.Load (Reg.rax, Insn.mem ~base:Reg.rbx 0) ]
       (fun cpu ->
         Mmu.map_range cpu.Cpu.mmu ~va:Layout.heap_base ~len:4096 ~writable:true;
         Mmu.protect_range cpu.Cpu.mmu ~va:Layout.heap_base ~len:4096 ~readable:false
           ~writable:false)
       (function Fault.Page_fault { reason = "PROT_NONE page"; _ } -> true | _ -> false)
       "PROT_NONE read"

let test_pkey_blocks_access () =
  (* Page tagged key 1; pkru access-disables key 1. *)
  ignore
  @@ expect_fault
       [ Insn.Mov_ri (Reg.rbx, Layout.heap_base); Insn.Load (Reg.rax, Insn.mem ~base:Reg.rbx 0) ]
       (fun cpu ->
         Mmu.map_range cpu.Cpu.mmu ~va:Layout.heap_base ~len:4096 ~writable:true;
         Mmu.set_pkey_range cpu.Cpu.mmu ~va:Layout.heap_base ~len:4096 ~key:1;
         Cpu.set_pkru cpu (1 lsl 2) (* AD for key 1 *))
       (function Fault.Pkey_violation { key = 1; _ } -> true | _ -> false)
       "pkey AD blocks read"

let test_pkey_write_disable () =
  (* WD blocks writes but allows reads. *)
  let addr = Layout.heap_base in
  let cpu =
    run_insns
      ~setup:(fun cpu ->
        Mmu.map_range cpu.Cpu.mmu ~va:addr ~len:4096 ~writable:true;
        Mmu.poke64 cpu.Cpu.mmu ~va:addr 42;
        Mmu.set_pkey_range cpu.Cpu.mmu ~va:addr ~len:4096 ~key:3;
        Cpu.set_pkru cpu (1 lsl 7) (* WD for key 3 *))
      [ Insn.Mov_ri (Reg.rbx, addr); Insn.Load (Reg.rax, Insn.mem ~base:Reg.rbx 0) ]
  in
  check_gpr cpu Reg.rax 42 "read allowed under WD";
  ignore
  @@ expect_fault
       [ Insn.Mov_ri (Reg.rbx, addr); Insn.Store_i (Insn.mem ~base:Reg.rbx 0, 1) ]
       (fun cpu ->
         Mmu.map_range cpu.Cpu.mmu ~va:addr ~len:4096 ~writable:true;
         Mmu.set_pkey_range cpu.Cpu.mmu ~va:addr ~len:4096 ~key:3;
         Cpu.set_pkru cpu (1 lsl 7))
       (function Fault.Pkey_violation { access = Fault.Write; _ } -> true | _ -> false)
       "write blocked under WD"

let test_wrpkru_updates_and_validates () =
  let cpu =
    run_insns
      [
        Insn.Mov_ri (Reg.rax, 0xC);
        Insn.Mov_ri (Reg.rcx, 0);
        Insn.Mov_ri (Reg.rdx, 0);
        Insn.Wrpkru;
        Insn.Mov_ri (Reg.rax, 0);
        Insn.Rdpkru;
      ]
  in
  check_gpr cpu Reg.rax 0xC "rdpkru reads back";
  Alcotest.(check int) "wrpkru counted" 1 cpu.Cpu.counters.Cpu.wrpkrus;
  ignore
  @@ expect_fault
       [ Insn.Mov_ri (Reg.rcx, 5); Insn.Wrpkru ]
       (fun _ -> ())
       (function Fault.Gp_fault _ -> true | _ -> false)
       "wrpkru with rcx<>0 is #GP"

let test_bounds_check () =
  let cpu =
    run_insns
      [
        Insn.Bnd_set (0, 0, Layout.sensitive_base);
        Insn.Mov_ri (Reg.rax, 0x1234);
        Insn.Bndcu (0, Reg.rax);
      ]
  in
  Alcotest.(check int) "check counted" 1 cpu.Cpu.counters.Cpu.bnd_checks;
  ignore
  @@ expect_fault
       [
         Insn.Bnd_set (0, 0, Layout.sensitive_base);
         Insn.Mov_ri (Reg.rax, Layout.sensitive_base + 8);
         Insn.Bndcu (0, Reg.rax);
       ]
       (fun _ -> ())
       (function Fault.Bound_violation { reg = 0; _ } -> true | _ -> false)
       "bndcu above bound is #BR";
  ignore
  @@ expect_fault
       [
         Insn.Bnd_set (1, 0x1000, max_int);
         Insn.Mov_ri (Reg.rax, 0x500);
         Insn.Bndcl (1, Reg.rax);
       ]
       (fun _ -> ())
       (function Fault.Bound_violation { reg = 1; _ } -> true | _ -> false)
       "bndcl below bound is #BR"

let test_bndmov_spill_reload () =
  let addr = Layout.heap_base in
  let cpu =
    run_insns
      ~setup:(fun cpu -> Mmu.map_range cpu.Cpu.mmu ~va:addr ~len:4096 ~writable:true)
      [
        Insn.Bnd_set (0, 0x111, 0x999);
        Insn.Mov_ri (Reg.rbx, addr);
        Insn.Bndmov_store (Insn.mem ~base:Reg.rbx 0, 0);
        Insn.Bnd_set (0, 0, 0);
        Insn.Bndmov_load (0, Insn.mem ~base:Reg.rbx 0);
      ]
  in
  Alcotest.(check int) "lower restored" 0x111 cpu.Cpu.bnd_lower.(0);
  Alcotest.(check int) "upper restored" 0x999 cpu.Cpu.bnd_upper.(0)

let test_vmfunc_outside_vmx_is_ud () =
  ignore
  @@ expect_fault
       [ Insn.Mov_ri (Reg.rax, 0); Insn.Mov_ri (Reg.rcx, 0); Insn.Vmfunc ]
       (fun _ -> ())
       (function Fault.Undefined _ -> true | _ -> false)
       "vmfunc outside guest mode"

(* --- AES instruction semantics match the aesni library composition --- *)

let test_aes_insns_encrypt () =
  let key = Aesni.Aes.block_of_hex "000102030405060708090a0b0c0d0e0f" in
  let pt = Aesni.Aes.block_of_hex "00112233445566778899aabbccddeeff" in
  let keys = Aesni.Aes.expand_key key in
  let cpu = Cpu.create () in
  (* xmm0 = state, xmm1..xmm11 = round keys (via direct register setup) *)
  Cpu.set_xmm cpu 0 pt;
  Array.iteri (fun r k -> if r <= 10 then Cpu.set_xmm cpu (1 + r) k) keys;
  let body =
    [ i (Insn.Pxor (0, 1)) ]
    @ List.init 9 (fun r -> i (Insn.Aesenc (0, 2 + r)))
    @ [ i (Insn.Aesenclast (0, 11)); i Insn.Halt ]
  in
  let prog = Program.assemble body in
  cpu.Cpu.program <- prog;
  cpu.Cpu.rip <- 0;
  ignore (Cpu.run cpu);
  Alcotest.(check string) "matches FIPS" "69c4e0d86a7b0430d8cdb78070b4c55a"
    (Aesni.Aes.hex_of_block (Cpu.get_xmm cpu 0));
  Alcotest.(check int) "aes ops counted" 10 cpu.Cpu.counters.Cpu.aes_ops

let test_ymm_high_survives_xmm_ops () =
  let secret = Aesni.Aes.block_of_hex "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa" in
  let cpu = Cpu.create () in
  Cpu.set_ymm_high cpu 2 secret;
  let prog =
    Program.assemble
      [
        i (Insn.Mov_ri (Reg.rax, 123));
        i (Insn.Movq_xr (2, Reg.rax)) (* legacy-SSE write to xmm2 low lane *);
        i (Insn.Pxor (2, 2));
        i (Insn.Vext_high (3, 2)) (* fetch high half into xmm3 *);
        i Insn.Halt;
      ]
  in
  Cpu.load_program cpu prog;
  ignore (Cpu.run cpu);
  Alcotest.(check string) "high half preserved"
    (Aesni.Aes.hex_of_block secret)
    (Aesni.Aes.hex_of_block (Cpu.get_xmm cpu 3))

(* --- syscalls --- *)

let test_mmap_syscall () =
  let cpu =
    run_insns
      [
        Insn.Mov_ri (Reg.rax, Cpu.sys_mmap);
        Insn.Mov_ri (Reg.rdi, 0);
        Insn.Mov_ri (Reg.rsi, 8192);
        Insn.Syscall;
        Insn.Mov_rr (Reg.rbx, Reg.rax);
        Insn.Store_i (Insn.mem ~base:Reg.rbx 0, 55) (* returned memory is usable *);
        Insn.Load (Reg.rcx, Insn.mem ~base:Reg.rbx 0);
      ]
  in
  check_gpr cpu Reg.rcx 55 "mmap'd memory usable";
  Alcotest.(check int) "syscall counted" 1 cpu.Cpu.counters.Cpu.syscalls

(* A guest mmap the frame pool cannot hold answers ENOMEM and maps nothing,
   instead of raising out of [Cpu.run] after a partial mapping. *)
let mmap_prog len =
  Program.assemble
    (List.map i
       [
         Insn.Mov_ri (Reg.rax, Cpu.sys_mmap);
         Insn.Mov_ri (Reg.rdi, 0);
         Insn.Mov_ri (Reg.rsi, len);
         Insn.Syscall;
         Insn.Halt;
       ])

let run_mmap cpu len =
  Cpu.load_program cpu (mmap_prog len);
  (match Cpu.run cpu with
  | Cpu.Halted -> ()
  | Cpu.Out_of_fuel -> Alcotest.fail "out of fuel");
  Cpu.get_gpr cpu Reg.rax

let test_mmap_enomem_small_pool () =
  let m = Machine.create ~max_frames:200 () in
  let cpu = Machine.cpu m 0 in
  let phys = cpu.Cpu.mmu.Mmu.phys in
  let before = Physmem.frame_count phys in
  Alcotest.(check int) "1 MiB over a 200-frame pool is ENOMEM" (-12) (run_mmap cpu (1 lsl 20));
  Alcotest.(check int) "nothing mapped" before (Physmem.frame_count phys);
  let addr = run_mmap cpu 8192 in
  Alcotest.(check bool) "a request that fits still maps" true (addr > 0);
  Alcotest.(check bool) "at the first mmap address" true (Mmu.is_mapped cpu.Cpu.mmu ~va:addr)

let test_mmap_enomem_huge_length () =
  let cpu = Cpu.create () in
  let before = Physmem.frame_count cpu.Cpu.mmu.Mmu.phys in
  Alcotest.(check int) "max_int length is ENOMEM" (-12) (run_mmap cpu max_int);
  Alcotest.(check int) "nothing mapped" before (Physmem.frame_count cpu.Cpu.mmu.Mmu.phys)

let test_exit_syscall_halts () =
  let cpu =
    run_insns
      [
        Insn.Mov_ri (Reg.rax, Cpu.sys_exit);
        Insn.Syscall;
        Insn.Mov_ri (Reg.rbx, 999) (* must not run *);
      ]
  in
  check_gpr cpu Reg.rbx 0 "nothing after exit"

let test_mprotect_syscall () =
  let addr = Layout.heap_base in
  ignore
  @@ expect_fault
       [
         Insn.Mov_ri (Reg.rax, Cpu.sys_mprotect);
         Insn.Mov_ri (Reg.rdi, addr);
         Insn.Mov_ri (Reg.rsi, 4096);
         Insn.Mov_ri (Reg.rdx, 1) (* PROT_READ only *);
         Insn.Syscall;
         Insn.Mov_ri (Reg.rbx, addr);
         Insn.Store_i (Insn.mem ~base:Reg.rbx 0, 1);
       ]
       (fun cpu -> Mmu.map_range cpu.Cpu.mmu ~va:addr ~len:4096 ~writable:true)
       (function Fault.Page_fault { access = Fault.Write; _ } -> true | _ -> false)
       "write after mprotect(R) faults"

let test_unknown_syscall_enosys () =
  let cpu = run_insns [ Insn.Mov_ri (Reg.rax, 5555); Insn.Syscall ] in
  check_gpr cpu Reg.rax (-38) "ENOSYS"

(* --- fault handler actions --- *)

let test_fault_skip_resumes () =
  let cpu = Cpu.create () in
  let prog =
    Program.assemble
      [
        i (Insn.Mov_ri (Reg.rbx, 0x9990000));
        i (Insn.Load (Reg.rax, Insn.mem ~base:Reg.rbx 0)) (* faults *);
        i (Insn.Mov_ri (Reg.rcx, 7)) (* resumed here *);
        i Insn.Halt;
      ]
  in
  Cpu.load_program cpu prog;
  cpu.Cpu.fault_handler <- (fun _ _ -> Cpu.Fault_skip);
  ignore (Cpu.run cpu);
  check_gpr cpu Reg.rcx 7 "execution resumed";
  Alcotest.(check int) "fault counted" 1 cpu.Cpu.counters.Cpu.faults

let test_fault_halt_stops () =
  let cpu = Cpu.create () in
  let prog =
    Program.assemble
      [
        i (Insn.Mov_ri (Reg.rbx, 0x9990000));
        i (Insn.Load (Reg.rax, Insn.mem ~base:Reg.rbx 0));
        i (Insn.Mov_ri (Reg.rcx, 7));
        i Insn.Halt;
      ]
  in
  Cpu.load_program cpu prog;
  cpu.Cpu.fault_handler <- (fun _ _ -> Cpu.Fault_halt);
  ignore (Cpu.run cpu);
  check_gpr cpu Reg.rcx 0 "halted before resume"

(* --- timing model qualitative properties --- *)

let measure ?(setup = fun _ -> ()) insns =
  let cpu = run_insns ~setup insns in
  Cpu.cycles cpu

let test_dependency_chain_slower_than_parallel () =
  (* Same op count; chained ALU vs independent ALU. *)
  let chained =
    Insn.Mov_ri (Reg.rax, 1)
    :: List.concat (List.init 64 (fun _ -> [ Insn.Alu_ri (Insn.Add, Reg.rax, 1) ]))
  in
  let parallel =
    Insn.Mov_ri (Reg.rax, 1)
    :: List.concat
         (List.init 16 (fun _ ->
              [
                Insn.Alu_ri (Insn.Add, Reg.rax, 1);
                Insn.Alu_ri (Insn.Add, Reg.rbx, 1);
                Insn.Alu_ri (Insn.Add, Reg.rcx, 1);
                Insn.Alu_ri (Insn.Add, Reg.rdx, 1);
              ]))
  in
  let tc = measure chained and tp = measure parallel in
  Alcotest.(check bool)
    (Printf.sprintf "chain (%.1f) slower than parallel (%.1f)" tc tp)
    true (tc > tp *. 1.5)

let test_serializing_insn_blocks () =
  let plain = List.concat (List.init 32 (fun _ -> [ Insn.Alu_ri (Insn.Add, Reg.rax, 1) ])) in
  let fenced =
    List.concat (List.init 32 (fun _ -> [ Insn.Alu_ri (Insn.Add, Reg.rbx, 1); Insn.Cpuid ]))
  in
  Alcotest.(check bool) "cpuid costs" true (measure fenced > measure plain +. 1000.0)

let test_cache_locality_matters () =
  (* Dependent pointer-chase: a chain inside one cache line vs a chain
     striding across pages. Dependence defeats memory-level parallelism, so
     per-access latency shows directly. *)
  let addr = Layout.heap_base in
  let chase = List.init 256 (fun _ -> Insn.Load (Reg.rbx, Insn.mem ~base:Reg.rbx 0)) in
  let setup_hot cpu =
    Mmu.map_range cpu.Cpu.mmu ~va:addr ~len:4096 ~writable:true;
    Mmu.poke64 cpu.Cpu.mmu ~va:addr addr (* self-loop: stays in one line *)
  in
  let setup_cold cpu =
    Mmu.map_range cpu.Cpu.mmu ~va:addr ~len:(1 lsl 23) ~writable:true;
    for k = 0 to 256 do
      Mmu.poke64 cpu.Cpu.mmu ~va:(addr + (k * 16384)) (addr + ((k + 1) * 16384))
    done
  in
  let hot = measure ~setup:setup_hot (Insn.Mov_ri (Reg.rbx, addr) :: chase)
  and cold = measure ~setup:setup_cold (Insn.Mov_ri (Reg.rbx, addr) :: chase) in
  Alcotest.(check bool)
    (Printf.sprintf "cold (%.0f) much slower than hot (%.0f)" cold hot)
    true
    (cold > hot *. 10.0)

let test_tlb_hits_after_warmup () =
  let addr = Layout.heap_base in
  let insns =
    Insn.Mov_ri (Reg.rbx, addr)
    :: List.concat (List.init 64 (fun _ -> [ Insn.Load (Reg.rax, Insn.mem ~base:Reg.rbx 0) ]))
  in
  let cpu =
    run_insns ~setup:(fun cpu -> Mmu.map_range cpu.Cpu.mmu ~va:addr ~len:4096 ~writable:true)
      insns
  in
  let tlb = cpu.Cpu.mmu.Mmu.tlb in
  Alcotest.(check bool) "mostly hits" true (Tlb.hits tlb > 60)

let test_ipc_reasonable () =
  (* A realistic mix should sustain IPC between 0.5 and 4. *)
  let body =
    List.concat
      (List.init 100 (fun _ ->
           [
             Insn.Alu_ri (Insn.Add, Reg.rax, 1);
             Insn.Alu_ri (Insn.Add, Reg.rbx, 2);
             Insn.Mov_rr (Reg.rcx, Reg.rax);
           ]))
  in
  let cpu = run_insns body in
  let ipc = Pipeline.ipc cpu.Cpu.pipe in
  Alcotest.(check bool) (Printf.sprintf "ipc=%.2f" ipc) true (ipc > 0.5 && ipc < 4.0)

let test_single_bndcu_cheaper_than_double () =
  (* The paper's key MPX observation (Table 4): one check is much cheaper
     than upper+lower. Measure the marginal cost within a dependent loop. *)
  let addr = Layout.heap_base in
  let setup cpu = Mmu.map_range cpu.Cpu.mmu ~va:addr ~len:4096 ~writable:true in
  let base body =
    Insn.Bnd_set (0, 0, Layout.sensitive_base)
    :: Insn.Mov_ri (Reg.rbx, addr)
    :: List.concat
         (List.init 200 (fun _ -> Insn.Lea (Reg.rcx, Insn.mem ~base:Reg.rbx 8) :: body))
  in
  let none = measure ~setup (base [ Insn.Store (Insn.mem ~base:Reg.rcx 0, Reg.rax) ])
  and single =
    measure ~setup
      (base [ Insn.Bndcu (0, Reg.rcx); Insn.Store (Insn.mem ~base:Reg.rcx 0, Reg.rax) ])
  and double =
    measure ~setup
      (base
         [
           Insn.Bndcl (0, Reg.rcx);
           Insn.Bndcu (0, Reg.rcx);
           Insn.Store (Insn.mem ~base:Reg.rcx 0, Reg.rax);
         ])
  in
  Alcotest.(check bool)
    (Printf.sprintf "none=%.0f single=%.0f double=%.0f" none single double)
    true
    (single -. none <= (double -. none) /. 1.5)

let suite =
  [
    Alcotest.test_case "assemble resolves labels" `Quick test_assemble_resolves_labels;
    Alcotest.test_case "assemble rejects duplicate labels" `Quick test_assemble_duplicate_label;
    Alcotest.test_case "assemble rejects undefined labels" `Quick test_assemble_undefined_label;
    Alcotest.test_case "empty program faults at fetch" `Quick test_assemble_empty_program_faults;
    Alcotest.test_case "fetch out of range" `Quick test_fetch_out_of_range;
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "logic and shifts" `Quick test_logic_shift;
    Alcotest.test_case "load/store" `Quick test_load_store;
    Alcotest.test_case "lea does not access memory" `Quick test_lea_no_memory_access;
    Alcotest.test_case "loop branch" `Quick test_branches;
    Alcotest.test_case "call/ret" `Quick test_call_ret;
    Alcotest.test_case "indirect call" `Quick test_indirect_call;
    Alcotest.test_case "push/pop" `Quick test_push_pop;
    Alcotest.test_case "unmapped access faults" `Quick test_unmapped_faults;
    Alcotest.test_case "read-only write faults" `Quick test_write_to_readonly_faults;
    Alcotest.test_case "PROT_NONE faults" `Quick test_prot_none_faults;
    Alcotest.test_case "pkey AD blocks access" `Quick test_pkey_blocks_access;
    Alcotest.test_case "pkey WD blocks writes only" `Quick test_pkey_write_disable;
    Alcotest.test_case "wrpkru/rdpkru" `Quick test_wrpkru_updates_and_validates;
    Alcotest.test_case "MPX bounds checks" `Quick test_bounds_check;
    Alcotest.test_case "bndmov spill/reload" `Quick test_bndmov_spill_reload;
    Alcotest.test_case "vmfunc outside VMX" `Quick test_vmfunc_outside_vmx_is_ud;
    Alcotest.test_case "AES instruction sequence" `Quick test_aes_insns_encrypt;
    Alcotest.test_case "ymm high half survives xmm ops" `Quick test_ymm_high_survives_xmm_ops;
    Alcotest.test_case "mmap syscall" `Quick test_mmap_syscall;
    Alcotest.test_case "mmap over the frame pool is ENOMEM" `Quick test_mmap_enomem_small_pool;
    Alcotest.test_case "mmap of max_int bytes is ENOMEM" `Quick test_mmap_enomem_huge_length;
    Alcotest.test_case "exit syscall halts" `Quick test_exit_syscall_halts;
    Alcotest.test_case "mprotect syscall" `Quick test_mprotect_syscall;
    Alcotest.test_case "unknown syscall ENOSYS" `Quick test_unknown_syscall_enosys;
    Alcotest.test_case "fault skip resumes" `Quick test_fault_skip_resumes;
    Alcotest.test_case "fault halt stops" `Quick test_fault_halt_stops;
    Alcotest.test_case "dependency chains cost" `Quick test_dependency_chain_slower_than_parallel;
    Alcotest.test_case "serializing instructions cost" `Quick test_serializing_insn_blocks;
    Alcotest.test_case "cache locality" `Quick test_cache_locality_matters;
    Alcotest.test_case "tlb warmup" `Quick test_tlb_hits_after_warmup;
    Alcotest.test_case "ipc in plausible range" `Quick test_ipc_reasonable;
    Alcotest.test_case "single vs double bounds check" `Quick test_single_bndcu_cheaper_than_double;
  ]
