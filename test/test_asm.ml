(* The textual assembler: parsing, error reporting, disassembly, and the
   parse/print round-trip — including a qcheck property over random
   instructions and an execution-equivalence check through the CPU. *)

open X86sim

let listing =
  {|
; a small program exercising most syntax forms
main:
  mov rax, 0x10
  mov rbx, rax
  mov rcx, [rbx+rdx*8+16]   ; load with full addressing
  mov [rbx-8], rcx
  mov [rbx], 42
  lea rsi, [rbx+24]
  lea rdi, [main]
  add rax, 5
  imul rax, rbx
  cmp rax, 0
  je out
  jmp main
out:
  call helper
  hlt
helper:
  push rbp
  pop rbp
  ret
|}

let test_parse_listing () =
  let prog = Asm.parse_program listing in
  Alcotest.(check bool) "labels resolved" true (Program.has_label prog "helper");
  Alcotest.(check int) "instruction count" 17 (Program.length prog)

let test_parse_errors_carry_line_numbers () =
  let check_fails src expected_line =
    match Asm.parse src with
    | exception Asm.Parse_error { line; _ } ->
      Alcotest.(check int) "line number" expected_line line
    | _ -> Alcotest.fail "expected a parse error"
  in
  check_fails "nop\nbogus rax, rbx\n" 2;
  check_fails "mov rax\n" 1;
  check_fails "mov rax, [rqq+8]\n" 1;
  check_fails "main:\n  nop\n  jne nowhere\n  hlt\n" 3;
  check_fails "a:\n  nop\n\na:\n  hlt\n" 4

let test_mem_operand_forms () =
  let parse_one s =
    match Asm.parse s with
    | [ Program.I i ] -> i
    | _ -> Alcotest.fail "expected one instruction"
  in
  (match parse_one "mov rax, [0x1000]" with
  | Insn.Load (_, m) ->
    Alcotest.(check int) "abs disp" 0x1000 m.Insn.disp;
    Alcotest.(check int) "no base" (-1) m.Insn.base
  | _ -> Alcotest.fail "expected load");
  (match parse_one "mov rax, [rbx+rcx*4-32]" with
  | Insn.Load (_, m) ->
    Alcotest.(check int) "base" Reg.rbx m.Insn.base;
    Alcotest.(check int) "index" Reg.rcx m.Insn.index;
    Alcotest.(check int) "scale" 4 m.Insn.scale;
    Alcotest.(check int) "disp" (-32) m.Insn.disp
  | _ -> Alcotest.fail "expected load");
  match parse_one "mov rax, [rbx+rcx]" with
  | Insn.Load (_, m) ->
    Alcotest.(check int) "index*1" Reg.rcx m.Insn.index;
    Alcotest.(check int) "scale 1" 1 m.Insn.scale
  | _ -> Alcotest.fail "expected load"

let test_special_instructions () =
  let src =
    "bndmk bnd0, 0x0, 0x3fffffffffff\n\
     bndcu r12, bnd0\n\
     bndmov [rbx], bnd1\n\
     bndmov bnd2, [rbx+16]\n\
     movdqa xmm3, [rbx]\n\
     movq xmm1, rax\n\
     aeskeygenassist xmm0, xmm1, 1\n\
     vextracti128 xmm1, ymm4, 1\n\
     vinserti128 ymm5, xmm2, 1\n\
     mulpd xmm6, xmm7\n\
     wrpkru\n\
     vmfunc\n"
  in
  Alcotest.(check int) "all parsed" 12 (List.length (Asm.parse src))

let test_round_trip_listing () =
  let p1 = Asm.parse_program listing in
  let text = Asm.print_program p1 in
  let p2 = Asm.parse_program text in
  Alcotest.(check int) "same length" (Program.length p1) (Program.length p2);
  Array.iteri
    (fun i insn ->
      Alcotest.(check string)
        (Printf.sprintf "insn %d" i)
        (Insn.to_string_named insn)
        (Insn.to_string_named (Program.code p2).(i)))
    (Program.code p1)

let test_parsed_program_executes () =
  let src =
    "main:\n\
    \  mov rax, 0\n\
    \  mov rcx, 10\n\
     loop:\n\
    \  add rax, rcx\n\
    \  sub rcx, 1\n\
    \  jne loop\n\
    \  hlt\n"
  in
  let cpu = Cpu.create () in
  Cpu.load_program cpu (Asm.parse_program src);
  ignore (Cpu.run cpu);
  Alcotest.(check int) "sum 10..1" 55 (Cpu.get_gpr cpu Reg.rax)

(* Random-instruction round trip: to_string_named must re-parse to an
   identical instruction. *)
let gen_insn =
  let open QCheck.Gen in
  let gpr = int_range 0 15 in
  let xmm = int_range 0 15 in
  let bnd = int_range 0 3 in
  let im = int_range (-5000) 100000 in
  let mem =
    map3
      (fun base index disp ->
        let index = if index = base then -1 else index in
        Insn.{ base; index; scale = 8; disp })
      gpr (int_range (-1) 15) (int_range (-256) 4096)
  in
  oneof
    [
      return Insn.Nop;
      return Insn.Ret;
      return Insn.Syscall;
      return Insn.Wrpkru;
      map2 (fun a b -> Insn.Mov_rr (a, b)) gpr gpr;
      map2 (fun a i -> Insn.Mov_ri (a, i)) gpr im;
      map2 (fun a m -> Insn.Load (a, m)) gpr mem;
      map2 (fun m a -> Insn.Store (m, a)) mem gpr;
      map2 (fun m i -> Insn.Store_i (m, i)) mem im;
      map2 (fun a m -> Insn.Lea (a, m)) gpr mem;
      map3 (fun op a b -> Insn.Alu_rr (op, a, b))
        (oneofl Insn.[ Add; Sub; And; Or; Xor; Imul ]) gpr gpr;
      map3 (fun op a i -> Insn.Alu_ri (op, a, i))
        (oneofl Insn.[ Add; Sub; Xor; Shl; Shr ]) gpr im;
      map2 (fun a b -> Insn.Cmp_rr (a, b)) gpr gpr;
      map (fun r -> Insn.Push r) gpr;
      map (fun r -> Insn.Pop r) gpr;
      map (fun r -> Insn.Jmp_r r) gpr;
      map (fun r -> Insn.Call_r r) gpr;
      map2 (fun b r -> Insn.Bndcu (b, r)) bnd gpr;
      map2 (fun b r -> Insn.Bndcl (b, r)) bnd gpr;
      map3 (fun b lo hi -> Insn.Bnd_set (b, lo, lo + abs hi)) bnd im im;
      map2 (fun x m -> Insn.Movdqa_load (x, m)) xmm mem;
      map2 (fun m x -> Insn.Movdqa_store (m, x)) mem xmm;
      map2 (fun a b -> Insn.Pxor (a, b)) xmm xmm;
      map2 (fun a b -> Insn.Aesenc (a, b)) xmm xmm;
      map2 (fun a b -> Insn.Aesimc (a, b)) xmm xmm;
      map2 (fun a b -> Insn.Fp_arith (a, b)) xmm xmm;
      map2 (fun a b -> Insn.Vext_high (a, b)) xmm xmm;
      map2 (fun a b -> Insn.Movq_xr (a, b)) xmm gpr;
    ]

let arb_insn = QCheck.make ~print:Insn.to_string_named gen_insn

let prop_round_trip =
  QCheck.Test.make ~name:"asm round-trips random instructions" ~count:500 arb_insn (fun insn ->
      match Asm.parse (Insn.to_string_named insn) with
      | [ Program.I parsed ] -> Insn.to_string_named parsed = Insn.to_string_named insn
      | _ -> false)

let suite =
  [
    Alcotest.test_case "parse a listing" `Quick test_parse_listing;
    Alcotest.test_case "errors carry line numbers" `Quick test_parse_errors_carry_line_numbers;
    Alcotest.test_case "memory operand forms" `Quick test_mem_operand_forms;
    Alcotest.test_case "special instructions" `Quick test_special_instructions;
    Alcotest.test_case "listing round-trip" `Quick test_round_trip_listing;
    Alcotest.test_case "parsed program executes" `Quick test_parsed_program_executes;
    QCheck_alcotest.to_alcotest prop_round_trip;
  ]
