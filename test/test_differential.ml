(* Differential testing: the IR interpreter and the lowered machine
   execution are two independent implementations of the same semantics.
   Generate random (but well-formed) IR programs and check they agree on
   the return value and on final memory — under no instrumentation and
   under every isolation technique (which must be semantics-preserving for
   programs whose safe-region accesses are annotated). *)

open Ir.Ir_types
open Memsentry

(* --- random program generator ----------------------------------------- *)

(* A generation recipe: a seed expands deterministically into a program
   with straight-line arithmetic, global loads/stores, a bounded loop and
   a helper call. Shrinking works on the seed. *)

type recipe = { seed : int; n_ops : int; loop_iters : int; use_call : bool }

let gen_recipe =
  QCheck.Gen.(
    map4
      (fun seed n_ops loop_iters use_call -> { seed; n_ops; loop_iters; use_call })
      (int_range 1 1_000_000) (int_range 1 25) (int_range 1 8) bool)

let arb_recipe =
  QCheck.make
    ~print:(fun r ->
      Printf.sprintf "{seed=%d; n_ops=%d; loop_iters=%d; use_call=%b}" r.seed r.n_ops
        r.loop_iters r.use_call)
    gen_recipe

(* [sensitive:false] builds the same program shape without the safe-region
   accesses — used by the verifier property tests, where annotated safe
   accesses are (by design) the address-based techniques' audit surface
   rather than verification failures. *)
let build_program ?(sensitive = true) (r : recipe) =
  let rng = Ms_util.Prng.create ~seed:r.seed in
  let b = Ir.Builder.create () in
  Ir.Builder.add_global b ~name:"g" ~size:256 ();
  Ir.Builder.add_global b ~name:"sens" ~size:32 ~sensitive:true ();
  let safe_ids = ref [] in
  if r.use_call then begin
    Ir.Builder.start_func b ~name:"helper" ~nparams:2;
    let s = Ir.Builder.emit_binop b Mul (Var 0) (Const 3) in
    let s2 = Ir.Builder.emit_binop b Add (Var s) (Var 1) in
    Ir.Builder.emit_ret b (Some (Var s2))
  end;
  Ir.Builder.start_func b ~name:"main" ~nparams:0;
  let acc = Ir.Builder.emit_assign b (Const (r.seed land 0xFFFF)) in
  let it = Ir.Builder.emit_assign b (Const r.loop_iters) in
  let g = Ir.Builder.emit_addr_of_global b "g" in
  let sens = Ir.Builder.emit_addr_of_global b "sens" in
  (* One annotated access to the sensitive global. *)
  if sensitive then begin
    Ir.Builder.emit_store b ~base:(Var sens) ~offset:0 ~src:(Var acc);
    safe_ids := Ir.Builder.last_id b :: !safe_ids
  end;
  Ir.Builder.emit_br b "loop";
  Ir.Builder.start_block b "loop";
  for _ = 1 to r.n_ops do
    match Ms_util.Prng.int rng 6 with
    | 0 -> Ir.Builder.emit_binop_into b acc Add (Var acc) (Const (Ms_util.Prng.int rng 1000))
    | 1 -> Ir.Builder.emit_binop_into b acc Mul (Var acc) (Const ((2 * Ms_util.Prng.int rng 8) + 1))
    | 2 -> Ir.Builder.emit_binop_into b acc Xor (Var acc) (Const (Ms_util.Prng.int rng 0xFFFF))
    | 3 ->
      let off = 8 * Ms_util.Prng.int rng 32 in
      Ir.Builder.emit_store b ~base:(Var g) ~offset:off ~src:(Var acc)
    | 4 ->
      let off = 8 * Ms_util.Prng.int rng 32 in
      Ir.Builder.emit_load_into b acc ~base:(Var g) ~offset:off;
      Ir.Builder.emit_binop_into b acc Add (Var acc) (Const 1)
    | _ ->
      if r.use_call then begin
        match Ir.Builder.emit_call b ~dst:true "helper" [ Var acc; Const 7 ] with
        | Some d -> Ir.Builder.emit_binop_into b acc And (Var acc) (Var d)
        | None -> ()
      end
      else Ir.Builder.emit_binop_into b acc Sub (Var acc) (Const 5)
  done;
  Ir.Builder.emit_binop_into b it Sub (Var it) (Const 1);
  Ir.Builder.emit_cbr b Gt (Var it) (Const 0) ~if_true:"loop" ~if_false:"done";
  Ir.Builder.start_block b "done";
  (* Read the sensitive value back through a second annotated access. *)
  let sv =
    if sensitive then begin
      let sv = Ir.Builder.emit_load b ~base:(Var sens) ~offset:0 in
      safe_ids := Ir.Builder.last_id b :: !safe_ids;
      sv
    end
    else Ir.Builder.emit_assign b (Const 0)
  in
  let final = Ir.Builder.emit_binop b Add (Var acc) (Var sv) in
  Ir.Builder.emit_ret b (Some (Var final));
  let m = Ir.Builder.finish b in
  List.iter (Ir.Ir_types.mark_safe_access m) !safe_ids;
  m

(* Truncate to the machine's 62-bit value domain: multiplication overflow
   makes results exceed what memory words round-trip. Compare modulo 2^32
   to stay clear of representation edges on both sides. *)
let canon v = v land 0xFFFFFFFF

let run_interp m =
  let r = Ir.Interp.run m in
  (canon (Option.value ~default:0 r.Ir.Interp.return_value), canon (Ir.Interp.read_word r "g" 0))

(* [hooked] attaches an observe-only step hook, which sends every
   instruction through the hooked [Cpu.step] loop instead of the block
   and trace tiers. *)
let run_machine ?cfg ?(hooked = false) m =
  let lowered = Ir.Lower.lower m in
  let p =
    match cfg with
    | None -> Framework.prepare_baseline lowered
    | Some c -> Framework.prepare c lowered
  in
  let steps = ref 0 in
  if hooked then ignore (X86sim.Cpu.add_step_hook p.Framework.cpu (fun _ _ -> incr steps));
  let result = Framework.run p in
  if hooked && !steps = 0 then Alcotest.fail "step hook never fired";
  match result with
  | X86sim.Cpu.Out_of_fuel -> Alcotest.fail "machine run out of fuel"
  | X86sim.Cpu.Halted ->
    let rax = X86sim.Cpu.get_gpr p.Framework.cpu X86sim.Reg.rax in
    let g0 = X86sim.Mmu.peek64 p.Framework.cpu.X86sim.Cpu.mmu ~va:(Ir.Lower.global_va lowered "g") in
    (canon rax, canon g0)

(* The IR interpreter is the independent oracle for both ways the
   machine executes: the block and trace tiers, and the hooked step. *)
let prop_interp_vs_machine =
  QCheck.Test.make ~name:"interp and lowered machine agree" ~count:200 arb_recipe (fun r ->
      let reference = run_interp (build_program r) in
      run_machine (build_program r) = reference
      && run_machine ~hooked:true (build_program r) = reference)

let techniques =
  [
    Framework.config Technique.Sfi;
    Framework.config Technique.Mpx;
    Framework.config (Technique.Mpk Mpk.Pkey.No_access);
    Framework.config Technique.Vmfunc;
    Framework.config Technique.Crypt;
    Framework.config Technique.Mprotect;
  ]

let prop_techniques_preserve_semantics =
  QCheck.Test.make ~name:"all techniques preserve random-program semantics" ~count:25 arb_recipe
    (fun r ->
      let reference = run_interp (build_program r) in
      List.for_all (fun cfg -> run_machine ~cfg (build_program r) = reference) techniques)

let prop_instrumentation_only_adds_instructions =
  QCheck.Test.make ~name:"instrumented runs execute at least as many instructions" ~count:30
    arb_recipe (fun r ->
      let count cfg =
        let lowered = Ir.Lower.lower (build_program r) in
        let p =
          match cfg with
          | None -> Framework.prepare_baseline lowered
          | Some c -> Framework.prepare c lowered
        in
        ignore (Framework.run p);
        p.Framework.cpu.X86sim.Cpu.counters.X86sim.Cpu.insns
      in
      let base = count None in
      List.for_all (fun cfg -> count (Some cfg) >= base) techniques)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_interp_vs_machine;
    QCheck_alcotest.to_alcotest prop_techniques_preserve_semantics;
    QCheck_alcotest.to_alcotest prop_instrumentation_only_adds_instructions;
  ]
