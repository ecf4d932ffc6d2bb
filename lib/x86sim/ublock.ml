type serial = Syscall | Mfence | Cpuid | Wrpkru | Vmfunc | Vmcall

type terminator =
  | Term_halt
  | Term_jmp of { target : int }
  | Term_jcc of { cond : Insn.cond; target : int }
  | Term_call of { target : int }
  | Term_call_r of { r : int }
  | Term_jmp_r of { r : int }
  | Term_ret
  | Term_exec of serial
  | Term_fall_off

type uop =
  | Unop of { meta : int }
  | Umov_rr of { d : int; s : int; meta : int }
  | Umov_ri of { d : int; imm : int; meta : int }
  | Uload_bd of { d : int; base : int; disp : int; meta : int }
  | Uload_gen of { d : int; base : int; index : int; scale : int; disp : int; meta : int }
  | Ustore_bd of { s : int; base : int; disp : int; meta : int }
  | Ustore_gen of { s : int; base : int; index : int; scale : int; disp : int; meta : int }
  | Ustorei_bd of { imm : int; base : int; disp : int; meta : int }
  | Ustorei_gen of { imm : int; base : int; index : int; scale : int; disp : int; meta : int }
  | Ulea of { d : int; base : int; index : int; scale : int; disp : int; meta : int }
  | Ulea32 of { d : int; base : int; index : int; scale : int; disp : int; meta : int }
  | Ualu_rr of { op : Insn.alu; d : int; s : int; meta : int }
  | Ualu_ri of { op : Insn.alu; d : int; imm : int; meta : int }
  | Ucmp_rr of { a : int; b : int; meta : int }
  | Ucmp_ri of { a : int; imm : int; meta : int }
  | Utest_rr of { a : int; b : int; meta : int }
  | Upush of { s : int }
  | Upop of { d : int }
  | Ubnd_set of { b : int; lo : int; hi : int; meta : int }
  | Ubndc of { upper : bool; b : int; r : int; meta : int }
  | Ubndmov_store of { b : int; base : int; index : int; scale : int; disp : int; meta : int }
  | Ubndmov_load of { b : int; base : int; index : int; scale : int; disp : int; meta : int }
  | Urdpkru of { meta : int }
  | Umovdqa_load of { x : int; base : int; index : int; scale : int; disp : int; meta : int }
  | Umovdqa_store of { x : int; base : int; index : int; scale : int; disp : int; meta : int }
  | Umovq_xr of { x : int; r : int; meta : int }
  | Umovq_rx of { r : int; x : int; meta : int }
  | Uxmm_xor of { d : int; s : int; meta : int }
  | Uaes of { f : Bytes.t -> int -> Bytes.t -> int -> unit; d : int; s : int }
  | Uaeskeygen of { d : int; s : int; imm : int; meta : int }
  | Uaesimc of { d : int; s : int }
  | Uvext_high of { d : int; s : int; meta : int }
  | Uvins_high of { d : int; s : int; meta : int }
  | Uterm of terminator

type block = {
  entry : int;
  uops : uop array;
  term : terminator;
  term_idx : int;
  bgen : int;
  mutable succ_taken : block;
  mutable succ_fall : block;
  mutable exec_count : int;
  mutable taken_count : int;
  mutable fall_count : int;
  mutable dyn_target : int;
  mutable dyn_votes : int;
  mutable dyn_total : int;
}

type cache = {
  program : Program.t;
  code : Insn.t array;
  decoded : uop array;
      (* [decode code.(i)] for every [i]: decoded once when the cache is
         created, re-decoded in place by [invalidate]. Blocks hold
         [Array.sub] copies of its slices, so re-decoding never alters a
         compiled block. *)
  blocks : block array;  (* indexed by entry; dummy_block = not compiled *)
  mutable gen : int;
  mutable compile_count : int;
  mutable invalidation_count : int;
}

let rec dummy_block =
  {
    entry = -1;
    uops = [||];
    term = Term_fall_off;
    term_idx = -1;
    bgen = -1;
    succ_taken = dummy_block;
    succ_fall = dummy_block;
    exec_count = 0;
    taken_count = 0;
    fall_count = 0;
    dyn_target = -1;
    dyn_votes = 0;
    dyn_total = 0;
  }

let owns cache program = cache.program == program
let code_length cache = Array.length cache.code
let generation cache = cache.gen

(* Eagerly sever every chained-successor link. Generation checks already
   keep a stale link from being *followed* lazily, but the trace tier
   compiles direct block references into superblocks, so invalidation for
   it must be eager — and once it is, leaving generation-dead chain links
   dangling in the block tier buys nothing. One O(code) walk per
   [invalidate]; flushes are rare (in-place code mutation, TLB
   shootdowns). *)
let drop_links cache =
  Array.iter
    (fun b ->
      if b != dummy_block then begin
        b.succ_taken <- dummy_block;
        b.succ_fall <- dummy_block
      end)
    cache.blocks

(* The cached block at [entry] without compiling: [None] when the slot is
   empty or holds a stale generation. Introspection for tests and
   reports; the execution path uses [get]. *)
let peek cache entry =
  if entry < 0 || entry >= Array.length cache.blocks then None
  else
    let b = cache.blocks.(entry) in
    if b != dummy_block && b.bgen = cache.gen then Some b else None

let compiles cache = cache.compile_count
let invalidations cache = cache.invalidation_count

(* ------------------------------------------------------------------ *)
(* Fast-path profile counters                                          *)
(* ------------------------------------------------------------------ *)

(* Saturating increment: profile counters must never wrap into garbage on
   arbitrarily long runs, and the compare is one predictable branch per
   block entry/exit (not per instruction). *)
let[@inline] bump c = if c = max_int then c else c + 1

(* Indirect-edge inline cache, Boyer–Moore majority vote: [dyn_target]
   holds the current majority candidate with [dyn_votes] excess votes,
   [dyn_total] every indirect exit. One compare + one store per indirect
   branch, no per-target table — and if one target dominates (the common
   monomorphic case: returns to a single caller, one hot jump table slot)
   it provably survives as the candidate. The superblock tier needs
   exactly this: "is there a dominant successor worth chaining?" *)
let note_dyn (b : block) target =
  b.dyn_total <- bump b.dyn_total;
  if b.dyn_votes = 0 then begin
    b.dyn_target <- target;
    b.dyn_votes <- 1
  end
  else if b.dyn_target = target then b.dyn_votes <- bump b.dyn_votes
  else b.dyn_votes <- b.dyn_votes - 1

type stat = {
  s_entry : int;
  s_insns : int;
  s_exec : int;
  s_taken : int;
  s_fall : int;
  s_taken_target : int;
  s_fall_target : int;
  s_dyn_target : int;
  s_dyn_votes : int;
  s_dyn_total : int;
}

let stat_of (b : block) =
  let taken_target, fall_target =
    match b.term with
    | Term_jmp { target } | Term_call { target } -> (target, -1)
    | Term_jcc { target; _ } -> (target, b.term_idx + 1)
    | Term_halt | Term_call_r _ | Term_jmp_r _ | Term_ret | Term_exec _ | Term_fall_off ->
      (-1, -1)
  in
  {
    s_entry = b.entry;
    s_insns = Array.length b.uops + (match b.term with Term_fall_off -> 0 | _ -> 1);
    s_exec = b.exec_count;
    s_taken = b.taken_count;
    s_fall = b.fall_count;
    s_taken_target = taken_target;
    s_fall_target = fall_target;
    s_dyn_target = b.dyn_target;
    s_dyn_votes = b.dyn_votes;
    s_dyn_total = b.dyn_total;
  }

(* Every block that executed at least once, in entry order. Stale-
   generation blocks are included until their slot is recompiled: the
   profile describes what ran, not what is currently cached. *)
let stats cache =
  let acc = ref [] in
  for i = Array.length cache.blocks - 1 downto 0 do
    let b = cache.blocks.(i) in
    if b != dummy_block && b.exec_count > 0 then acc := stat_of b :: !acc
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* The decoder                                                         *)
(* ------------------------------------------------------------------ *)

let nr = Reg.pipe_none

(* Pipeline source ids of a memory operand: base, then index (-1 = none). *)
let msrc1 (m : Insn.mem) = if m.base >= 0 then Reg.pipe_gpr m.base else nr
let msrc2 (m : Insn.mem) = if m.index >= 0 then Reg.pipe_gpr m.index else nr

let alu_lat (op : Insn.alu) = match op with Insn.Imul -> 3 | _ -> 1

(* Issue metadata for the common shapes: register ids, port and static
   latency of each instruction, packed once here. The per-constructor
   sweep in test_fastpath.ml pins the resulting cycles to a golden. *)
let m_alu0 = Pipeline.pack ~s1:nr ~s2:nr ~s3:nr ~d1:nr ~d2:nr ~lat:0 ~port:Pipeline.p_alu

let m_load (m : Insn.mem) d1 =
  (* Latency is dynamic (left by the MMU); the packed lat field is unused. *)
  Pipeline.pack ~s1:(msrc1 m) ~s2:(msrc2 m) ~s3:nr ~d1 ~d2:nr ~lat:0 ~port:Pipeline.p_load

let m_store (m : Insn.mem) s3 =
  Pipeline.pack ~s1:(msrc1 m) ~s2:(msrc2 m) ~s3 ~d1:nr ~d2:nr ~lat:1 ~port:Pipeline.p_store

(* Whether a memory operand is the flattened base+displacement shape. *)
let is_bd (m : Insn.mem) = m.base >= 0 && m.index < 0

(* One instruction to its uop. Total: branches, halt and the serializing
   instructions decode to [Uterm]; every other constructor to a
   straight-line uop. *)
let decode (insn : Insn.t) : uop =
  match insn with
  | Insn.Nop -> Unop { meta = m_alu0 }
  | Insn.Mov_rr (d, s) ->
    Umov_rr
      {
        d;
        s;
        meta =
          Pipeline.pack ~s1:(Reg.pipe_gpr s) ~s2:nr ~s3:nr ~d1:(Reg.pipe_gpr d) ~d2:nr
            ~lat:1 ~port:Pipeline.p_alu;
      }
  | Insn.Mov_ri (d, imm) ->
    Umov_ri
      {
        d;
        imm;
        meta =
          Pipeline.pack ~s1:nr ~s2:nr ~s3:nr ~d1:(Reg.pipe_gpr d) ~d2:nr ~lat:1
            ~port:Pipeline.p_alu;
      }
  | Insn.Mov_label (d, tgt) ->
    (* Targets are resolved at assembly; predecode freezes the index. *)
    Umov_ri
      {
        d;
        imm = tgt.Insn.tidx;
        meta =
          Pipeline.pack ~s1:nr ~s2:nr ~s3:nr ~d1:(Reg.pipe_gpr d) ~d2:nr ~lat:1
            ~port:Pipeline.p_alu;
      }
  | Insn.Load (d, m) ->
    let meta = m_load m (Reg.pipe_gpr d) in
    if is_bd m then Uload_bd { d; base = m.base; disp = m.disp; meta }
    else Uload_gen { d; base = m.base; index = m.index; scale = m.scale; disp = m.disp; meta }
  | Insn.Store (m, s) ->
    let meta = m_store m (Reg.pipe_gpr s) in
    if is_bd m then Ustore_bd { s; base = m.base; disp = m.disp; meta }
    else Ustore_gen { s; base = m.base; index = m.index; scale = m.scale; disp = m.disp; meta }
  | Insn.Store_i (m, imm) ->
    let meta = m_store m nr in
    if is_bd m then Ustorei_bd { imm; base = m.base; disp = m.disp; meta }
    else
      Ustorei_gen { imm; base = m.base; index = m.index; scale = m.scale; disp = m.disp; meta }
  | Insn.Lea (d, m) ->
    Ulea
      {
        d;
        base = m.base;
        index = m.index;
        scale = m.scale;
        disp = m.disp;
        meta =
          Pipeline.pack ~s1:(msrc1 m) ~s2:(msrc2 m) ~s3:nr ~d1:(Reg.pipe_gpr d) ~d2:nr
            ~lat:1 ~port:Pipeline.p_alu;
      }
  | Insn.Lea32 (d, m) ->
    Ulea32
      {
        d;
        base = m.base;
        index = m.index;
        scale = m.scale;
        disp = m.disp;
        meta =
          Pipeline.pack ~s1:(msrc1 m) ~s2:(msrc2 m) ~s3:nr ~d1:(Reg.pipe_gpr d) ~d2:nr
            ~lat:1 ~port:Pipeline.p_alu;
      }
  | Insn.Alu_rr (op, d, s) ->
    Ualu_rr
      {
        op;
        d;
        s;
        meta =
          Pipeline.pack ~s1:(Reg.pipe_gpr d) ~s2:(Reg.pipe_gpr s) ~s3:nr
            ~d1:(Reg.pipe_gpr d) ~d2:Reg.pipe_flags ~lat:(alu_lat op) ~port:Pipeline.p_alu;
      }
  | Insn.Alu_ri (op, d, imm) ->
    Ualu_ri
      {
        op;
        d;
        imm;
        meta =
          Pipeline.pack ~s1:(Reg.pipe_gpr d) ~s2:nr ~s3:nr ~d1:(Reg.pipe_gpr d)
            ~d2:Reg.pipe_flags ~lat:(alu_lat op) ~port:Pipeline.p_alu;
      }
  | Insn.Cmp_rr (a, b) ->
    Ucmp_rr
      {
        a;
        b;
        meta =
          Pipeline.pack ~s1:(Reg.pipe_gpr a) ~s2:(Reg.pipe_gpr b) ~s3:nr ~d1:Reg.pipe_flags
            ~d2:nr ~lat:1 ~port:Pipeline.p_alu;
      }
  | Insn.Cmp_ri (a, imm) ->
    Ucmp_ri
      {
        a;
        imm;
        meta =
          Pipeline.pack ~s1:(Reg.pipe_gpr a) ~s2:nr ~s3:nr ~d1:Reg.pipe_flags ~d2:nr ~lat:1
            ~port:Pipeline.p_alu;
      }
  | Insn.Test_rr (a, b) ->
    Utest_rr
      {
        a;
        b;
        meta =
          Pipeline.pack ~s1:(Reg.pipe_gpr a) ~s2:(Reg.pipe_gpr b) ~s3:nr ~d1:Reg.pipe_flags
            ~d2:nr ~lat:1 ~port:Pipeline.p_alu;
      }
  | Insn.Push r -> Upush { s = r }
  | Insn.Pop r -> Upop { d = r }
  | Insn.Bnd_set (b, lo, hi) ->
    Ubnd_set
      {
        b;
        lo;
        hi;
        meta =
          Pipeline.pack ~s1:nr ~s2:nr ~s3:nr ~d1:(Reg.pipe_bnd b) ~d2:nr ~lat:1
            ~port:Pipeline.p_mpx;
      }
  | Insn.Bndcu (b, r) ->
    Ubndc
      {
        upper = true;
        b;
        r;
        meta =
          Pipeline.pack ~s1:(Reg.pipe_gpr r) ~s2:(Reg.pipe_bnd b) ~s3:nr ~d1:nr ~d2:nr
            ~lat:1 ~port:Pipeline.p_mpx;
      }
  | Insn.Bndcl (b, r) ->
    Ubndc
      {
        upper = false;
        b;
        r;
        meta =
          Pipeline.pack ~s1:(Reg.pipe_gpr r) ~s2:(Reg.pipe_bnd b) ~s3:nr ~d1:nr ~d2:nr
            ~lat:1 ~port:Pipeline.p_mpx;
      }
  | Insn.Bndmov_store (m, b) ->
    Ubndmov_store
      {
        b;
        base = m.base;
        index = m.index;
        scale = m.scale;
        disp = m.disp;
        meta = m_store m (Reg.pipe_bnd b);
      }
  | Insn.Bndmov_load (b, m) ->
    Ubndmov_load
      {
        b;
        base = m.base;
        index = m.index;
        scale = m.scale;
        disp = m.disp;
        meta = m_load m (Reg.pipe_bnd b);
      }
  | Insn.Rdpkru ->
    Urdpkru
      {
        meta =
          Pipeline.pack ~s1:Reg.pipe_pkru ~s2:nr ~s3:nr ~d1:(Reg.pipe_gpr Reg.rax) ~d2:nr
            ~lat:1 ~port:Pipeline.p_alu;
      }
  | Insn.Movdqa_load (x, m) ->
    Umovdqa_load
      {
        x;
        base = m.base;
        index = m.index;
        scale = m.scale;
        disp = m.disp;
        meta = m_load m (Reg.pipe_xmm x);
      }
  | Insn.Movdqa_store (m, x) ->
    Umovdqa_store
      {
        x;
        base = m.base;
        index = m.index;
        scale = m.scale;
        disp = m.disp;
        meta = m_store m (Reg.pipe_xmm x);
      }
  | Insn.Movq_xr (x, r) ->
    Umovq_xr
      {
        x;
        r;
        meta =
          Pipeline.pack ~s1:(Reg.pipe_gpr r) ~s2:nr ~s3:nr ~d1:(Reg.pipe_xmm x) ~d2:nr
            ~lat:2 ~port:Pipeline.p_alu;
      }
  | Insn.Movq_rx (r, x) ->
    Umovq_rx
      {
        r;
        x;
        meta =
          Pipeline.pack ~s1:(Reg.pipe_xmm x) ~s2:nr ~s3:nr ~d1:(Reg.pipe_gpr r) ~d2:nr
            ~lat:2 ~port:Pipeline.p_alu;
      }
  | Insn.Pxor (d, s) ->
    Uxmm_xor
      {
        d;
        s;
        meta =
          Pipeline.pack ~s1:(Reg.pipe_xmm d) ~s2:(Reg.pipe_xmm s) ~s3:nr
            ~d1:(Reg.pipe_xmm d) ~d2:nr ~lat:1 ~port:Pipeline.p_alu;
      }
  | Insn.Fp_arith (d, s) ->
    Uxmm_xor
      {
        d;
        s;
        meta =
          Pipeline.pack ~s1:(Reg.pipe_xmm d) ~s2:(Reg.pipe_xmm s) ~s3:nr
            ~d1:(Reg.pipe_xmm d) ~d2:nr ~lat:4 ~port:Pipeline.p_fp;
      }
  | Insn.Aesenc (d, s) -> Uaes { f = Aesni.Aes.aesenc_into; d; s }
  | Insn.Aesenclast (d, s) -> Uaes { f = Aesni.Aes.aesenclast_into; d; s }
  | Insn.Aesdec (d, s) -> Uaes { f = Aesni.Aes.aesdec_into; d; s }
  | Insn.Aesdeclast (d, s) -> Uaes { f = Aesni.Aes.aesdeclast_into; d; s }
  | Insn.Aeskeygenassist (d, s, imm) ->
    Uaeskeygen
      {
        d;
        s;
        imm;
        meta =
          Pipeline.pack ~s1:(Reg.pipe_xmm s) ~s2:nr ~s3:nr ~d1:(Reg.pipe_xmm d) ~d2:nr
            ~lat:12 ~port:Pipeline.p_aes;
      }
  | Insn.Aesimc (d, s) -> Uaesimc { d; s }
  | Insn.Vext_high (d, s) ->
    Uvext_high
      {
        d;
        s;
        meta =
          Pipeline.pack ~s1:(Reg.pipe_xmm s) ~s2:nr ~s3:nr ~d1:(Reg.pipe_xmm d) ~d2:nr
            ~lat:3 ~port:Pipeline.p_special;
      }
  | Insn.Vins_high (d, s) ->
    Uvins_high
      {
        d;
        s;
        meta =
          Pipeline.pack ~s1:(Reg.pipe_xmm s) ~s2:(Reg.pipe_xmm d) ~s3:nr
            ~d1:(Reg.pipe_xmm d) ~d2:nr ~lat:3 ~port:Pipeline.p_special;
      }
  | Insn.Halt -> Uterm Term_halt
  | Insn.Jmp tgt -> Uterm (Term_jmp { target = tgt.Insn.tidx })
  | Insn.Jcc (cond, tgt) -> Uterm (Term_jcc { cond; target = tgt.Insn.tidx })
  | Insn.Call tgt -> Uterm (Term_call { target = tgt.Insn.tidx })
  | Insn.Call_r r -> Uterm (Term_call_r { r })
  | Insn.Jmp_r r -> Uterm (Term_jmp_r { r })
  | Insn.Ret -> Uterm Term_ret
  | Insn.Syscall -> Uterm (Term_exec Syscall)
  | Insn.Mfence -> Uterm (Term_exec Mfence)
  | Insn.Cpuid -> Uterm (Term_exec Cpuid)
  | Insn.Wrpkru -> Uterm (Term_exec Wrpkru)
  | Insn.Vmfunc -> Uterm (Term_exec Vmfunc)
  | Insn.Vmcall -> Uterm (Term_exec Vmcall)

let create program =
  let code = Program.code program in
  {
    program;
    code;
    decoded = Array.map decode code;
    blocks = Array.make (Program.length program) dummy_block;
    gen = 0;
    compile_count = 0;
    invalidation_count = 0;
  }

let decoded cache i = cache.decoded.(i)

let invalidate cache =
  Array.iteri (fun i insn -> cache.decoded.(i) <- decode insn) cache.code;
  cache.gen <- cache.gen + 1;
  cache.invalidation_count <- cache.invalidation_count + 1

(* ------------------------------------------------------------------ *)
(* Block formation                                                     *)
(* ------------------------------------------------------------------ *)

let compile cache entry =
  let d = cache.decoded in
  let len = Array.length d in
  (* Straight-line extent: [entry, stop) are uops, [stop] the terminator. *)
  let rec scan i =
    if i >= len then (len, Term_fall_off)
    else match d.(i) with Uterm term -> (i, term) | _ -> scan (i + 1)
  in
  let stop, term = scan entry in
  cache.compile_count <- cache.compile_count + 1;
  {
    entry;
    uops = Array.sub d entry (stop - entry);
    term;
    term_idx = stop;
    bgen = cache.gen;
    succ_taken = dummy_block;
    succ_fall = dummy_block;
    exec_count = 0;
    taken_count = 0;
    fall_count = 0;
    dyn_target = -1;
    dyn_votes = 0;
    dyn_total = 0;
  }

let get cache entry =
  let b = cache.blocks.(entry) in
  if b != dummy_block && b.bgen = cache.gen then b
  else begin
    let b = compile cache entry in
    cache.blocks.(entry) <- b;
    b
  end
