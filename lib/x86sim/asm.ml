exception Parse_error of { line : int; msg : string }

let fail line fmt = Printf.ksprintf (fun msg -> raise (Parse_error { line; msg })) fmt

(* --- lexical helpers --------------------------------------------------- *)

let strip_comment s =
  match String.index_opt s ';' with Some i -> String.sub s 0 i | None -> s

let trim = String.trim

let gpr_of_name =
  let tbl = Hashtbl.create 16 in
  for r = 0 to Reg.gpr_count - 1 do
    Hashtbl.add tbl (Reg.gpr_name r) r
  done;
  fun name -> Hashtbl.find_opt tbl name

let prefixed_index ~prefix ~max name =
  let pl = String.length prefix in
  if String.length name > pl && String.sub name 0 pl = prefix then
    match int_of_string_opt (String.sub name pl (String.length name - pl)) with
    | Some i when i >= 0 && i < max -> Some i
    | Some _ | None -> None
  else None

let xmm_of_name n = prefixed_index ~prefix:"xmm" ~max:Reg.xmm_count n
let ymm_of_name n = prefixed_index ~prefix:"ymm" ~max:Reg.xmm_count n
let bnd_of_name n = prefixed_index ~prefix:"bnd" ~max:Reg.bnd_count n

let int_of_token line tok =
  match int_of_string_opt tok with
  | Some v -> v
  | None -> fail line "expected an integer, got %S" tok

(* Memory operand: the text between the brackets, e.g. "rbx+rcx*8+16",
   "rbx-0x8", "0x1000". Terms separated by +/-; each term is a register,
   register*scale, or a displacement. *)
let parse_mem line inner =
  let base = ref (-1) and index = ref (-1) and scale = ref 1 and disp = ref 0 in
  let add_term sign term =
    let term = trim term in
    if term = "" then fail line "empty term in memory operand"
    else
      match String.index_opt term '*' with
      | Some star ->
        let rname = trim (String.sub term 0 star) in
        let sc = int_of_token line (trim (String.sub term (star + 1) (String.length term - star - 1))) in
        (match gpr_of_name rname with
        | Some r when sign > 0 ->
          if !index >= 0 then fail line "two index registers in memory operand";
          index := r;
          scale := sc
        | Some _ -> fail line "negative index register"
        | None -> fail line "unknown index register %S" rname)
      | None -> (
        match gpr_of_name term with
        | Some r when sign > 0 ->
          if !base < 0 then base := r
          else if !index < 0 then index := r (* second plain register: index*1 *)
          else fail line "too many registers in memory operand"
        | Some _ -> fail line "negative base register"
        | None -> disp := !disp + (sign * int_of_token line term))
  in
  (* Split on +/-, keeping the sign of each term. *)
  let n = String.length inner in
  let rec go start sign i =
    if i >= n then add_term sign (String.sub inner start (i - start))
    else
      match inner.[i] with
      | '+' ->
        add_term sign (String.sub inner start (i - start));
        go (i + 1) 1 (i + 1)
      | '-' when i > start ->
        add_term sign (String.sub inner start (i - start));
        go (i + 1) (-1) (i + 1)
      | _ -> go start sign (i + 1)
  in
  go 0 1 0;
  { Insn.base = !base; index = !index; scale = !scale; disp = !disp }

type operand =
  | Gpr of Reg.gpr
  | Xmm of Reg.xmm
  | Ymm of Reg.xmm
  | Bnd of Reg.bnd
  | Imm of int
  | Mem of Insn.mem
  | Ident of string  (** bare identifier: a label *)
  | Mem_ident of string  (** [label] *)

let parse_operand line tok =
  let tok = trim tok in
  if tok = "" then fail line "empty operand"
  else if tok.[0] = '[' then begin
    if tok.[String.length tok - 1] <> ']' then fail line "unterminated memory operand";
    let inner = trim (String.sub tok 1 (String.length tok - 2)) in
    match (gpr_of_name inner, int_of_string_opt inner) with
    | None, None
      when inner <> "" && (not (String.contains inner '+')) && not (String.contains inner '*')
      ->
      if String.contains inner '-' then Mem (parse_mem line inner) else Mem_ident inner
    | _ -> Mem (parse_mem line inner)
  end
  else
    match gpr_of_name tok with
    | Some r -> Gpr r
    | None -> (
      match xmm_of_name tok with
      | Some x -> Xmm x
      | None -> (
        match ymm_of_name tok with
        | Some y -> Ymm y
        | None -> (
          match bnd_of_name tok with
          | Some b -> Bnd b
          | None -> (
            match int_of_string_opt tok with
            | Some v -> Imm v
            | None -> Ident tok))))

(* --- per-mnemonic dispatch --------------------------------------------- *)

let alu_of_mnemonic = function
  | "add" -> Some Insn.Add
  | "sub" -> Some Insn.Sub
  | "and" -> Some Insn.And
  | "or" -> Some Insn.Or
  | "xor" -> Some Insn.Xor
  | "shl" -> Some Insn.Shl
  | "shr" -> Some Insn.Shr
  | "imul" -> Some Insn.Imul
  | _ -> None

let cond_of_mnemonic = function
  | "je" -> Some Insn.Eq
  | "jne" -> Some Insn.Ne
  | "jl" -> Some Insn.Lt
  | "jle" -> Some Insn.Le
  | "jg" -> Some Insn.Gt
  | "jge" -> Some Insn.Ge
  | _ -> None

let aes_of_mnemonic = function
  | "pxor" -> Some (fun d s -> Insn.Pxor (d, s))
  | "aesenc" -> Some (fun d s -> Insn.Aesenc (d, s))
  | "aesenclast" -> Some (fun d s -> Insn.Aesenclast (d, s))
  | "aesdec" -> Some (fun d s -> Insn.Aesdec (d, s))
  | "aesdeclast" -> Some (fun d s -> Insn.Aesdeclast (d, s))
  | "aesimc" -> Some (fun d s -> Insn.Aesimc (d, s))
  | "mulpd" -> Some (fun d s -> Insn.Fp_arith (d, s))
  | _ -> None

let parse_insn line mnemonic operands =
  let open Insn in
  let two () =
    match operands with [ a; b ] -> (a, b) | _ -> fail line "%s takes two operands" mnemonic
  in
  let one () =
    match operands with [ a ] -> a | _ -> fail line "%s takes one operand" mnemonic
  in
  let none () =
    match operands with [] -> () | _ -> fail line "%s takes no operands" mnemonic
  in
  match mnemonic with
  | "nop" -> none (); Nop
  | "hlt" -> none (); Halt
  | "ret" -> none (); Ret
  | "syscall" -> none (); Syscall
  | "mfence" -> none (); Mfence
  | "cpuid" -> none (); Cpuid
  | "wrpkru" -> none (); Wrpkru
  | "rdpkru" -> none (); Rdpkru
  | "vmfunc" -> none (); Vmfunc
  | "vmcall" -> none (); Vmcall
  | "push" -> (match one () with Gpr r -> Push r | _ -> fail line "push takes a register")
  | "pop" -> (match one () with Gpr r -> Pop r | _ -> fail line "pop takes a register")
  | "jmp" -> (
    match one () with
    | Ident l -> Jmp (target l)
    | Gpr r -> Jmp_r r
    | _ -> fail line "jmp takes a label or register")
  | "call" -> (
    match one () with
    | Ident l -> Call (target l)
    | Gpr r -> Call_r r
    | _ -> fail line "call takes a label or register")
  | "mov" -> (
    match two () with
    | Gpr d, Gpr s -> Mov_rr (d, s)
    | Gpr d, Imm i -> Mov_ri (d, i)
    | Gpr d, Mem m -> Load (d, m)
    | Mem m, Gpr s -> Store (m, s)
    | Mem m, Imm i -> Store_i (m, i)
    | _ -> fail line "unsupported mov operands")
  | "lea" -> (
    match two () with
    | Gpr d, Mem m -> Lea (d, m)
    | Gpr d, Mem_ident l -> Mov_label (d, target l)
    | _ -> fail line "lea takes a register and a memory operand")
  | "lea32" -> (
    match two () with
    | Gpr d, Mem m -> Lea32 (d, m)
    | _ -> fail line "lea32 takes a register and a memory operand")
  | "cmp" -> (
    match two () with
    | Gpr a, Gpr b -> Cmp_rr (a, b)
    | Gpr a, Imm i -> Cmp_ri (a, i)
    | _ -> fail line "unsupported cmp operands")
  | "test" -> (
    match two () with
    | Gpr a, Gpr b -> Test_rr (a, b)
    | _ -> fail line "test takes two registers")
  | "bndcu" -> (
    match two () with
    | Gpr r, Bnd b -> Bndcu (b, r)
    | _ -> fail line "bndcu takes a register and a bound register")
  | "bndcl" -> (
    match two () with
    | Gpr r, Bnd b -> Bndcl (b, r)
    | _ -> fail line "bndcl takes a register and a bound register")
  | "bndmk" -> (
    match operands with
    | [ Bnd b; Imm lo; Imm hi ] -> Bnd_set (b, lo, hi)
    | _ -> fail line "bndmk takes bndN and two immediates")
  | "bndmov" -> (
    match two () with
    | Mem m, Bnd b -> Bndmov_store (m, b)
    | Bnd b, Mem m -> Bndmov_load (b, m)
    | _ -> fail line "unsupported bndmov operands")
  | "movdqa" -> (
    match two () with
    | Xmm x, Mem m -> Movdqa_load (x, m)
    | Mem m, Xmm x -> Movdqa_store (m, x)
    | _ -> fail line "unsupported movdqa operands")
  | "movq" -> (
    match two () with
    | Xmm x, Gpr r -> Movq_xr (x, r)
    | Gpr r, Xmm x -> Movq_rx (r, x)
    | _ -> fail line "unsupported movq operands")
  | "aeskeygenassist" -> (
    match operands with
    | [ Xmm d; Xmm s; Imm i ] -> Aeskeygenassist (d, s, i)
    | _ -> fail line "aeskeygenassist takes xmm, xmm, imm")
  | "vextracti128" -> (
    match operands with
    | [ Xmm d; Ymm s; Imm 1 ] -> Vext_high (d, s)
    | _ -> fail line "vextracti128 takes xmm, ymm, 1")
  | "vinserti128" -> (
    match operands with
    | [ Ymm d; Xmm s; Imm 1 ] -> Vins_high (d, s)
    | _ -> fail line "vinserti128 takes ymm, xmm, 1")
  | m -> (
    match (alu_of_mnemonic m, cond_of_mnemonic m, aes_of_mnemonic m) with
    | Some op, _, _ -> (
      match two () with
      | Gpr d, Gpr s -> Alu_rr (op, d, s)
      | Gpr d, Imm i -> Alu_ri (op, d, i)
      | _ -> fail line "unsupported %s operands" m)
    | None, Some c, _ -> (
      match one () with
      | Ident l -> Jcc (c, target l)
      | _ -> fail line "%s takes a label" m)
    | None, None, Some mk -> (
      match two () with
      | Xmm d, Xmm s -> mk d s
      | _ -> fail line "%s takes two xmm registers" m)
    | None, None, None -> fail line "unknown mnemonic %S" m)

let parse_line lineno raw =
  let s = trim (strip_comment raw) in
  if s = "" then None
  else if String.length s >= 2 && s.[String.length s - 1] = ':' then
    Some (Program.Label (trim (String.sub s 0 (String.length s - 1))))
  else begin
    let mnemonic, rest =
      match String.index_opt s ' ' with
      | None -> (s, "")
      | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    in
    let operands =
      if trim rest = "" then []
      else List.map (parse_operand lineno) (String.split_on_char ',' rest)
    in
    Some (Program.I (parse_insn lineno (String.lowercase_ascii mnemonic) operands))
  end

(* Label errors are reported here, against the line of the offending
   definition or use: [Program.assemble] sees items, not lines, and
   raises [Invalid_argument] for the same mistakes. *)
let check_labels numbered =
  let defined = Hashtbl.create 16 in
  List.iter
    (function
      | line, Program.Label name ->
        if Hashtbl.mem defined name then fail line "duplicate label %S" name;
        Hashtbl.add defined name ()
      | _, Program.I _ -> ())
    numbered;
  List.iter
    (function
      | line, Program.I insn ->
        List.iter
          (fun (tgt : Insn.target) ->
            if not (Hashtbl.mem defined tgt.tname) then fail line "undefined label %S" tgt.tname)
          (Insn.targets insn)
      | _, Program.Label _ -> ())
    numbered

let parse text =
  let lines = String.split_on_char '\n' text in
  let numbered =
    List.concat
      (List.mapi
         (fun i l -> match parse_line (i + 1) l with Some it -> [ (i + 1, it) ] | None -> [])
         lines)
  in
  check_labels numbered;
  List.map snd numbered

let parse_program text = Program.assemble (parse text)

let print_items items =
  let buf = Buffer.create 1024 in
  List.iter
    (fun item ->
      (match item with
      | Program.Label l -> Buffer.add_string buf (l ^ ":")
      | Program.I insn -> Buffer.add_string buf ("  " ^ Insn.to_string_named insn));
      Buffer.add_char buf '\n')
    items;
  Buffer.contents buf

let print_program p =
  let labels = List.sort compare (List.map (fun (n, i) -> (i, n)) (Program.labels p)) in
  let buf = Buffer.create 1024 in
  let rec emit_labels idx = function
    | (i, name) :: rest when i = idx ->
      Buffer.add_string buf (name ^ ":\n");
      emit_labels idx rest
    | rest -> rest
  in
  let remaining = ref labels in
  Array.iteri
    (fun idx insn ->
      remaining := emit_labels idx !remaining;
      Buffer.add_string buf ("  " ^ Insn.to_string_named insn ^ "\n"))
    (Program.code p);
  remaining := emit_labels (Program.length p) !remaining;
  Buffer.contents buf
