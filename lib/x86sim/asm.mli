(** Textual assembly for the simulated machine.

    A small Intel-flavoured syntax covering the whole {!Insn} set, so
    programs can be written, dumped and diffed as text — handy for the
    CLI's [disasm], for golden tests, and for writing machine-level
    experiments without OCaml plumbing.

    Grammar (one item per line; [;] starts a comment; blank lines ok):

    {v
    label:                     ; label definition
    mov rax, 0x10              ; immediate (also negative / decimal)
    mov rax, rbx               ; register move
    mov rax, [rbx+rcx*8+16]    ; load
    mov [rbx+8], rdx           ; store
    mov [rbx], 42              ; store immediate
    lea rax, [rbx+8]           ; address computation
    lea rax, [somelabel]       ; code address of a label
    add|sub|and|or|xor|shl|shr|imul rax, rbx|imm
    cmp rax, rbx|imm
    test rax, rbx
    jmp label     | jmp rax
    je|jne|jl|jle|jg|jge label
    call label    | call rax
    ret | push rax | pop rax | syscall | mfence | cpuid | hlt | nop
    bndmk bnd0, 0x0, 0x3fffffffffff
    bndcl rax, bnd0 | bndcu rax, bnd0
    bndmov [rbx], bnd0 | bndmov bnd0, [rbx]
    wrpkru | rdpkru | vmfunc | vmcall
    movdqa xmm0, [rbx] | movdqa [rbx], xmm0
    movq xmm0, rax | movq rax, xmm0
    pxor|aesenc|aesenclast|aesdec|aesdeclast|aesimc|mulpd xmm0, xmm1
    aeskeygenassist xmm0, xmm1, 1
    vextracti128 xmm1, ymm4, 1
    vinserti128 ymm4, xmm1, 1
    v} *)

exception Parse_error of { line : int; msg : string }

val parse : string -> Program.item list
(** Parse a whole listing. Raises {!Parse_error} with a 1-based line
    number, including for a duplicate label (the line of the second
    definition) and an undefined label (the line of its first use). The
    result still needs {!Program.assemble}, which cannot fail on it. *)

val parse_program : string -> Program.t
(** [Program.assemble (parse s)]. *)

val print_items : Program.item list -> string
(** Render items in the accepted syntax (targets by name). *)

val print_program : Program.t -> string
(** Disassemble an assembled program, reconstructing label definitions.
    [parse_program (print_program p)] is structurally equal to [p]. *)
