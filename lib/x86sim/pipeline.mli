(** Out-of-order timing model (scoreboard with execution ports).

    The paper's central microarchitectural observations are all dependency
    effects: an SFI [and] feeding a {e load} costs ~0.2 cycles while the
    same [and] feeding a {e store} costs nothing; a single [bndcu] is nearly
    free because nothing consumes its (nonexistent) result; serializing
    instructions ([wrpkru]+[mfence], [vmfunc], [syscall]) are cheap in an
    empty microbenchmark loop but expensive amid real memory traffic. A
    cycle counter per instruction cannot reproduce any of that; this
    scoreboard does.

    Model: 4-wide in-order fetch, unlimited window, per-port execution
    units, register-ready times, and serializing instructions that wait for
    (and hold back) all in-flight work. Time is a [float] so fractional
    fetch bandwidth and sub-cycle marginal costs are representable.

    Register identifiers are the dense ids of {!Reg.pipe_gpr} etc.;
    [Reg.pipe_none] means "no register". *)

type t

(** Execution ports. Unit counts approximate Skylake: 4 ALU, 2 load,
    1 store-address, 1 branch, 2 MPX check, 1 AES, 1 "special". *)

val p_alu : int
val p_load : int
val p_store : int
val p_branch : int
val p_mpx : int
val p_aes : int
val p_special : int
val p_fp : int

val create : unit -> t

val reset : t -> unit

val issue_t :
  t ->
  ?s1:int ->
  ?s2:int ->
  ?s3:int ->
  ?d1:int ->
  ?d2:int ->
  ?dep:float ->
  ?lat:float ->
  ?busy:float ->
  ?serialize:bool ->
  port:int ->
  unit ->
  float
(** Record one executed instruction: source registers [s1..s3], destination
    registers [d1..d2], result latency [lat] (default 1.0) on [port].
    [serialize] makes it wait for all prior completions and stalls
    subsequent fetch until it completes. [dep] is an extra time floor used
    for non-register dependencies (store-to-load ordering through memory).
    [busy] overrides the port's default occupancy for microcoded
    instructions. Returns the completion time — what a dependent consumer
    would use as its [dep]. *)

val issue :
  t ->
  ?s1:int ->
  ?s2:int ->
  ?s3:int ->
  ?d1:int ->
  ?d2:int ->
  ?dep:float ->
  ?lat:float ->
  ?busy:float ->
  ?serialize:bool ->
  port:int ->
  unit ->
  unit
(** {!issue_t} with the completion time discarded. *)

val issue_fast :
  t -> s1:int -> s2:int -> s3:int -> d1:int -> d2:int -> lat:int -> port:int -> unit
(** {!issue_t} for the per-instruction hot path: every argument is a
    mandatory immediate (pass [Reg.pipe_none] explicitly; [lat] in whole
    cycles), so no [Some] boxes — and no float boxes — are built per call.
    Floats cross the boundary through the {!io} scratch array instead:
    write a store-to-load forwarding floor to [io.(io_dep)] before the
    call (it self-resets to 0 after each issue), read the completion time
    from [io.(io_comp)] after. Covers the non-serializing,
    default-occupancy case — serializing or microcoded instructions use
    the labeled forms. Numerically identical to {!issue_t}: both delegate
    to one core. *)

val issue_microcoded : t -> s1:int -> d1:int -> lat:int -> busy:int -> port:int -> unit
(** {!issue} with one source, one destination and whole-cycle [lat] and
    [busy], for microcoded instructions that hold their unit longer than
    the port's default occupancy. Like {!issue_t} it ignores and clears a
    pending [io.(io_dep)] floor. Every argument is labeled and mandatory,
    so nothing is boxed per call. *)

val issue_serial :
  t -> s1:int -> s2:int -> d1:int -> serialize:bool -> lat:float -> port:int -> unit
(** {!issue} for the serializing instructions: two sources, one
    destination (-1 = none) and the port's default occupancy. Like
    {!issue_t} it ignores and clears a pending [io.(io_dep)] floor. Every
    argument is labeled and mandatory, so nothing is boxed per call when
    [lat] is a constant. *)

val pack : s1:int -> s2:int -> s3:int -> d1:int -> d2:int -> lat:int -> port:int -> int
(** Pack one instruction's issue metadata (pipeline-register ids as in
    {!issue_fast}, port, and a static whole-cycle latency) into a single
    immediate int. Computed once per instruction by the {!Ublock}
    translator; consumed by {!issue_packed_static}. *)

val issue_packed : t -> meta:int -> lat:int -> unit
(** {!issue_fast} with the register ids and port taken from a {!pack}ed
    [meta] word and the latency passed explicitly — the form used by
    translated memory operations, whose latency is only known after the
    MMU access. Numerically identical to {!issue_fast}: both delegate to
    the same core. *)

val issue_packed_static : t -> meta:int -> unit
(** {!issue_packed} with the latency also taken from [meta] — the form
    used by translated ALU-like operations whose latency is static. *)

val io : t -> float array
(** The float parameter/result channel shared with {!issue_fast}. Fetch it
    once and keep it: float-array indexing never boxes, unlike float
    returns from accessor functions. Slots other than [io_dep]/[io_comp]
    are private to the pipeline. *)

val io_dep : int
(** [io] slot: extra dependency floor consumed by the next issue. *)

val io_comp : int
(** [io] slot: completion time left by the last issue. *)

(** {2 CPI-stack accounting}

    Always-on, allocation-free cycle attribution: every issue charges its
    elapsed-cycle delta (change in {!cycles}) to exactly one class below,
    in the current attribution {e row}. Rows let a caller aggregate per
    gate site: install one row per site (plus row 0 for un-attributed
    application cycles) and point {!set_row} at the right one before each
    instruction. With no rows installed everything lands in the single
    default row, so the global CPI stack is available even for
    uninstrumented runs. Deltas telescope: the sum over all rows and
    classes equals {!cycles} up to float-addition rounding. *)

val cls_base : int
(** Steady-state issue: fetch width, dependency chains, L1 hits. Always 0. *)

val cls_l1_miss : int
(** Memory access served by L2. *)

val cls_l2_miss : int
(** Memory access served by L3. *)

val cls_l3_miss : int
(** Memory access served by DRAM. *)

val cls_tlb : int
(** TLB miss: a page-table walk was on the access path. *)

val cls_sb : int
(** Store-buffer: the store-to-load forwarding floor was the binding
    constraint on issue time. *)

val cls_port : int
(** Port contention: the instruction was ready before an execution unit
    on its port was free. *)

val cls_gate : int
(** Gate/serializing instruction: MPX checks, AES crypt ops, and the
    special port (wrpkru, vmfunc, vmcall, syscall, fences). *)

val cls_count : int

val cls_names : string array
(** Human-readable class labels, indexed by class id. *)

val set_cls : t -> int -> unit
(** Override the class of the {e next} issue (used by the CPU to deposit
    the memory-level outcome of an MMU access). Self-resets after one
    issue. *)

val set_row : t -> int -> unit
(** Select the attribution row for subsequent issues. Out-of-range rows
    are ignored (the current row keeps accumulating). *)

val install_rows : t -> int -> unit
(** Allocate [n] fresh attribution rows (at least 1) and select row 0.
    Row 0 is conventionally the un-attributed application row. *)

val cpi_rows : t -> float array
(** The live accumulator: row-major [n_rows * cls_count] cycle totals. *)

val cpi_row_count : t -> int

val cpi_totals : t -> float array
(** Per-class totals summed over all rows (a fresh [cls_count] array). *)

val cycles_accounted : t -> float
(** Sum of every accumulator cell — equals {!cycles} up to float-addition
    rounding (invariant-tested). *)

val cycles : t -> float
(** Total cycles elapsed so far (max of fetch front and latest completion). *)

val instructions : t -> int
(** Instructions issued since creation/reset. *)

val ipc : t -> float
(** Instructions per cycle so far (0 when no time has passed). *)
