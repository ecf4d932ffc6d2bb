(** Profile-guided trace tier: superblocks over {!Ublock}.

    The block tier re-enters the dispatcher at every terminator: follow a
    chain link, re-check its generation, re-arm the per-block uop loop.
    For hot code the control-flow trajectory is almost always the same one
    the edge profile already recorded, so this module stitches a hot
    block's dominant successor chain into a {e superblock}: a flat
    sequence of segments (one per fused basic block) executed by a single
    loop in [Cpu.exec_trace], with the predicted exit direction baked in
    and a {e side exit} back to the block tier whenever the prediction
    misses. A trace whose predicted chain closes back on its own entry is
    a {e looping} trace: the executor restarts it without ever returning
    to the dispatcher, which is where the hot-loop win comes from.

    {b Formation policy.} Formation is triggered by the block tier the
    moment a block's [exec_count] crosses [hot_threshold]. The chain is
    grown from the {!Ublock} profile:
    - [Term_jmp]/[Term_call]: always followed (unconditional edges).
    - [Term_jcc]: followed in its dominant direction once the branch has
      at least [min_samples] recorded exits and one direction outnumbers
      the other [bias_num]:[bias_den] (default 3:1). The baked direction
      is re-checked at run time; the cold direction is a side exit.
    - [Term_ret]/[Term_call_r]/[Term_jmp_r]: followed to the Boyer–Moore
      majority target once it holds an absolute majority over at least
      [min_samples] samples. The target is re-checked at run time
      against the actual value (popped return address / register); a
      mismatch is a side exit with the architecturally-correct rip.
    Growth stops at unpredictable exits ([Term_halt], [Term_exec],
    [Term_fall_off], cold branches), at revisited entries (except the
    trace's own entry, which closes a loop), and at [max_segs]/
    [max_insns]. Single-segment traces are kept only when they loop.

    {b Semantics.} Executing a trace is observationally identical to
    running the same blocks through the block tier: same retired-insn
    counts, same fuel decrements, same pipeline issues (so same cycles
    and CPI stack), same profile updates, same fault behavior ([rip] is
    re-armed per uop; the executor's batched counter accounting is
    reconciled from [rip] before a fault propagates). Runtime prediction
    guards and trace formation itself cost zero {e simulated} cycles:
    the tier models a software-dispatch optimization of the simulator,
    not a microarchitectural feature of the modeled CPU.

    {b Invalidation} is eager: {!invalidate_all} (wired through
    [Cpu.flush_translations]) unregisters every live trace, so a stale
    superblock — including its side-exit stubs — can never execute after
    a flush. Dispatch additionally re-checks the trace's recorded
    {!Ublock} generation, so even a registry race would fall back to the
    block tier (which recompiles) rather than run stale code. *)

(** How a segment's fused terminator exits, with the predicted
    continuation baked in at formation time. *)
type exit_kind =
  | X_jmp of { target : int }
  | X_jcc of { cond : Insn.cond; target : int; fall : int; predict_taken : bool }
      (** Direction re-evaluated at run time; the unpredicted direction
          side-exits. *)
  | X_call of { target : int; retaddr : int }
  | X_call_r of { r : int; retaddr : int; predicted : int }
  | X_jmp_r of { r : int; predicted : int }
  | X_ret of { predicted : int }
      (** Indirect exits compare the actual target against [predicted];
          a mismatch side-exits with [rip] already set to the actual
          target. *)

(** One fused basic block inside a trace. The executor runs the block's
    own uops, so uop [i] is instruction [sg_blk.entry + i]. *)
type seg = {
  sg_blk : Ublock.block;  (** the underlying block (profile counters live here) *)
  sg_exit : exit_kind;
  sg_pad : bool;
      (** the body is empty, or is a single cmp/test feeding an [X_jcc]
          exit. Unattributed runs charge such a segment one zero-latency
          no-op issue ahead of its body when fuel covers it (see
          [Cpu.exec_trace]). *)
}

type trace = {
  tr_entry : int;
  tr_gen : int;  (** {!Ublock} generation the trace was formed under *)
  tr_segs : seg array;
  tr_loops : bool;
      (** last segment's predicted exit returns to [tr_entry]: the
          executor restarts the trace without re-dispatching *)
  tr_insns : int;  (** static instructions covered (uops + terminators) *)
  mutable tr_execs : int;  (** entries (not loop restarts); saturating *)
  mutable tr_side_exits : int;
  mutable tr_cycles : float;  (** simulated cycles retired inside this trace *)
  mutable tr_live : bool;  (** false once invalidated *)
}

val dummy_trace : trace
(** The "absent" registry sentinel; never executed. *)

(** Per-CPU tier state: the entry-indexed registry, formation parameters,
    cumulative statistics, and the executor's fault-reconciliation
    scratch. Fields are mutable and exposed: the CPU's inner loop reads
    them directly, and tests tune the formation parameters. *)
type tier = {
  code_len : int;
  mutable enabled : bool;
  mutable hot_threshold : int;
      (** exec-count at which the block tier attempts formation;
          [max_int] when the tier is disabled *)
  mutable min_samples : int;  (** edge samples required to trust a profile *)
  mutable jcc_bias : int;
      (** direction-bias numerator for baking a jcc exit: the winning
          side must outnumber the other [jcc_bias]:1 (default 3) *)
  mutable by_entry : trace array;  (** registry, {!dummy_trace} = absent *)
  mutable formed : trace list;  (** live traces, most recent first *)
  mutable formed_count : int;  (** cumulative, survives invalidation *)
  mutable invalidated_count : int;
  mutable covered_insns : int;
      (** retired instructions executed from inside superblocks *)
  mutable inline_hits : int;
      (** always 0: nothing writes it. Its only reader is the benchmark
          under [perfbench/], which reports it as a hit ratio. *)
  mutable inline_misses : int;
      (** always 0: nothing writes it. Its only reader is the benchmark
          under [perfbench/]. *)
  (* Chain-end reason counters: why formation walks stopped where they
     did — the trace-coverage diagnosis signal. Cumulative over every
     formation attempt. *)
  mutable abort_cold_branch : int;
      (** jcc below [min_samples] or without a [jcc_bias]:1 direction *)
  mutable abort_indirect_minority : int;
      (** ret/call_r/jmp_r without a Boyer–Moore absolute majority *)
  mutable abort_cap_hit : int;  (** [max_segs]/[max_insns] reached *)
  mutable abort_handler_term : int;
      (** halt / serializing-handler / fall-off terminator *)
  (* Fault-reconciliation scratch for the batched executor (lives here so
     the executor allocates nothing). *)
  mutable rec_entry : int;  (** entry of the segment whose body is running *)
  mutable rec_active : bool;  (** a segment body (not an exit) is running *)
}

val default_hot_threshold : int
val default_min_samples : int
val default_jcc_bias : int

val create : code_len:int -> tier
(** A fresh, enabled tier with default parameters and an empty registry
    sized for a [code_len]-instruction program. *)

val recreate : tier -> code_len:int -> tier
(** A fresh tier for a new program, inheriting [enabled]/
    [hot_threshold]/[min_samples]/[jcc_bias] from [old] (statistics and
    registry start empty). *)

val set_enabled : tier -> bool -> unit
(** Enable/disable formation {e and} dispatch. Disabling sets
    [hot_threshold] to [max_int] (so the block tier's trigger compare
    never fires) and invalidates live traces; enabling restores
    {!default_hot_threshold} unless a custom threshold was set. *)

val set_hot_threshold : tier -> int -> unit
val set_min_samples : tier -> int -> unit

val set_jcc_bias : tier -> int -> unit
(** Set the jcc direction-bias numerator (clamped to at least 1). Affects
    future formation only: already-installed traces keep their baked
    direction, which remains correct (the cold direction side-exits). *)

val at : tier -> int -> trace
(** Registry lookup: the live trace entered at instruction index [entry],
    or {!dummy_trace}. The caller must still check [tr_gen]. *)

val try_form : tier -> Ublock.cache -> Ublock.block -> unit
(** Attempt to form (and register) a trace entered at [block]. No-op if
    the tier is disabled, a trace is already registered there, or the
    profile does not support a chain (see formation policy above). *)

val invalidate_all : tier -> unit
(** Eagerly unregister every live trace. Wired through
    [Cpu.flush_translations]. *)

(** {2 Observability} *)

type stat = {
  t_entry : int;
  t_blocks : int list;  (** fused block entries, in execution order *)
  t_insns : int;
  t_execs : int;
  t_side_exits : int;
  t_cycles : float;
  t_loops : bool;
}

val stats : tier -> stat list
(** Live traces in formation order. *)

val live_count : tier -> int
