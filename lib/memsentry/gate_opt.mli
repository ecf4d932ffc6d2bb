(** Check-motion optimization of instrumented programs.

    Analysis-driven elimination, hoisting and coalescing of the gate
    checks {!Instr} inserts, justified by {!Gate_analysis}'s own abstract
    domain:

    - {b static elimination} deletes an address-based check (SFI mask,
      MPX [bndcu], ISBoxing [lea32]) whose effective address the interval
      domain proves already confined, restoring the pristine access;
    - {b redundancy elimination} deletes a check dominated by an
      equivalent check of the same operand with no intervening clobber
      (an available-checks forward dataflow); the access keeps going
      through the already-checked scratch register;
    - {b loop-invariant check motion} moves a check whose operand is
      invariant out of a natural loop into a preheader the pass inserts,
      retargeting outside jumps to the header;
    - {b gate coalescing} merges a domain-based close-then-reopen pair
      (MPK / VMFUNC / crypt) across straight-line gaps and diamonds whose
      instructions provably never touch the safe region.

    Every optimized program is re-verified with {!Gate_analysis.analyze};
    {!optimize} raises {!Rejected} rather than emit a program with any
    violation class absent from its input. *)

open X86sim

type stats = {
  sites_total : int;  (** instrumentation sites in the input sitemap *)
  eliminated_static : int;
  eliminated_redundant : int;
  hoisted : int;
  preheaders : int;  (** loop preheaders inserted *)
  coalesced_pairs : int;  (** close/open gate pairs merged *)
  insns_before : int;
  insns_after : int;
}

type result = {
  items : Program.item list;
  sitemap : Sitemap.t;
      (** survivors of the input sitemap, ids renumbered densely in the
          original order, rips remapped; hoisted checks are tagged
          {!Sitemap.Hoisted_check} *)
  stats : stats;
  report : Gate_analysis.report;  (** verification of the optimized program *)
}

exception Rejected of string
(** The optimized program failed re-verification; nothing is emitted. *)

val optimize :
  ?split:int ->
  ?bnd0_upper:int ->
  ?mpk_key:int ->
  policy:Gate_analysis.policy ->
  kind:Instr.access_kind ->
  Program.item list ->
  Sitemap.t ->
  result
(** [optimize ~policy ~kind items sm] optimizes an instrumented item
    stream. [kind] must match the instrumentation ([Instr.access_kind]
    used to insert the checks); analysis parameters default as in
    {!Gate_analysis.analyze}. The input items are not modified (the
    result shares unchanged instructions). *)

val pp_stats : Format.formatter -> stats -> unit
val stats_to_json : stats -> Ms_util.Json.t
