(** Gate-site attributed profiling — the paper's §5.5 dynamic analysis as
    a first-class subsystem.

    Attach to a {!Framework.prepared} machine before running it; the
    profiler then

    - counts {e crossings} (executions of a gate open/close sequence) and
      {e checks} (executions of an address-based check) per
      {!Sitemap.site}, by watching step transitions into tagged ranges;
    - attributes cycles to each site from the {!X86sim.Pipeline} CPI
      rows, which charge every issue to the issuing instruction's site,
      so gate serialization and cache effects land on the gate that
      caused them;
    - attributes TLB misses, cache fills below L1, and faults to sites via
      the [rip] carried by typed {!X86sim.Event.t}s;
    - records domain-residency spans. For techniques whose gates the CPU
      reports ([wrpkru], [vmfunc]) the hardware events drive the spans;
      for sequence-gated techniques (crypt, mprotect) the profiler injects
      [Event.Seq] gate events at sitemap boundaries — exactly one source
      per technique, so nothing is double counted.

    Per step, the hook does one array load and one int compare.

    For MPK, the sum of all sites' crossings equals the machine's
    [wrpkrus] counter: every crossing executes exactly one [wrpkru]. *)

open X86sim

type row = {
  site : Sitemap.site;
  mutable crossings : int;
  mutable checks : int;
  mutable cycles : float;
  mutable tlb_misses : int;
  mutable cache_misses : int;
  mutable faults : int;
}

type residual = {
  mutable r_cycles : float;
  mutable r_tlb_misses : int;
  mutable r_cache_misses : int;
  mutable r_faults : int;
}
(** Everything not attributable to a site: application code. *)

type t

val attach : Framework.prepared -> t
(** Install step and event hooks (composes with tracers and analyses) and
    the {!Fastprof} site map ({!Fastprof.install}, which replaces any
    earlier one and zeroes the CPI rows). Attach before {!Framework.run};
    cycle accounting starts at the current pipeline clock. *)

val attach_smp : Framework.smp -> t array
(** One profiler per vCPU (index = core id), each with its own hooks and
    row table over the shared sitemap. Stop each with {!stop}. Note that
    step hooks force every core off the translated fast loop — for
    profiling multi-core runs without perturbation, prefer
    {!Fastprof.install_smp}/{!Fastprof.capture_smp}. *)

val stop : t -> unit
(** Remove the hooks, read per-site and application cycles from the CPI
    rows, and force-close open spans. The site map stays installed, so
    {!Fastprof.capture} and {!X86sim.Pipeline.cpi_totals} still see the
    per-site rows afterwards. Call after the run; accessors below are
    meaningful afterwards. *)

val injects_seq_gates : Technique.t -> bool
(** Whether the profiler supplies [Event.Seq] gate events for this
    technique (crypt, mprotect) because the hardware reports none. *)

val rows : t -> row list
(** Per-site stats in site-id order. *)

val residual : t -> residual
val total_crossings : t -> int
val total_checks : t -> int

val overhead_cycles : t -> float
(** Cycles spent executing inserted instructions (sum over sites). *)

val spans : t -> Tracer.span list
val unmatched_exits : t -> int
val site_of_rip : t -> int -> (Sitemap.site * Sitemap.role) option

val metrics : t -> Ms_util.Metrics.registry
(** Export into a fresh registry: per-site [gate_crossings]/[checks]/
    [tlb_misses]/[cache_misses]/[faults] counters (labels: site, label,
    technique) plus a [residency_cycles] histogram over span durations. *)

val residency_histogram : t -> Ms_util.Metrics.histogram

val trace_json : t -> Ms_util.Json.t
(** Chrome trace-event JSON of the spans, each annotated with its gate
    site. *)

val to_json : t -> Ms_util.Json.t
(** Full profile: per-site table, app residual, totals, residency
    percentiles, and the machine's {!Perf_report}. *)
