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

type t = {
  prepared : Framework.prepared;
  stats : row array;
  app : residual;
  span_rec : Tracer.spans;
  synthetic : bool;
  technique : string;
  cls : int array;
      (* per rip: site id * 4 + (0 open | 1 close | 2 check), -1 for app *)
  mutable prev : int;  (* class of the previous fetch *)
  mutable step_hook : int option;
  mutable event_hook : int option;
}

(* MPK and VMFUNC gates are single instructions the CPU itself reports;
   crypt and mprotect gates are plain instruction sequences, so the
   profiler injects [Event.Seq] gate events for them at the sitemap
   boundaries. Address-based techniques have checks, not gates. *)
let injects_seq_gates = function
  | Technique.Crypt | Technique.Mprotect -> true
  | Technique.Sfi | Technique.Mpx | Technique.Isboxing | Technique.Mpk _ | Technique.Vmfunc
  | Technique.Sgx ->
    false

let[@inline] class_of t rip =
  if rip >= 0 && rip < Array.length t.cls then Array.unsafe_get t.cls rip else -1

let attach (p : Framework.prepared) =
  let cpu = p.Framework.cpu in
  let sm = p.Framework.sitemap in
  let stats =
    Array.of_list
      (List.map
         (fun site ->
           { site; crossings = 0; checks = 0; cycles = 0.0; tlb_misses = 0; cache_misses = 0; faults = 0 })
         (Sitemap.sites sm))
  in
  let cls =
    Array.init (Program.length cpu.Cpu.program) (fun rip ->
        match Sitemap.classify sm rip with
        | Some (id, Sitemap.Gate_open) -> id * 4
        | Some (id, Sitemap.Gate_close) -> (id * 4) + 1
        | Some (id, (Sitemap.Check | Sitemap.Hoisted_check)) -> (id * 4) + 2
        | None -> -1)
  in
  (* Per-site cycles come from the Pipeline's CPI rows, which the CPU
     fills for every instruction once a site map is installed. *)
  Fastprof.install p;
  let t =
    {
      prepared = p;
      stats;
      app = { r_cycles = 0.0; r_tlb_misses = 0; r_cache_misses = 0; r_faults = 0 };
      span_rec = Tracer.record_spans cpu;
      synthetic = injects_seq_gates p.Framework.cfg.Framework.technique;
      technique = Technique.name p.Framework.cfg.Framework.technique;
      cls;
      prev = -1;
      step_hook = None;
      event_hook = None;
    }
  in
  let on_step (c : Cpu.t) _insn =
    let k = class_of t c.Cpu.rip in
    (* A crossing/check fires on the transition into a tagged range, so a
       straight-line enter sequence counts once however long it is. *)
    if k <> t.prev then begin
      t.prev <- k;
      if k >= 0 then begin
        let r = Array.unsafe_get t.stats (k lsr 2) in
        if k land 3 = 2 then r.checks <- r.checks + 1
        else begin
          r.crossings <- r.crossings + 1;
          if t.synthetic then begin
            let rip = c.Cpu.rip and gate = Event.Seq t.technique in
            Cpu.emit c
              (if k land 3 = 0 then Event.Gate_enter { rip; gate } else Event.Gate_exit { rip; gate })
          end
        end
      end
    end
  in
  let on_event ev =
    let attribute ~tlb ~cache ~fault rip =
      match class_of t rip with
      | -1 ->
        t.app.r_tlb_misses <- t.app.r_tlb_misses + tlb;
        t.app.r_cache_misses <- t.app.r_cache_misses + cache;
        t.app.r_faults <- t.app.r_faults + fault
      | k ->
        let s = t.stats.(k lsr 2) in
        s.tlb_misses <- s.tlb_misses + tlb;
        s.cache_misses <- s.cache_misses + cache;
        s.faults <- s.faults + fault
    in
    match ev with
    | Event.Tlb_miss { rip; _ } -> attribute ~tlb:1 ~cache:0 ~fault:0 rip
    | Event.Cache_miss { rip; _ } -> attribute ~tlb:0 ~cache:1 ~fault:0 rip
    | Event.Fault { rip; _ } -> attribute ~tlb:0 ~cache:0 ~fault:1 rip
    | Event.Gate_enter _ | Event.Gate_exit _ | Event.Vm_exit _ -> ()
  in
  t.step_hook <- Some (Cpu.add_step_hook cpu on_step);
  t.event_hook <- Some (Cpu.add_event_hook cpu on_event);
  t

(* One profiler per vCPU: each core gets its own hook set and row table
   over the shared sitemap, attached through a per-core view of the
   prepared record. Index i profiles core i. *)
let attach_smp (s : Framework.smp) =
  Array.map
    (fun cpu -> attach { s.Framework.prepared with Framework.cpu })
    (Machine.cpus s.Framework.machine)

(* Row [i] of the CPI accumulator summed over its classes, in class
   order — the same sum as {!Fastprof.row_cycles}. *)
let cpi_row_sum cpi i =
  Array.fold_left ( +. ) 0.0 (Array.sub cpi (i * Pipeline.cls_count) Pipeline.cls_count)

let stop t =
  let cpu = t.prepared.Framework.cpu in
  (match t.step_hook with
  | Some id ->
    Cpu.remove_step_hook cpu id;
    t.step_hook <- None;
    let cpi = Pipeline.cpi_rows cpu.Cpu.pipe in
    t.app.r_cycles <- cpi_row_sum cpi 0;
    Array.iteri (fun id r -> r.cycles <- cpi_row_sum cpi (id + 1)) t.stats
  | None -> ());
  (match t.event_hook with
  | Some id ->
    Cpu.remove_event_hook cpu id;
    t.event_hook <- None
  | None -> ());
  Tracer.stop t.span_rec

let rows t = Array.to_list t.stats
let residual t = t.app
let total_crossings t = Array.fold_left (fun acc r -> acc + r.crossings) 0 t.stats
let total_checks t = Array.fold_left (fun acc r -> acc + r.checks) 0 t.stats

let overhead_cycles t = Array.fold_left (fun acc r -> acc +. r.cycles) 0.0 t.stats

let spans t = Tracer.spans t.span_rec
let unmatched_exits t = Tracer.unmatched_exits t.span_rec

let site_of_rip t rip = Sitemap.lookup t.prepared.Framework.sitemap rip

let metrics t =
  let reg = Ms_util.Metrics.registry () in
  Array.iter
    (fun r ->
      let labels =
        [
          ("site", string_of_int r.site.Sitemap.id);
          ("label", r.site.Sitemap.label);
          ("technique", r.site.Sitemap.technique);
        ]
      in
      let set name v = Ms_util.Metrics.incr ~by:v (Ms_util.Metrics.counter reg ~labels name) in
      set "gate_crossings" r.crossings;
      set "checks" r.checks;
      set "tlb_misses" r.tlb_misses;
      set "cache_misses" r.cache_misses;
      set "faults" r.faults)
    t.stats;
  let residency =
    Ms_util.Metrics.histogram reg ~labels:[ ("technique", t.technique) ] "residency_cycles"
  in
  List.iter (fun s -> Ms_util.Metrics.observe residency (Tracer.span_cycles s)) (spans t);
  reg

let residency_histogram t =
  let reg = metrics t in
  Ms_util.Metrics.histogram reg ~labels:[ ("technique", t.technique) ] "residency_cycles"

let annotate t (s : Tracer.span) =
  match site_of_rip t s.Tracer.enter_rip with
  | Some (site, _) ->
    [
      ("site", Ms_util.Json.Int site.Sitemap.id);
      ("label", Ms_util.Json.String site.Sitemap.label);
      ("technique", Ms_util.Json.String site.Sitemap.technique);
    ]
  | None -> []

let trace_json t =
  Chrome_trace.to_json
    ~process_name:(Printf.sprintf "memsentry:%s" t.technique)
    ~annotate:(annotate t) (spans t)

let row_json r =
  let open Ms_util.Json in
  Obj
    [
      ("site", Int r.site.Sitemap.id);
      ("label", String r.site.Sitemap.label);
      ("technique", String r.site.Sitemap.technique);
      ("orig_rip", Int r.site.Sitemap.orig_rip);
      ("crossings", Int r.crossings);
      ("checks", Int r.checks);
      ("cycles", Float r.cycles);
      ("tlb_misses", Int r.tlb_misses);
      ("cache_misses", Int r.cache_misses);
      ("faults", Int r.faults);
    ]

let to_json t =
  let open Ms_util.Json in
  let residency = residency_histogram t in
  Obj
    [
      ("technique", String t.technique);
      ("sites", List (List.map row_json (rows t)));
      ( "app",
        Obj
          [
            ("cycles", Float t.app.r_cycles);
            ("tlb_misses", Int t.app.r_tlb_misses);
            ("cache_misses", Int t.app.r_cache_misses);
            ("faults", Int t.app.r_faults);
          ] );
      ( "totals",
        Obj
          [
            ("crossings", Int (total_crossings t));
            ("checks", Int (total_checks t));
            ("overhead_cycles", Float (overhead_cycles t));
            ("spans", Int (List.length (spans t)));
            ("unmatched_exits", Int (unmatched_exits t));
          ] );
      ( "residency",
        Obj
          [
            ("count", Int (Ms_util.Metrics.count residency));
            ("sum_cycles", Float (Ms_util.Metrics.sum residency));
            ("p50", Float (Ms_util.Metrics.p50 residency));
            ("p95", Float (Ms_util.Metrics.p95 residency));
            ("p99", Float (Ms_util.Metrics.p99 residency));
          ] );
      ("perf", Perf_report.to_json (Perf_report.capture t.prepared.Framework.cpu));
    ]
