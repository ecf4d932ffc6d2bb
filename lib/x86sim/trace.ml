(* Profile-guided superblock formation and registry. The hot executor
   lives in Cpu.exec_trace (it needs the uop executor); everything
   that can be decided off the hot path — which chains to stitch and when
   to tear traces down — lives here. *)

type exit_kind =
  | X_jmp of { target : int }
  | X_jcc of { cond : Insn.cond; target : int; fall : int; predict_taken : bool }
  | X_call of { target : int; retaddr : int }
  | X_call_r of { r : int; retaddr : int; predicted : int }
  | X_jmp_r of { r : int; predicted : int }
  | X_ret of { predicted : int }

type seg = { sg_blk : Ublock.block; sg_exit : exit_kind; sg_pad : bool }

type trace = {
  tr_entry : int;
  tr_gen : int;
  tr_segs : seg array;
  tr_loops : bool;
  tr_insns : int;
  mutable tr_execs : int;
  mutable tr_side_exits : int;
  mutable tr_cycles : float;
  mutable tr_live : bool;
}

let dummy_trace =
  {
    tr_entry = -1;
    tr_gen = -1;
    tr_segs = [||];
    tr_loops = false;
    tr_insns = 0;
    tr_execs = 0;
    tr_side_exits = 0;
    tr_cycles = 0.0;
    tr_live = false;
  }

type tier = {
  code_len : int;
  mutable enabled : bool;
  mutable hot_threshold : int;
  mutable min_samples : int;
  mutable jcc_bias : int;
  mutable by_entry : trace array;
  mutable formed : trace list;
  mutable formed_count : int;
  mutable invalidated_count : int;
  mutable covered_insns : int;
  mutable inline_hits : int;
  mutable inline_misses : int;
  mutable abort_cold_branch : int;
  mutable abort_indirect_minority : int;
  mutable abort_cap_hit : int;
  mutable abort_handler_term : int;
  mutable rec_entry : int;
  mutable rec_active : bool;
}

(* 64 block entries before a chain is considered hot: low enough that a
   benchmark's main loop tiers up almost immediately, high enough that
   one-shot startup code never pays formation. *)
let default_hot_threshold = 64

(* Edge-profile confidence floor: a jcc direction or indirect majority is
   trusted once this many exits were recorded (with a 3:1 direction bias,
   below). *)
let default_min_samples = 12

(* Growth bounds. 32 segments / 4096 instructions comfortably cover every
   loop body in the benchmark suite while keeping a single trace's
   metadata small. *)
let max_segs = 32
let max_insns = 4096

(* Direction-bias numerator for baking a jcc exit direction: the winning
   side must outnumber the other [jcc_bias]:1. 3:1 keeps side-exit rates
   low on the benchmark suite without freezing out skewed-but-hot loop
   branches. *)
let default_jcc_bias = 3

let create ~code_len =
  {
    code_len;
    enabled = true;
    hot_threshold = default_hot_threshold;
    min_samples = default_min_samples;
    jcc_bias = default_jcc_bias;
    by_entry = Array.make (max code_len 1) dummy_trace;
    formed = [];
    formed_count = 0;
    invalidated_count = 0;
    covered_insns = 0;
    inline_hits = 0;
    inline_misses = 0;
    abort_cold_branch = 0;
    abort_indirect_minority = 0;
    abort_cap_hit = 0;
    abort_handler_term = 0;
    rec_entry = 0;
    rec_active = false;
  }

let recreate old ~code_len =
  let t = create ~code_len in
  t.enabled <- old.enabled;
  t.hot_threshold <- old.hot_threshold;
  t.min_samples <- old.min_samples;
  t.jcc_bias <- old.jcc_bias;
  t

let[@inline] at tier entry = Array.unsafe_get tier.by_entry entry

let invalidate_all tier =
  List.iter
    (fun tr ->
      tr.tr_live <- false;
      tier.by_entry.(tr.tr_entry) <- dummy_trace;
      tier.invalidated_count <- tier.invalidated_count + 1)
    tier.formed;
  tier.formed <- []

let set_hot_threshold tier n = tier.hot_threshold <- max 1 n

let set_enabled tier on =
  if on && not tier.enabled then begin
    tier.enabled <- true;
    if tier.hot_threshold = max_int then tier.hot_threshold <- default_hot_threshold
  end
  else if (not on) && tier.enabled then begin
    tier.enabled <- false;
    tier.hot_threshold <- max_int;
    invalidate_all tier
  end

let set_min_samples tier n = tier.min_samples <- max 1 n

let set_jcc_bias tier n = tier.jcc_bias <- max 1 n

(* ------------------------------------------------------------------ *)
(* Formation                                                           *)
(* ------------------------------------------------------------------ *)

(* The predicted exit of [b] plus the predicted next entry, or [None] if
   the profile doesn't support baking a direction. A [None] ends the
   formation walk; the per-reason counters below record {e why} chains
   stop where they do — the coverage-diagnosis signal [report] and
   [edgeprof] surface (low trace coverage is almost always one of these
   four reasons dominating). *)
let predict tier (b : Ublock.block) : (exit_kind * int) option =
  let ms = tier.min_samples in
  match b.Ublock.term with
  | Ublock.Term_jmp { target } -> Some (X_jmp { target }, target)
  | Ublock.Term_call { target } ->
    Some (X_call { target; retaddr = b.Ublock.term_idx + 1 }, target)
  | Ublock.Term_jcc { cond; target } ->
    let fall = b.Ublock.term_idx + 1 in
    let bias = tier.jcc_bias in
    let tk = b.Ublock.taken_count and fl = b.Ublock.fall_count in
    if tk + fl >= ms && tk >= bias * fl then
      Some (X_jcc { cond; target; fall; predict_taken = true }, target)
    else if tk + fl >= ms && fl >= bias * tk then
      Some (X_jcc { cond; target; fall; predict_taken = false }, fall)
    else begin
      tier.abort_cold_branch <- tier.abort_cold_branch + 1;
      None
    end
  | Ublock.Term_call_r { r } ->
    if b.Ublock.dyn_total >= ms && 2 * b.Ublock.dyn_votes >= b.Ublock.dyn_total
       && b.Ublock.dyn_target >= 0
    then
      Some
        ( X_call_r { r; retaddr = b.Ublock.term_idx + 1; predicted = b.Ublock.dyn_target },
          b.Ublock.dyn_target )
    else begin
      tier.abort_indirect_minority <- tier.abort_indirect_minority + 1;
      None
    end
  | Ublock.Term_jmp_r { r } ->
    if b.Ublock.dyn_total >= ms && 2 * b.Ublock.dyn_votes >= b.Ublock.dyn_total
       && b.Ublock.dyn_target >= 0
    then Some (X_jmp_r { r; predicted = b.Ublock.dyn_target }, b.Ublock.dyn_target)
    else begin
      tier.abort_indirect_minority <- tier.abort_indirect_minority + 1;
      None
    end
  | Ublock.Term_ret ->
    if b.Ublock.dyn_total >= ms && 2 * b.Ublock.dyn_votes >= b.Ublock.dyn_total
       && b.Ublock.dyn_target >= 0
    then Some (X_ret { predicted = b.Ublock.dyn_target }, b.Ublock.dyn_target)
    else begin
      tier.abort_indirect_minority <- tier.abort_indirect_minority + 1;
      None
    end
  | Ublock.Term_halt | Ublock.Term_exec _ | Ublock.Term_fall_off ->
    tier.abort_handler_term <- tier.abort_handler_term + 1;
    None

let static_insns (b : Ublock.block) =
  Array.length b.Ublock.uops
  + (match b.Ublock.term with Ublock.Term_fall_off -> 0 | _ -> 1)

(* Whether a segment's body, less a cmp/test feeding its jcc exit, is
   empty: the segments [Cpu.exec_trace] pads with one no-op issue. *)
let padded (blk : Ublock.block) x =
  match (blk.Ublock.uops, x) with
  | [||], _ -> true
  | [| Ublock.Ucmp_rr _ | Ublock.Ucmp_ri _ | Ublock.Utest_rr _ |], X_jcc _ -> true
  | _ -> false

let try_form tier cache (b0 : Ublock.block) =
  let entry = b0.Ublock.entry in
  if tier.enabled
     && tier.code_len = Ublock.code_length cache
     && entry >= 0 && entry < tier.code_len
     && at tier entry == dummy_trace
  then begin
    (* Walk the predicted chain, collecting (block, exit) pairs. A block
       whose exit is unpredictable is NOT included: the previous
       segment's exit already leaves rip at its entry, and the block
       tier takes over from there. *)
    let rec walk (blk : Ublock.block) acc n_insns visited =
      if List.length acc >= max_segs || n_insns > max_insns then begin
        tier.abort_cap_hit <- tier.abort_cap_hit + 1;
        (List.rev acc, false)
      end
      else
        match predict tier blk with
        | None -> (List.rev acc, false)
        | Some (x, next) ->
          let acc = (blk, x) :: acc in
          if next = entry then (List.rev acc, true)
          else if next < 0 || next >= tier.code_len || List.mem next visited then
            (List.rev acc, false)
          else
            walk (Ublock.get cache next) acc (n_insns + static_insns blk) (next :: visited)
    in
    let chain, loops = walk b0 [] 0 [ entry ] in
    let n = List.length chain in
    if n >= 2 || (n = 1 && loops) then begin
      let tr =
        {
          tr_entry = entry;
          tr_gen = Ublock.generation cache;
          tr_segs =
            Array.of_list
              (List.map
                 (fun (sg_blk, sg_exit) -> { sg_blk; sg_exit; sg_pad = padded sg_blk sg_exit })
                 chain);
          tr_loops = loops;
          tr_insns = List.fold_left (fun a (b, _) -> a + static_insns b) 0 chain;
          tr_execs = 0;
          tr_side_exits = 0;
          tr_cycles = 0.0;
          tr_live = true;
        }
      in
      tier.by_entry.(entry) <- tr;
      tier.formed <- tr :: tier.formed;
      tier.formed_count <- tier.formed_count + 1
    end
  end

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

type stat = {
  t_entry : int;
  t_blocks : int list;
  t_insns : int;
  t_execs : int;
  t_side_exits : int;
  t_cycles : float;
  t_loops : bool;
}

let stat_of (tr : trace) =
  {
    t_entry = tr.tr_entry;
    t_blocks =
      Array.to_list (Array.map (fun s -> s.sg_blk.Ublock.entry) tr.tr_segs);
    t_insns = tr.tr_insns;
    t_execs = tr.tr_execs;
    t_side_exits = tr.tr_side_exits;
    t_cycles = tr.tr_cycles;
    t_loops = tr.tr_loops;
  }

let stats tier = List.rev_map stat_of tier.formed
let live_count tier = List.length tier.formed
