open X86sim

(* Check-motion optimization of instrumented programs.

   Three analysis-driven passes over the instrumented item stream, all
   justified by the same abstract domain the verifier uses (the passes
   query {!Gate_analysis}'s solved fixpoint, so anything they prove is by
   construction re-provable when the result is verified):

   - {b static elimination} (address-based): a check whose effective
     address the interval domain already confines to the nonsensitive
     partition is dead work — the inserted check sequence is deleted and
     the pristine access restored.
   - {b redundancy elimination} (address-based): an available-checks
     dataflow over (operand, mask) facts finds checks dominated by an
     equivalent check with no intervening clobber of the operand
     registers or the scratch register; the dominated site keeps only its
     access through the already-checked scratch value.
   - {b loop-invariant check motion} (address-based): a kept check whose
     operand registers are loop-invariant is moved to a preheader the
     pass inserts in front of the natural-loop header; outside jumps to
     the header are retargeted through the preheader.
   - {b gate coalescing} (domain-based): a close-then-reopen pair across
     a straight-line gap or a diamond whose arms are transfer-free and
     provably never touch the safe region is merged into one open
     region, halving the crossings on that path.

   Soundness notes enforced below:
   - Only {e statically} proven checks restore the pristine operand; a
     redundancy-eliminated access keeps going through scratch (for SFI
     the mask {e enforces} confinement rather than proving it, so the
     masked pointer must remain the one dereferenced).
   - A bndcu may only be deleted/hoisted where it provably cannot fault
     (elimination) or faults no later than the original would
     (hoisting: the check must lead its loop header).
   - Coalescing refuses gaps/arms containing control transfers, labels,
     gate instructions, or accesses not provably below the split — the
     region is open across the merged gap, and under MPK/VMFUNC/crypt an
     access that originally faulted (or read ciphertext) must not start
     succeeding.

   Every optimized program is re-verified; the optimizer refuses to emit
   if verification reports any violation absent from the input. *)

type stats = {
  sites_total : int;
  eliminated_static : int;
  eliminated_redundant : int;
  hoisted : int;
  preheaders : int;
  coalesced_pairs : int;
  insns_before : int;
  insns_after : int;
}

type result = {
  items : Program.item list;
  sitemap : Sitemap.t;
  stats : stats;
  report : Gate_analysis.report;  (** verification of the optimized program *)
}

exception Rejected of string

let scratch = Ir.Lower.scratch1
let scratch2 = Ir.Lower.scratch2

let address_based = function
  | Gate_analysis.Sfi_policy | Gate_analysis.Mpx_policy | Gate_analysis.Isboxing_policy ->
    true
  | Gate_analysis.Mpk_policy _ | Gate_analysis.Vmfunc_policy | Gate_analysis.Crypt_policy ->
    false

(* --- small instruction helpers ----------------------------------------- *)

let mem_operand = function
  | Insn.Load (_, m)
  | Insn.Store (m, _)
  | Insn.Store_i (m, _)
  | Insn.Movdqa_load (_, m)
  | Insn.Movdqa_store (m, _)
  | Insn.Bndmov_load (_, m)
  | Insn.Bndmov_store (m, _) -> Some m
  | _ -> None

let with_operand insn m =
  match insn with
  | Insn.Load (d, _) -> Insn.Load (d, m)
  | Insn.Store (_, s) -> Insn.Store (m, s)
  | Insn.Store_i (_, v) -> Insn.Store_i (m, v)
  | Insn.Movdqa_load (x, _) -> Insn.Movdqa_load (x, m)
  | Insn.Movdqa_store (_, x) -> Insn.Movdqa_store (m, x)
  | other -> other

(* General registers an instruction writes (kills for the availability
   dataflow and the invariance checks). Call-like instructions havoc
   everything and are handled separately. *)
let defs = function
  | Insn.Mov_ri (d, _)
  | Insn.Mov_rr (d, _)
  | Insn.Mov_label (d, _)
  | Insn.Lea (d, _)
  | Insn.Lea32 (d, _)
  | Insn.Load (d, _)
  | Insn.Pop d
  | Insn.Movq_rx (d, _)
  | Insn.Alu_rr (_, d, _)
  | Insn.Alu_ri (_, d, _) -> [ d ]
  | Insn.Rdpkru | Insn.Syscall -> [ Reg.rax ]
  | _ -> []

let havocs_all = function
  | Insn.Call _ | Insn.Call_r _ | Insn.Vmcall | Insn.Cpuid -> true
  | _ -> false

(* Instructions a coalesced-open gap may contain: no control transfers,
   no gate/check instructions, nothing that could interact with the gate
   state. Memory safety of the gap is checked separately against the
   solved states. *)
let safe_gap_insn = function
  | Insn.Jmp _ | Insn.Jcc _ | Insn.Jmp_r _ | Insn.Call _ | Insn.Call_r _ | Insn.Ret
  | Insn.Halt | Insn.Syscall | Insn.Vmcall | Insn.Wrpkru | Insn.Rdpkru | Insn.Vmfunc
  | Insn.Cpuid | Insn.Aesenc _ | Insn.Aesenclast _ | Insn.Aesdec _ | Insn.Aesdeclast _
  | Insn.Aesimc _ | Insn.Aeskeygenassist _ | Insn.Bndcu _ | Insn.Bndcl _ | Insn.Bnd_set _
  | Insn.Bndmov_load _ | Insn.Bndmov_store _ -> false
  | _ -> true

(* --- recovered sites ---------------------------------------------------- *)

(* One address-based instrumentation site, recovered from the sitemap:
   [afirst..alast] are the inserted check instructions (the first is the
   Lea/Lea32 that splits out the effective address), [aaccess] the
   rewritten access through scratch, [aoperand] the original operand. *)
type asite = {
  aid : int;
  afirst : int;
  alast : int;
  aaccess : int;
  aoperand : Insn.mem;
  amask : int option;  (** SFI: the masking constant *)
}

type action = Keep | Drop | Replace of Insn.t

(* Availability fact: "scratch holds the checked value of this operand".
   A single shared scratch register means at most one fact is live. *)
type key = { kb : int; ki : int; ks : int; kd : int; kmask : int }

let key_of_site s =
  {
    kb = s.aoperand.Insn.base;
    ki = s.aoperand.Insn.index;
    ks = s.aoperand.Insn.scale;
    kd = s.aoperand.Insn.disp;
    kmask = (match s.amask with Some m -> m | None -> -1);
  }

let all_ones m = m >= 0 && m land (m + 1) = 0

(* Recover the address-based instrumentation sites of [code] from the
   sitemap's tag ranges, validating each against the policy's inserted
   shape (SFI: lea; mov_ri mask; and — MPX: lea; bndcu — ISBoxing:
   lea32). Malformed or non-contiguous sites are dropped: the passes
   cannot reason about them. Sorted by position. *)
let recover_sites ~policy (code : Insn.t array) (sm : Sitemap.t) =
  let n = Array.length code in
  let tag_range = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    match Sitemap.classify sm i with
    | Some (id, (Sitemap.Check | Sitemap.Hoisted_check)) ->
      let lo, hi, c = try Hashtbl.find tag_range id with Not_found -> (max_int, -1, 0) in
      Hashtbl.replace tag_range id (min lo i, max hi i, c + 1)
    | _ -> ()
  done;
  let sites =
    Hashtbl.fold
      (fun id (lo, hi, c) acc ->
        if hi - lo + 1 <> c || hi + 1 >= n then acc
        else
          let access = hi + 1 in
          let shape_ok =
            (match code.(lo) with
            | Insn.Lea (d, _) | Insn.Lea32 (d, _) -> d = scratch
            | _ -> false)
            &&
            match mem_operand code.(access) with
            | Some m -> m.Insn.base = scratch && m.Insn.index < 0 && m.Insn.disp = 0
            | None -> false
          in
          if not shape_ok then acc
          else
            let operand =
              match code.(lo) with
              | Insn.Lea (_, m) | Insn.Lea32 (_, m) -> m
              | _ -> assert false
            in
            let mask =
              (* SFI shape: lea; mov_ri scratch2, mask; and scratch, scratch2 *)
              match policy with
              | Gate_analysis.Sfi_policy -> (
                match (code.(lo + 1), code.(hi)) with
                | Insn.Mov_ri (r, m), Insn.Alu_rr (Insn.And, d, s)
                  when r = scratch2 && d = scratch && s = scratch2 && c = 3 -> Some m
                | _ -> None)
              | _ -> None
            in
            (* Reject malformed SFI sites outright (can't reason about
               them); MPX/ISBoxing shapes are fixed-length. *)
            let valid =
              match policy with
              | Gate_analysis.Sfi_policy -> mask <> None
              | Gate_analysis.Mpx_policy -> (
                c = 2 && match code.(hi) with Insn.Bndcu (0, r) -> r = scratch | _ -> false)
              | Gate_analysis.Isboxing_policy -> (
                c = 1 && match code.(lo) with Insn.Lea32 _ -> true | _ -> false)
              | _ -> false
            in
            if not valid then acc
            else
              { aid = id; afirst = lo; alast = hi; aaccess = access; aoperand = operand;
                amask = mask }
              :: acc)
      tag_range []
  in
  List.sort (fun a b -> compare a.afirst b.afirst) sites

(* --- the optimizer ------------------------------------------------------ *)

let optimize ?split ?bnd0_upper ?mpk_key ~policy ~kind (items : Program.item list)
    (sm : Sitemap.t) =
  let akind = if address_based policy then kind else Instr.Reads_and_writes in
  let analyze prog =
    Gate_analysis.analyze ?split ?bnd0_upper ~kind:akind ?mpk_key ~policy prog
  in
  let prog = Program.assemble items in
  let code = Program.code prog in
  let n = Array.length code in
  let pcfg = Ir.Cfg.of_program prog in
  let g = pcfg.Ir.Cfg.graph in
  let spans = pcfg.Ir.Cfg.spans in
  let block_of i = pcfg.Ir.Cfg.block_of.(i) in
  let pre_report = analyze prog in
  let sol = Gate_analysis.solve_program ?split ?bnd0_upper ~kind:akind ?mpk_key ~policy pcfg in
  (* Per-instruction in-states from the solved fixpoint. *)
  let in_state = Array.make (max n 1) None in
  for b = 0 to g.Ir.Cfg.nnodes - 1 do
    match Gate_analysis.block_in sol b with
    | None -> ()
    | Some st0 ->
      ignore
        (List.fold_left
           (fun st (idx, insn) ->
             in_state.(idx) <- Some st;
             Gate_analysis.step_insn sol idx insn st)
           st0 (Ir.Cfg.insns_of pcfg b))
  done;
  (* Label positions in the item stream: [label_before.(i)] iff some label
     immediately precedes instruction index [i]. *)
  let label_before = Array.make (n + 1) false in
  let () =
    let i = ref 0 in
    List.iter
      (function
        | Program.Label _ -> if !i <= n then label_before.(!i) <- true
        | Program.I _ -> incr i)
      items
  in
  let actions = Array.make (max n 1) Keep in
  let nsites = Sitemap.n_sites sm in
  let site_survives = Array.make (max nsites 1) true in

  (* ---------------- address-based passes ------------------------------- *)
  let eliminated_static = ref 0 in
  let eliminated_redundant = ref 0 in
  let hoisted = ref 0 in
  let preheaders = ref 0 in
  let pre_insert : (int, (int * Insn.t list) list ref) Hashtbl.t = Hashtbl.create 8 in
  let ph_name h_first = Printf.sprintf "__gopt_ph%d" h_first in
  if address_based policy then begin
    let sites = recover_sites ~policy code sm in
    (* Instruction index -> site membership. *)
    let site_at = Array.make (max n 1) None in
    List.iter
      (fun s ->
        for i = s.afirst to s.alast do
          site_at.(i) <- Some (s, `Inserted)
        done;
        site_at.(s.aaccess) <- Some (s, `Access))
      sites;
    let static_elim = Array.make (max nsites 1) false in
    let redundant = Array.make (max nsites 1) false in
    let is_hoisted = Array.make (max nsites 1) false in

    (* Pass A: static elimination from the verifier's own fixpoint. *)
    List.iter
      (fun s ->
        match in_state.(s.afirst) with
        | None -> ()
        | Some st ->
          let ea = Gate_analysis.ea_range st s.aoperand in
          let provable =
            match policy with
            | Gate_analysis.Sfi_policy -> (
              (* Deleting the mask is the identity only for an all-ones
                 mask over an EA already inside it. *)
              match s.amask with
              | Some m -> all_ones m && Gate_analysis.within ea ~lo:0 ~hi:m
              | None -> false)
            | Gate_analysis.Mpx_policy ->
              (* The bndcu provably cannot fault, and bnd0 still holds the
                 loader's bound so the fixpoint fact is meaningful. *)
              Gate_analysis.bnd0_valid st
              && Gate_analysis.within ea ~lo:0 ~hi:(Gate_analysis.bnd0_upper_of sol)
            | Gate_analysis.Isboxing_policy ->
              (* lea32's truncation is the identity. *)
              Gate_analysis.within ea ~lo:0 ~hi:0xFFFF_FFFF
            | _ -> false
          in
          (* The restored pristine access must itself re-verify. *)
          if provable && Gate_analysis.value_confined sol ea then begin
            static_elim.(s.aid) <- true;
            incr eliminated_static;
            for i = s.afirst to s.alast do
              actions.(i) <- Drop
            done;
            actions.(s.aaccess) <- Replace (with_operand code.(s.aaccess) s.aoperand)
          end)
      sites;

    (* Pass B: available-checks dataflow. Facts key the operand + mask;
       the single scratch register means at most one fact is live. The
       transfer is independent of the keep/eliminate decision at a site
       (both leave scratch holding the checked value of the site's key),
       so the fixpoint is well-defined. *)
    let kills fact ds =
      match fact with
      | None -> None
      | Some k ->
        if List.exists (fun d -> d = k.kb || d = k.ki || d = scratch) ds then None else fact
    in
    let fact_step fact idx =
      match site_at.(idx) with
      | Some (s, `Inserted) ->
        if static_elim.(s.aid) then fact (* dropped: no machine effect *)
        else if idx = s.alast then Some (key_of_site s)
        else fact
      | Some (s, `Access) ->
        let eff = if static_elim.(s.aid) then with_operand code.(idx) s.aoperand else code.(idx) in
        kills fact (defs eff)
      | None ->
        let insn = code.(idx) in
        if havocs_all insn then None else kills fact (defs insn)
    in
    let fact_block b fact =
      let sp = spans.(b) in
      let f = ref fact in
      for i = sp.Ir.Cfg.first to sp.Ir.Cfg.last do
        f := fact_step !f i
      done;
      !f
    in
    let fact_ins =
      Ir.Cfg.solve g ~entry_state:None
        ~join:(fun a b -> if a = b then a else None)
        ~equal:( = ) ~transfer:fact_block
    in
    Array.iteri
      (fun b fact0 ->
        match fact0 with
        | None -> ()
        | Some fact0 ->
          let sp = spans.(b) in
          let f = ref fact0 in
          for i = sp.Ir.Cfg.first to sp.Ir.Cfg.last do
            (match site_at.(i) with
            | Some (s, `Inserted)
              when i = s.afirst && (not static_elim.(s.aid)) && !f = Some (key_of_site s) ->
              redundant.(s.aid) <- true
            | _ -> ());
            f := fact_step !f i
          done)
      fact_ins;
    List.iter
      (fun s ->
        if redundant.(s.aid) then begin
          incr eliminated_redundant;
          for i = s.afirst to s.alast do
            actions.(i) <- Drop
          done
          (* the access through scratch stays *)
        end)
      sites;

    (* Pass C: loop-invariant check motion. The decisions below are made
       against the pre-hoist layout (a hoisted site still counts as a
       scratch writer at its original position when other loops are
       considered), which over-approximates interference. *)
    let dropped_site s = static_elim.(s.aid) || redundant.(s.aid) in
    (* The machine effect an index has after passes A/B. *)
    let eff_insn idx =
      match site_at.(idx) with
      | Some (s, `Inserted) -> if dropped_site s then None else Some code.(idx)
      | Some (s, `Access) ->
        Some (if static_elim.(s.aid) then with_operand code.(idx) s.aoperand else code.(idx))
      | None -> Some code.(idx)
    in
    let loops = Ir.Cfg.natural_loops g in
    let entry_blocks = g.Ir.Cfg.entries in
    List.iter
      (fun (l : Ir.Cfg.loop) ->
        if not (List.mem l.Ir.Cfg.header entry_blocks) then begin
          let in_body = Array.make g.Ir.Cfg.nnodes false in
          List.iter (fun b -> in_body.(b) <- true) l.Ir.Cfg.body;
          let header_first = spans.(l.Ir.Cfg.header).Ir.Cfg.first in
          let body_idxs =
            List.concat_map
              (fun b ->
                let sp = spans.(b) in
                List.init (sp.Ir.Cfg.last - sp.Ir.Cfg.first + 1) (fun k -> sp.Ir.Cfg.first + k))
              l.Ir.Cfg.body
          in
          let candidates =
            List.filter
              (fun s ->
                in_body.(block_of s.afirst)
                && (not (dropped_site s))
                && not is_hoisted.(s.aid))
              sites
          in
          (* Redundant consumers inside the loop constrain what may be
             hoisted over them: the preheader write must produce the very
             value they reuse. *)
          let body_consumer_keys =
            List.filter_map
              (fun s ->
                if redundant.(s.aid) && in_body.(block_of s.aaccess) then Some (key_of_site s)
                else None)
              sites
          in
          let try_hoist s =
            let my_insn i = i >= s.afirst && i <= s.alast in
            let invariant_ok =
              List.for_all
                (fun i ->
                  match eff_insn i with
                  | None -> true
                  | Some insn ->
                    (not (havocs_all insn))
                    && (not (List.exists
                               (fun d ->
                                 d = s.aoperand.Insn.base || d = s.aoperand.Insn.index
                                 || d = scratch
                                 || (s.amask <> None && d = scratch2))
                               (defs insn))
                        || my_insn i))
                body_idxs
            in
            let fault_ok =
              match policy with
              | Gate_analysis.Mpx_policy ->
                (* The check must fault no later than the original: it has
                   to lead its loop header with nothing effective before
                   it. *)
                block_of s.afirst = l.Ir.Cfg.header
                && List.for_all
                     (fun i -> i >= s.afirst || eff_insn i = None)
                     (List.init (s.afirst - header_first) (fun k -> header_first + k))
              | _ -> true
            in
            let consumers_ok =
              List.for_all (fun k -> k = key_of_site s) body_consumer_keys
            in
            if invariant_ok && fault_ok && consumers_ok then begin
              is_hoisted.(s.aid) <- true;
              incr hoisted;
              for i = s.afirst to s.alast do
                actions.(i) <- Drop
              done;
              let moved = List.init (s.alast - s.afirst + 1) (fun k -> code.(s.afirst + k)) in
              let cell =
                match Hashtbl.find_opt pre_insert header_first with
                | Some r -> r
                | None ->
                  let r = ref [] in
                  Hashtbl.replace pre_insert header_first r;
                  incr preheaders;
                  (* Retarget outside jumps to the header through the new
                     preheader. *)
                  for i = 0 to n - 1 do
                    if not in_body.(block_of i) then begin
                      match code.(i) with
                      | Insn.Jmp t when t.Insn.tidx = header_first && actions.(i) = Keep ->
                        actions.(i) <- Replace (Insn.Jmp (Insn.target (ph_name header_first)))
                      | Insn.Jcc (c, t) when t.Insn.tidx = header_first && actions.(i) = Keep ->
                        actions.(i) <-
                          Replace (Insn.Jcc (c, Insn.target (ph_name header_first)))
                      | _ -> ()
                    end
                  done;
                  r
              in
              cell := (s.aid, moved) :: !cell;
              true
            end
            else false
          in
          (* The scratch-interference condition admits at most one kept
         site per loop; stop at the first success. *)
          ignore (List.exists try_hoist candidates)
        end)
      loops;
    List.iter
      (fun s -> if dropped_site s then site_survives.(s.aid) <- false)
      sites
  end;

  (* ---------------- domain-based coalescing ----------------------------- *)
  let coalesced_pairs = ref 0 in
  if not (address_based policy) then begin
    (* Complete, contiguous open/close runs per site. *)
    let runs = Hashtbl.create 32 in
    (* (site, role) -> (lo, hi, count) *)
    for i = 0 to n - 1 do
      match Sitemap.classify sm i with
      | Some (id, ((Sitemap.Gate_open | Sitemap.Gate_close) as role)) ->
        let keyr = (id, role = Sitemap.Gate_open) in
        let lo, hi, c = try Hashtbl.find runs keyr with Not_found -> (max_int, -1, 0) in
        Hashtbl.replace runs keyr (min lo i, max hi i, c + 1)
      | _ -> ()
    done;
    let run_of id is_open =
      match Hashtbl.find_opt runs (id, is_open) with
      | Some (lo, hi, c) when hi - lo + 1 = c && lo <= hi -> Some (lo, hi)
      | _ -> None
    in
    let no_labels_inside (lo, hi) =
      let ok = ref true in
      for i = lo + 1 to hi do
        if label_before.(i) then ok := false
      done;
      !ok
    in
    let run_dropped (lo, _) = actions.(lo) = Drop in
    let drop_run (lo, hi) =
      for i = lo to hi do
        actions.(i) <- Drop
      done
    in
    (* Gap instruction admissible with the gate held open? *)
    let gap_insn_ok i =
      safe_gap_insn code.(i)
      && (match (mem_operand code.(i), in_state.(i)) with
         | None, _ -> true
         | Some m, Some st -> Gate_analysis.access_below_split sol st m
         | Some _, None -> false)
    in
    (* Straight-line pass. *)
    let i = ref 0 in
    while !i < n do
      let advanced = ref false in
      (match Sitemap.classify sm !i with
      | Some (a, Sitemap.Gate_close) -> (
        match run_of a false with
        | Some (clo, chi)
          when clo = !i && no_labels_inside (clo, chi) && not (run_dropped (clo, chi)) -> (
          let k = ref (chi + 1) in
          let ok = ref true in
          while
            !ok && !k < n
            && (not label_before.(!k))
            && Sitemap.classify sm !k = None
          do
            if gap_insn_ok !k then incr k else ok := false
          done;
          if !ok && !k < n && not label_before.(!k) then
            match Sitemap.classify sm !k with
            | Some (b, Sitemap.Gate_open) when b <> a -> (
              match run_of b true with
              | Some (olo, ohi)
                when olo = !k && no_labels_inside (olo, ohi)
                     && not (run_dropped (olo, ohi)) ->
                drop_run (clo, chi);
                drop_run (olo, ohi);
                incr coalesced_pairs;
                i := ohi + 1;
                advanced := true
              | _ -> ())
            | _ -> ())
        | _ -> ())
      | _ -> ());
      if not !advanced then incr i
    done;
    (* Diamond pass: a close ending block P, transfer-free single-purpose
       arms, and a join block that immediately reopens. *)
    let entry_blocks = g.Ir.Cfg.entries in
    let block_last_insn b = spans.(b).Ir.Cfg.last in
    let succs_of b = List.sort_uniq compare g.Ir.Cfg.succs.(b) in
    let arm_ok b jb =
      (* A block whose only job is to reach [jb]: one successor, no tags,
         gap-admissible contents (its terminating jmp excepted). *)
      (not (List.mem b entry_blocks))
      && succs_of b = [ jb ]
      &&
      let sp = spans.(b) in
      let ok = ref true in
      for i = sp.Ir.Cfg.first to sp.Ir.Cfg.last do
        let is_term = i = sp.Ir.Cfg.last in
        let fine =
          Sitemap.classify sm i = None
          &&
          match code.(i) with
          | Insn.Jmp _ -> is_term
          | _ -> gap_insn_ok i
        in
        if not fine then ok := false
      done;
      !ok
    in
    for jb = 0 to g.Ir.Cfg.nnodes - 1 do
      if not (List.mem jb entry_blocks) then begin
        let jf = spans.(jb).Ir.Cfg.first in
        match Sitemap.classify sm jf with
        | Some (b_site, Sitemap.Gate_open) -> (
          match run_of b_site true with
          | Some (olo, ohi)
            when olo = jf
                 && block_of ohi = jb
                 && no_labels_inside (olo, ohi)
                 && not (run_dropped (olo, ohi)) -> (
            let preds = List.sort_uniq compare g.Ir.Cfg.preds.(jb) in
            let closer_of q = if arm_ok q jb then List.sort_uniq compare g.Ir.Cfg.preds.(q) else [ q ] in
            match List.concat_map closer_of preds |> List.sort_uniq compare with
            | [ p ] when p <> jb -> (
              let arms = List.filter (fun q -> q <> p) preds in
              let p_succs = succs_of p in
              let paths_rejoin =
                List.for_all (fun s -> s = jb || List.mem s arms) p_succs
                && List.for_all (fun q -> arm_ok q jb) arms
              in
              let p_last = block_last_insn p in
              let term_is_branch =
                match code.(p_last) with Insn.Jmp _ | Insn.Jcc _ -> true | _ -> false
              in
              let close_end = if term_is_branch then p_last - 1 else p_last in
              match Sitemap.classify sm close_end with
              | Some (a_site, Sitemap.Gate_close) when paths_rejoin && a_site <> b_site -> (
                match run_of a_site false with
                | Some (clo, chi)
                  when chi = close_end
                       && block_of clo = p
                       && no_labels_inside (clo, chi)
                       && not (run_dropped (clo, chi)) ->
                  drop_run (clo, chi);
                  drop_run (olo, ohi);
                  incr coalesced_pairs
                | _ -> ())
              | _ -> ())
            | _ -> ())
          | _ -> ())
        | _ -> ()
      end
    done;
    (* A site whose open and close runs were both merged away vanishes. *)
    for id = 0 to nsites - 1 do
      let run_alive is_open =
        match run_of id is_open with Some (lo, _) -> actions.(lo) <> Drop | None -> false
      in
      if not (run_alive true || run_alive false) then site_survives.(id) <- false
    done
  end;

  (* ---------------- rebuild items + sitemap ------------------------------ *)
  let out = ref [] in
  let pending = ref [] in
  let new_idx = ref 0 in
  let old2new = Hashtbl.create (max n 1) in
  let tags = ref [] in
  let emit insn =
    out := Program.I insn :: !out;
    incr new_idx
  in
  let flush_labels () =
    List.iter (fun l -> out := l :: !out) (List.rev !pending);
    pending := []
  in
  let oidx = ref 0 in
  List.iter
    (fun item ->
      match item with
      | Program.Label _ as l -> pending := l :: !pending
      | Program.I insn ->
        let i = !oidx in
        incr oidx;
        (match Hashtbl.find_opt pre_insert i with
        | Some entries ->
          out := Program.Label (ph_name i) :: !out;
          List.iter
            (fun (site, insns) ->
              List.iter
                (fun x ->
                  tags := (!new_idx, site, Sitemap.Hoisted_check) :: !tags;
                  emit x)
                insns)
            (List.rev !entries)
        | None -> ());
        flush_labels ();
        (match actions.(i) with
        | Drop -> ()
        | Keep ->
          Hashtbl.replace old2new i !new_idx;
          (match Sitemap.classify sm i with
          | Some (s, role) when s < nsites && site_survives.(s) ->
            tags := (!new_idx, s, role) :: !tags
          | _ -> ());
          emit insn
        | Replace insn' ->
          Hashtbl.replace old2new i !new_idx;
          emit insn'))
    items;
  flush_labels ();
  let items' = List.rev !out in
  let sm' = Sitemap.create () in
  let id_map = Hashtbl.create 16 in
  List.iter
    (fun (s : Sitemap.site) ->
      if s.Sitemap.id < nsites && site_survives.(s.Sitemap.id) then begin
        let orip =
          match Hashtbl.find_opt old2new s.Sitemap.orig_rip with Some x -> x | None -> 0
        in
        let nid =
          Sitemap.new_site sm' ~label:s.Sitemap.label ~technique:s.Sitemap.technique
            ~orig_rip:orip
        in
        Hashtbl.replace id_map s.Sitemap.id nid
      end)
    (Sitemap.sites sm);
  List.iter
    (fun (rip, old_site, role) ->
      match Hashtbl.find_opt id_map old_site with
      | Some nid -> Sitemap.tag sm' ~rip ~site:nid ~role
      | None -> ())
    !tags;

  (* ---------------- verification round-trip ----------------------------- *)
  let prog' = Program.assemble items' in
  let post_report = analyze prog' in
  let tag_of (f : Gate_analysis.finding) =
    match String.index_opt f.Gate_analysis.reason ':' with
    | Some i -> String.sub f.Gate_analysis.reason 0 i
    | None -> f.Gate_analysis.reason
  in
  let counts fs =
    let h = Hashtbl.create 8 in
    List.iter
      (fun f ->
        let t = tag_of f in
        Hashtbl.replace h t (1 + try Hashtbl.find h t with Not_found -> 0))
      fs;
    h
  in
  let pre_counts = counts pre_report.Gate_analysis.violations in
  let post_counts = counts post_report.Gate_analysis.violations in
  Hashtbl.iter
    (fun t c ->
      let before = try Hashtbl.find pre_counts t with Not_found -> 0 in
      if c > before then
        raise
          (Rejected
             (Printf.sprintf
                "Gate_opt: refusing to emit — optimization introduced %d new %S violation(s)"
                (c - before) t)))
    post_counts;
  {
    items = items';
    sitemap = sm';
    stats =
      {
        sites_total = nsites;
        eliminated_static = !eliminated_static;
        eliminated_redundant = !eliminated_redundant;
        hoisted = !hoisted;
        preheaders = !preheaders;
        coalesced_pairs = !coalesced_pairs;
        insns_before = n;
        insns_after = Program.length prog';
      };
    report = post_report;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "%d sites: %d static-eliminated, %d redundancy-eliminated, %d hoisted (%d preheaders), %d \
     gate pairs coalesced; %d -> %d instructions"
    s.sites_total s.eliminated_static s.eliminated_redundant s.hoisted s.preheaders
    s.coalesced_pairs s.insns_before s.insns_after

let stats_to_json s =
  let open Ms_util.Json in
  Obj
    [
      ("sites_total", Int s.sites_total);
      ("eliminated_static", Int s.eliminated_static);
      ("eliminated_redundant", Int s.eliminated_redundant);
      ("hoisted", Int s.hoisted);
      ("preheaders", Int s.preheaders);
      ("coalesced_pairs", Int s.coalesced_pairs);
      ("insns_before", Int s.insns_before);
      ("insns_after", Int s.insns_after);
    ]
