open X86sim

(* Static cost model: predicted dynamic check/crossing counts per
   instrumentation site, as execution-count intervals derived from the
   CFG alone.

   The model computes, for every basic block, an interval on how many
   times one program run executes it:

   - code is partitioned into regions by the CFG's analysis entries
     (instruction 0, direct-call targets, address-taken labels) in code
     order — the static image of the lowering's one-function-per-entry
     layout;
   - region entry counts flow along the direct-call graph in SCC
     topological order (the main region runs exactly once; recursion and
     indirectly-reachable entries lose their upper bound);
   - within a region a block at loop depth 0 that lies on no cycle runs
     exactly once per entry, and at least once if it dominates every
     region exit; a block inside a loop keeps only the lower bound its
     dominance supports (trip counts are not modeled statically).

   A site's predicted checks are the execution interval of the block its
   check run starts in; predicted crossings are the sum over its gate
   open/close runs. {!validate} then compares against {!Profiler} rows:
   the dynamic count must fall inside the interval, and blocks the model
   proves straight-line must match exactly. *)

type interval = { lo : int; hi : int option }  (* [hi = None] is unbounded *)

let exactly n = { lo = n; hi = Some n }
let unknown = { lo = 0; hi = None }

let add a b =
  {
    lo = a.lo + b.lo;
    hi = (match (a.hi, b.hi) with Some x, Some y -> Some (x + y) | _ -> None);
  }

let mul a b =
  {
    lo = a.lo * b.lo;
    hi =
      (match (a.hi, b.hi) with
      | Some 0, _ | _, Some 0 -> Some 0
      | Some x, Some y -> Some (x * y)
      | _ -> None);
  }

let contains i v = v >= i.lo && (match i.hi with None -> true | Some h -> v <= h)
let is_exact i = match i.hi with Some h -> h = i.lo | None -> false

let pp_interval fmt i =
  match i.hi with
  | Some h when h = i.lo -> Format.fprintf fmt "%d" i.lo
  | Some h -> Format.fprintf fmt "[%d,%d]" i.lo h
  | None -> Format.fprintf fmt "[%d,inf)" i.lo

let interval_to_json i =
  let open Ms_util.Json in
  Obj
    (("lo", Int i.lo)
    :: (match i.hi with Some h -> [ ("hi", Int h) ] | None -> [ ("hi", Null) ]))

type site_cost = {
  site : Sitemap.site;
  checks : interval;
  crossings : interval;
}

type t = {
  per_site : site_cost list;  (** site-id order *)
  total_checks : interval;
  total_crossings : interval;
}

(* Iterative Tarjan SCC; returns a component id per node (components
   numbered in reverse topological order) and whether the node lies on a
   cycle (non-singleton component or a self-edge). *)
let scc nnodes succs =
  let comp = Array.make nnodes (-1) in
  let index = Array.make nnodes (-1) in
  let low = Array.make nnodes 0 in
  let on_stack = Array.make nnodes false in
  let stack = ref [] in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  let comp_size = Hashtbl.create 16 in
  for root = 0 to nnodes - 1 do
    if index.(root) < 0 then begin
      (* Explicit DFS stack: (node, remaining successors). *)
      let call = ref [ (root, ref (succs root)) ] in
      index.(root) <- !next_index;
      low.(root) <- !next_index;
      incr next_index;
      stack := root :: !stack;
      on_stack.(root) <- true;
      while !call <> [] do
        match !call with
        | [] -> ()
        | (v, rest) :: tl -> (
          match !rest with
          | w :: ws ->
            rest := ws;
            if index.(w) < 0 then begin
              index.(w) <- !next_index;
              low.(w) <- !next_index;
              incr next_index;
              stack := w :: !stack;
              on_stack.(w) <- true;
              call := (w, ref (succs w)) :: !call
            end
            else if on_stack.(w) then low.(v) <- min low.(v) index.(w)
          | [] ->
            if low.(v) = index.(v) then begin
              let size = ref 0 in
              let continue = ref true in
              while !continue do
                match !stack with
                | [] -> continue := false
                | w :: rest ->
                  stack := rest;
                  on_stack.(w) <- false;
                  comp.(w) <- !next_comp;
                  incr size;
                  if w = v then continue := false
              done;
              Hashtbl.replace comp_size !next_comp !size;
              incr next_comp
            end;
            call := tl;
            (match tl with
            | (u, _) :: _ -> low.(u) <- min low.(u) low.(v)
            | [] -> ()))
      done
    end
  done;
  let on_cycle v =
    (try Hashtbl.find comp_size comp.(v) > 1 with Not_found -> false)
    || List.mem v (succs v)
  in
  (comp, !next_comp, on_cycle)

let predict (prog : Program.t) (sm : Sitemap.t) =
  let pcfg = Ir.Cfg.of_program prog in
  let g = pcfg.Ir.Cfg.graph in
  let block_of i = pcfg.Ir.Cfg.block_of.(i) in
  let code = Program.code prog in
  let n = Array.length code in
  let nb = g.Ir.Cfg.nnodes in
  let idoms = Ir.Cfg.idom g in
  let loops = Ir.Cfg.natural_loops g in
  let depth_of = Ir.Cfg.loop_depth_of_node g loops in
  let _, _, block_on_cycle = scc nb (fun b -> g.Ir.Cfg.succs.(b)) in
  (* Regions: entries in code order own the blocks up to the next entry. *)
  let entries = List.sort_uniq compare g.Ir.Cfg.entries in
  let entry_arr = Array.of_list entries in
  let nregions = Array.length entry_arr in
  let region_of = Array.make nb 0 in
  let () =
    (* Blocks are numbered in code order, as are sorted entries. *)
    let r = ref 0 in
    for b = 0 to nb - 1 do
      while !r + 1 < nregions && b >= entry_arr.(!r + 1) do
        incr r
      done;
      region_of.(b) <- !r
    done
  in
  (* Per-region exit blocks (no successors): completing executions end
     there, so dominating all of them means running at least once. *)
  let region_exits = Array.make nregions [] in
  for b = 0 to nb - 1 do
    if g.Ir.Cfg.succs.(b) = [] then
      region_exits.(region_of.(b)) <- b :: region_exits.(region_of.(b))
  done;
  let dominates_exits b =
    let r = region_of.(b) in
    region_exits.(r) <> [] && List.for_all (fun e -> Ir.Cfg.dominates idoms b e) region_exits.(r)
  in
  (* Executions of a block per single entry of its region. *)
  let local b =
    let once = depth_of b = 0 && not (block_on_cycle b) in
    let lo = if dominates_exits b then 1 else 0 in
    if once then { lo; hi = Some 1 } else { lo; hi = None }
  in
  (* Direct-call edges between regions, and the indirect-transfer pool. *)
  let call_edges = ref [] in
  (* (caller block, callee region) *)
  let has_indirect = ref false in
  let addr_taken = Array.make nregions false in
  for i = 0 to n - 1 do
    match code.(i) with
    | Insn.Call t when t.Insn.tidx >= 0 && t.Insn.tidx < n ->
      call_edges := (block_of i, region_of.(block_of t.Insn.tidx)) :: !call_edges
    | Insn.Call_r _ | Insn.Jmp_r _ -> has_indirect := true
    | Insn.Mov_label (_, t) when t.Insn.tidx >= 0 && t.Insn.tidx < n ->
      addr_taken.(region_of.(block_of t.Insn.tidx)) <- true
    | _ -> ()
  done;
  let region_succs = Array.make nregions [] in
  List.iter
    (fun (b, callee) ->
      region_succs.(region_of.(b)) <- callee :: region_succs.(region_of.(b)))
    !call_edges;
  let rcomp, nrcomp, region_on_cycle = scc nregions (fun r -> region_succs.(r)) in
  let main_region = region_of.(block_of 0) in
  let base r =
    let b0 = if r = main_region then exactly 1 else exactly 0 in
    if addr_taken.(r) && !has_indirect then add b0 unknown else b0
  in
  (* Region entry counts, processed in call-graph topological order
     (Tarjan numbers components in reverse topological order). *)
  let entry_count = Array.map (fun _ -> exactly 0) entry_arr in
  let order = Array.to_list (Array.init nregions (fun r -> r)) in
  let order = List.sort (fun a b -> compare rcomp.(b) rcomp.(a)) order in
  ignore nrcomp;
  List.iter
    (fun r ->
      let incoming =
        List.fold_left
          (fun acc (b, callee) ->
            if callee = r then add acc (mul entry_count.(region_of.(b)) (local b)) else acc)
          (exactly 0) !call_edges
      in
      let c = add (base r) incoming in
      entry_count.(r) <-
        (if region_on_cycle r then { lo = c.lo; hi = None } else c))
    order;
  let block_count b = mul entry_count.(region_of.(b)) (local b) in
  (* Per-site runs: the block where each role's run begins. *)
  let check_first = Hashtbl.create 32 in
  let open_first = Hashtbl.create 32 in
  let close_first = Hashtbl.create 32 in
  let note tbl id i =
    match Hashtbl.find_opt tbl id with
    | Some j when j <= i -> ()
    | _ -> Hashtbl.replace tbl id i
  in
  for i = 0 to n - 1 do
    match Sitemap.classify sm i with
    | Some (id, (Sitemap.Check | Sitemap.Hoisted_check)) -> note check_first id i
    | Some (id, Sitemap.Gate_open) -> note open_first id i
    | Some (id, Sitemap.Gate_close) -> note close_first id i
    | None -> ()
  done;
  let per_site =
    List.map
      (fun (s : Sitemap.site) ->
        let run tbl =
          match Hashtbl.find_opt tbl s.Sitemap.id with
          | Some i -> block_count (block_of i)
          | None -> exactly 0
        in
        {
          site = s;
          checks = run check_first;
          crossings = add (run open_first) (run close_first);
        })
      (Sitemap.sites sm)
  in
  {
    per_site;
    total_checks = List.fold_left (fun acc c -> add acc c.checks) (exactly 0) per_site;
    total_crossings = List.fold_left (fun acc c -> add acc c.crossings) (exactly 0) per_site;
  }

(* --- validation against the profiler ----------------------------------- *)

type site_validation = {
  v_site : Sitemap.site;
  pred_checks : interval;
  dyn_checks : int;
  pred_crossings : interval;
  dyn_crossings : int;
  within : bool;
  exact : bool;  (** both predictions were single points *)
}

type validation = {
  sites : site_validation list;
  ok : bool;  (** every dynamic count inside its interval *)
  n_exact : int;
  n_bounded : int;  (** within a non-degenerate interval *)
  n_violated : int;
}

let validate (model : t) (prof : Profiler.t) =
  (* Rows come in site-id order over dense ids: row index = site id. *)
  let rows = Array.of_list (Profiler.rows prof) in
  let row_of id = if id >= 0 && id < Array.length rows then Some rows.(id) else None in
  let sites =
    List.map
      (fun c ->
        let dyn_checks, dyn_crossings =
          match row_of c.site.Sitemap.id with
          | Some r -> (r.Profiler.checks, r.Profiler.crossings)
          | None -> (0, 0)
        in
        let within = contains c.checks dyn_checks && contains c.crossings dyn_crossings in
        let exact = is_exact c.checks && is_exact c.crossings in
        {
          v_site = c.site;
          pred_checks = c.checks;
          dyn_checks;
          pred_crossings = c.crossings;
          dyn_crossings;
          within;
          exact;
        })
      model.per_site
  in
  let count p = List.length (List.filter p sites) in
  {
    sites;
    ok = List.for_all (fun s -> s.within) sites;
    n_exact = count (fun s -> s.exact && s.within);
    n_bounded = count (fun s -> s.within && not s.exact);
    n_violated = count (fun s -> not s.within);
  }

let pp fmt (model : t) =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun c ->
      Format.fprintf fmt "site %d %-14s checks %a crossings %a@,"
        c.site.Sitemap.id c.site.Sitemap.label pp_interval c.checks pp_interval c.crossings)
    model.per_site;
  Format.fprintf fmt "total: checks %a, crossings %a@]" pp_interval model.total_checks
    pp_interval model.total_crossings

let to_json (model : t) =
  let open Ms_util.Json in
  Obj
    [
      ( "sites",
        List
          (List.map
             (fun c ->
               Obj
                 [
                   ("id", Int c.site.Sitemap.id);
                   ("label", String c.site.Sitemap.label);
                   ("checks", interval_to_json c.checks);
                   ("crossings", interval_to_json c.crossings);
                 ])
             model.per_site) );
      ("total_checks", interval_to_json model.total_checks);
      ("total_crossings", interval_to_json model.total_crossings);
    ]

let validation_to_json (v : validation) =
  let open Ms_util.Json in
  Obj
    [
      ("ok", Bool v.ok);
      ("exact", Int v.n_exact);
      ("bounded", Int v.n_bounded);
      ("violated", Int v.n_violated);
      ( "sites",
        List
          (List.map
             (fun s ->
               Obj
                 [
                   ("id", Int s.v_site.Sitemap.id);
                   ("label", String s.v_site.Sitemap.label);
                   ("pred_checks", interval_to_json s.pred_checks);
                   ("dyn_checks", Int s.dyn_checks);
                   ("pred_crossings", interval_to_json s.pred_crossings);
                   ("dyn_crossings", Int s.dyn_crossings);
                   ("within", Bool s.within);
                   ("exact", Bool s.exact);
                 ])
             v.sites) );
    ]
