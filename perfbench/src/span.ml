(* Spans of the traced run. The benchmark wraps each call into a layer's
   public entry point in a span; spans stay in memory until the run ends
   and are then written out and reduced to per-layer self times. *)

type t = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  job : int;  (** spans of one job share this id *)
  name : string;
  start : float;  (** host seconds, monotonic clock *)
  stop : float;
}

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type recorder = {
  mutable spans : t list;  (** most recent first *)
  mutable next_id : int;
  mutable stack : int list;  (** open spans, innermost first *)
  mutable job : int;
}

let create () = { spans = []; next_id = 0; stack = []; job = -1 }
let set_job r job = r.job <- job

let record r name f =
  let id = r.next_id in
  r.next_id <- id + 1;
  let parent = match r.stack with p :: _ -> p | [] -> -1 in
  r.stack <- id :: r.stack;
  let start = now () in
  Fun.protect f ~finally:(fun () ->
      let stop = now () in
      r.stack <- List.tl r.stack;
      r.spans <- { id; parent; job = r.job; name; start; stop } :: r.spans)

let spans r = List.rev r.spans

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* A span's self time is its duration minus the part of its interval that
   its direct children cover. Result: total self time per span name, in
   first-appearance order. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent (s.start, s.stop))
    spans;
  let totals = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun s ->
      let self =
        s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop (Hashtbl.find_all children s.id)
      in
      match Hashtbl.find_opt totals s.name with
      | Some v -> Hashtbl.replace totals s.name (v +. self)
      | None ->
        order := s.name :: !order;
        Hashtbl.add totals s.name self)
    spans;
  List.rev_map (fun n -> (n, Hashtbl.find totals n)) !order

let to_json s =
  let open Ms_util.Json in
  Obj
    [
      ("id", Int s.id);
      ("parent", Int s.parent);
      ("job", Int s.job);
      ("name", String s.name);
      ("start", Float s.start);
      ("end", Float s.stop);
    ]
