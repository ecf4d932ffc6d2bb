(* Host GC time from the runtime's own event ring (Runtime_events): total
   seconds spent in minor collections and in major-heap work, read from
   this process while the traced passes run. *)

type t = {
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
  minor_s : float ref;
  major_s : float ref;
  lost : int ref;  (** events overwritten before they were read *)
}

(* Nesting-aware timer for one family of runtime phases: time counts from
   the outermost begin to its matching end. *)
let phase_timer total =
  let depth = ref 0 and t0 = ref 0L in
  let begin_ ts =
    if !depth = 0 then t0 := ts;
    incr depth
  in
  let end_ ts =
    if !depth > 0 then begin
      decr depth;
      if !depth = 0 then total := !total +. (Int64.to_float (Int64.sub ts !t0) *. 1e-9)
    end
  in
  (begin_, end_)

let start () =
  Runtime_events.start ();
  (* [start] does not undo an earlier [stop]'s pause. *)
  Runtime_events.resume ();
  let minor_s = ref 0.0 and major_s = ref 0.0 and lost = ref 0 in
  let minor_begin, minor_end = phase_timer minor_s in
  let major_begin, major_end = phase_timer major_s in
  let dispatch ~minor ~major ts = function
    | Runtime_events.EV_MINOR -> minor (Runtime_events.Timestamp.to_int64 ts)
    | Runtime_events.EV_MAJOR | Runtime_events.EV_MAJOR_SLICE ->
      major (Runtime_events.Timestamp.to_int64 ts)
    | _ -> ()
  in
  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ ts ph -> dispatch ~minor:minor_begin ~major:major_begin ts ph)
      ~runtime_end:(fun _ ts ph -> dispatch ~minor:minor_end ~major:major_end ts ph)
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()
  in
  let cursor = Runtime_events.create_cursor None in
  (* Events emitted before this point are not ours to count. *)
  ignore (Runtime_events.read_poll cursor (Runtime_events.Callbacks.create ()) None);
  { cursor; callbacks; minor_s; major_s; lost }

let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None)

let stop t =
  poll t;
  Runtime_events.free_cursor t.cursor;
  Runtime_events.pause ()
