type role = Gate_open | Gate_close | Check | Hoisted_check

let role_name = function
  | Gate_open -> "gate-open"
  | Gate_close -> "gate-close"
  | Check -> "check"
  | Hoisted_check -> "hoisted-check"

type site = { id : int; label : string; technique : string; orig_rip : int }

type t = {
  mutable arr : site array;  (* [arr.(id)] for ids in [0, n); grows by doubling *)
  mutable n : int;
  by_rip : (int, int * role) Hashtbl.t;
}

let create () = { arr = [||]; n = 0; by_rip = Hashtbl.create 64 }

let new_site t ~label ~technique ~orig_rip =
  let s = { id = t.n; label; technique; orig_rip } in
  if t.n = Array.length t.arr then t.arr <- Array.append t.arr (Array.make (max 16 t.n) s);
  t.arr.(t.n) <- s;
  t.n <- t.n + 1;
  s.id

let tag t ~rip ~site ~role = Hashtbl.replace t.by_rip rip (site, role)

let n_sites t = t.n
let sites t = List.init t.n (Array.get t.arr)

let site t id =
  if id < 0 || id >= t.n then invalid_arg "Sitemap.site: no such site";
  t.arr.(id)

let classify t rip = Hashtbl.find_opt t.by_rip rip

let lookup t rip =
  match classify t rip with Some (id, role) -> Some (site t id, role) | None -> None

let tagged_instructions t = Hashtbl.length t.by_rip

let to_json t =
  let open Ms_util.Json in
  Obj
    [
      ( "sites",
        List
          (List.map
             (fun s ->
               Obj
                 [
                   ("id", Int s.id);
                   ("label", String s.label);
                   ("technique", String s.technique);
                   ("orig_rip", Int s.orig_rip);
                 ])
             (sites t)) );
      ("tagged_instructions", Int (tagged_instructions t));
    ]
