let page_size = 4096

type t = { mutable frames : Bytes.t array; mutable used : int; max_frames : int }

(* 1M frames = 4 GiB of simulated physical memory. Single-core runs never
   came near the bound; a shared pool feeding N cores' stacks and heaps can,
   and must fail with a diagnosis rather than an array bound fault. *)
let default_max_frames = 1 lsl 20

(* Demand-zero frames, as an OS backs untouched anonymous memory with one
   shared zero page: a fresh frame's slot points at [zero_page], so reads
   see zeros without any host allocation, and the first write through
   [writable] gives the frame its own bytes. Most mapped guest pages are
   never written (a Figure 3 pass leaves over 90% of its frames zero), so
   this removes nearly all of the pool's major-heap traffic. [zero_page]
   itself is never written: every writer below goes through [writable]. *)
let zero_page = Bytes.make page_size '\000'

let create ?(max_frames = default_max_frames) () =
  if max_frames < 1 then invalid_arg "Physmem.create: max_frames must be positive";
  { frames = Array.make (min 64 max_frames) Bytes.empty; used = 0; max_frames }

let alloc_frame t =
  if t.used >= t.max_frames then
    failwith
      (Printf.sprintf "Physmem.alloc_frame: out of physical frames (limit %d = %d MiB)"
         t.max_frames (t.max_frames * page_size / (1024 * 1024)));
  if t.used = Array.length t.frames then begin
    let bigger = Array.make (min (2 * t.used) t.max_frames) Bytes.empty in
    Array.blit t.frames 0 bigger 0 t.used;
    t.frames <- bigger
  end;
  let n = t.used in
  t.frames.(n) <- zero_page;
  t.used <- n + 1;
  n

let max_frames t = t.max_frames

let frame_count t = t.used

let check_frame t n =
  if n < 0 || n >= t.used then invalid_arg (Printf.sprintf "Physmem: frame %d not allocated" n)

let frame_bytes t n =
  check_frame t n;
  Array.unsafe_get t.frames n

let[@inline never] materialize t n =
  let b = Bytes.make page_size '\000' in
  Array.unsafe_set t.frames n b;
  b

(* The backing store a write to frame [n] may modify: the frame's own
   bytes, materialized on its first write. [n] must be a live frame. *)
let[@inline always] writable t n =
  let b = Array.unsafe_get t.frames n in
  if b != zero_page then b else materialize t n

let writable_checked t n =
  check_frame t n;
  writable t n

(* Bounds-checked 64-bit native-endian access as compiler primitives.
   [Bytes.get_int64_le] is an ordinary stdlib function, so calling it
   boxes its [int64] result — one heap allocation per simulated memory
   access. Used as primitives chained into [Int64.to_int]/[of_int], the
   value stays unboxed. The big-endian fallback keeps the little-endian
   simulated memory image portable. *)
external get_64ne : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set_64ne : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let read64 t ~frame ~off =
  if Sys.big_endian then Int64.to_int (Bytes.get_int64_le (frame_bytes t frame) off)
  else Int64.to_int (get_64ne (frame_bytes t frame) off)

let write64 t ~frame ~off v =
  if Sys.big_endian then Bytes.set_int64_le (writable_checked t frame) off (Int64.of_int v)
  else set_64ne (writable_checked t frame) off (Int64.of_int v)

(* Trusted-frame variants for the MMU's per-access hot path: the frame
   number there comes out of a TLB entry, which only ever holds frames
   handed out by [alloc_frame] (the pool never shrinks), so the
   [check_frame] range check and its extra call are redundant. The byte
   offset stays bounds-checked by the access primitive, and the write
   still takes the zero-page test in [writable]. *)
let[@inline always] read64_trusted t ~frame ~off =
  if Sys.big_endian then Int64.to_int (Bytes.get_int64_le (Array.unsafe_get t.frames frame) off)
  else Int64.to_int (get_64ne (Array.unsafe_get t.frames frame) off)

let[@inline always] write64_trusted t ~frame ~off v =
  if Sys.big_endian then Bytes.set_int64_le (writable t frame) off (Int64.of_int v)
  else set_64ne (writable t frame) off (Int64.of_int v)

let read8 t ~frame ~off = Bytes.get_uint8 (frame_bytes t frame) off
let write8 t ~frame ~off v = Bytes.set_uint8 (writable_checked t frame) off v

let read_block16 t ~frame ~off = Bytes.sub (frame_bytes t frame) off 16

(* Blit-through variants: move a 16-byte block between frame memory and a
   caller-owned buffer without materializing an intermediate [Bytes.t] —
   the vector-register file is such a buffer, so xmm loads/stores stay
   allocation-free. *)
let read_block16_into t ~frame ~off ~dst ~dpos = Bytes.blit (frame_bytes t frame) off dst dpos 16
let write_block16_from t ~frame ~off ~src ~spos = Bytes.blit src spos (writable_checked t frame) off 16

let write_block16 t ~frame ~off b =
  if Bytes.length b <> 16 then invalid_arg "Physmem.write_block16: need 16 bytes";
  Bytes.blit b 0 (writable_checked t frame) off 16
