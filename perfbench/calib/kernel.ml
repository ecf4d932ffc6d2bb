(* A fixed host-speed kernel that uses none of the simulator's code: two
   interpreter-shaped loops, a pseudo-random op stream over a register
   file and a 256 KiB array, and a register VM running a fixed 64-op
   program. *)

let mem_mask = (1 lsl 15) - 1
let mem = Array.make (mem_mask + 1) 0
let regs = Array.make 16 0

let random_ops n =
  let x = ref 12345 and acc = ref 0 in
  for i = 1 to n do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let r = (!x lsr 3) land 15 and a = (!x lsr 7) land mem_mask in
    match !x land 7 with
    | 0 | 1 -> regs.(r) <- regs.(r) + i
    | 2 -> regs.(r) <- regs.(r) lxor !acc
    | 3 -> acc := !acc + mem.(a)
    | 4 -> mem.(a) <- !acc
    | 5 -> acc := !acc + mem.((i * 8) land mem_mask)
    | _ -> acc := !acc + regs.(r)
  done;
  !acc

let prog = Array.init 64 (fun i -> (((i * 7) + 3) land 7, (i * 5) land 15, (i * 11) land 15))

let vm n =
  let regs = Array.make 16 1 and pc = ref 0 in
  for _ = 1 to n do
    let op, a, b = prog.(!pc) in
    (match op with
    | 0 -> regs.(a) <- regs.(a) + regs.(b)
    | 1 -> regs.(a) <- regs.(a) lxor (regs.(b) lsl 1)
    | 2 -> regs.(a) <- regs.(b) land 0xFFFF
    | 3 -> regs.(a) <- regs.(a) - regs.(b)
    | 4 -> if regs.(a) land 1 = 0 then pc := (!pc + 3) land 63
    | 5 -> regs.(a) <- regs.(a) * 3
    | 6 -> regs.(b) <- regs.(a) lsr 2
    | _ -> regs.(a) <- regs.(a) + 1);
    pc := (!pc + 1) land 63
  done;
  regs.(0)

let run () =
  ignore (Sys.opaque_identity (random_ops 50_000));
  ignore (Sys.opaque_identity (vm 100_000))
