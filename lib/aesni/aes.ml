(* AES-128 per FIPS-197, structured around the x86 AES-NI instruction
   semantics (Intel SDM vol. 2): one round per primitive, caller-managed
   round keys, equivalent inverse cipher for decryption.

   State layout follows the hardware: byte [r + 4*c] of the 16-byte block is
   state row [r], column [c]. *)

type block = Bytes.t

let sbox = [|
  0x63; 0x7c; 0x77; 0x7b; 0xf2; 0x6b; 0x6f; 0xc5; 0x30; 0x01; 0x67; 0x2b; 0xfe; 0xd7; 0xab; 0x76;
  0xca; 0x82; 0xc9; 0x7d; 0xfa; 0x59; 0x47; 0xf0; 0xad; 0xd4; 0xa2; 0xaf; 0x9c; 0xa4; 0x72; 0xc0;
  0xb7; 0xfd; 0x93; 0x26; 0x36; 0x3f; 0xf7; 0xcc; 0x34; 0xa5; 0xe5; 0xf1; 0x71; 0xd8; 0x31; 0x15;
  0x04; 0xc7; 0x23; 0xc3; 0x18; 0x96; 0x05; 0x9a; 0x07; 0x12; 0x80; 0xe2; 0xeb; 0x27; 0xb2; 0x75;
  0x09; 0x83; 0x2c; 0x1a; 0x1b; 0x6e; 0x5a; 0xa0; 0x52; 0x3b; 0xd6; 0xb3; 0x29; 0xe3; 0x2f; 0x84;
  0x53; 0xd1; 0x00; 0xed; 0x20; 0xfc; 0xb1; 0x5b; 0x6a; 0xcb; 0xbe; 0x39; 0x4a; 0x4c; 0x58; 0xcf;
  0xd0; 0xef; 0xaa; 0xfb; 0x43; 0x4d; 0x33; 0x85; 0x45; 0xf9; 0x02; 0x7f; 0x50; 0x3c; 0x9f; 0xa8;
  0x51; 0xa3; 0x40; 0x8f; 0x92; 0x9d; 0x38; 0xf5; 0xbc; 0xb6; 0xda; 0x21; 0x10; 0xff; 0xf3; 0xd2;
  0xcd; 0x0c; 0x13; 0xec; 0x5f; 0x97; 0x44; 0x17; 0xc4; 0xa7; 0x7e; 0x3d; 0x64; 0x5d; 0x19; 0x73;
  0x60; 0x81; 0x4f; 0xdc; 0x22; 0x2a; 0x90; 0x88; 0x46; 0xee; 0xb8; 0x14; 0xde; 0x5e; 0x0b; 0xdb;
  0xe0; 0x32; 0x3a; 0x0a; 0x49; 0x06; 0x24; 0x5c; 0xc2; 0xd3; 0xac; 0x62; 0x91; 0x95; 0xe4; 0x79;
  0xe7; 0xc8; 0x37; 0x6d; 0x8d; 0xd5; 0x4e; 0xa9; 0x6c; 0x56; 0xf4; 0xea; 0x65; 0x7a; 0xae; 0x08;
  0xba; 0x78; 0x25; 0x2e; 0x1c; 0xa6; 0xb4; 0xc6; 0xe8; 0xdd; 0x74; 0x1f; 0x4b; 0xbd; 0x8b; 0x8a;
  0x70; 0x3e; 0xb5; 0x66; 0x48; 0x03; 0xf6; 0x0e; 0x61; 0x35; 0x57; 0xb9; 0x86; 0xc1; 0x1d; 0x9e;
  0xe1; 0xf8; 0x98; 0x11; 0x69; 0xd9; 0x8e; 0x94; 0x9b; 0x1e; 0x87; 0xe9; 0xce; 0x55; 0x28; 0xdf;
  0x8c; 0xa1; 0x89; 0x0d; 0xbf; 0xe6; 0x42; 0x68; 0x41; 0x99; 0x2d; 0x0f; 0xb0; 0x54; 0xbb; 0x16;
|]

let inv_sbox =
  let t = Array.make 256 0 in
  Array.iteri (fun i v -> t.(v) <- i) sbox;
  t

let check_block b name =
  if Bytes.length b <> 16 then invalid_arg (Printf.sprintf "Aes.%s: block must be 16 bytes" name)

let block_of_hex s =
  if String.length s <> 32 then invalid_arg "Aes.block_of_hex: need 32 hex digits";
  let b = Bytes.create 16 in
  for i = 0 to 15 do
    Bytes.set_uint8 b i (int_of_string ("0x" ^ String.sub s (2 * i) 2))
  done;
  b

let hex_of_block b =
  check_block b "hex_of_block";
  let buf = Buffer.create 32 in
  Bytes.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) b;
  Buffer.contents buf

let xor_block a b =
  check_block a "xor_block";
  check_block b "xor_block";
  let out = Bytes.create 16 in
  for i = 0 to 15 do
    Bytes.set_uint8 out i (Bytes.get_uint8 a i lxor Bytes.get_uint8 b i)
  done;
  out

(* GF(2^8) multiplication with the AES polynomial x^8+x^4+x^3+x+1. Only
   used to build the tables below. *)
let gmul a b =
  let rec go a b acc =
    if b = 0 then acc
    else
      let acc = if b land 1 = 1 then acc lxor a else acc in
      let a = if a land 0x80 <> 0 then ((a lsl 1) lxor 0x11b) land 0xff else (a lsl 1) land 0xff in
      go a (b lsr 1) acc
  in
  go a b 0

(* T-tables. A state column is handled as one little-endian word: row [r]
   in bits [8r .. 8r+7]. Entry [x] of a table is the output column that a
   byte [x] in row 0 contributes: [sub x] multiplied by the first column of
   the (Inv)MixColumns matrix. Both matrices are circulant, so a byte in
   row [r] contributes the same word rotated left by [8r] bits. *)
let column_table ~sub (m0, m1, m2, m3) =
  Array.init 256 (fun x ->
      let v = sub x in
      gmul m0 v lor (gmul m1 v lsl 8) lor (gmul m2 v lsl 16) lor (gmul m3 v lsl 24))

let te = column_table ~sub:(fun x -> sbox.(x)) (2, 1, 1, 3)
let td = column_table ~sub:(fun x -> inv_sbox.(x)) (14, 9, 13, 11)
let timc = column_table ~sub:(fun x -> x) (14, 9, 13, 11)

let[@inline] byte b i = Char.code (Bytes.unsafe_get b i)
let[@inline] rotl w n = ((w lsl n) lor (w lsr (32 - n))) land 0xffffffff

let[@inline] word b o =
  byte b o lor (byte b (o + 1) lsl 8) lor (byte b (o + 2) lsl 16) lor (byte b (o + 3) lsl 24)

let[@inline] set_word b o w =
  Bytes.unsafe_set b o (Char.unsafe_chr (w land 0xff));
  Bytes.unsafe_set b (o + 1) (Char.unsafe_chr ((w lsr 8) land 0xff));
  Bytes.unsafe_set b (o + 2) (Char.unsafe_chr ((w lsr 16) land 0xff));
  Bytes.unsafe_set b (o + 3) (Char.unsafe_chr ((w lsr 24) land 0xff))

let[@inline] set_block b o w0 w1 w2 w3 =
  set_word b o w0;
  set_word b (o + 4) w1;
  set_word b (o + 8) w2;
  set_word b (o + 12) w3

(* One output column of a full round from the input bytes at [i0..i3]
   (rows 0..3, already picked through (Inv)ShiftRows). *)
let[@inline] tcol tbl b i0 i1 i2 i3 =
  Array.unsafe_get tbl (byte b i0)
  lxor rotl (Array.unsafe_get tbl (byte b i1)) 8
  lxor rotl (Array.unsafe_get tbl (byte b i2)) 16
  lxor rotl (Array.unsafe_get tbl (byte b i3)) 24

(* The same for a last round: (Inv)SubBytes only, no MixColumns. *)
let[@inline] scol sb b i0 i1 i2 i3 =
  Array.unsafe_get sb (byte b i0)
  lor (Array.unsafe_get sb (byte b i1) lsl 8)
  lor (Array.unsafe_get sb (byte b i2) lsl 16)
  lor (Array.unsafe_get sb (byte b i3) lsl 24)

(* The kernels below use unchecked accesses; this is their only bounds
   check. *)
let check_slot name b o =
  if o < 0 || o > Bytes.length b - 16 then
    invalid_arg (Printf.sprintf "Aes.%s: no 16-byte block at offset %d" name o)

(* Each kernel reads all sixteen state and source bytes before its first
   write, so [dst] and [src] may be the same block. ShiftRows makes row [r]
   of output column [c] come from input column [c + r mod 4]; InvShiftRows
   from column [c - r mod 4]. *)
let aesenc_into dst d src s =
  check_slot "aesenc_into" dst d;
  check_slot "aesenc_into" src s;
  let w0 = tcol te dst d (d + 5) (d + 10) (d + 15) lxor word src s in
  let w1 = tcol te dst (d + 4) (d + 9) (d + 14) (d + 3) lxor word src (s + 4) in
  let w2 = tcol te dst (d + 8) (d + 13) (d + 2) (d + 7) lxor word src (s + 8) in
  let w3 = tcol te dst (d + 12) (d + 1) (d + 6) (d + 11) lxor word src (s + 12) in
  set_block dst d w0 w1 w2 w3

let aesenclast_into dst d src s =
  check_slot "aesenclast_into" dst d;
  check_slot "aesenclast_into" src s;
  let w0 = scol sbox dst d (d + 5) (d + 10) (d + 15) lxor word src s in
  let w1 = scol sbox dst (d + 4) (d + 9) (d + 14) (d + 3) lxor word src (s + 4) in
  let w2 = scol sbox dst (d + 8) (d + 13) (d + 2) (d + 7) lxor word src (s + 8) in
  let w3 = scol sbox dst (d + 12) (d + 1) (d + 6) (d + 11) lxor word src (s + 12) in
  set_block dst d w0 w1 w2 w3

let aesdec_into dst d src s =
  check_slot "aesdec_into" dst d;
  check_slot "aesdec_into" src s;
  let w0 = tcol td dst d (d + 13) (d + 10) (d + 7) lxor word src s in
  let w1 = tcol td dst (d + 4) (d + 1) (d + 14) (d + 11) lxor word src (s + 4) in
  let w2 = tcol td dst (d + 8) (d + 5) (d + 2) (d + 15) lxor word src (s + 8) in
  let w3 = tcol td dst (d + 12) (d + 9) (d + 6) (d + 3) lxor word src (s + 12) in
  set_block dst d w0 w1 w2 w3

let aesdeclast_into dst d src s =
  check_slot "aesdeclast_into" dst d;
  check_slot "aesdeclast_into" src s;
  let w0 = scol inv_sbox dst d (d + 13) (d + 10) (d + 7) lxor word src s in
  let w1 = scol inv_sbox dst (d + 4) (d + 1) (d + 14) (d + 11) lxor word src (s + 4) in
  let w2 = scol inv_sbox dst (d + 8) (d + 5) (d + 2) (d + 15) lxor word src (s + 8) in
  let w3 = scol inv_sbox dst (d + 12) (d + 9) (d + 6) (d + 3) lxor word src (s + 12) in
  set_block dst d w0 w1 w2 w3

let aesimc_into dst d src s =
  check_slot "aesimc_into" dst d;
  check_slot "aesimc_into" src s;
  let w0 = tcol timc src s (s + 1) (s + 2) (s + 3) in
  let w1 = tcol timc src (s + 4) (s + 5) (s + 6) (s + 7) in
  let w2 = tcol timc src (s + 8) (s + 9) (s + 10) (s + 11) in
  let w3 = tcol timc src (s + 12) (s + 13) (s + 14) (s + 15) in
  set_block dst d w0 w1 w2 w3

(* SubWord of source dwords 1 and 3, then RotWord (a rotate right by 8 on
   the little-endian dword) xor rcon. *)
let aeskeygenassist_into dst d src s rcon =
  check_slot "aeskeygenassist_into" dst d;
  check_slot "aeskeygenassist_into" src s;
  let x1 = scol sbox src (s + 4) (s + 5) (s + 6) (s + 7) in
  let x3 = scol sbox src (s + 12) (s + 13) (s + 14) (s + 15) in
  set_block dst d x1 (rotl x1 24 lxor rcon) x3 (rotl x3 24 lxor rcon)

(* The block API: check, copy, apply the kernel to the copy. *)
let on_copy into name state key =
  check_block state name;
  check_block key name;
  let out = Bytes.copy state in
  into out 0 key 0;
  out

let aesenc state key = on_copy aesenc_into "aesenc" state key
let aesenclast state key = on_copy aesenclast_into "aesenclast" state key
let aesdec state key = on_copy aesdec_into "aesdec" state key
let aesdeclast state key = on_copy aesdeclast_into "aesdeclast" state key

let aesimc key =
  check_block key "aesimc";
  let out = Bytes.create 16 in
  aesimc_into out 0 key 0;
  out

let aeskeygenassist src rcon =
  check_block src "aeskeygenassist";
  let out = Bytes.create 16 in
  aeskeygenassist_into out 0 src 0 rcon;
  out

let rcons = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36 |]

let expand_key key =
  check_block key "expand_key";
  let keys = Array.make 11 key in
  for round = 1 to 10 do
    let prev = keys.(round - 1) in
    let assist = aeskeygenassist prev rcons.(round - 1) in
    let t = word assist 12 in
    let k = Bytes.create 16 in
    let k0 = word prev 0 lxor t in
    let k1 = word prev 4 lxor k0 in
    let k2 = word prev 8 lxor k1 in
    let k3 = word prev 12 lxor k2 in
    set_block k 0 k0 k1 k2 k3;
    keys.(round) <- k
  done;
  keys

let inv_round_keys keys =
  if Array.length keys <> 11 then invalid_arg "Aes.inv_round_keys: need 11 round keys";
  Array.mapi (fun i k -> if i = 0 || i = 10 then k else aesimc k) keys

let encrypt_block ~key block =
  if Array.length key <> 11 then invalid_arg "Aes.encrypt_block: need 11 round keys";
  check_block block "encrypt_block";
  let state = ref (xor_block block key.(0)) in
  for round = 1 to 9 do
    state := aesenc !state key.(round)
  done;
  aesenclast !state key.(10)

let decrypt_block ~key block =
  if Array.length key <> 11 then invalid_arg "Aes.decrypt_block: need 11 round keys";
  check_block block "decrypt_block";
  let dk = inv_round_keys key in
  let state = ref (xor_block block dk.(10)) in
  for round = 9 downto 1 do
    state := aesdec !state dk.(round)
  done;
  aesdeclast !state dk.(0)

let map_blocks f ~key buf =
  let n = Bytes.length buf in
  if n mod 16 <> 0 then invalid_arg "Aes: buffer length must be a multiple of 16";
  let out = Bytes.create n in
  for i = 0 to (n / 16) - 1 do
    let chunk = Bytes.sub buf (16 * i) 16 in
    Bytes.blit (f ~key chunk) 0 out (16 * i) 16
  done;
  out

let encrypt_bytes ~key buf = map_blocks encrypt_block ~key buf
let decrypt_bytes ~key buf = map_blocks decrypt_block ~key buf
