(* AES-128 correctness: FIPS-197 appendix vectors, instruction-level
   semantics, and round-trip properties. *)

open Aesni

let block = Alcotest.testable (fun fmt b -> Fmt.string fmt (Aes.hex_of_block b)) Bytes.equal

(* FIPS-197 appendix C.1 *)
let fips_key = "000102030405060708090a0b0c0d0e0f"
let fips_plain = "00112233445566778899aabbccddeeff"
let fips_cipher = "69c4e0d86a7b0430d8cdb78070b4c55a"

(* FIPS-197 appendix B *)
let appb_key = "2b7e151628aed2a6abf7158809cf4f3c"
let appb_plain = "3243f6a8885a308d313198a2e0370734"
let appb_cipher = "3925841d02dc09fbdc118597196a0b32"

let keys_of_hex h = Aes.expand_key (Aes.block_of_hex h)

let test_fips_encrypt () =
  let ct = Aes.encrypt_block ~key:(keys_of_hex fips_key) (Aes.block_of_hex fips_plain) in
  Alcotest.check block "C.1 ciphertext" (Aes.block_of_hex fips_cipher) ct

let test_fips_decrypt () =
  let pt = Aes.decrypt_block ~key:(keys_of_hex fips_key) (Aes.block_of_hex fips_cipher) in
  Alcotest.check block "C.1 plaintext" (Aes.block_of_hex fips_plain) pt

let test_appendix_b () =
  let ct = Aes.encrypt_block ~key:(keys_of_hex appb_key) (Aes.block_of_hex appb_plain) in
  Alcotest.check block "B ciphertext" (Aes.block_of_hex appb_cipher) ct

let test_key_schedule () =
  (* FIPS-197 appendix A.1: last round key of the 2b7e15... schedule. *)
  let keys = keys_of_hex appb_key in
  Alcotest.(check string)
    "round key 10" "d014f9a8c9ee2589e13f0cc8b6630ca6"
    (Aes.hex_of_block keys.(10));
  Alcotest.(check string)
    "round key 1" "a0fafe1788542cb123a339392a6c7605"
    (Aes.hex_of_block keys.(1))

let test_hex_roundtrip () =
  Alcotest.(check string) "hex" fips_plain (Aes.hex_of_block (Aes.block_of_hex fips_plain))

let test_xor_involution () =
  let a = Aes.block_of_hex fips_plain and b = Aes.block_of_hex fips_key in
  Alcotest.check block "xor twice" a (Aes.xor_block (Aes.xor_block a b) b)

let test_aesimc_matches_inv_schedule () =
  let keys = keys_of_hex fips_key in
  let inv = Aes.inv_round_keys keys in
  Alcotest.check block "ends untouched" keys.(0) inv.(0);
  Alcotest.check block "ends untouched" keys.(10) inv.(10);
  Alcotest.check block "middle transformed" (Aes.aesimc keys.(5)) inv.(5)

let test_bad_block_length () =
  Alcotest.check_raises "short block" (Invalid_argument "Aes.aesenc: block must be 16 bytes")
    (fun () -> ignore (Aes.aesenc (Bytes.create 8) (Bytes.create 16)))

let test_ecb_multiblock () =
  let key = keys_of_hex fips_key in
  let buf = Bytes.create 64 in
  Bytes.fill buf 0 64 'x';
  let ct = Aes.encrypt_bytes ~key buf in
  Alcotest.(check bool) "ciphertext differs" false (Bytes.equal ct buf);
  (* Identical plaintext blocks encrypt identically under ECB. *)
  Alcotest.check block "ECB determinism" (Bytes.sub ct 0 16) (Bytes.sub ct 16 16);
  Alcotest.(check bytes) "round trip" buf (Aes.decrypt_bytes ~key ct)

let test_ecb_rejects_partial () =
  Alcotest.check_raises "unaligned" (Invalid_argument "Aes: buffer length must be a multiple of 16")
    (fun () -> ignore (Aes.encrypt_bytes ~key:(keys_of_hex fips_key) (Bytes.create 15)))

(* Property: decrypt_block inverts encrypt_block for random keys and blocks. *)
let gen_block =
  QCheck.Gen.(map (fun s -> Bytes.of_string s) (string_size ~gen:char (return 16)))

let arb_block = QCheck.make ~print:(fun b -> Aes.hex_of_block b) gen_block

let prop_roundtrip =
  QCheck.Test.make ~name:"aes encrypt/decrypt round-trip" ~count:200
    (QCheck.pair arb_block arb_block)
    (fun (k, pt) ->
      let key = Aes.expand_key k in
      Bytes.equal pt (Aes.decrypt_block ~key (Aes.encrypt_block ~key pt)))

let prop_enc_injective_in_key =
  QCheck.Test.make ~name:"different keys give different ciphertexts" ~count:100
    (QCheck.triple arb_block arb_block arb_block)
    (fun (k1, k2, pt) ->
      QCheck.assume (not (Bytes.equal k1 k2));
      let c1 = Aes.encrypt_block ~key:(Aes.expand_key k1) pt in
      let c2 = Aes.encrypt_block ~key:(Aes.expand_key k2) pt in
      not (Bytes.equal c1 c2))

(* NIST SP 800-38A F.1.1: ECB-AES128 with the 2b7e15... key. *)
let nist_ecb_pairs =
  [
    ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97");
    ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf");
    ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688");
    ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4");
  ]

let test_nist_sp800_38a () =
  let key = keys_of_hex appb_key in
  List.iter
    (fun (pt, ct) ->
      Alcotest.check block ("encrypt " ^ pt) (Aes.block_of_hex ct)
        (Aes.encrypt_block ~key (Aes.block_of_hex pt));
      Alcotest.check block ("decrypt " ^ ct) (Aes.block_of_hex pt)
        (Aes.decrypt_block ~key (Aes.block_of_hex ct)))
    nist_ecb_pairs

(* Golden vectors frozen from the bit-serial reference (one FIPS-197 step
   at a time) that the table-driven kernels replaced: an oracle that does
   not share their tables. Each is checked through the block API and
   through the in-place kernel at unaligned offsets in larger buffers. *)
let golden_path = "data/aesni_golden.txt"

let golden_lines () =
  In_channel.with_open_text golden_path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (String.split_on_char ' ')

(* [src] at offset 5 of a 32-byte buffer, [dst] at offset 11 of another;
   the bytes around each block must survive. *)
let run_into f ~dst ~src =
  let db = Bytes.make 32 '\xaa' and sb = Bytes.make 32 '\x55' in
  Bytes.blit dst 0 db 11 16;
  Bytes.blit src 0 sb 5 16;
  f db 11 sb 5;
  let around b o c =
    Bytes.for_all (fun x -> x = c) (Bytes.sub b 0 o)
    && Bytes.for_all (fun x -> x = c) (Bytes.sub b (o + 16) (16 - o))
  in
  Alcotest.(check bool) "bytes around the blocks untouched" true
    (around db 11 '\xaa' && around sb 5 '\x55' && Bytes.equal (Bytes.sub sb 5 16) src);
  Bytes.sub db 11 16

let test_golden_vectors () =
  let hex = Aes.block_of_hex in
  let lines = golden_lines () in
  let count op = List.length (List.filter (fun l -> List.hd l = op) lines) in
  List.iter
    (fun op -> Alcotest.(check int) (op ^ " vectors") 64 (count op))
    [ "aesenc"; "aesenclast"; "aesdec"; "aesdeclast"; "aesimc" ];
  Alcotest.(check int) "aeskeygenassist vectors" 80 (count "aeskeygenassist");
  List.iter
    (fun line ->
      let what = String.concat " " line in
      match line with
      | [ op; a; b; out ] -> (
        let a = hex a and out = hex out in
        let binop f into =
          let key = hex b in
          Alcotest.check block (what ^ " (block API)") out (f a key);
          Alcotest.check block (what ^ " (kernel)") out (run_into into ~dst:a ~src:key)
        in
        match op with
        | "aesenc" -> binop Aes.aesenc Aes.aesenc_into
        | "aesenclast" -> binop Aes.aesenclast Aes.aesenclast_into
        | "aesdec" -> binop Aes.aesdec Aes.aesdec_into
        | "aesdeclast" -> binop Aes.aesdeclast Aes.aesdeclast_into
        | "aesimc" ->
          Alcotest.check block (what ^ " (block API)") out (Aes.aesimc a);
          Alcotest.check block (what ^ " (kernel)") out
            (run_into Aes.aesimc_into ~dst:(Bytes.make 16 '\000') ~src:a)
        | "aeskeygenassist" ->
          let rcon = int_of_string ("0x" ^ b) in
          Alcotest.check block (what ^ " (block API)") out (Aes.aeskeygenassist a rcon);
          Alcotest.check block (what ^ " (kernel)") out
            (run_into
               (fun d dp s sp -> Aes.aeskeygenassist_into d dp s sp rcon)
               ~dst:(Bytes.make 16 '\000') ~src:a)
        | _ -> Alcotest.failf "%s: unknown op" what)
      | _ -> Alcotest.failf "malformed golden line: %s" what)
    lines

let test_kernel_bounds () =
  let b = Bytes.create 32 in
  Alcotest.check_raises "offset past the end"
    (Invalid_argument "Aes.aesenc_into: no 16-byte block at offset 17") (fun () ->
      Aes.aesenc_into b 17 b 0);
  Alcotest.check_raises "negative offset"
    (Invalid_argument "Aes.aesimc_into: no 16-byte block at offset -1") (fun () ->
      Aes.aesimc_into b 0 b (-1))

let suite =
  [
    Alcotest.test_case "golden vectors: block API and in-place kernels" `Quick
      test_golden_vectors;
    Alcotest.test_case "in-place kernels check offsets" `Quick test_kernel_bounds;
    Alcotest.test_case "fips C.1 encrypt" `Quick test_fips_encrypt;
    Alcotest.test_case "fips C.1 decrypt" `Quick test_fips_decrypt;
    Alcotest.test_case "fips B encrypt" `Quick test_appendix_b;
    Alcotest.test_case "fips A.1 key schedule" `Quick test_key_schedule;
    Alcotest.test_case "NIST SP 800-38A ECB vectors" `Quick test_nist_sp800_38a;
    Alcotest.test_case "hex round-trip" `Quick test_hex_roundtrip;
    Alcotest.test_case "xor involution" `Quick test_xor_involution;
    Alcotest.test_case "aesimc inverse schedule" `Quick test_aesimc_matches_inv_schedule;
    Alcotest.test_case "bad block length" `Quick test_bad_block_length;
    Alcotest.test_case "ECB multi-block" `Quick test_ecb_multiblock;
    Alcotest.test_case "ECB rejects partial block" `Quick test_ecb_rejects_partial;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_enc_injective_in_key;
  ]
