(** AES-128 block cipher, implemented from FIPS-197.

    This is the software reference behind the simulator's AES-NI
    instructions. Two layers are exposed:

    - the {e x86 instruction semantics} ([aesenc], [aesdec], ...), which
      operate on one 128-bit state exactly like the corresponding Intel
      instructions (one round per call, round key supplied by the caller,
      [aesdec] expecting [aesimc]-transformed keys), and
    - a convenience {e full cipher} ([encrypt_block] / [decrypt_block])
      composed from those instruction primitives, verified against the
      FIPS-197 appendix C vectors in the test suite.

    Blocks and round keys are 16-byte [Bytes.t] values. The block
    functions never mutate their inputs; each returns a fresh block. They
    are thin wrappers over the in-place [_into] kernels at the end of this
    interface, which the simulator runs directly on its register file. *)

type block = Bytes.t
(** Exactly 16 bytes. All functions raise [Invalid_argument] otherwise. *)

val block_of_hex : string -> block
(** Parse 32 hex digits into a block. *)

val hex_of_block : block -> string
(** Lowercase hex rendering, 32 digits. *)

val xor_block : block -> block -> block
(** Byte-wise xor ([pxor] on the simulator). *)

val aesenc : block -> block -> block
(** [aesenc state key] = [MixColumns (ShiftRows (SubBytes state)) xor key] —
    one full encryption round, matching the x86 [aesenc] instruction. *)

val aesenclast : block -> block -> block
(** Final encryption round: no MixColumns. *)

val aesdec : block -> block -> block
(** One equivalent-inverse-cipher decryption round (x86 [aesdec]); the
    round key must have been passed through {!aesimc} first. *)

val aesdeclast : block -> block -> block
(** Final decryption round. Uses the plain (untransformed) round key. *)

val aesimc : block -> block
(** InvMixColumns of a round key, as the x86 [aesimc] instruction. *)

val aeskeygenassist : block -> int -> block
(** [aeskeygenassist src rcon] matches the x86 instruction: produces the
    SubWord/RotWord helper words used by the AES-128 key schedule. *)

val expand_key : block -> block array
(** The 11 round keys of AES-128 (index 0 is the cipher key itself), built
    with {!aeskeygenassist} exactly as compiler intrinsics do. *)

val inv_round_keys : block array -> block array
(** Decryption schedule for the equivalent inverse cipher: keys 1..9 are
    {!aesimc}-transformed, 0 and 10 are passed through. This is the 9-round
    [aesimc] sequence whose cost the paper reports in Table 4. *)

val encrypt_block : key:block array -> block -> block
(** Full AES-128 encryption of one block with an {!expand_key} schedule. *)

val decrypt_block : key:block array -> block -> block
(** Full AES-128 decryption; [key] is the {e encryption} schedule (the
    inverse schedule is derived internally via {!inv_round_keys}). *)

val encrypt_bytes : key:block array -> Bytes.t -> Bytes.t
(** ECB over a buffer whose length is a multiple of 16 (the paper's
    "crypt" technique encrypts safe regions in 128-bit chunks). *)

val decrypt_bytes : key:block array -> Bytes.t -> Bytes.t
(** Inverse of {!encrypt_bytes}. *)

(** {2 In-place kernels}

    Table-driven and allocation-free. Each takes a destination and a
    source as [(bytes, offset)] pairs naming 16-byte blocks, and reads all
    sixteen destination and source bytes before writing, so the two
    blocks may be the same. Raise [Invalid_argument] when either offset
    does not leave 16 bytes. *)

val aesenc_into : Bytes.t -> int -> Bytes.t -> int -> unit
(** [aesenc_into dst d src s]: the block at [dst.[d]] becomes
    [aesenc] of itself with the round key at [src.[s]]. *)

val aesenclast_into : Bytes.t -> int -> Bytes.t -> int -> unit
(** As {!aesenc_into}, for {!aesenclast}. *)

val aesdec_into : Bytes.t -> int -> Bytes.t -> int -> unit
(** As {!aesenc_into}, for {!aesdec}. *)

val aesdeclast_into : Bytes.t -> int -> Bytes.t -> int -> unit
(** As {!aesenc_into}, for {!aesdeclast}. *)

val aesimc_into : Bytes.t -> int -> Bytes.t -> int -> unit
(** [aesimc_into dst d src s] writes [aesimc] of the block at [src.[s]]
    to [dst.[d]]. *)

val aeskeygenassist_into : Bytes.t -> int -> Bytes.t -> int -> int -> unit
(** [aeskeygenassist_into dst d src s rcon] writes [aeskeygenassist] of
    the block at [src.[s]] to [dst.[d]]. *)
