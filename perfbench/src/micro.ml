(* Host cost of single layer operations, in ns per call: Bechamel OLS
   estimates with r², each driven by an access stream built to hit or miss
   as the metric's name says. Multiplied by the traced run's operation
   counts, they give the count × cost reconciliation. *)

open Bechamel
open X86sim

type cost = { name : string; ns : float; r2 : float }

let cycle n =
  let i = ref 0 in
  fun () ->
    let v = !i in
    i := if v + 1 = n then 0 else v + 1;
    v

let tlb_probe_hit () =
  let tlb = Tlb.create () in
  let hit = { Tlb.hfn = 7; readable = true; writable = true; pkey = 0 } in
  for vpn = 0 to 15 do
    Tlb.insert tlb ~vpn ~ept:0 ~pt_gen:0 ~ept_gen:0 hit
  done;
  let next = cycle 16 in
  fun () -> ignore (Sys.opaque_identity (Tlb.probe_info tlb ~vpn:(next ()) ~ept:0 ~pt_gen:0 ~ept_gen:0))

(* The walk cache is keyed by vpn lsr 9 over 256 slots: vpns of one
   512-page region hit it; regions 256 apart share a slot and evict each
   other on every call. *)
let find_entry ~hit =
  let pt = Pagetable.create () in
  let region_stride = 256 * 512 in
  let vpns = Array.init 16 (fun i -> if hit then i else i mod 2 * region_stride + (i / 2)) in
  Array.iter (fun vpn -> Pagetable.map pt ~vpn ~frame:(vpn land 0xFFFF) ~writable:true) vpns;
  let next = cycle 16 in
  fun () -> ignore (Sys.opaque_identity (Pagetable.find_entry pt ~vpn:vpns.(next ())))

(* L1 is 32 KiB: a 64-line stream stays resident, a 2048-line (128 KiB)
   stream misses L1 on every access and is served by the 256 KiB L2. *)
let cache_access ~hit =
  let c = Cache.create () in
  let lines = if hit then 64 else 2048 in
  let next = cycle lines in
  fun () -> ignore (Sys.opaque_identity (Cache.access c ~addr:(next () * 64)))

let translate_va () =
  let mmu = Mmu.create () in
  let base = 0x400000 in
  Mmu.map_range mmu ~va:base ~len:(16 * 4096) ~writable:true;
  let next = cycle 16 in
  fun () ->
    ignore (Sys.opaque_identity (Mmu.translate_va mmu ~va:(base + (next () * 4096)) ~access:Fault.Read))

let physmem_read64 () =
  let pm = Physmem.create () in
  let frame = Physmem.alloc_frame pm in
  let next = cycle 512 in
  fun () -> ignore (Sys.opaque_identity (Physmem.read64 pm ~frame ~off:(next () * 8)))

let pipeline_issue () =
  let p = Pipeline.create () in
  let meta = Pipeline.pack ~s1:0 ~s2:1 ~s3:(-1) ~d1:0 ~d2:(-1) ~lat:1 ~port:Pipeline.p_alu in
  fun () -> Pipeline.issue_packed_static p ~meta

let aesenc () =
  let blk = Aesni.Aes.block_of_hex "00112233445566778899aabbccddeeff" in
  let key = Aesni.Aes.block_of_hex "000102030405060708090a0b0c0d0e0f" in
  fun () -> ignore (Sys.opaque_identity (Aesni.Aes.aesenc blk key))

(* One instruction on the hooked path: Cpu.step with a step hook attached,
   over a loop that mixes ALU, load, store and branch. *)
let cpu_step () =
  let cpu = Cpu.create () in
  let data = 0x600000 in
  Mmu.map_range cpu.Cpu.mmu ~va:data ~len:4096 ~writable:true;
  Cpu.load_program cpu
    (Asm.parse_program
       "main:\n  add rax, 1\n  mov [rbx], rax\n  mov rcx, [rbx]\n  jmp main\n");
  Cpu.set_gpr cpu Reg.rbx data;
  let steps = ref 0 in
  ignore (Cpu.add_step_hook cpu (fun _ _ -> incr steps));
  fun () -> Cpu.step cpu

let tests =
  [
    ("x86sim.tlb.probe_info_hit_ns", tlb_probe_hit);
    ("x86sim.pagetable.find_entry_hit_ns", fun () -> find_entry ~hit:true);
    ("x86sim.pagetable.find_entry_miss_ns", fun () -> find_entry ~hit:false);
    ("x86sim.cache.access_l1_hit_ns", fun () -> cache_access ~hit:true);
    ("x86sim.cache.access_l1_miss_ns", fun () -> cache_access ~hit:false);
    ("x86sim.mmu.translate_va_ns", translate_va);
    ("x86sim.physmem.read64_ns", physmem_read64);
    ("x86sim.pipeline.issue_ns", pipeline_issue);
    ("aesni.aesenc_ns", aesenc);
    ("x86sim.cpu.step_ns", cpu_step);
  ]

let names = List.map fst tests

(* [quota] host seconds per operation. *)
let measure ~quota =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false () in
  List.map
    (fun (name, make) ->
      let test = Test.make ~name (Staged.stage (make ())) in
      let raw = Benchmark.all cfg [ instance ] test in
      let res = Hashtbl.find (Analyze.all ols instance raw) name in
      let ns = match Analyze.OLS.estimates res with Some [ e ] -> e | _ -> Float.nan in
      let r2 = Option.value (Analyze.OLS.r_square res) ~default:Float.nan in
      { name; ns; r2 })
    tests
