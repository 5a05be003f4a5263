(* Allocator tests: occupancy semantics, the Fig. 6/9 savings formulas,
   and the placement decisions of Sec. 4 on crafted kernels. *)

let check = Alcotest.check
let feq = Alcotest.float 1e-9

module B = Ir.Builder
module Op = Ir.Op

(* --- Occupancy ---------------------------------------------------- *)

let test_occupancy_basic () =
  let o = Alloc.Occupancy.create ~entries:2 in
  check Alcotest.int "entries" 2 (Alloc.Occupancy.entries o);
  check Alcotest.bool "fresh available" true (Alloc.Occupancy.available o ~entry:0 ~first:0 ~last:5);
  Alloc.Occupancy.reserve o ~entry:0 ~first:0 ~last:5;
  check Alcotest.bool "overlap rejected" false
    (Alloc.Occupancy.available o ~entry:0 ~first:4 ~last:6);
  check Alcotest.bool "other entry free" true
    (Alloc.Occupancy.available o ~entry:1 ~first:4 ~last:6)

let test_occupancy_half_open () =
  (* [0,5) and [5,8) touch but do not overlap: a chained value can
     reuse the entry at the instruction that reads its predecessor. *)
  let o = Alloc.Occupancy.create ~entries:1 in
  Alloc.Occupancy.reserve o ~entry:0 ~first:0 ~last:5;
  check Alcotest.bool "touching ok" true (Alloc.Occupancy.available o ~entry:0 ~first:5 ~last:8);
  Alloc.Occupancy.reserve o ~entry:0 ~first:5 ~last:8;
  check Alcotest.bool "inside rejected" false
    (Alloc.Occupancy.available o ~entry:0 ~first:6 ~last:7)

let test_occupancy_empty_interval () =
  let o = Alloc.Occupancy.create ~entries:1 in
  check Alcotest.bool "empty interval unavailable" false
    (Alloc.Occupancy.available o ~entry:0 ~first:3 ~last:3)

let test_occupancy_find_free () =
  let o = Alloc.Occupancy.create ~entries:3 in
  Alloc.Occupancy.reserve o ~entry:0 ~first:0 ~last:10;
  check (Alcotest.option Alcotest.int) "skips busy entry" (Some 1)
    (Alloc.Occupancy.find_free o ~width:1 ~first:2 ~last:4);
  (* Width-2 values need consecutive free entries. *)
  check (Alcotest.option Alcotest.int) "wide placement" (Some 1)
    (Alloc.Occupancy.find_free o ~width:2 ~first:2 ~last:4);
  Alloc.Occupancy.reserve_range o ~entry:1 ~width:2 ~first:2 ~last:4;
  check (Alcotest.option Alcotest.int) "no room for width 2" None
    (Alloc.Occupancy.find_free o ~width:2 ~first:3 ~last:5);
  (* Width larger than the remaining free entries never fits. *)
  check (Alcotest.option Alcotest.int) "width 3 blocked by busy entry" None
    (Alloc.Occupancy.find_free o ~width:3 ~first:5 ~last:6)

let test_occupancy_reserve_conflict () =
  let o = Alloc.Occupancy.create ~entries:1 in
  Alloc.Occupancy.reserve o ~entry:0 ~first:0 ~last:5;
  Alcotest.check_raises "double reserve"
    (Invalid_argument "Occupancy.reserve: entry 0 interval [2, 4] unavailable") (fun () ->
      Alloc.Occupancy.reserve o ~entry:0 ~first:2 ~last:4)

(* --- Savings (Fig. 6 / Fig. 9) ------------------------------------ *)

let config2 = Alloc.Config.make ~orf_entries:3 ~lrf:Alloc.Config.No_lrf ()

let test_savings_write_unit_dead () =
  (* No reads, not live out: save the MRF write, pay the ORF write.
     (11 + 7.6) - (4.4 + 1.52) = 12.68. *)
  let s =
    Alloc.Savings.write_unit config2 ~target:`Orf ~producer_dp:Energy.Model.Private ~reads:[]
      ~mrf_write_required:false
  in
  check feq "dead value" 12.68 s

let test_savings_write_unit_reads () =
  (* One private read: (15.6 - 2.72) - 5.92 + 18.6 = 25.56. *)
  let s =
    Alloc.Savings.write_unit config2 ~target:`Orf ~producer_dp:Energy.Model.Private
      ~reads:[ Energy.Model.Private ] ~mrf_write_required:false
  in
  check feq "one read" 25.56 s;
  (* Same but live out: no MRF-write saving: 12.88 - 5.92 = 6.96. *)
  let s2 =
    Alloc.Savings.write_unit config2 ~target:`Orf ~producer_dp:Energy.Model.Private
      ~reads:[ Energy.Model.Private ] ~mrf_write_required:true
  in
  check feq "live out" 6.96 s2

let test_savings_lrf_beats_orf () =
  let lrf =
    Alloc.Savings.write_unit config2 ~target:`Lrf ~producer_dp:Energy.Model.Private
      ~reads:[ Energy.Model.Private ] ~mrf_write_required:true
  in
  let orf =
    Alloc.Savings.write_unit config2 ~target:`Orf ~producer_dp:Energy.Model.Private
      ~reads:[ Energy.Model.Private ] ~mrf_write_required:true
  in
  check Alcotest.bool "LRF saves more" true (lrf > orf)

let test_savings_read_unit () =
  (* Fig. 9: first read stays MRF; only later reads save.
     2 extra private reads: 2 * (15.6 - 2.72) - 5.92 = 19.84. *)
  let s =
    Alloc.Savings.read_unit config2
      ~reads:[ Energy.Model.Private; Energy.Model.Private; Energy.Model.Private ]
  in
  check feq "3 reads" 19.84 s;
  check Alcotest.bool "single read never profitable" true
    (Alloc.Savings.read_unit config2 ~reads:[ Energy.Model.Private ] = neg_infinity)

let test_savings_priority () =
  let p = Alloc.Savings.priority ~savings:10.0 ~first:5 ~last:10 in
  check feq "per slot" 2.0 p;
  check feq "min one slot" 10.0 (Alloc.Savings.priority ~savings:10.0 ~first:5 ~last:5)

let test_savings_cost_entries_override () =
  let cfg8at3 = Alloc.Config.make ~orf_entries:8 ~orf_cost_entries:3 ~lrf:Alloc.Config.No_lrf () in
  check Alcotest.int "cost entries" 3 (Alloc.Config.cost_entries cfg8at3);
  let s8at3 =
    Alloc.Savings.write_unit cfg8at3 ~target:`Orf ~producer_dp:Energy.Model.Private
      ~reads:[ Energy.Model.Private ] ~mrf_write_required:false
  in
  let s3 =
    Alloc.Savings.write_unit config2 ~target:`Orf ~producer_dp:Energy.Model.Private
      ~reads:[ Energy.Model.Private ] ~mrf_write_required:false
  in
  check feq "priced as 3-entry" s3 s8at3

(* --- Config ------------------------------------------------------- *)

let test_config_validation () =
  Alcotest.check_raises "entries 0" (Invalid_argument "Alloc.Config.make: orf_entries = 0")
    (fun () -> ignore (Alloc.Config.make ~orf_entries:0 ()));
  Alcotest.check_raises "entries 9" (Invalid_argument "Alloc.Config.make: orf_entries = 9")
    (fun () -> ignore (Alloc.Config.make ~orf_entries:9 ()));
  check Alcotest.int "split banks" 3 (Alloc.Config.lrf_banks (Alloc.Config.make ~lrf:Alloc.Config.Split ()));
  check Alcotest.int "unified banks" 1 (Alloc.Config.lrf_banks (Alloc.Config.make ~lrf:Alloc.Config.Unified ()));
  check Alcotest.int "no banks" 0 (Alloc.Config.lrf_banks (Alloc.Config.make ~lrf:Alloc.Config.No_lrf ()))

(* --- Allocator decisions ------------------------------------------ *)

let compile config k =
  let ctx = Alloc.Context.create k in
  let placement, stats = Alloc.Allocator.run config ctx in
  (match Alloc.Verify.check config ctx placement with
   | Ok () -> ()
   | Error errs -> Alcotest.failf "verify: %s" (String.concat "; " errs));
  (ctx, placement, stats)

let dest_of placement id = Option.get (Alloc.Placement.dest placement ~instr:id)

(* A chain of ALU values, each read once by the next instruction: every
   link should land in the LRF, with no MRF traffic at all. *)
let test_alloc_lrf_chain () =
  let b = B.create "chain" in
  let a = B.fresh b in
  let v1 = B.op2 b Op.Iadd a a in
  let v2 = B.op1 b Op.Mov v1 in
  let v3 = B.op1 b Op.Mov v2 in
  B.store b Op.St_global ~addr:a ~value:v3;
  let k = B.finalize b in
  let config = Alloc.Config.make ~lrf:Alloc.Config.Unified () in
  let _, placement, stats = compile config k in
  ignore (v1, v2, v3);
  (* v1 (instr 0) and v2 (instr 1) are LRF-eligible; v3 (instr 2) is
     read by a store, i.e. the shared datapath. *)
  check Alcotest.bool "at least 2 LRF" true (stats.Alloc.Allocator.lrf_allocated >= 2);
  let d1 = dest_of placement 0 in
  check Alcotest.bool "v1 in LRF" true (d1.Alloc.Placement.to_lrf <> None);
  check Alcotest.bool "v1 not in MRF" false d1.Alloc.Placement.to_mrf;
  let d3 = dest_of placement 2 in
  check Alcotest.bool "v3 not in LRF" true (d3.Alloc.Placement.to_lrf = None)

(* Long-latency results must go to the MRF only. *)
let test_alloc_long_latency_mrf_only () =
  let b = B.create "ll" in
  let a = B.fresh b in
  let x = B.op1 b Op.Ld_global a in
  let y = B.op1 b Op.Mov x in
  B.store b Op.St_global ~addr:a ~value:y;
  let k = B.finalize b in
  let _, placement, _ = compile (Alloc.Config.make ()) k in
  let d = dest_of placement 0 in
  check Alcotest.bool "no LRF" true (d.Alloc.Placement.to_lrf = None);
  check Alcotest.bool "no ORF" true (d.Alloc.Placement.to_orf = None);
  check Alcotest.bool "MRF" true d.Alloc.Placement.to_mrf;
  (* Its consumer reads from the MRF. *)
  check Alcotest.bool "read from MRF" true
    (Alloc.Placement.src placement ~instr:1 ~pos:0 = Alloc.Placement.From_mrf)

(* Dead values are written to the cheapest level and never to the MRF. *)
let test_alloc_dead_value_elision () =
  let b = B.create "dead" in
  let a = B.fresh b in
  ignore (B.op2 b Op.Iand a a);
  B.store b Op.St_global ~addr:a ~value:a;
  let k = B.finalize b in
  let _, placement, _ = compile (Alloc.Config.make ()) k in
  let d = dest_of placement 0 in
  check Alcotest.bool "dead value avoids the MRF" false d.Alloc.Placement.to_mrf

(* Read-operand allocation (Fig. 8(b)): a parameter read repeatedly in
   one strand is filled into the ORF once. *)
let test_alloc_read_operand () =
  let b = B.create "ro" in
  let param = B.fresh b in
  let v1 = B.op2 b Op.Iadd param param in
  let v2 = B.op2 b Op.Iadd v1 param in
  let v3 = B.op2 b Op.Iadd v2 param in
  B.store b Op.St_global ~addr:param ~value:v3;
  let k = B.finalize b in
  let config = Alloc.Config.make ~lrf:Alloc.Config.No_lrf () in
  let _, placement, stats = compile config k in
  check Alcotest.bool "read unit built" true (stats.Alloc.Allocator.read_units >= 1);
  (* First read from MRF with a fill; at least one later read from ORF. *)
  check Alcotest.bool "fill present" true (Alloc.Placement.fills_of placement ~instr:0 <> []);
  let later_orf =
    List.exists
      (fun (instr, pos) ->
        match Alloc.Placement.src placement ~instr ~pos with
        | Alloc.Placement.From_orf _ -> true
        | _ -> false)
      [ (1, 1); (2, 1) ]
  in
  check Alcotest.bool "later read from ORF" true later_orf

(* With read-operand allocation disabled those reads stay in the MRF. *)
let test_alloc_read_operand_disabled () =
  let b = B.create "ro-off" in
  let param = B.fresh b in
  let v1 = B.op2 b Op.Iadd param param in
  B.store b Op.St_global ~addr:param ~value:v1;
  let k = B.finalize b in
  let config = Alloc.Config.make ~read_operands:false () in
  let _, placement, stats = compile config k in
  check Alcotest.int "no read units" 0 stats.Alloc.Allocator.read_units;
  check Alcotest.bool "no fill" true (Alloc.Placement.fills_of placement ~instr:0 = [])

(* Partial ranges (Fig. 8(a)): with a 1-entry ORF and two competing
   values, the allocator shortens ranges instead of giving up. *)
let test_alloc_partial_range () =
  let b = B.create "partial" in
  let a = B.fresh b in
  let long_lived = B.op2 b Op.Iadd a a in
  let r1 = B.op1 b Op.Mov long_lived in
  let r2 = B.op1 b Op.Mov long_lived in
  let r3 = B.op1 b Op.Mov long_lived in
  let sum = B.op2 b Op.Iadd r1 r2 in
  let sum2 = B.op2 b Op.Iadd sum r3 in
  (* a second value competing for the single entry *)
  let late = B.op2 b Op.Iadd sum2 sum2 in
  let use = B.op1 b Op.Mov late in
  B.store b Op.St_global ~addr:a ~value:use;
  B.store b Op.St_global ~addr:a ~value:long_lived;
  let k = B.finalize b in
  let with_partial = Alloc.Config.make ~orf_entries:1 ~lrf:Alloc.Config.No_lrf () in
  let without =
    Alloc.Config.make ~orf_entries:1 ~lrf:Alloc.Config.No_lrf ~partial_ranges:false ()
  in
  let _, _, s1 = compile with_partial k in
  let _, _, s2 = compile without k in
  check Alcotest.bool "partial ranges used" true (s1.Alloc.Allocator.partial_allocated >= 1);
  check Alcotest.int "disabled: none" 0 s2.Alloc.Allocator.partial_allocated;
  check Alcotest.bool "partial covers more" true
    (s1.Alloc.Allocator.orf_allocated >= s2.Alloc.Allocator.orf_allocated)

(* Fig. 10(c): both-sided hammock definitions share one ORF entry and
   serve the merge read from it. *)
let test_alloc_fig10c_shared_entry () =
  let b = B.create "f10c" in
  let p = B.op0 b Op.Mov () in
  let r = B.fresh b in
  let else_l = B.new_label b in
  let join = B.new_label b in
  B.branch b ~pred:p ~target:else_l (Ir.Terminator.Taken_with_prob 0.5);
  let (_ : B.label) = B.here b in
  B.op1_into b Op.Mov ~dst:r p;
  B.jump b join;
  B.start_block b else_l;
  B.op1_into b Op.Mov ~dst:r p;
  B.start_block b join;
  let use = B.op1 b Op.Mov r in
  B.store b Op.St_shared ~addr:p ~value:use;
  let k = B.finalize b in
  let _, placement, _ = compile (Alloc.Config.make ~lrf:Alloc.Config.No_lrf ()) k in
  (* The two defs of r are instrs 2 and 4 (bra is 1, jump closes bb1). *)
  let def_ids =
    Ir.Kernel.fold_instrs k ~init:[] ~f:(fun acc _ i ->
        if i.Ir.Instr.dst = Some r then i.Ir.Instr.id :: acc else acc)
  in
  check Alcotest.int "two defs" 2 (List.length def_ids);
  let entries =
    List.map (fun id -> (dest_of placement id).Alloc.Placement.to_orf) def_ids
  in
  (match entries with
   | [ Some e1; Some e2 ] ->
     check Alcotest.int "same entry" e1 e2;
     ignore use;
     (* The merge read comes from that entry. *)
     let merge_read =
       Ir.Kernel.fold_instrs k ~init:None ~f:(fun acc _ i ->
           match acc with
           | Some _ -> acc
           | None ->
             List.fold_left
               (fun acc (pos, src) -> if src = r then Some (i.Ir.Instr.id, pos) else acc)
               None
               (List.mapi (fun pos src -> (pos, src)) i.Ir.Instr.srcs))
     in
     (match merge_read with
      | Some (instr, pos) ->
        (match Alloc.Placement.src placement ~instr ~pos with
         | Alloc.Placement.From_orf e -> check Alcotest.int "read from shared entry" e1 e
         | other -> Alcotest.failf "expected ORF read, got %s" (Alloc.Placement.level_name other))
      | None -> Alcotest.fail "no read of r found")
   | _ -> Alcotest.fail "both defs should be ORF-allocated")

(* Fig. 10(a): one-sided definition cannot serve the merge read. *)
let test_alloc_fig10a_merge_from_mrf () =
  let b = B.create "f10a" in
  let p = B.op0 b Op.Mov () in
  let r = B.fresh b in
  let join = B.new_label b in
  B.branch b ~pred:p ~target:join (Ir.Terminator.Taken_with_prob 0.5);
  let (_ : B.label) = B.here b in
  B.op1_into b Op.Mov ~dst:r p;
  B.start_block b join;
  let use = B.op1 b Op.Mov r in
  B.store b Op.St_shared ~addr:p ~value:use;
  let k = B.finalize b in
  let _, placement, _ = compile (Alloc.Config.make ()) k in
  let use_id = 3 in
  (* bb2's first instruction: mov use, r *)
  let read_level = Alloc.Placement.src placement ~instr:use_id ~pos:0 in
  check Alcotest.string "merge read from MRF" "MRF" (Alloc.Placement.level_name read_level);
  (* And the one-sided def keeps an MRF copy for it. *)
  let d = dest_of placement 2 in
  check Alcotest.bool "def writes MRF" true d.Alloc.Placement.to_mrf

(* Split LRF: a value read in two different operand slots must not use
   the LRF (Sec. 3.2). *)
let test_alloc_split_lrf_slot_constraint () =
  let b = B.create "split" in
  let a = B.fresh b in
  let v = B.op2 b Op.Iadd a a in
  (* v read at slot A of one instr and slot B of another *)
  let u1 = B.op2 b Op.Iadd v a in
  let u2 = B.op2 b Op.Iadd a v in
  B.store b Op.St_global ~addr:u1 ~value:u2;
  let k = B.finalize b in
  let _, placement, _ = compile (Alloc.Config.make ~lrf:Alloc.Config.Split ()) k in
  let d = dest_of placement 0 in
  check Alcotest.bool "cross-slot value not in split LRF" true (d.Alloc.Placement.to_lrf = None);
  (* Under a unified LRF the same value is allowed in. *)
  let _, placement_u, _ = compile (Alloc.Config.make ~lrf:Alloc.Config.Unified ()) k in
  let du = dest_of placement_u 0 in
  check Alcotest.bool "unified LRF accepts it" true (du.Alloc.Placement.to_lrf <> None)

(* Wide (64-bit) values occupy two consecutive ORF entries; with a
   single-entry ORF they cannot be allocated at all. *)
let test_alloc_wide_values () =
  let b = B.create "wide" in
  let a = B.fresh b in
  let w = B.op1 b Op.Ld_shared ~width:Ir.Width.W64 a in
  let u = B.op2 b Op.Fadd w w in
  B.store b Op.St_global ~addr:a ~value:u;
  let k = B.finalize b in
  let one = Alloc.Config.make ~orf_entries:1 ~lrf:Alloc.Config.No_lrf () in
  let _, placement1, _ = compile one k in
  let d1 = dest_of placement1 0 in
  check Alcotest.bool "1-entry ORF cannot hold w64" true (d1.Alloc.Placement.to_orf = None);
  let two = Alloc.Config.make ~orf_entries:2 ~lrf:Alloc.Config.No_lrf () in
  let _, placement2, _ = compile two k in
  let d2 = dest_of placement2 0 in
  check Alcotest.bool "2-entry ORF holds w64" true (d2.Alloc.Placement.to_orf <> None)

(* Values crossing a strand boundary must come back from the MRF. *)
let test_alloc_strand_crossing () =
  let b = B.create "cross" in
  let a = B.fresh b in
  let v = B.op2 b Op.Iadd a a in
  let x = B.op1 b Op.Ld_global a in
  let consumer = B.op3 b Op.Ffma x v v in
  B.store b Op.St_global ~addr:a ~value:consumer;
  let k = B.finalize b in
  let _, placement, _ = compile (Alloc.Config.make ()) k in
  (* v (instr 0) is read only by the ffma, which starts a new strand:
     the read must be MRF and v must be written to the MRF. *)
  let d = dest_of placement 0 in
  check Alcotest.bool "v reaches MRF" true d.Alloc.Placement.to_mrf;
  check Alcotest.string "cross-strand read from MRF" "MRF"
    (Alloc.Placement.level_name (Alloc.Placement.src placement ~instr:2 ~pos:1))

(* --- Verifier negative tests --------------------------------------- *)

let test_verify_catches_bad_src () =
  let b = B.create "bad" in
  let a = B.fresh b in
  let v = B.op2 b Op.Iadd a a in
  let u = B.op1 b Op.Mov v in
  B.store b Op.St_global ~addr:a ~value:u;
  let k = B.finalize b in
  let config = Alloc.Config.make () in
  let ctx = Alloc.Context.create k in
  let placement = Alloc.Allocator.place config ctx in
  (* Corrupt: claim instr 1 reads ORF entry 2 which nobody wrote. *)
  Alloc.Placement.set_src placement ~instr:1 ~pos:0 (Alloc.Placement.From_orf 2);
  (match Alloc.Verify.check config ctx placement with
   | Ok () -> Alcotest.fail "verifier accepted a stale ORF read"
   | Error _ -> ())

let test_verify_catches_missing_mrf_copy () =
  let b = B.create "bad2" in
  let a = B.fresh b in
  let v = B.op2 b Op.Iadd a a in
  let u = B.op1 b Op.Mov v in
  B.store b Op.St_global ~addr:a ~value:u;
  let k = B.finalize b in
  let config = Alloc.Config.make () in
  let ctx = Alloc.Context.create k in
  let placement = Alloc.Allocator.place config ctx in
  (* Corrupt: v written nowhere near the MRF but read from it. *)
  Alloc.Placement.set_dest placement ~instr:0
    { Alloc.Placement.to_lrf = None; to_orf = Some 0; to_mrf = false };
  Alloc.Placement.set_src placement ~instr:1 ~pos:0 Alloc.Placement.From_mrf;
  (match Alloc.Verify.check config ctx placement with
   | Ok () -> Alcotest.fail "verifier accepted a stale MRF read"
   | Error _ -> ())

let test_verify_catches_shared_lrf () =
  let b = B.create "bad3" in
  let a = B.fresh b in
  let v = B.op2 b Op.Iadd a a in
  B.store b Op.St_global ~addr:a ~value:v;
  let k = B.finalize b in
  let config = Alloc.Config.make ~lrf:Alloc.Config.Unified () in
  let ctx = Alloc.Context.create k in
  let placement = Alloc.Allocator.place config ctx in
  Alloc.Placement.set_dest placement ~instr:0
    { Alloc.Placement.to_lrf = Some 0; to_orf = None; to_mrf = true };
  (* The store (shared datapath) must not read the LRF. *)
  Alloc.Placement.set_src placement ~instr:1 ~pos:1 (Alloc.Placement.From_lrf 0);
  (match Alloc.Verify.check config ctx placement with
   | Ok () -> Alcotest.fail "verifier accepted a shared-datapath LRF read"
   | Error _ -> ())

(* Generator kernels whose hammocks once made the allocator write an
   ORF/LRF entry from a definition past its unit's reserved interval,
   clobbering the value another unit held there (seeds at size
   8 + 37*seed mod 57; the text is Ir.Asm.to_source of each). *)
let hammock_seeds = [ 63; 148; 221; 453; 467; 636 ]

let test_hammock_kernel seed () =
  let path = Printf.sprintf "kernels/hammock_seed%d.asm" seed in
  let k =
    Ir.Asm.parse_exn ~name:(Filename.basename path) (In_channel.with_open_text path In_channel.input_all)
  in
  match Sim.Pipeline.compile k with
  | _, Ok () -> ()
  | _, Error errs -> Alcotest.failf "%s: %s" path (String.concat "; " errs)

let suite =
  [
    Alcotest.test_case "occupancy basic" `Quick test_occupancy_basic;
    Alcotest.test_case "occupancy half-open" `Quick test_occupancy_half_open;
    Alcotest.test_case "occupancy empty interval" `Quick test_occupancy_empty_interval;
    Alcotest.test_case "occupancy find_free" `Quick test_occupancy_find_free;
    Alcotest.test_case "occupancy reserve conflict" `Quick test_occupancy_reserve_conflict;
    Alcotest.test_case "savings: dead value (Fig 6)" `Quick test_savings_write_unit_dead;
    Alcotest.test_case "savings: reads (Fig 6)" `Quick test_savings_write_unit_reads;
    Alcotest.test_case "savings: LRF beats ORF" `Quick test_savings_lrf_beats_orf;
    Alcotest.test_case "savings: read unit (Fig 9)" `Quick test_savings_read_unit;
    Alcotest.test_case "savings: priority" `Quick test_savings_priority;
    Alcotest.test_case "savings: cost override" `Quick test_savings_cost_entries_override;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "alloc: LRF chain" `Quick test_alloc_lrf_chain;
    Alcotest.test_case "alloc: long-latency MRF only" `Quick test_alloc_long_latency_mrf_only;
    Alcotest.test_case "alloc: dead value elision" `Quick test_alloc_dead_value_elision;
    Alcotest.test_case "alloc: read operand (4.4)" `Quick test_alloc_read_operand;
    Alcotest.test_case "alloc: read operand disabled" `Quick test_alloc_read_operand_disabled;
    Alcotest.test_case "alloc: partial range (4.3)" `Quick test_alloc_partial_range;
    Alcotest.test_case "alloc: Fig 10(c) shared entry" `Quick test_alloc_fig10c_shared_entry;
    Alcotest.test_case "alloc: Fig 10(a) MRF merge" `Quick test_alloc_fig10a_merge_from_mrf;
    Alcotest.test_case "alloc: split LRF slots" `Quick test_alloc_split_lrf_slot_constraint;
    Alcotest.test_case "alloc: wide values" `Quick test_alloc_wide_values;
    Alcotest.test_case "alloc: strand crossing" `Quick test_alloc_strand_crossing;
    Alcotest.test_case "verify: stale ORF read" `Quick test_verify_catches_bad_src;
    Alcotest.test_case "verify: stale MRF read" `Quick test_verify_catches_missing_mrf_copy;
    Alcotest.test_case "verify: shared LRF read" `Quick test_verify_catches_shared_lrf;
  ]
  @ List.map
      (fun seed ->
        Alcotest.test_case (Printf.sprintf "alloc: hammock seed %d verifies" seed) `Quick
          (test_hammock_kernel seed))
      hammock_seeds
