let m_runs = Obs.Metrics.counter "alloc.runs"
let m_write_units = Obs.Metrics.counter "alloc.write_units"
let m_read_units = Obs.Metrics.counter "alloc.read_units"
let m_lrf_allocated = Obs.Metrics.counter "alloc.lrf_allocated"
let m_orf_allocated = Obs.Metrics.counter "alloc.orf_allocated"
let m_partial_allocated = Obs.Metrics.counter "alloc.partial_allocated"
let m_unit_savings = Obs.Metrics.histogram "alloc.unit_savings"

type stats = {
  write_units : int;
  read_units : int;
  lrf_allocated : int;
  orf_allocated : int;
  partial_allocated : int;
}

type kind =
  | Write_unit of { defs : int list }
  | Read_unit

(* One allocation candidate: a value (or MRF-resident read range) and
   the reads an upper-level copy would serve. *)
type cand = {
  id : int;  (* dense per-run index; keys the explainer's side table *)
  kind : kind;
  reg : Ir.Reg.t;
  strand : int;
  mutable covered : Analysis.Duchain.read list;  (* ascending by instr; head of a
                                                    Read_unit is the MRF-served fill *)
  mutable mrf_write_required : bool;             (* write units only *)
  width : int;
  producer_dp : Energy.Model.datapath;
  lrf_bank : int option;  (* eligible LRF bank, if any *)
}

let datapath_of_op op =
  if Ir.Op.is_shared_datapath op then Energy.Model.Shared else Energy.Model.Private

let consumer_dp k (r : Analysis.Duchain.read) =
  datapath_of_op (Ir.Kernel.instr k r.Analysis.Duchain.read_instr).Ir.Instr.op

(* Half-open occupancy span: the write occupies at least its own slot,
   and protection extends up to (excluding) the last covered read. *)
let interval_of cand =
  match cand.kind, cand.covered with
  | Write_unit { defs }, [] ->
    let d = List.fold_left min max_int defs in
    (d, d + 1)
  | Write_unit { defs }, reads ->
    let d = List.fold_left min max_int defs in
    let last = List.fold_left (fun acc r -> max acc r.Analysis.Duchain.read_instr) d reads in
    (d, max last (d + 1))
  | Read_unit, [] -> invalid_arg "Allocator: empty read unit"
  | Read_unit, (r0 :: _ as reads) ->
    let last =
      List.fold_left (fun acc r -> max acc r.Analysis.Duchain.read_instr)
        r0.Analysis.Duchain.read_instr reads
    in
    (r0.Analysis.Duchain.read_instr, max last (r0.Analysis.Duchain.read_instr + 1))

let savings_of config k target cand =
  match cand.kind with
  | Write_unit _ ->
    let reads = List.map (consumer_dp k) cand.covered in
    Savings.write_unit config ~target ~producer_dp:cand.producer_dp ~reads
      ~mrf_write_required:cand.mrf_write_required
  | Read_unit ->
    (match target with
     | `Lrf -> neg_infinity  (* read units are ORF-only *)
     | `Orf -> Savings.read_unit config ~reads:(List.map (consumer_dp k) cand.covered))

let priority_of config k target cand =
  let first, last = interval_of cand in
  Savings.priority ~savings:(savings_of config k target cand) ~first ~last

(* Drop the last covered read (Sec. 4.3's iterative shortening).
   Returns false when the candidate cannot be shortened further. *)
let shorten cand =
  match cand.kind, List.rev cand.covered with
  | Write_unit _, (_ :: (_ :: _ as rev_rest)) ->
    cand.covered <- List.rev rev_rest;
    cand.mrf_write_required <- true;
    true
  | Write_unit _, _ -> false
  | Read_unit, (_ :: rest) when List.length rest >= 2 ->
    cand.covered <- List.rev rest;
    true
  | Read_unit, _ -> false

let dedup_reads reads =
  let compare_read (a : Analysis.Duchain.read) (b : Analysis.Duchain.read) =
    compare
      (a.Analysis.Duchain.read_instr, a.Analysis.Duchain.slot)
      (b.Analysis.Duchain.read_instr, b.Analysis.Duchain.slot)
  in
  List.sort_uniq compare_read reads

(* Assemble one write unit given its defs and the reads it may cover. *)
let make_write_unit config (ctx : Context.t) ~defs ~reg ~strand ~reads ~extra_uncovered =
  let k = ctx.Context.kernel in
  let partition = ctx.Context.partition in
  let def_instrs = List.map (Ir.Kernel.instr k) defs in
  let safe (r : Analysis.Duchain.read) =
    Strand.Partition.strand_of_instr partition r.Analysis.Duchain.read_instr = strand
    && Strand.Must_defined.must_defined_before ctx.Context.must_defined
         ~instr_id:r.Analysis.Duchain.read_instr reg
  in
  let covered, uncovered = List.partition safe reads in
  let width =
    List.fold_left (fun acc (i : Ir.Instr.t) -> max acc (Ir.Width.words i.Ir.Instr.width)) 1
      def_instrs
  in
  let producer_dp =
    if List.exists (fun (i : Ir.Instr.t) -> Ir.Op.is_shared_datapath i.Ir.Instr.op) def_instrs
    then Energy.Model.Shared
    else Energy.Model.Private
  in
  let lrf_bank =
    if producer_dp <> Energy.Model.Private || width > 1 then None
    else if List.exists (fun r -> consumer_dp k r = Energy.Model.Shared) covered then None
    else begin
      match config.Config.lrf with
      | Config.No_lrf -> None
      | Config.Unified -> Some 0
      | Config.Split ->
        (match covered with
         | [] -> Some 0
         | r0 :: rest ->
           let slot = r0.Analysis.Duchain.slot in
           if List.for_all (fun (r : Analysis.Duchain.read) -> r.Analysis.Duchain.slot = slot) rest
           then Some slot
           else None)
    end
  in
  {
    id = -1;  (* renumbered once all units of the run exist *)
    kind = Write_unit { defs };
    reg;
    strand;
    covered;
    mrf_write_required = extra_uncovered || uncovered <> [];
    width;
    producer_dp;
    lrf_bank;
  }

(* Build the write units for one def-use group.

   A group whose definitions all sit in one strand becomes a single
   unit covering merged reads too (Fig. 10(c): all definitions target
   the same entry).  Otherwise — loop-carried or cross-strand groups,
   e.g. induction variables — each definition becomes its own unit
   covering only the reads it reaches uniquely; reads merged with other
   definitions stay in the MRF. *)
let build_write_units config (ctx : Context.t) (members : Analysis.Duchain.instance list) =
  let k = ctx.Context.kernel in
  let partition = ctx.Context.partition in
  match members with
  | [] -> []
  | (first_member : Analysis.Duchain.instance) :: _ ->
    let reg = first_member.Analysis.Duchain.reg in
    let defs = List.map (fun (m : Analysis.Duchain.instance) -> m.Analysis.Duchain.def) members in
    let def_instrs = List.map (Ir.Kernel.instr k) defs in
    let any_long_latency = List.exists Ir.Instr.is_long_latency def_instrs in
    let strands = List.map (Strand.Partition.strand_of_instr partition) defs in
    let strand = List.hd strands in
    let same_strand_defs = List.for_all (Int.equal strand) strands in
    if same_strand_defs && not any_long_latency then begin
      let reads =
        dedup_reads
          (List.concat_map (fun (m : Analysis.Duchain.instance) -> m.Analysis.Duchain.reads) members)
      in
      [ make_write_unit config ctx ~defs ~reg ~strand ~reads ~extra_uncovered:false ]
    end
    else
      (* Per-definition fallback: cover only uniquely reached reads. *)
      List.filter_map
        (fun (m : Analysis.Duchain.instance) ->
          let d = m.Analysis.Duchain.def in
          if Ir.Instr.is_long_latency (Ir.Kernel.instr k d) then None
          else begin
            let unique, shared_reads =
              List.partition
                (fun (r : Analysis.Duchain.read) ->
                  match
                    Analysis.Reaching.reaching_before ctx.Context.reaching
                      ~instr_id:r.Analysis.Duchain.read_instr reg
                  with
                  | [ only ] -> only = d
                  | [] | _ :: _ -> false)
                m.Analysis.Duchain.reads
            in
            Some
              (make_write_unit config ctx ~defs:[ d ] ~reg
                 ~strand:(Strand.Partition.strand_of_instr partition d)
                 ~reads:(dedup_reads unique) ~extra_uncovered:(shared_reads <> []))
          end)
        members

(* Build read units (Sec. 4.4): per (strand, register), reads whose
   reaching definitions all lie outside the strand. *)
let build_read_units (ctx : Context.t) =
  let k = ctx.Context.kernel in
  let partition = ctx.Context.partition in
  let reaching = ctx.Context.reaching in
  let table : (int * Ir.Reg.t, Analysis.Duchain.read list) Hashtbl.t = Hashtbl.create 64 in
  Ir.Kernel.iter_instrs k (fun _ i ->
      let id = i.Ir.Instr.id in
      let strand = Strand.Partition.strand_of_instr partition id in
      List.iteri
        (fun slot r ->
          let defs = Analysis.Reaching.reaching_before reaching ~instr_id:id r in
          let all_outside =
            List.for_all (fun d -> Strand.Partition.strand_of_instr partition d <> strand) defs
          in
          if all_outside then begin
            let key = (strand, r) in
            let prev = Option.value ~default:[] (Hashtbl.find_opt table key) in
            Hashtbl.replace table key ({ Analysis.Duchain.read_instr = id; slot } :: prev)
          end)
        i.Ir.Instr.srcs);
  Hashtbl.fold
    (fun (strand, reg) reads acc ->
      match dedup_reads reads with
      | [] | [ _ ] -> acc  (* a single read cannot profit *)
      | first :: rest ->
        (* Later reads must be dominated by the fill read so the ORF
           copy exists on every path — and must execute strictly after
           it: the fill cannot serve another slot of its own
           instruction. *)
        let dominated =
          List.filter
            (fun (r : Analysis.Duchain.read) ->
              r.Analysis.Duchain.read_instr > first.Analysis.Duchain.read_instr
              && Analysis.Dominance.instr_dominates k ctx.Context.dominance
                   first.Analysis.Duchain.read_instr r.Analysis.Duchain.read_instr)
            rest
        in
        if dominated = [] then acc
        else
          {
            id = -1;
            kind = Read_unit;
            reg;
            strand;
            covered = first :: dominated;
            mrf_write_required = true;
            width = 1;
            producer_dp = Energy.Model.Private;
            lrf_bank = None;
          }
          :: acc)
    table []
  |> List.sort (fun a b -> compare (interval_of a) (interval_of b))

(* Report one allocation decision to the metrics registry and the
   audit sink (Obs.Audit). *)
let audit_alloc config k target c ~slot ~partial =
  let savings = savings_of config k target c in
  Obs.Metrics.observe m_unit_savings savings;
  if Obs.Audit.is_enabled () then begin
    let first, last = interval_of c in
    Obs.Audit.emit
      (Obs.Audit.Alloc
         {
           reg = Ir.Reg.to_string c.reg;
           kind =
             (match c.kind with
              | Write_unit _ -> Obs.Audit.Write_unit
              | Read_unit -> Obs.Audit.Read_unit);
           strand = c.strand;
           level = (match target with `Lrf -> Obs.Audit.Lrf | `Orf -> Obs.Audit.Orf);
           slot;
           first;
           last;
           reads = List.length c.covered;
           savings;
           partial;
           mrf_copy = c.mrf_write_required;
         })
  end

(* ------------------------------------------------------------------ *)
(* Explainer side table.  When Obs.Explain is enabled, one [trail] per
   candidate accumulates what the two phases concluded about it;
   everything is emitted at the end of the run in candidate-id order,
   so the event stream is deterministic regardless of the priority
   order in which the queues drained.  When disabled, none of this is
   allocated and the per-decision cost is zero. *)

type trail = {
  mutable t_lrf : Obs.Explain.candidate option;
  mutable t_orf : Obs.Explain.candidate option;
  mutable t_shortened : int;
  mutable t_outcome : Obs.Explain.outcome;
  t_initial_reads : int;
}

(* Savings estimates can be [neg_infinity] — or raise — for
   structurally impossible pairings (the energy model refuses an LRF
   wired to the shared datapath); clamp for the event stream so the
   JSONL stays finite. *)
let finite s = if Float.is_finite s then s else 0.0

let safe_savings config k lvl c =
  match savings_of config k lvl c with
  | s -> finite s
  | exception Invalid_argument _ -> 0.0

(* Re-derive why [make_write_unit] withheld an LRF bank (it collapses
   the reasons into [lrf_bank = None]); explain-path only, so the extra
   walk over covered reads is fine. *)
let lrf_ineligibility config k c =
  match c.kind with
  | Read_unit -> "read units are ORF-only"
  | Write_unit _ ->
    if config.Config.lrf = Config.No_lrf then "no LRF in this configuration"
    else if c.producer_dp <> Energy.Model.Private then "shared-datapath producer"
    else if c.width > 1 then "wide (multi-word) value"
    else if List.exists (fun r -> consumer_dp k r = Energy.Model.Shared) c.covered then
      "shared-datapath consumer"
    else if
      config.Config.lrf = Config.Split
      && (match c.covered with
         | [] -> false
         | r0 :: rest ->
           not
             (List.for_all
                (fun (r : Analysis.Duchain.read) ->
                  r.Analysis.Duchain.slot = r0.Analysis.Duchain.slot)
                rest))
    then "covered reads span operand slots"
    else "not LRF-eligible"

let emit_decisions k trails units =
  List.iter
    (fun c ->
      let t = trails.(c.id) in
      let first, last = interval_of c in
      Obs.Explain.emit
        {
          Obs.Explain.seq = c.id;
          kernel = k.Ir.Kernel.name;
          reg = Ir.Reg.to_string c.reg;
          kind = (match c.kind with Write_unit _ -> "write_unit" | Read_unit -> "read_unit");
          strand = c.strand;
          width = c.width;
          first;
          last;
          defs = (match c.kind with Write_unit { defs } -> defs | Read_unit -> []);
          covered =
            List.map
              (fun (r : Analysis.Duchain.read) ->
                (r.Analysis.Duchain.read_instr, r.Analysis.Duchain.slot))
              c.covered;
          dropped_reads = t.t_initial_reads - List.length c.covered;
          mrf_copy = c.mrf_write_required;
          candidates = List.filter_map Fun.id [ t.t_lrf; t.t_orf ];
          outcome = t.t_outcome;
        })
    units

(* Per-instruction static occupancy of one strand-local structure, for
   the counter tracks: entries reserved over [at, at+1). *)
let occupied_at occ ~at =
  let n = Occupancy.entries occ in
  let c = ref 0 in
  for e = 0 to n - 1 do
    if not (Occupancy.available occ ~entry:e ~first:at ~last:(at + 1)) then incr c
  done;
  !c

let run_inner config (ctx : Context.t) =
  let k = ctx.Context.kernel in
  let placement = Placement.baseline k in
  let duchain = ctx.Context.duchain in
  (* Sampled once per run: the allocator hot path sees one bool. *)
  let ex = Obs.Explain.is_enabled () in
  (* Write units: one per def-use group, visiting each group once. *)
  let seen_groups = Hashtbl.create 64 in
  let write_units =
    List.concat_map
      (fun (inst : Analysis.Duchain.instance) ->
        let g = inst.Analysis.Duchain.group in
        if Hashtbl.mem seen_groups g then []
        else begin
          Hashtbl.add seen_groups g ();
          build_write_units config ctx (Analysis.Duchain.group_members duchain g)
        end)
      (Analysis.Duchain.instances duchain)
  in
  let read_units = if config.Config.read_operands then build_read_units ctx else [] in
  (* Dense ids: write units first, then read units, in construction
     order.  The renumbering copies are what every later phase works
     on, so physical-identity bookkeeping below stays coherent. *)
  let write_units = List.mapi (fun i c -> { c with id = i }) write_units in
  let nw = List.length write_units in
  let read_units = List.mapi (fun i c -> { c with id = nw + i }) read_units in
  let all_units = write_units @ read_units in
  let trails =
    if ex then
      Array.of_list
        (List.map
           (fun c ->
             {
               t_lrf = None;
               t_orf = None;
               t_shortened = 0;
               t_outcome = Obs.Explain.To_mrf;
               t_initial_reads = List.length c.covered;
             })
           all_units)
    else [||]
  in
  let trail c = trails.(c.id) in
  (* Pre-drain LRF verdicts for candidates the queue will never see:
     structurally ineligible ones and those with non-positive savings. *)
  if ex then
    List.iter
      (fun c ->
        if c.lrf_bank = None then
          (trail c).t_lrf <-
            Some
              {
                Obs.Explain.level = "lrf";
                savings =
                  (match c.kind with
                  | Write_unit _ -> safe_savings config k `Lrf c
                  | Read_unit -> 0.0);
                verdict = Obs.Explain.Ineligible (lrf_ineligibility config k c);
              }
        else begin
          let s = savings_of config k `Lrf c in
          if s <= 0.0 then
            (trail c).t_lrf <-
              Some
                {
                  Obs.Explain.level = "lrf";
                  savings = finite s;
                  verdict = Obs.Explain.Negative_savings;
                }
        end)
      all_units;
  (* Per-strand occupancy maps. *)
  let num_strands = Strand.Partition.num_strands ctx.Context.partition in
  let orf_occ = Array.init num_strands (fun _ -> Occupancy.create ~entries:config.Config.orf_entries) in
  let lrf_occ = Array.init num_strands (fun _ -> Occupancy.create ~entries:(Config.lrf_banks config)) in
  let stats = ref { write_units = List.length write_units; read_units = List.length read_units;
                    lrf_allocated = 0; orf_allocated = 0; partial_allocated = 0 } in
  (* Phase 1: LRF. *)
  let cmp_by p a b = compare (p a) (p b) in
  let lrf_queue =
    Util.Pqueue.of_list ~cmp:(cmp_by (priority_of config k `Lrf))
      (List.filter
         (fun c -> c.lrf_bank <> None && savings_of config k `Lrf c > 0.0)
         write_units)
  in
  let lrf_allocs : (cand * int) list ref = ref [] in
  (* Physical identity: structurally equal candidates must stay distinct. *)
  let lrf_done : cand list ref = ref [] in
  let rec drain_lrf () =
    match Util.Pqueue.pop lrf_queue with
    | None -> ()
    | Some c ->
      let first, last = interval_of c in
      let bank =
        match config.Config.lrf, c.lrf_bank with
        | Config.Unified, Some b -> if Occupancy.available lrf_occ.(c.strand) ~entry:b ~first ~last then Some b else None
        | Config.Split, Some b ->
          (* A candidate with no covered reads may use any free bank. *)
          if c.covered = [] then Occupancy.find_free lrf_occ.(c.strand) ~width:1 ~first ~last
          else if Occupancy.available lrf_occ.(c.strand) ~entry:b ~first ~last then Some b
          else None
        | (Config.No_lrf | Config.Unified | Config.Split), None -> None
        | Config.No_lrf, Some _ -> None
      in
      (match bank with
       | Some b ->
         Occupancy.reserve lrf_occ.(c.strand) ~entry:b ~first ~last;
         lrf_allocs := (c, b) :: !lrf_allocs;
         lrf_done := c :: !lrf_done;
         audit_alloc config k `Lrf c ~slot:b ~partial:false;
         if ex then begin
           (trail c).t_lrf <-
             Some
               {
                 Obs.Explain.level = "lrf";
                 savings = finite (savings_of config k `Lrf c);
                 verdict = Obs.Explain.Chosen;
               };
           (trail c).t_outcome <- Obs.Explain.To_lrf { bank = b }
         end;
         stats := { !stats with lrf_allocated = !stats.lrf_allocated + 1 }
       | None ->
         if ex then
           (trail c).t_lrf <-
             Some
               {
                 Obs.Explain.level = "lrf";
                 savings = finite (savings_of config k `Lrf c);
                 verdict = Obs.Explain.No_free_slot;
               });
      drain_lrf ()
  in
  drain_lrf ();
  (* Phase 2: ORF for everything not already in the LRF. *)
  let orf_candidates =
    List.filter (fun c -> not (List.memq c !lrf_done)) write_units @ read_units
  in
  (* Variable-ORF support (Sec. 7): every ORF-resident value keeps an
     MRF copy so a warp granted fewer entries can fall back to it.
     LRF values are exempt — LRF banks are per-warp, never pooled. *)
  if config.Config.mirror_mrf then
    List.iter
      (fun c -> match c.kind with Write_unit _ -> c.mrf_write_required <- true | Read_unit -> ())
      orf_candidates;
  if ex then
    List.iter
      (fun c ->
        let s = savings_of config k `Orf c in
        if s <= 0.0 then
          (trail c).t_orf <-
            Some
              {
                Obs.Explain.level = "orf";
                savings = finite s;
                verdict = Obs.Explain.Negative_savings;
              })
      orf_candidates;
  let orf_queue =
    Util.Pqueue.of_list ~cmp:(cmp_by (priority_of config k `Orf))
      (List.filter (fun c -> savings_of config k `Orf c > 0.0) orf_candidates)
  in
  let orf_allocs : (cand * int) list ref = ref [] in
  let rec drain_orf () =
    match Util.Pqueue.pop orf_queue with
    | None -> ()
    | Some c ->
      let rec attempt ~shortened =
        let s = savings_of config k `Orf c in
        if s <= 0.0 then begin
          (* Shortening drove the estimate negative: give up. *)
          if ex then
            (trail c).t_orf <-
              Some
                {
                  Obs.Explain.level = "orf";
                  savings = finite s;
                  verdict = Obs.Explain.Negative_savings;
                }
        end
        else begin
          let first, last = interval_of c in
          match Occupancy.find_free orf_occ.(c.strand) ~width:c.width ~first ~last with
          | Some e ->
            Occupancy.reserve_range orf_occ.(c.strand) ~entry:e ~width:c.width ~first ~last;
            orf_allocs := (c, e) :: !orf_allocs;
            audit_alloc config k `Orf c ~slot:e ~partial:shortened;
            if ex then begin
              (trail c).t_orf <-
                Some
                  { Obs.Explain.level = "orf"; savings = finite s; verdict = Obs.Explain.Chosen };
              (trail c).t_outcome <-
                Obs.Explain.To_orf { entry = e; shortened = (trail c).t_shortened }
            end;
            stats :=
              { !stats with
                orf_allocated = !stats.orf_allocated + 1;
                partial_allocated = !stats.partial_allocated + (if shortened then 1 else 0) }
          | None ->
            if config.Config.partial_ranges && shorten c then begin
              if ex then (trail c).t_shortened <- (trail c).t_shortened + 1;
              attempt ~shortened:true
            end
            else if ex then
              (trail c).t_orf <-
                Some
                  {
                    Obs.Explain.level = "orf";
                    savings = finite s;
                    verdict = Obs.Explain.No_free_slot;
                  }
        end
      in
      attempt ~shortened:false;
      drain_orf ()
  in
  drain_orf ();
  (* Emit placements. *)
  let set_covered_srcs level c =
    List.iter
      (fun (r : Analysis.Duchain.read) ->
        Placement.set_src placement ~instr:r.Analysis.Duchain.read_instr
          ~pos:r.Analysis.Duchain.slot level)
      c.covered
  in
  (* Only the definitions inside the unit's reserved interval write the
     upper level.  A later definition of a merged group (a hammock side
     past the last covered read, or one whose reads were shortened
     away) reaches none of the covered reads — strands hold no cycles —
     and its write would clobber whatever holds the entry after the
     interval ends; it goes to the MRF only. *)
  let set_defs_dest c dest =
    match c.kind with
    | Write_unit { defs } ->
      let _, last = interval_of c in
      List.iter
        (fun d ->
          Placement.set_dest placement ~instr:d (if d < last then dest else Placement.mrf_only))
        defs
    | Read_unit -> assert false
  in
  List.iter
    (fun (c, bank) ->
      set_defs_dest c
        { Placement.to_lrf = Some bank; to_orf = None; to_mrf = c.mrf_write_required };
      set_covered_srcs (Placement.From_lrf bank) c)
    !lrf_allocs;
  List.iter
    (fun (c, entry) ->
      match c.kind with
      | Write_unit _ ->
        set_defs_dest c
          { Placement.to_lrf = None; to_orf = Some entry; to_mrf = c.mrf_write_required };
        set_covered_srcs (Placement.From_orf entry) c
      | Read_unit ->
        (match c.covered with
         | [] -> assert false
         | fill :: rest ->
           Placement.add_fill placement ~instr:fill.Analysis.Duchain.read_instr
             ~pos:fill.Analysis.Duchain.slot ~entry;
           List.iter
             (fun (r : Analysis.Duchain.read) ->
               Placement.set_src placement ~instr:r.Analysis.Duchain.read_instr
                 ~pos:r.Analysis.Duchain.slot (Placement.From_orf entry))
             rest))
    !orf_allocs;
  if ex then emit_decisions k trails all_units;
  (* Static ORF/LRF occupancy over the instruction stream, as counter
     tracks (simulated time = instruction id). *)
  if Obs.Counters.is_enabled () then begin
    let n = Ir.Kernel.instr_count k in
    for i = 0 to n - 1 do
      let strand = Strand.Partition.strand_of_instr ctx.Context.partition i in
      Obs.Counters.sample "alloc.orf_occupancy" ~at:(float_of_int i)
        (float_of_int (occupied_at orf_occ.(strand) ~at:i));
      Obs.Counters.sample "alloc.lrf_occupancy" ~at:(float_of_int i)
        (float_of_int (occupied_at lrf_occ.(strand) ~at:i))
    done
  end;
  let s = !stats in
  Obs.Metrics.incr m_runs;
  Obs.Metrics.incr ~by:s.write_units m_write_units;
  Obs.Metrics.incr ~by:s.read_units m_read_units;
  Obs.Metrics.incr ~by:s.lrf_allocated m_lrf_allocated;
  Obs.Metrics.incr ~by:s.orf_allocated m_orf_allocated;
  Obs.Metrics.incr ~by:s.partial_allocated m_partial_allocated;
  (placement, s)

let run config ctx = Obs.Span.with_span "allocate" (fun () -> run_inner config ctx)

let place config ctx = fst (run config ctx)
