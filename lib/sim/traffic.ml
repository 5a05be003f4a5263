type hw_options = {
  rfc_entries : int;
  with_lrf : bool;
  flush_on_backward_branch : bool;
  never_flush : bool;
}

let hw_defaults ~rfc_entries =
  { rfc_entries; with_lrf = false; flush_on_backward_branch = false; never_flush = false }

type scheme =
  | Baseline
  | Sw of { config : Alloc.Config.t; placement : Alloc.Placement.t }
  | Hw of hw_options

type result = {
  counts : Energy.Counts.t;
  per_strand : Energy.Counts.t array;
  dynamic_instrs : int;
  desched_events : int;
  capped_warps : int;
}

let m_runs = Obs.Metrics.counter "sim.traffic.runs"
let m_dynamic = Obs.Metrics.counter "sim.traffic.dynamic_instrs"
let m_desched = Obs.Metrics.counter "sim.traffic.desched_events"
let m_capped = Obs.Metrics.counter "sim.traffic.capped_warps"

let default_max_dynamic_per_warp = Cf.default_max_dynamic

(* Dynamic-instruction window width for the counter tracks. *)
let counter_window = 32

let run_inner ?(warps = 32) ?(seed = 0x5eed) ?max_dynamic_per_warp ?(long_latency_shadow = 50)
    ?(attribution = false) ?scratch (ctx : Alloc.Context.t) scheme =
  let s = match scratch with Some s -> s | None -> Scratch.domain_local () in
  let k = ctx.Alloc.Context.kernel in
  let dec = Scratch.dec_for s ctx in
  let partition = ctx.Alloc.Context.partition in
  let num_strands = max 1 (Strand.Partition.num_strands partition) in
  let per_strand = Array.init num_strands (fun _ -> Energy.Counts.create ()) in
  if attribution then
    Array.iter
      (fun c -> Energy.Counts.enable_attribution c ~instrs:(Ir.Kernel.instr_count k))
      per_strand;
  let desched_events = ref 0 in
  let dynamic_instrs = ref 0 in
  let capped_warps = ref 0 in
  (* Audit enablement is sampled once per run: the sink never changes
     mid-run, and the hot path must not pay for a closure per access.
     Counter sampling follows the same discipline. *)
  let au = Obs.Audit.is_enabled () in
  let co = Obs.Counters.is_enabled () in
  (* Per-level accesses per window of warp-local dynamic instructions,
     summed across warps; window index is the simulated timestamp. *)
  let level_bins = Array.init 3 (fun _ -> Hashtbl.create (if co then 32 else 0)) in
  let bin_bump tbl w n =
    if n <> 0 then
      match Hashtbl.find_opt tbl w with
      | Some r -> r := !r + n
      | None -> Hashtbl.add tbl w (ref n)
  in
  let level_total c l = Energy.Counts.reads c l + Energy.Counts.writes c l in
  let nr = max 1 k.Ir.Kernel.num_regs in
  let max_dynamic =
    match max_dynamic_per_warp with Some m -> m | None -> default_max_dynamic_per_warp
  in
  (* Baseline is the compiler-managed rule over the all-MRF placement,
     without the SW deschedule points. *)
  let placement, sw =
    match scheme with
    | Sw { placement; _ } -> (placement, true)
    | Baseline | Hw _ -> (Alloc.Placement.baseline k, false)
  in
  Scratch.ensure_warps s ~warps ~num_regs:nr;
  Scratch.ensure_outstanding s nr;
  (* All loop helpers take every variable as an argument: a [let rec]
     closing over locals of an enclosing per-call function would
     allocate a closure on each call. *)
  let rec src_mem srcs base p n r = p < n && (srcs.(base + p) = r || src_mem srcs base (p + 1) n r) in
  (* Liveness of [r] just before instruction [id] executes. *)
  let live_before_id id r =
    src_mem dec.Dec.srcs (id * Dec.max_srcs) 0 dec.Dec.nsrcs.(id) r
    || (dec.Dec.dst.(id) <> r
        && Analysis.Liveness.live_after_instr ctx.Alloc.Context.liveness ~instr_id:id r)
  in
  (* Per-warp outstanding long-latency writes — a flat (register, issue
     index) buffer in the scratch, compacted as entries resolve after a
     fixed warp-local instruction distance.  Entry order is immaterial:
     the observables are membership and non-emptiness. *)
  let rec out_keep reg at n now i m =
    if i >= n then m
    else if now - at.(i) < long_latency_shadow then begin
      reg.(m) <- reg.(i);
      at.(m) <- at.(i);
      out_keep reg at n now (i + 1) (m + 1)
    end
    else out_keep reg at n now (i + 1) m
  in
  let o_expire now =
    s.Scratch.out_len <- out_keep s.Scratch.out_reg s.Scratch.out_at s.Scratch.out_len now 0 0
  in
  let rec out_drop reg at n r i m =
    if i >= n then m
    else if reg.(i) = r then out_drop reg at n r (i + 1) m
    else begin
      reg.(m) <- reg.(i);
      at.(m) <- at.(i);
      out_drop reg at n r (i + 1) (m + 1)
    end
  in
  let o_add r now =
    o_expire now;
    let reg = s.Scratch.out_reg in
    let at = s.Scratch.out_at in
    let m = out_drop reg at s.Scratch.out_len r 0 0 in
    reg.(m) <- r;
    at.(m) <- now;
    s.Scratch.out_len <- m + 1
  in
  let rec out_mem reg n r i = i < n && (reg.(i) = r || out_mem reg n r (i + 1)) in
  let o_blocks r now =
    o_expire now;
    out_mem s.Scratch.out_reg s.Scratch.out_len r 0
  in
  let rec any_blocks srcs base p n now =
    p < n && (o_blocks srcs.(base + p) now || any_blocks srcs base (p + 1) n now)
  in
  let o_any now =
    o_expire now;
    s.Scratch.out_len > 0
  in
  (* Precomputed static facts for the hardware scheme. *)
  let shared_consumer =
    let a = Array.make (Ir.Kernel.instr_count k) false in
    List.iter
      (fun (inst : Analysis.Duchain.instance) ->
        if
          List.exists
            (fun (r : Analysis.Duchain.read) ->
              Ir.Op.is_shared_datapath (Ir.Kernel.instr k r.Analysis.Duchain.read_instr).Ir.Instr.op)
            inst.Analysis.Duchain.reads
        then a.(inst.Analysis.Duchain.def) <- true)
      (Analysis.Duchain.instances ctx.Alloc.Context.duchain);
    a
  in
  let backward_block_last_instr =
    let s = Hashtbl.create 8 in
    Array.iter
      (fun (b : Ir.Block.t) ->
        if Ir.Terminator.is_backward b.Ir.Block.term ~at:b.Ir.Block.label then
          Option.iter (fun id -> Hashtbl.add s id ()) (Ir.Block.last_id b))
      k.Ir.Kernel.blocks;
    s
  in
  let run_warp warp =
    let cf = Scratch.cf s warp ~max_dynamic k ~warp ~seed in
    s.Scratch.out_len <- 0;
    let rfc, hw_lrf =
      match scheme with
      | Hw opts ->
        ( Some (Machine.Tagged_cache.create ~entries:opts.rfc_entries),
          if opts.with_lrf then Some (Machine.Tagged_cache.create ~entries:1) else None )
      | Baseline | Sw _ -> (None, None)
    in
    (* Every Energy.Counts write below is mirrored by an audit placement
       event (guarded on [au] so the common disabled path stays a plain
       counter bump): summing Place events per level therefore
       reproduces the Energy.Counts write totals exactly. *)
    let audit_warp = if au then warp else -1 in
    let place c level dp ~instr = Access.write c level dp ~id:instr ~n:1 ~audit_warp in
    let desched ~instr cause =
      incr desched_events;
      if au then Obs.Audit.emit (Obs.Audit.Desched { warp; instr; cause })
    in
    let evict ~instr level ~writeback =
      if au then
        Obs.Audit.emit
          (Obs.Audit.Evict { warp; instr; level = Access.audit_level level; writeback })
    in
    (* Write one evicted value back to the MRF if still live at the
       eviction point. *)
    let writeback c ~liveness_check ~instr level reg =
      if liveness_check reg then begin
        Energy.Counts.bump_read c level Energy.Model.Private ~pc:instr ~n:1;
        evict ~instr level ~writeback:true;
        place c Energy.Model.Mrf Energy.Model.Private ~instr
      end
      else evict ~instr level ~writeback:false
    in
    let insert_rfc c cache ~liveness_check ~instr reg =
      Option.iter
        (writeback c ~liveness_check ~instr Energy.Model.Rfc)
        (Machine.Tagged_cache.insert cache reg);
      place c Energy.Model.Rfc Energy.Model.Private ~instr
    in
    let flush_caches c instr =
      let liveness_check = live_before_id instr in
      let flush level cache =
        List.iter (writeback c ~liveness_check ~instr level) (Machine.Tagged_cache.flush cache)
      in
      Option.iter (flush Energy.Model.Lrf) hw_lrf;
      Option.iter (flush Energy.Model.Rfc) rfc
    in
    let rec step () =
      let id = Cf.peek_id cf in
      if id < 0 then begin
        if Cf.hit_cap cf then incr capped_warps
      end
      else begin
        let now = Cf.dynamic_count cf in
        let c = per_strand.(Strand.Partition.strand_of_instr partition id) in
        let consumer_dp =
          if dec.Dec.shared_dp.(id) then Energy.Model.Shared else Energy.Model.Private
        in
        let ns = dec.Dec.nsrcs.(id) in
        let d = dec.Dec.dst.(id) in
        (* Per-window counter tracks are deltas over this instruction's
           aggregate counts — exact for every scheme, including cache
           evictions charged to the instruction that triggered them. *)
        let b_mrf = if co then level_total c Energy.Model.Mrf else 0 in
        let b_orf = if co then level_total c Energy.Model.Orf else 0 in
        let b_lrf = if co then level_total c Energy.Model.Lrf else 0 in
        (match scheme with
         | Baseline | Sw _ ->
           (* Compiler-scheduled deschedule point. *)
           if sw && dec.Dec.starts_strand.(id) && o_any now then begin
             desched ~instr:id Obs.Audit.Sw_boundary;
             s.Scratch.out_len <- 0
           end;
           Access.count c placement ~id ~nsrcs:ns ~has_dst:(d >= 0) ~dp:consumer_dp ~n:1
             ~orf_grant:max_int ~audit_warp;
           if sw && d >= 0 && dec.Dec.is_ll.(id) then o_add d now
         | Hw opts ->
           let cache = Option.get rfc in
           (* Deschedule on an unresolved long-latency dependence. *)
           if any_blocks dec.Dec.srcs (id * Dec.max_srcs) 0 ns now then begin
             desched ~instr:id Obs.Audit.Hw_dependence;
             if not opts.never_flush then flush_caches c id;
             s.Scratch.out_len <- 0
           end;
           for pos = 0 to ns - 1 do
             let r = dec.Dec.srcs.((id * Dec.max_srcs) + pos) in
             let lrf_hit =
               consumer_dp = Energy.Model.Private
               && (match hw_lrf with
                   | Some lrf -> Machine.Tagged_cache.contains lrf r
                   | None -> false)
             in
             if lrf_hit then
               Energy.Counts.bump_read c Energy.Model.Lrf Energy.Model.Private ~pc:id ~n:1
             else if Machine.Tagged_cache.contains cache r then
               Energy.Counts.bump_read c Energy.Model.Rfc consumer_dp ~pc:id ~n:1
             else begin
               Energy.Counts.bump_rfc_probe c ~pc:id ~n:1;
               Energy.Counts.bump_read c Energy.Model.Mrf consumer_dp ~pc:id ~n:1
             end
           done;
           if d >= 0 then begin
             let liveness_check r =
               Analysis.Liveness.live_after_instr ctx.Alloc.Context.liveness ~instr_id:id r
             in
             if dec.Dec.is_ll.(id) then begin
               (* Long-latency results bypass the hierarchy (Sec. 2.2). *)
               place c Energy.Model.Mrf consumer_dp ~instr:id;
               Machine.Tagged_cache.remove cache d;
               Option.iter (fun lrf -> Machine.Tagged_cache.remove lrf d) hw_lrf;
               o_add d now
             end
             else begin
               match hw_lrf with
               | Some lrf when consumer_dp = Energy.Model.Private && not shared_consumer.(id)
                 ->
                 (* LRF insert; evicted value cascades into the RFC. *)
                 Option.iter
                   (fun evicted ->
                     if liveness_check evicted then begin
                       Energy.Counts.bump_read c Energy.Model.Lrf Energy.Model.Private ~pc:id
                         ~n:1;
                       evict ~instr:id Energy.Model.Lrf ~writeback:true;
                       insert_rfc c cache ~liveness_check ~instr:id evicted
                     end
                     else evict ~instr:id Energy.Model.Lrf ~writeback:false)
                   (Machine.Tagged_cache.insert lrf d);
                 place c Energy.Model.Lrf Energy.Model.Private ~instr:id;
                 Machine.Tagged_cache.remove cache d
               | Some _ | None ->
                 insert_rfc c cache ~liveness_check ~instr:id d;
                 Option.iter (fun lrf -> Machine.Tagged_cache.remove lrf d) hw_lrf
             end
           end;
           if opts.flush_on_backward_branch && Hashtbl.mem backward_block_last_instr id then
             flush_caches c id);
        if co then begin
          let w = now / counter_window in
          bin_bump level_bins.(0) w (level_total c Energy.Model.Mrf - b_mrf);
          bin_bump level_bins.(1) w (level_total c Energy.Model.Orf - b_orf);
          bin_bump level_bins.(2) w (level_total c Energy.Model.Lrf - b_lrf)
        end;
        Cf.advance cf;
        step ()
      end
    in
    step ();
    dynamic_instrs := !dynamic_instrs + Cf.dynamic_count cf
  in
  for w = 0 to warps - 1 do
    run_warp w
  done;
  (* Emit the window bins, sorted, as counter samples stamped with the
     warp-local dynamic-instruction index at the window start. *)
  if co then
    List.iteri
      (fun li name ->
        Hashtbl.fold (fun w r acc -> (w, !r) :: acc) level_bins.(li) []
        |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
        |> List.iter (fun (w, v) ->
               Obs.Counters.sample name
                 ~at:(float_of_int (w * counter_window))
                 (float_of_int v)))
      [ "traffic.mrf_accesses"; "traffic.orf_accesses"; "traffic.lrf_accesses" ];
  let counts = Energy.Counts.create () in
  Array.iter (fun c -> Energy.Counts.merge_into ~dst:counts c) per_strand;
  Obs.Metrics.incr m_runs;
  Obs.Metrics.incr ~by:!dynamic_instrs m_dynamic;
  Obs.Metrics.incr ~by:!desched_events m_desched;
  Obs.Metrics.incr ~by:!capped_warps m_capped;
  {
    counts;
    per_strand;
    dynamic_instrs = !dynamic_instrs;
    desched_events = !desched_events;
    capped_warps = !capped_warps;
  }

let run ?warps ?seed ?max_dynamic_per_warp ?long_latency_shadow ?attribution ?scratch ctx
    scheme =
  Obs.Span.with_span "simulate" (fun () ->
      run_inner ?warps ?seed ?max_dynamic_per_warp ?long_latency_shadow ?attribution ?scratch
        ctx scheme)
