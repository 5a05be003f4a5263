type result = {
  counts : Energy.Counts.t;
  strand_executions : int;
  full_grants : int;
  partial_grants : int;
  entries_denied : int;
}

let strand_requests (ctx : Alloc.Context.t) (placement : Alloc.Placement.t) =
  let k = ctx.Alloc.Context.kernel in
  let partition = ctx.Alloc.Context.partition in
  let n = max 1 (Strand.Partition.num_strands partition) in
  let used = Array.init n (fun _ -> Hashtbl.create 4) in
  Ir.Kernel.iter_instrs k (fun _ i ->
      let id = i.Ir.Instr.id in
      let s = Strand.Partition.strand_of_instr partition id in
      let touch e = Hashtbl.replace used.(s) e () in
      List.iteri
        (fun pos _ ->
          match Alloc.Placement.src placement ~instr:id ~pos with
          | Alloc.Placement.From_orf e -> touch e
          | Alloc.Placement.From_mrf | Alloc.Placement.From_lrf _ -> ())
        i.Ir.Instr.srcs;
      List.iter (fun (_, e) -> touch e) (Alloc.Placement.fills_of placement ~instr:id);
      match Alloc.Placement.dest placement ~instr:id with
      | Some { Alloc.Placement.to_orf = Some e; _ } -> touch e
      | Some _ | None -> ());
  Array.map Hashtbl.length used

let datapath_of_op op =
  if Ir.Op.is_shared_datapath op then Energy.Model.Shared else Energy.Model.Private

type warp_state = {
  cf : Cf.t;
  mutable grant : int;  (* entries this warp's current strand holds *)
}

let run ?(active = 8) ?(warps = 32) ?(seed = 0x5eed) ?max_dynamic_per_warp ~pool_entries
    ~(config : Alloc.Config.t) ~placement (ctx : Alloc.Context.t) =
  if not config.Alloc.Config.mirror_mrf then
    invalid_arg "Variable_orf.run: the placement must be compiled with mirror_mrf";
  let k = ctx.Alloc.Context.kernel in
  let partition = ctx.Alloc.Context.partition in
  let requests = strand_requests ctx placement in
  let counts = Energy.Counts.create () in
  let pool_free = ref pool_entries in
  let strand_executions = ref 0 in
  let full_grants = ref 0 in
  let partial_grants = ref 0 in
  let entries_denied = ref 0 in
  let mk_warp w = { cf = Cf.create ?max_dynamic:max_dynamic_per_warp k ~warp:w ~seed; grant = 0 } in
  let next_warp = ref (min active warps) in
  let active_set = Queue.create () in
  for w = 0 to min active warps - 1 do
    Queue.add (mk_warp w) active_set
  done;
  let release st =
    pool_free := !pool_free + st.grant;
    st.grant <- 0
  in
  let acquire st strand =
    release st;
    incr strand_executions;
    let want = requests.(strand) in
    let got = min want !pool_free in
    pool_free := !pool_free - got;
    st.grant <- got;
    if got >= want then incr full_grants else incr partial_grants;
    entries_denied := !entries_denied + (want - got)
  in
  (* Entries past the warp's grant fall back to the MRF mirror. *)
  let execute st (i : Ir.Instr.t) =
    Access.count counts placement ~id:i.Ir.Instr.id ~nsrcs:(List.length i.Ir.Instr.srcs)
      ~has_dst:(Option.is_some i.Ir.Instr.dst) ~dp:(datapath_of_op i.Ir.Instr.op) ~n:1
      ~orf_grant:st.grant ~audit_warp:(-1)
  in
  (* Round-robin, one instruction per turn: concurrent strands compete
     for the pool exactly as concurrently-active warps would. *)
  while not (Queue.is_empty active_set) do
    let st = Queue.pop active_set in
    (match Cf.peek st.cf with
     | None ->
       release st;
       if !next_warp < warps then begin
         Queue.add (mk_warp !next_warp) active_set;
         incr next_warp
       end
     | Some i ->
       if Strand.Partition.starts_strand partition i.Ir.Instr.id then
         acquire st (Strand.Partition.strand_of_instr partition i.Ir.Instr.id);
       execute st i;
       Cf.advance st.cf;
       Queue.add st active_set)
  done;
  {
    counts;
    strand_executions = !strand_executions;
    full_grants = !full_grants;
    partial_grants = !partial_grants;
    entries_denied = !entries_denied;
  }
