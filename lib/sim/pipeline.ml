type compiled = {
  context : Alloc.Context.t;
  config : Alloc.Config.t;
  placement : Alloc.Placement.t;
  stats : Alloc.Allocator.stats;
}

let allocate config context =
  let placement, stats = Alloc.Allocator.run config context in
  { context; config; placement; stats }

let total_stats cs =
  List.fold_left
    (fun (acc : Alloc.Allocator.stats) c ->
      let s = c.stats in
      {
        Alloc.Allocator.write_units = acc.write_units + s.Alloc.Allocator.write_units;
        read_units = acc.read_units + s.read_units;
        lrf_allocated = acc.lrf_allocated + s.lrf_allocated;
        orf_allocated = acc.orf_allocated + s.orf_allocated;
        partial_allocated = acc.partial_allocated + s.partial_allocated;
      })
    {
      Alloc.Allocator.write_units = 0;
      read_units = 0;
      lrf_allocated = 0;
      orf_allocated = 0;
      partial_allocated = 0;
    }
    cs

let verify c = Alloc.Verify.check c.config c.context c.placement

let compile ?(config = Alloc.Config.make ()) kernel =
  let c = allocate config (Alloc.Context.create kernel) in
  (c, verify c)

type measurement = {
  traffic : Traffic.result;
  baseline : Traffic.result;
  total_energy_pj : float;
  baseline_energy_pj : float;
  normalized_energy : float;
  savings_percent : float;
}

let measure ?(warps = 32) ?(seed = 0x5eed) ?attribution c =
  let traffic =
    Traffic.run ~warps ~seed ?attribution c.context
      (Traffic.Sw { config = c.config; placement = c.placement })
  in
  let baseline = Traffic.run ~warps ~seed c.context Traffic.Baseline in
  let price (r : Traffic.result) =
    (Energy.Counts.energy c.config.Alloc.Config.params
       ~orf_entries:(Alloc.Config.cost_entries c.config) r.Traffic.counts)
      .Energy.Counts.total
  in
  let total_energy_pj, baseline_energy_pj =
    Obs.Span.with_span "energy" (fun () -> (price traffic, price baseline))
  in
  let normalized_energy = Util.Stats.ratio total_energy_pj baseline_energy_pj in
  {
    traffic;
    baseline;
    total_energy_pj;
    baseline_energy_pj;
    normalized_energy;
    savings_percent = 100.0 *. (1.0 -. normalized_energy);
  }
