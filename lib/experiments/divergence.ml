type row = {
  name : string;
  simd_efficiency : float;
  divergent_branches : int;
  uniform_ratio : float;
  divergent_ratio : float;
}

let compute ?(entries = 3) (opts : Options.t) =
  List.map
    (fun (e : Workloads.Registry.entry) ->
      let config =
        Alloc.Config.make ~orf_entries:entries ~lrf:Alloc.Config.Split ~params:opts.Options.params ()
      in
      let energy c =
        (Energy.Counts.energy opts.Options.params ~orf_entries:entries c).Energy.Counts.total
      in
      let uniform_ratio = Sweep.energy_ratio opts e Sweep.Sw_three_split ~entries in
      let warps = min 8 opts.Options.warps in
      let base_e = ref 0.0 and sw_e = ref 0.0 in
      let eff = ref [] and div = ref 0 in
      List.iter
        (fun ctx ->
          let placement = (Sim.Pipeline.allocate config ctx).Sim.Pipeline.placement in
          let base = Sim.Simt.traffic ~warps ~seed:opts.Options.seed ctx ~scheme:`Baseline in
          let sw =
            Sim.Simt.traffic ~warps ~seed:opts.Options.seed ctx ~scheme:(`Sw (config, placement))
          in
          base_e := !base_e +. energy base.Sim.Simt.counts;
          sw_e := !sw_e +. energy sw.Sim.Simt.counts;
          eff := base.Sim.Simt.stats.Sim.Simt.simd_efficiency :: !eff;
          div := !div + base.Sim.Simt.stats.Sim.Simt.divergent_branches)
        (Sweep.contexts e);
      {
        name = e.Workloads.Registry.name;
        simd_efficiency = Util.Stats.mean !eff;
        divergent_branches = !div;
        uniform_ratio;
        divergent_ratio = Util.Stats.ratio !sw_e !base_e;
      })
    opts.Options.benchmarks

let table ?entries opts =
  let rows = compute ?entries opts in
  let t =
    Util.Table.create
      ~title:"Divergence sensitivity: SW/baseline energy under SIMT divergence (extension)"
      ~columns:
        [ "Benchmark"; "SIMD efficiency"; "Divergent branches"; "Uniform ratio"; "Divergent ratio" ]
  in
  List.iter
    (fun r ->
      Util.Table.add_row t
        [
          r.name;
          Printf.sprintf "%.3f" r.simd_efficiency;
          string_of_int r.divergent_branches;
          Printf.sprintf "%.3f" r.uniform_ratio;
          Printf.sprintf "%.3f" r.divergent_ratio;
        ])
    rows;
  let mean f = Util.Stats.mean (List.map f rows) in
  Util.Table.add_row t
    [
      "MEAN";
      Printf.sprintf "%.3f" (mean (fun r -> r.simd_efficiency));
      "";
      Printf.sprintf "%.3f" (mean (fun r -> r.uniform_ratio));
      Printf.sprintf "%.3f" (mean (fun r -> r.divergent_ratio));
    ];
  t
