type variant = {
  label : string;
  normalized_energy : float;
  delta_vs_full : float;
}

let mean_sw (opts : Options.t) config =
  Util.Stats.mean
    (List.map
       (fun e -> Sweep.cell_ratio opts e (Sweep.Sw_cell { boundary_kinds = None; config }))
       opts.Options.benchmarks)

let hw_tagless_ratio (opts : Options.t) ~entries =
  Util.Stats.mean
    (List.map
       (fun e ->
         let r = Sweep.run opts e Sweep.Hw_two ~entries in
         let energy =
           (Energy.Counts.energy Energy.Params.tagless ~orf_entries:entries
              r.Sweep.traffic.Sim.Traffic.counts)
             .Energy.Counts.total
         in
         Util.Stats.ratio energy (Sweep.baseline_pj opts e))
       opts.Options.benchmarks)

let compute ?(entries = 3) (opts : Options.t) =
  let cfg ~lrf ~partial ~read_op =
    Alloc.Config.make ~orf_entries:entries ~lrf ~partial_ranges:partial ~read_operands:read_op
      ~params:opts.Options.params ()
  in
  let full = mean_sw opts (cfg ~lrf:Alloc.Config.Split ~partial:true ~read_op:true) in
  let mk label v = { label; normalized_energy = v; delta_vs_full = 100.0 *. (v -. full) } in
  [
    mk "full design (split LRF, partial ranges, read operands)" full;
    mk "baseline algorithm only (Sec. 4.2)"
      (mean_sw opts (cfg ~lrf:Alloc.Config.Split ~partial:false ~read_op:false));
    mk "+ partial ranges only (Sec. 4.3)"
      (mean_sw opts (cfg ~lrf:Alloc.Config.Split ~partial:true ~read_op:false));
    mk "+ read operands only (Sec. 4.4)"
      (mean_sw opts (cfg ~lrf:Alloc.Config.Split ~partial:false ~read_op:true));
    mk "unified LRF instead of split (Sec. 6.3)"
      (mean_sw opts (cfg ~lrf:Alloc.Config.Unified ~partial:true ~read_op:true));
    mk "no LRF (two-level)"
      (mean_sw opts (cfg ~lrf:Alloc.Config.No_lrf ~partial:true ~read_op:true));
    mk "HW RFC with free tags (tag-energy ablation)" (hw_tagless_ratio opts ~entries);
    mk "HW RFC with tag energy" (Sweep.mean_energy_ratio opts Sweep.Hw_two ~entries);
  ]

let table ?entries opts =
  let t =
    Util.Table.create
      ~title:"Allocator ablation (3-entry configurations; 1.0 = single-level RF)"
      ~columns:[ "Variant"; "Normalized energy"; "Points vs full design" ]
  in
  List.iter
    (fun v ->
      Util.Table.add_row t
        [
          v.label;
          Printf.sprintf "%.3f" v.normalized_energy;
          Printf.sprintf "%+.1f" v.delta_vs_full;
        ])
    (compute ?entries opts);
  t
