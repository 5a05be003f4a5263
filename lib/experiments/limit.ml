type result = {
  fixed_best : float;
  ideal_all_lrf : float;
  ideal_all_orf : float;
  variable_orf_oracle : float;
  variable_orf_realistic : float;
  hw_flush_backward : float;
  hw_keep_backward : float;
  sw_past_backward : float;
  sw_never_flush : float;
  scheduling_ideal_8at3 : float;
  scheduling_real_5at5 : float;
}

let mean_over opts f = Util.Stats.mean (List.map f opts.Options.benchmarks)

(* Re-price the baseline's access counts as if every operand lived at
   the given level (the idealized bounds). *)
let repriced_ratio (opts : Options.t) e ~level ~entries =
  let params = opts.Options.params in
  let counts = (Sweep.run_cell opts e Sweep.Baseline_cell).Sweep.traffic.Sim.Traffic.counts in
  let dp_list = match level with Energy.Model.Lrf -> [ Energy.Model.Private ] | _ -> [ Energy.Model.Private; Energy.Model.Shared ] in
  let total = ref 0.0 in
  List.iter
    (fun dp ->
      (* The LRF bound charges even shared-datapath operands at the
         private LRF wire distance: it is an unreachable lower bound. *)
      let r =
        Energy.Counts.reads_dp counts Energy.Model.Mrf dp
        + (if dp = Energy.Model.Private && level = Energy.Model.Lrf then
             Energy.Counts.reads_dp counts Energy.Model.Mrf Energy.Model.Shared
           else 0)
      in
      let w =
        Energy.Counts.writes_dp counts Energy.Model.Mrf dp
        + (if dp = Energy.Model.Private && level = Energy.Model.Lrf then
             Energy.Counts.writes_dp counts Energy.Model.Mrf Energy.Model.Shared
           else 0)
      in
      total :=
        !total
        +. (float_of_int r *. Energy.Model.read_energy params ~orf_entries:entries level dp)
        +. (float_of_int w *. Energy.Model.write_energy params ~orf_entries:entries level dp))
    dp_list;
  Util.Stats.ratio !total (Sweep.baseline_pj opts e)

(* Oracle per-strand ORF sizing: for each strand pick the entry count
   that minimizes that strand's energy. *)
let variable_orf_ratio (opts : Options.t) e =
  let params = opts.Options.params in
  let runs =
    List.map (fun entries -> (entries, Sweep.run opts e Sweep.Sw_three_split ~entries))
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  let num_strands =
    match runs with
    | (_, r) :: _ -> Array.length r.Sweep.traffic.Sim.Traffic.per_strand
    | [] -> 0
  in
  let oracle_total = ref 0.0 in
  for s = 0 to num_strands - 1 do
    let best =
      List.fold_left
        (fun acc (entries, r) ->
          let c = r.Sweep.traffic.Sim.Traffic.per_strand.(s) in
          let energy = (Energy.Counts.energy params ~orf_entries:entries c).Energy.Counts.total in
          min acc energy)
        infinity runs
    in
    if best < infinity then oracle_total := !oracle_total +. best
  done;
  Util.Stats.ratio !oracle_total (Sweep.baseline_pj opts e)

(* Sec. 7's variable scheme under a realistic scheduler: compile for
   the full 8-entry namespace with MRF mirroring; 8 active warps share
   a pool sized like the fixed design's 8 x 3 entries; accesses priced
   at the 3-entry row, as in the oracle comparison. *)
let variable_realistic_ratio (opts : Options.t) e =
  let config =
    Alloc.Config.make ~orf_entries:8 ~lrf:Alloc.Config.Split ~params:opts.Options.params
      ~orf_cost_entries:3 ~mirror_mrf:true ()
  in
  let energy =
    List.fold_left
      (fun acc ctx ->
        let c = Sim.Pipeline.allocate config ctx in
        let r =
          Sim.Variable_orf.run ~active:8 ~warps:opts.Options.warps ~seed:opts.Options.seed
            ~pool_entries:24 ~config ~placement:c.Sim.Pipeline.placement ctx
        in
        acc
        +. (Energy.Counts.energy opts.Options.params ~orf_entries:3 r.Sim.Variable_orf.counts)
             .Energy.Counts.total)
      0.0 (Sweep.contexts e)
  in
  Util.Stats.ratio energy (Sweep.baseline_pj opts e)

let custom_sw_ratio (opts : Options.t) e ~boundary_kinds ~orf_entries ~cost_entries =
  let config =
    Alloc.Config.make ~orf_entries ~lrf:Alloc.Config.Split ~params:opts.Options.params
      ~orf_cost_entries:cost_entries ()
  in
  Sweep.cell_ratio opts e (Sweep.Sw_cell { boundary_kinds; config })

let hw_ratio (opts : Options.t) e ~flush_on_backward =
  Sweep.cell_ratio opts e
    (Sweep.Hw_cell
       { (Sim.Traffic.hw_defaults ~rfc_entries:3) with
         Sim.Traffic.flush_on_backward_branch = flush_on_backward })

let compute (opts : Options.t) =
  let fixed_best = Sweep.mean_energy_ratio opts Sweep.Sw_three_split ~entries:3 in
  {
    fixed_best;
    ideal_all_lrf = mean_over opts (fun e -> repriced_ratio opts e ~level:Energy.Model.Lrf ~entries:1);
    ideal_all_orf = mean_over opts (fun e -> repriced_ratio opts e ~level:Energy.Model.Orf ~entries:5);
    variable_orf_oracle = mean_over opts (variable_orf_ratio opts);
    variable_orf_realistic = mean_over opts (variable_realistic_ratio opts);
    hw_flush_backward = mean_over opts (hw_ratio opts ~flush_on_backward:true);
    hw_keep_backward = mean_over opts (hw_ratio opts ~flush_on_backward:false);
    sw_past_backward =
      mean_over opts
        (custom_sw_ratio opts
           ~boundary_kinds:
             (Some { Strand.Partition.long_latency = true; backward = false; merge = true })
           ~orf_entries:3 ~cost_entries:3);
    sw_never_flush =
      mean_over opts
        (custom_sw_ratio opts
           ~boundary_kinds:
             (Some { Strand.Partition.long_latency = false; backward = true; merge = false })
           ~orf_entries:3 ~cost_entries:3);
    scheduling_ideal_8at3 =
      mean_over opts (custom_sw_ratio opts ~boundary_kinds:None ~orf_entries:8 ~cost_entries:3);
    scheduling_real_5at5 =
      mean_over opts (custom_sw_ratio opts ~boundary_kinds:None ~orf_entries:5 ~cost_entries:3);
  }

let table opts =
  let r = compute opts in
  let t =
    Util.Table.create ~title:"Sec. 7: limit study (normalized energy; 1.0 = single-level RF)"
      ~columns:[ "Configuration"; "Normalized energy"; "Savings %" ]
  in
  let row name v =
    Util.Table.add_row t [ name; Printf.sprintf "%.3f" v; Printf.sprintf "%.1f" (100.0 *. (1.0 -. v)) ]
  in
  row "fixed 3-entry ORF, split LRF (shipping design)" r.fixed_best;
  row "ideal: every access at LRF cost" r.ideal_all_lrf;
  row "ideal: every access at 5-entry ORF cost" r.ideal_all_orf;
  row "oracle variable per-strand ORF sizing" r.variable_orf_oracle;
  row "variable ORF, realistic scheduler (8x3 pool, MRF mirrors)" r.variable_orf_realistic;
  row "HW RFC, flush at backward branches" r.hw_flush_backward;
  row "HW RFC, values persist past backward branches" r.hw_keep_backward;
  row "SW allocation past backward branches" r.sw_past_backward;
  row "SW never-flush idealization" r.sw_never_flush;
  row "scheduling ideal: 8-entry ORF at 3-entry cost" r.scheduling_ideal_8at3;
  row "scheduling realistic: 5-entry effective ORF at 3-entry cost" r.scheduling_real_5at5;
  t
