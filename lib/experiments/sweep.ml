type scheme =
  | Baseline
  | Sw_two
  | Sw_three_unified
  | Sw_three_split
  | Hw_two
  | Hw_three

let scheme_name = function
  | Baseline -> "baseline"
  | Sw_two -> "SW"
  | Sw_three_unified -> "SW LRF"
  | Sw_three_split -> "SW LRF Split"
  | Hw_two -> "HW"
  | Hw_three -> "HW LRF"

let all_schemes = [ Baseline; Sw_two; Sw_three_unified; Sw_three_split; Hw_two; Hw_three ]

type run = {
  traffic : Sim.Traffic.result;
  energy : Energy.Counts.breakdown;
}

type cell =
  | Baseline_cell
  | Sw_cell of { boundary_kinds : Strand.Partition.boundary_kinds option; config : Alloc.Config.t }
  | Hw_cell of Sim.Traffic.hw_options

let cell (opts : Options.t) scheme ~entries =
  let sw lrf =
    Sw_cell
      {
        boundary_kinds = None;
        config = Alloc.Config.make ~orf_entries:entries ~lrf ~params:opts.Options.params ();
      }
  in
  match scheme with
  | Baseline -> Baseline_cell
  | Sw_two -> sw Alloc.Config.No_lrf
  | Sw_three_unified -> sw Alloc.Config.Unified
  | Sw_three_split -> sw Alloc.Config.Split
  | Hw_two -> Hw_cell (Sim.Traffic.hw_defaults ~rfc_entries:entries)
  | Hw_three ->
    Hw_cell { (Sim.Traffic.hw_defaults ~rfc_entries:entries) with Sim.Traffic.with_lrf = true }

(* Memo tables are domain-safe with in-flight dedup: when the figures
   fan out per benchmark, two domains wanting the same compiled context
   or (benchmark, cell) run compute it once and share it.  The
   in-flight claim also means each entry's kernel lazies are forced by
   exactly one domain. *)
let context_cache : (string * Strand.Partition.boundary_kinds option, Alloc.Context.t list) Util.Memo.t =
  Util.Memo.create ~name:"sweep.context" 64

let contexts_with (e : Workloads.Registry.entry) boundary_kinds =
  Util.Memo.find_or_compute context_cache (e.Workloads.Registry.name, boundary_kinds) (fun () ->
      List.map (Alloc.Context.create ?boundary_kinds) (Lazy.force e.Workloads.Registry.kernels))

let contexts e = contexts_with e None

let context e = List.hd (contexts e)

let per_bench (opts : Options.t) f =
  Util.Pool.parallel_map ~jobs:opts.Options.jobs ~label:"sweep.per_bench" f opts.Options.benchmarks

(* Aggregate the per-kernel traffic results of one application. *)
let merge_traffic (results : Sim.Traffic.result list) =
  match results with
  | [] -> invalid_arg "Sweep: no kernels"
  | [ r ] -> r
  | _ ->
    let counts = Energy.Counts.create () in
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
    List.iter (fun (r : Sim.Traffic.result) -> Energy.Counts.merge_into ~dst:counts r.Sim.Traffic.counts)
      results;
    {
      Sim.Traffic.counts;
      per_strand =
        Array.concat (List.map (fun (r : Sim.Traffic.result) -> r.Sim.Traffic.per_strand) results);
      dynamic_instrs = sum (fun r -> r.Sim.Traffic.dynamic_instrs);
      desched_events = sum (fun r -> r.Sim.Traffic.desched_events);
      capped_warps = sum (fun r -> r.Sim.Traffic.capped_warps);
    }

(* Keyed by the cell itself — for SW, the whole allocator
   configuration — so a variant that equals a figure's scheme (the
   ablation's full design, say) reuses that figure's run. *)
let run_cache : (string * cell * int * int * string, run) Util.Memo.t =
  Util.Memo.create ~name:"sweep.run" 256

let run_cell (opts : Options.t) (e : Workloads.Registry.entry) cell =
  let key =
    (e.Workloads.Registry.name, cell, opts.Options.warps, opts.Options.seed, opts.Options.params_fp)
  in
  Util.Memo.find_or_compute run_cache key (fun () ->
      let boundary_kinds = match cell with Sw_cell c -> c.boundary_kinds | _ -> None in
      let traffic =
        merge_traffic
          (List.map
             (fun ctx ->
               let scheme =
                 match cell with
                 | Baseline_cell -> Sim.Traffic.Baseline
                 | Sw_cell { config; _ } ->
                   Sim.Traffic.Sw
                     { config; placement = (Sim.Pipeline.allocate config ctx).Sim.Pipeline.placement }
                 | Hw_cell o -> Sim.Traffic.Hw o
               in
               (* Domain-local scratch: each sweep worker reuses one set
                  of walker/outstanding buffers across all its runs. *)
               Sim.Traffic.run ~warps:opts.Options.warps ~seed:opts.Options.seed
                 ~scratch:(Sim.Scratch.domain_local ()) ctx scheme)
             (contexts_with e boundary_kinds))
      in
      let params, orf_entries =
        match cell with
        | Baseline_cell -> (opts.Options.params, 1)
        | Sw_cell { config; _ } -> (config.Alloc.Config.params, Alloc.Config.cost_entries config)
        | Hw_cell o -> (opts.Options.params, o.Sim.Traffic.rfc_entries)
      in
      let energy =
        Obs.Span.with_span "energy" (fun () ->
            Energy.Counts.energy params ~orf_entries traffic.Sim.Traffic.counts)
      in
      { traffic; energy })

let run opts e scheme ~entries = run_cell opts e (cell opts scheme ~entries)

let baseline_pj opts e = (run_cell opts e Baseline_cell).energy.Energy.Counts.total

let cell_ratio opts e cell =
  Util.Stats.ratio (run_cell opts e cell).energy.Energy.Counts.total (baseline_pj opts e)

let energy_ratio opts e scheme ~entries = cell_ratio opts e (cell opts scheme ~entries)

let mean_energy_ratio (opts : Options.t) scheme ~entries =
  Util.Stats.mean (per_bench opts (fun e -> energy_ratio opts e scheme ~entries))

let mean_access_ratio (opts : Options.t) scheme ~entries direction =
  let levels = [ Energy.Model.Lrf; Energy.Model.Rfc; Energy.Model.Orf; Energy.Model.Mrf ] in
  let per_bench_row (e : Workloads.Registry.entry) =
    let base = (run_cell opts e Baseline_cell).traffic.Sim.Traffic.counts in
    let this = (run opts e scheme ~entries).traffic.Sim.Traffic.counts in
    let total_base =
      float_of_int
        (match direction with
         | `Reads -> Energy.Counts.total_reads base
         | `Writes -> Energy.Counts.total_writes base)
    in
    List.map
      (fun level ->
        let n =
          match direction with
          | `Reads -> Energy.Counts.reads this level
          | `Writes -> Energy.Counts.writes this level
        in
        Util.Stats.ratio (float_of_int n) total_base)
      levels
  in
  let rows = per_bench opts per_bench_row in
  List.mapi
    (fun i level -> (level, Util.Stats.mean (List.map (fun row -> List.nth row i) rows)))
    levels

let clear_caches () =
  Util.Memo.reset context_cache;
  Util.Memo.reset run_cache
