(** Shared machinery for the evaluation figures: per-benchmark traffic
    under every register-file organisation, with memoization across
    figures (the same (benchmark, scheme, size) run backs several
    tables). *)

type scheme =
  | Baseline       (** single-level register file *)
  | Sw_two         (** compiler ORF + MRF *)
  | Sw_three_unified
  | Sw_three_split (** the paper's best configuration *)
  | Hw_two         (** hardware RFC + MRF (prior work) *)
  | Hw_three       (** hardware LRF + RFC + MRF *)

val scheme_name : scheme -> string
val all_schemes : scheme list

type run = {
  traffic : Sim.Traffic.result;
  (** aggregated over the application's kernels: merged counts and
      summed event counters; [per_strand] concatenates the kernels'
      per-strand arrays in kernel order *)
  energy : Energy.Counts.breakdown;  (** priced at the run's ORF size *)
}

(** What one memoized run simulates on every kernel of a benchmark. *)
type cell =
  | Baseline_cell  (** single-level register file, priced at the 1-entry row *)
  | Sw_cell of { boundary_kinds : Strand.Partition.boundary_kinds option; config : Alloc.Config.t }
  (** the allocator's placement under [config], on contexts built with
      [boundary_kinds] (default: the paper's strands); priced with
      [config]'s parameters at {!Alloc.Config.cost_entries} *)
  | Hw_cell of Sim.Traffic.hw_options  (** priced at the RFC's entry row *)

val cell : Options.t -> scheme -> entries:int -> cell
(** The cell behind a figure scheme: SW schemes are the default
    configuration with [entries] ORF entries and the scheme's LRF
    mode; [Baseline] ignores [entries]. *)

val run_cell : Options.t -> Workloads.Registry.entry -> cell -> run
(** Memoized on (benchmark, cell, warps, seed, parameters): any SW
    variant whose configuration equals a figure scheme's shares that
    scheme's run. *)

val run :
  Options.t -> Workloads.Registry.entry -> scheme -> entries:int -> run
(** [run_cell] of [cell scheme ~entries]. *)

val baseline_pj : Options.t -> Workloads.Registry.entry -> float
(** Total energy of the benchmark's single-level baseline. *)

val cell_ratio : Options.t -> Workloads.Registry.entry -> cell -> float
(** A cell's total energy normalized to {!baseline_pj}. *)

val context : Workloads.Registry.entry -> Alloc.Context.t
(** Memoized compiler context for the benchmark's dominant kernel. *)

val contexts : Workloads.Registry.entry -> Alloc.Context.t list
(** Contexts for every kernel of the application, dominant first;
    the energy runs aggregate traffic across all of them. *)

val per_bench : Options.t -> (Workloads.Registry.entry -> 'a) -> 'a list
(** Map over the option's workload set on [opts.jobs] domains
    ({!Util.Pool.parallel_map}); results are in benchmark order, so
    downstream tables are identical to a serial run.  The memo tables
    behind {!run} and {!context} are domain-safe with in-flight
    deduplication. *)

val clear_caches : unit -> unit
(** Drop all memoized runs and contexts (used by the benchmark harness
    to time cold regeneration). *)

val energy_ratio : Options.t -> Workloads.Registry.entry -> scheme -> entries:int -> float
(** Total access+wire energy normalized to the single-level baseline
    on the same benchmark. *)

val mean_energy_ratio : Options.t -> scheme -> entries:int -> float
(** Arithmetic mean of per-benchmark normalized energy over the
    option's workload set. *)

val mean_access_ratio :
  Options.t ->
  scheme ->
  entries:int ->
  [ `Reads | `Writes ] ->
  (Energy.Model.level * float) list
(** Per-level accesses normalized to the baseline's total (the stacked
    bars of Figs. 11 and 12), averaged over benchmarks. *)
