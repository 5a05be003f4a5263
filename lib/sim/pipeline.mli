(** One path from kernel to picojoules: compile, verify, simulate and
    price.  [Rfh.compile] and [Rfh.measure] re-export it, and every
    driver that compiles a kernel or prices SW against Baseline goes
    through it; [Experiments.Sweep] memoizes the same steps per
    benchmark.  Nothing here reacts to a rejected placement: the caller
    decides whether to print, collect, exit or raise. *)

type compiled = {
  context : Alloc.Context.t;
  config : Alloc.Config.t;
  placement : Alloc.Placement.t;
  stats : Alloc.Allocator.stats;
}

val allocate : Alloc.Config.t -> Alloc.Context.t -> compiled
(** Run the allocator, without verification. *)

val total_stats : compiled list -> Alloc.Allocator.stats
(** Allocator statistics summed over an application's kernels. *)

val verify : compiled -> (unit, string list) result
(** {!Alloc.Verify.check} of the placement: the verifier's errors. *)

val compile : ?config:Alloc.Config.t -> Ir.Kernel.t -> compiled * (unit, string list) result
(** Analyse, partition, allocate and verify.  The default configuration
    is the paper's most efficient: 3 ORF entries, split LRF, partial
    ranges and read operands.  The placement comes back whatever the
    verdict, so a caller can still print what was rejected. *)

type measurement = {
  traffic : Traffic.result;
  baseline : Traffic.result;
  total_energy_pj : float;     (** per-128-bit-access units, see Energy.Counts *)
  baseline_energy_pj : float;
  normalized_energy : float;   (** 1.0 = single-level register file *)
  savings_percent : float;
}

val measure : ?warps:int -> ?seed:int -> ?attribution:bool -> compiled -> measurement
(** Run SW and Baseline traffic over the same warps (default 32, seed
    [0x5eed]; [attribution] applies to the SW run, see {!Traffic.run})
    and price both, under an ["energy"] span, with the compile
    configuration's parameters at {!Alloc.Config.cost_entries}.

    Each warp walks at most {!Traffic.default_max_dynamic_per_warp}
    (100,000) dynamic instructions, while {!Perf.run} stops a warp at
    2,000 by default: pass it that constant as [~max_dynamic_per_warp]
    to compare instruction counts. *)
