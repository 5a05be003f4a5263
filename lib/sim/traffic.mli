(** Register-file traffic accounting.

    Executes every warp's dynamic instruction stream and counts
    accesses to each level of the register-file hierarchy under a
    given scheme:

    - [Baseline]: the single-level register file every figure is
      normalized to — every operand is an MRF access.
    - [Sw]: the compiler-managed hierarchy; counts follow the
      {!Alloc.Placement.t} annotations (dest levels, source levels,
      read-operand fills).  No writeback traffic exists by
      construction: persistent values were written to the MRF when
      produced (Sec. 3.1).
    - [Hw]: the hardware register-file cache baseline (Sec. 2.2),
      optionally with a hardware LRF in front (Sec. 6.2): FIFO
      replacement, write-allocation, eviction writebacks and
      deschedule flushes with static-liveness elision, and tag
      energy the software scheme does not pay.

    Traffic is timing-independent per warp except for the hardware
    scheme's deschedule points: a long-latency value's consumer
    deschedules (and flushes) the warp only if it executes within
    [long_latency_shadow] warp-local instructions of the load — the
    DRAM latency divided by the warp's issue share under the two-level
    scheduler. *)

type hw_options = {
  rfc_entries : int;
  with_lrf : bool;   (** three-level hardware hierarchy *)
  flush_on_backward_branch : bool;  (** Sec. 7 ablation; default [false] *)
  never_flush : bool;  (** Sec. 7 idealization: deschedules do not flush *)
}

val hw_defaults : rfc_entries:int -> hw_options

type scheme =
  | Baseline
  | Sw of { config : Alloc.Config.t; placement : Alloc.Placement.t }
  | Hw of hw_options

type result = {
  counts : Energy.Counts.t;
  per_strand : Energy.Counts.t array;  (** indexed by strand id *)
  dynamic_instrs : int;
  desched_events : int;
  capped_warps : int;  (** warps stopped by the dynamic-length cap *)
}

val default_max_dynamic_per_warp : int
(** 100,000 ({!Cf.default_max_dynamic}): the dynamic instructions one
    warp may walk before {!run} stops it and counts it in
    [capped_warps].  {!Perf.run} defaults to a much shorter 2,000. *)

val run :
  ?warps:int ->
  ?seed:int ->
  ?max_dynamic_per_warp:int ->
  ?long_latency_shadow:int ->
  ?attribution:bool ->
  ?scratch:Scratch.t ->
  Alloc.Context.t ->
  scheme ->
  result
(** [warps] defaults to 32 (Table 2's machine-resident warps);
    [max_dynamic_per_warp] to {!default_max_dynamic_per_warp};
    [long_latency_shadow] defaults to 50 (400 DRAM cycles divided by a
    warp's 1-in-8 issue share under the two-level scheduler).

    [scratch] (default: this domain's {!Scratch.domain_local}) supplies
    the reusable walker state and outstanding-operation buffers; results
    are identical whatever scratch is passed.

    [attribution] (default [false]) enables the per-instruction
    attribution tables of {!Energy.Counts} on [per_strand] and the
    merged [counts], charging every access to the static instruction
    that caused it (cache evictions and flushes charge the instruction
    that triggered them).

    When {!Obs.Counters} is enabled, the run additionally emits
    [traffic.mrf_accesses] / [traffic.orf_accesses] /
    [traffic.lrf_accesses] counter tracks: per-level accesses summed
    over windows of 32 warp-local dynamic instructions, accumulated
    across warps, stamped with the window-start instruction index. *)
