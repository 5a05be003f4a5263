(** Register-file access counters and their conversion to energy.

    One count unit is one warp-instruction operand access: 8 clusters
    each performing a 128-bit bank access.  The factor 8 is constant
    across all configurations and cancels in normalized results, so
    counts are converted with per-128-bit energies directly. *)

type t

val create : unit -> t
val copy : t -> t
val merge_into : dst:t -> t -> unit
(** Adds [src] into [dst], attribution tables included ([dst] adopts a
    copy of [src]'s table if it has none).
    @raise Invalid_argument if both carry tables of different sizes. *)

val bump_read : t -> Model.level -> Model.datapath -> pc:int -> n:int -> unit
(** Count [n] reads.  [pc] is the static instruction id the accesses
    belong to: it feeds the attribution table when one is enabled.  Pass
    [pc = -1] for "no attribution" — the reads count in the aggregate
    and are dropped from the table, like any out-of-range pc.  A call
    allocates nothing; these are what the simulators' per-instruction
    paths use. *)

val bump_write : t -> Model.level -> Model.datapath -> pc:int -> n:int -> unit

val bump_rfc_probe : t -> pc:int -> n:int -> unit
(** RFC tag lookups that miss (tag energy, no data access). *)

(** {1 Per-instruction attribution}

    Off by default: [create] allocates no side table and the [pc]
    arguments cost one branch.  After [enable_attribution t ~instrs],
    every count carrying an in-range [pc] is also charged to that
    instruction,
    so energy can be ranked over the static instruction stream.  The
    attribution table never feeds {!to_json} — manifests are
    unaffected. *)

val enable_attribution : t -> instrs:int -> unit
(** [instrs] is the kernel's instruction count (pc range). *)

val attribution_enabled : t -> bool

val attributed_instrs : t -> int
(** Size of the attribution pc range; [0] when disabled. *)

val instr_energy : Params.t -> orf_entries:int -> t -> pc:int -> float
(** Register-file energy (pJ) attributed to one instruction; [0.0]
    when attribution is off or [pc] is out of range. *)

val attributed_energies : Params.t -> orf_entries:int -> t -> float array
(** Per-pc attributed energy for the whole instruction stream; [[||]]
    when attribution is off.  Sums to {!energy}'s [total] when every
    recorded count carried an in-range [pc]. *)

val top_instrs : Params.t -> orf_entries:int -> ?n:int -> t -> (int * float) list
(** The [n] highest-energy instructions as [(pc, pJ)], energy
    descending, pc ascending on ties. *)

val reads : t -> Model.level -> int
(** Total reads of a level across both datapaths. *)

val writes : t -> Model.level -> int

val reads_dp : t -> Model.level -> Model.datapath -> int
val writes_dp : t -> Model.level -> Model.datapath -> int
val rfc_probes : t -> int
val total_reads : t -> int
val total_writes : t -> int

type level_energy = {
  level : Model.level;
  access : float;  (** bank access energy, pJ *)
  wire : float;    (** operand distribution wire energy, pJ *)
}

type breakdown = {
  levels : level_energy list;  (** MRF, ORF, RFC, LRF in that order *)
  total : float;
}

val energy : Params.t -> orf_entries:int -> t -> breakdown
(** [orf_entries] selects the Table-3 row used for ORF/RFC accesses. *)

val json_key : Model.level -> string
(** Lowercase level name used as the JSON object key ("mrf", ...). *)

val to_json : t -> Obs.Json.t
(** Datapath-resolved counts per level, keyed by lowercase level name
    in MRF, ORF, RFC, LRF order, plus ["rfc_probes"] — the shape run
    manifests embed.  Field order is fixed, so encodings of equal
    counts are byte-identical. *)

val of_json : Obs.Json.t -> (t, string) result
(** Decode a {!to_json} rendering; [Error] names the first missing or
    ill-typed field. *)

val pp : Format.formatter -> t -> unit
