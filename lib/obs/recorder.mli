(** Zero-cost-when-off event recorder shared by {!Audit}, {!Explain}
    and {!Timeline}.

    Each instance is one process-wide recorder: an atomic on-flag (the
    disabled fast path is a single load, so instrumented call sites
    sample {!S.is_enabled} once per run and skip event construction),
    one installed sink, and a mutex — profiled through
    {!Util.Eprof.lock_acquire} — that serializes sink invocations, so
    a sink's internal state never sees two events at once even when
    simulators run on worker domains. *)

module type EVENT = sig
  type t

  val lock_name : string
  (** Name of the sink lock in {!Util.Eprof.lock_stats}. *)

  val to_json : t -> Json.t
  val pp : Format.formatter -> t -> unit
end

module type S = sig
  type event

  val is_enabled : unit -> bool
  (** One atomic load; call sites guard event construction with it. *)

  val emit : event -> unit
  (** Forward to the installed sink under the recorder mutex; a no-op
      when disabled. *)

  val set_sink : (event -> unit) -> unit
  (** Install a sink and enable emission. *)

  val set_enabled : bool -> unit
  (** Toggle emission without replacing the sink. *)

  val disable : unit -> unit
  (** Stop emitting and drop the installed sink. *)

  val memory_sink : unit -> (event -> unit) * (unit -> event list)
  (** Collecting sink plus a getter returning events in emission order. *)

  val jsonl_sink : out_channel -> event -> unit
  (** One compact JSON object per line; the caller owns the channel. *)

  val printer_sink : Format.formatter -> event -> unit
  (** Human-readable rendering, one line per event. *)

  val tee : (event -> unit) list -> event -> unit
end

module Make (E : EVENT) : S with type event := E.t
