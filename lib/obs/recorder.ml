module type EVENT = sig
  type t

  val lock_name : string
  val to_json : t -> Json.t
  val pp : Format.formatter -> t -> unit
end

module type S = sig
  type event

  val is_enabled : unit -> bool
  val emit : event -> unit
  val set_sink : (event -> unit) -> unit
  val set_enabled : bool -> unit
  val disable : unit -> unit
  val memory_sink : unit -> (event -> unit) * (unit -> event list)
  val jsonl_sink : out_channel -> event -> unit
  val printer_sink : Format.formatter -> event -> unit
  val tee : (event -> unit) list -> event -> unit
end

module Make (E : EVENT) = struct
  let on = Atomic.make false
  let mu = Mutex.create ()
  let sink : (E.t -> unit) ref = ref ignore
  let lock = Util.Eprof.lock_create E.lock_name
  let is_enabled () = Atomic.get on

  let emit ev =
    if Atomic.get on then begin
      Util.Eprof.lock_acquire lock mu;
      Fun.protect ~finally:(fun () -> Mutex.unlock mu) (fun () -> !sink ev)
    end

  let set_sink f =
    Mutex.lock mu;
    sink := f;
    Mutex.unlock mu;
    Atomic.set on true

  let set_enabled b = Atomic.set on b

  let disable () =
    Atomic.set on false;
    Mutex.lock mu;
    sink := ignore;
    Mutex.unlock mu

  let memory_sink () =
    let events = ref [] in
    ((fun ev -> events := ev :: !events), fun () -> List.rev !events)

  let jsonl_sink oc ev =
    Json.to_channel oc (E.to_json ev);
    output_char oc '\n'

  let printer_sink fmt ev = Format.fprintf fmt "%a@." E.pp ev
  let tee sinks ev = List.iter (fun s -> s ev) sinks
end
