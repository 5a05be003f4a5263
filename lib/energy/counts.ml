let levels = [| Model.Mrf; Model.Orf; Model.Rfc; Model.Lrf |]
let num_levels = Array.length levels

let level_index = function Model.Mrf -> 0 | Model.Orf -> 1 | Model.Rfc -> 2 | Model.Lrf -> 3
let dp_index = function Model.Private -> 0 | Model.Shared -> 1

(* Optional per-instruction attribution: when enabled, every count
   carrying a pc also lands in a pc-indexed row of [areads]/
   [awrites] (laid out [pc * cells + cell]) so energy can be charged
   back to the static instruction that caused the access.  The
   aggregate arrays stay authoritative; attribution is a side table
   and never feeds manifests. *)
type attrib = {
  instrs : int;
  areads : int array;
  awrites : int array;
  aprobes : int array;
}

type t = {
  reads : int array;   (* level * datapath *)
  writes : int array;
  mutable probes : int;
  mutable attrib : attrib option;
}

let cell level dp = (level_index level * 2) + dp_index dp

let attr_cells = num_levels * 2

let create () =
  {
    reads = Array.make (num_levels * 2) 0;
    writes = Array.make (num_levels * 2) 0;
    probes = 0;
    attrib = None;
  }

let enable_attribution t ~instrs =
  t.attrib <-
    Some
      {
        instrs;
        areads = Array.make (instrs * attr_cells) 0;
        awrites = Array.make (instrs * attr_cells) 0;
        aprobes = Array.make instrs 0;
      }

let attribution_enabled t = t.attrib <> None

let attributed_instrs t = match t.attrib with None -> 0 | Some a -> a.instrs

let copy_attrib a =
  {
    instrs = a.instrs;
    areads = Array.copy a.areads;
    awrites = Array.copy a.awrites;
    aprobes = Array.copy a.aprobes;
  }

let copy t =
  {
    reads = Array.copy t.reads;
    writes = Array.copy t.writes;
    probes = t.probes;
    attrib = Option.map copy_attrib t.attrib;
  }

let merge_into ~dst src =
  Array.iteri (fun i v -> dst.reads.(i) <- dst.reads.(i) + v) src.reads;
  Array.iteri (fun i v -> dst.writes.(i) <- dst.writes.(i) + v) src.writes;
  dst.probes <- dst.probes + src.probes;
  match (dst.attrib, src.attrib) with
  | _, None -> ()
  | None, Some sa -> dst.attrib <- Some (copy_attrib sa)
  | Some da, Some sa when da.instrs = sa.instrs ->
    Array.iteri (fun i v -> da.areads.(i) <- da.areads.(i) + v) sa.areads;
    Array.iteri (fun i v -> da.awrites.(i) <- da.awrites.(i) + v) sa.awrites;
    Array.iteri (fun i v -> da.aprobes.(i) <- da.aprobes.(i) + v) sa.aprobes
  | Some _, Some _ -> invalid_arg "Energy.Counts.merge_into: attribution tables differ in size"

let attr_bump arr a c pc n =
  if pc >= 0 && pc < a.instrs then arr.((pc * attr_cells) + c) <- arr.((pc * attr_cells) + c) + n

(* Plain labelled ints, so calls box nothing (an optional [?pc] would
   allocate a [Some pc] per call on the simulators' hot paths).
   [pc = -1] counts in the aggregate and is dropped from attribution,
   exactly like any out-of-range pc. *)

let bump_read t level dp ~pc ~n =
  let c = cell level dp in
  t.reads.(c) <- t.reads.(c) + n;
  match t.attrib with Some a -> attr_bump a.areads a c pc n | None -> ()

let bump_write t level dp ~pc ~n =
  let c = cell level dp in
  t.writes.(c) <- t.writes.(c) + n;
  match t.attrib with Some a -> attr_bump a.awrites a c pc n | None -> ()

let bump_rfc_probe t ~pc ~n =
  t.probes <- t.probes + n;
  match t.attrib with
  | Some a when pc >= 0 && pc < a.instrs -> a.aprobes.(pc) <- a.aprobes.(pc) + n
  | _ -> ()

let reads t level = t.reads.(cell level Model.Private) + t.reads.(cell level Model.Shared)
let writes t level = t.writes.(cell level Model.Private) + t.writes.(cell level Model.Shared)
let reads_dp t level dp = t.reads.(cell level dp)
let writes_dp t level dp = t.writes.(cell level dp)
let rfc_probes t = t.probes

let total_reads t = Array.fold_left ( + ) 0 t.reads
let total_writes t = Array.fold_left ( + ) 0 t.writes

type level_energy = { level : Model.level; access : float; wire : float }

type breakdown = { levels : level_energy list; total : float }

let energy params ~orf_entries t =
  let level_breakdown level =
    let acc = ref 0.0 and wire = ref 0.0 in
    List.iter
      (fun dp ->
        let r = float_of_int t.reads.(cell level dp) in
        let w = float_of_int t.writes.(cell level dp) in
        acc := !acc +. (r *. Model.access_only_read params ~orf_entries level)
               +. (w *. Model.access_only_write params ~orf_entries level);
        wire := !wire +. (r *. Model.wire_only_read params level dp)
                +. (w *. Model.wire_only_write params level dp))
      (match level with
       | Model.Lrf ->
         if t.reads.(cell Model.Lrf Model.Shared) <> 0
            || t.writes.(cell Model.Lrf Model.Shared) <> 0
         then invalid_arg "Energy.Counts: LRF accessed from the shared datapath";
         [ Model.Private ]
       | _ -> [ Model.Private; Model.Shared ]);
    if level = Model.Rfc then
      acc := !acc +. (float_of_int t.probes *. Model.rfc_probe_energy params);
    { level; access = !acc; wire = !wire }
  in
  let per_level = Array.to_list (Array.map level_breakdown levels) in
  let total = List.fold_left (fun s le -> s +. le.access +. le.wire) 0.0 per_level in
  { levels = per_level; total }

(* ------------------------------------------------------------------ *)
(* Per-instruction attribution queries.                                *)

let instr_energy params ~orf_entries t ~pc =
  match t.attrib with
  | None -> 0.0
  | Some a when pc < 0 || pc >= a.instrs -> 0.0
  | Some a ->
    let e = ref 0.0 in
    Array.iter
      (fun level ->
        List.iter
          (fun dp ->
            let c = (pc * attr_cells) + cell level dp in
            let r = a.areads.(c) and w = a.awrites.(c) in
            if r <> 0 then
              e :=
                !e
                +. (float_of_int r
                   *. (Model.access_only_read params ~orf_entries level
                      +. Model.wire_only_read params level dp));
            if w <> 0 then
              e :=
                !e
                +. (float_of_int w
                   *. (Model.access_only_write params ~orf_entries level
                      +. Model.wire_only_write params level dp)))
          [ Model.Private; Model.Shared ])
      levels;
    if a.aprobes.(pc) <> 0 then
      e := !e +. (float_of_int a.aprobes.(pc) *. Model.rfc_probe_energy params);
    !e

let attributed_energies params ~orf_entries t =
  match t.attrib with
  | None -> [||]
  | Some a -> Array.init a.instrs (fun pc -> instr_energy params ~orf_entries t ~pc)

let top_instrs params ~orf_entries ?(n = 10) t =
  let pjs = attributed_energies params ~orf_entries t in
  let ranked = Array.mapi (fun pc pj -> (pc, pj)) pjs in
  Array.sort
    (fun (pa, a) (pb, b) ->
      match compare (b : float) a with 0 -> compare (pa : int) pb | c -> c)
    ranked;
  Array.to_list (Array.sub ranked 0 (min n (Array.length ranked)))

(* JSON codec: dp-resolved counts per level, keyed by the lowercase
   level name in the paper's MRF, ORF, RFC, LRF order.  Field order is
   fixed so run manifests embedding this shape diff cleanly. *)

let json_key level = String.lowercase_ascii (Model.level_name level)

let to_json t =
  let dp_obj arr level =
    Obs.Json.Obj
      [
        ("private", Obs.Json.int arr.(cell level Model.Private));
        ("shared", Obs.Json.int arr.(cell level Model.Shared));
      ]
  in
  Obs.Json.Obj
    (Array.to_list
       (Array.map
          (fun level ->
            ( json_key level,
              Obs.Json.Obj
                [ ("reads", dp_obj t.reads level); ("writes", dp_obj t.writes level) ] ))
          levels)
    @ [ ("rfc_probes", Obs.Json.int t.probes) ])

let of_json j =
  let ( let* ) = Result.bind in
  let int_at path v =
    match Option.bind v Obs.Json.to_int with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "Energy.Counts: missing or ill-typed %S" path)
  in
  let t = create () in
  let* () =
    Array.fold_left
      (fun acc level ->
        let* () = acc in
        let lv = Obs.Json.member (json_key level) j in
        let* () =
          List.fold_left
            (fun acc (dir, store) ->
              let* () = acc in
              let dv = Option.bind lv (Obs.Json.member dir) in
              List.fold_left
                (fun acc (dp_name, dp) ->
                  let* () = acc in
                  let path = Printf.sprintf "%s.%s.%s" (json_key level) dir dp_name in
                  let* n = int_at path (Option.bind dv (Obs.Json.member dp_name)) in
                  store.(cell level dp) <- n;
                  Ok ())
                (Ok ())
                [ ("private", Model.Private); ("shared", Model.Shared) ])
            (Ok ())
            [ ("reads", t.reads); ("writes", t.writes) ]
        in
        Ok ())
      (Ok ()) levels
  in
  let* probes = int_at "rfc_probes" (Obs.Json.member "rfc_probes" j) in
  t.probes <- probes;
  Ok t

let pp fmt t =
  Array.iter
    (fun level ->
      let r = reads t level and w = writes t level in
      if r <> 0 || w <> 0 then
        Format.fprintf fmt "%s: %dR/%dW  " (Model.level_name level) r w)
    levels;
  if t.probes <> 0 then Format.fprintf fmt "RFC-probes: %d" t.probes
