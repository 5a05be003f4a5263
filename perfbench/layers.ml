(* Per-layer self time from the spans of one traced pass.

   A span's self time is its duration minus the durations of its direct
   children: the spans of the same domain that start and end inside it.
   Each traced nanosecond is thereby counted once, in the innermost
   span covering it, and the self times of all spans sum to the
   durations of the top-level spans.  Time no span covers (loop and
   rendering glue outside the artefact calls, idle domains) is the
   unattributed remainder. *)

(* Layer of a span, named after the dune library doing the work.  The
   library's own spans keep their names; the benchmark's wrapper spans
   (random-compile) are already named after their layer. *)
let layer_of_span name =
  if String.starts_with ~prefix:"artefact:" name then "experiments"
  else
    match name with
    | "cfg" | "dominance" | "liveness" | "reaching" | "duchain" -> "analysis"
    | "partition" | "must_defined" -> "strand"
    | "allocate" -> "alloc.place"
    | "simulate" -> "sim.traffic"
    | "simulate.perf" -> "sim.perf"
    | "simulate.simt" -> "sim.simt"
    | "transform.reschedule" | "transform.unroll" -> "transform"
    | "energy" -> "energy.counts"
    | other -> other

type layer = { layer : string; self_s : float; spans : int }

let self_times (spans : Obs.Span.span list) =
  let by_domain = Hashtbl.create 4 in
  List.iter
    (fun (s : Obs.Span.span) ->
      let l = Option.value ~default:[] (Hashtbl.find_opt by_domain s.domain) in
      Hashtbl.replace by_domain s.domain (s :: l))
    spans;
  let totals = Hashtbl.create 16 in
  let add (s : Obs.Span.span) self_ns =
    let layer = layer_of_span s.name in
    let t, n = Option.value ~default:(0L, 0) (Hashtbl.find_opt totals layer) in
    Hashtbl.replace totals layer (Int64.add t self_ns, n + 1)
  in
  Hashtbl.iter
    (fun _ l ->
      let sorted =
        List.sort
          (fun (a : Obs.Span.span) (b : Obs.Span.span) -> compare (a.ts_ns, a.depth) (b.ts_ns, b.depth))
          l
      in
      (* Stack of open spans with the child time found so far. *)
      let stack = ref [] in
      let close (s, child) = add s (Int64.sub s.Obs.Span.dur_ns child) in
      let end_of (s : Obs.Span.span) = Int64.add s.ts_ns s.dur_ns in
      List.iter
        (fun (s : Obs.Span.span) ->
          let rec pop () =
            match !stack with
            | (top, child) :: rest when end_of top < end_of s ->
              close (top, child);
              stack := rest;
              pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with
           | (top, child) :: rest -> stack := (top, Int64.add child s.dur_ns) :: rest
           | [] -> ());
          stack := (s, 0L) :: !stack)
        sorted;
      List.iter close !stack)
    by_domain;
  Hashtbl.fold
    (fun layer (t, n) acc -> { layer; self_s = Int64.to_float t *. 1e-9; spans = n } :: acc)
    totals []
  |> List.sort (fun a b -> compare b.self_s a.self_s)

let self_s layers name =
  match List.find_opt (fun l -> l.layer = name) layers with Some l -> l.self_s | None -> 0.0

let table ~title ~budget_s layers =
  let t = Util.Table.create ~title ~columns:[ "Layer"; "Self s"; "Share of budget"; "Spans" ] in
  let row name s spans =
    Util.Table.add_row t
      [ name; Printf.sprintf "%.4f" s; Printf.sprintf "%.1f%%" (100.0 *. s /. budget_s); spans ]
  in
  List.iter (fun l -> row l.layer l.self_s (string_of_int l.spans)) layers;
  let attributed = List.fold_left (fun acc l -> acc +. l.self_s) 0.0 layers in
  row "(unattributed)" (budget_s -. attributed) "";
  row "(budget: traced pass x domains)" budget_s "";
  t
