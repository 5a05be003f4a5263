(* Benchmark for the repository: paper regeneration and compilation of
   random kernels, each on two domains.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--smoke]

   A run builds the workload's inputs and makes one untimed warm-up
   pass (together: set-up), then repeats timed passes for S seconds.
   With --trace 1 it then makes one more pass with spans recorded and
   reports per-layer metrics instead of end-to-end ones; the spans and
   the per-layer table go to _build/perfbench/NAME.  The last line of
   standard output is one JSON object: correct, attempted, failed and
   metrics.  A failed output check prints correct=false and exits 1.
   See README.md. *)

let now = Workload.now

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]\n\
    \  workloads: paper-jobs2, random-compile";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  setup_only : bool;
}

let parse_args () =
  let a =
    ref
      {
        workload = "";
        seed = 0;
        seconds = 10.0;
        trace = false;
        smoke = false;
        setup_only = false;
      }
  in
  let int_of s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | "--workload" :: v :: rest -> a := { !a with workload = v }; go rest
    | "--seed" :: v :: rest -> a := { !a with seed = int_of v }; go rest
    | "--seconds" :: v :: rest -> a := { !a with seconds = float_of_int (int_of v) }; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> a := { !a with trace = v = "1" }; go rest
    | "--smoke" :: rest -> a := { !a with smoke = true }; go rest
    | "--setup-only" :: rest -> a := { !a with setup_only = true }; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if not (List.mem !a.workload Workload.names) then usage ();
  !a

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list (List.sort compare xs) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let div a b = if b = 0.0 then 0.0 else a /. b

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_mem_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM line in /proc/self/status"
        | Some l ->
          (match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
           | Some kb -> float_of_int kb /. 1024.0
           | None -> scan ())
      in
      scan ())

(* One measured pass and what the layers did during it. *)
type sample = {
  wall_s : float;
  cpu : float;
  pass : Workload.pass;
  counters : Obs.Metrics.snapshot;
  memo : Util.Eprof.memo_stats list;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

let memo_delta later earlier =
  List.map
    (fun (m : Util.Eprof.memo_stats) ->
      match List.find_opt (fun (e : Util.Eprof.memo_stats) -> e.table = m.table) earlier with
      | None -> m
      | Some e ->
        {
          m with
          lookups = m.lookups - e.lookups;
          hits = m.hits - e.hits;
          misses = m.misses - e.misses;
          waits = m.waits - e.waits;
          wait_ns = m.wait_ns - e.wait_ns;
        })
    later

(* Each pass starts from a compacted heap, as a fresh process would. *)
let measure (w : Workload.t) =
  Gc.compact ();
  let m0 = Obs.Metrics.snapshot () and memo0 = Util.Eprof.memo_stats () in
  let g0 = Gc.quick_stat () and c0 = cpu_s () in
  let t0 = now () in
  let pass = w.pass () in
  let wall_s = now () -. t0 in
  let c1 = cpu_s () and g1 = Gc.quick_stat () in
  {
    wall_s;
    cpu = c1 -. c0;
    pass;
    counters = Obs.Metrics.diff (Obs.Metrics.snapshot ()) m0;
    memo = memo_delta (Util.Eprof.memo_stats ()) memo0;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
  }

(* Set-up: build the inputs, then one untimed warm-up pass. *)
let setup args =
  let t0 = now () in
  let w = Workload.create args.workload ~seed:args.seed ~smoke:args.smoke in
  let warm = w.Workload.pass () in
  (w, warm, now () -. t0)

(* Set-ups made in fresh processes, so one-time initialisation is paid
   by each of them. *)
let extra_setups = 2

let setup_in_child args =
  let argv =
    [| Sys.executable_name; "--setup-only"; "--workload"; args.workload; "--seed";
       string_of_int args.seed |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic, float_of_string_opt (String.trim out) with
  | Unix.WEXITED 0, Some s -> s
  | _ -> failwith ("set-up in a child process failed: " ^ out)

(* Under _build, which git ignores. *)
let trace_dir = "_build/perfbench"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let counter (s : Obs.Metrics.snapshot) name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name s.counters))

let memo_field (s : sample) table f =
  match List.find_opt (fun (m : Util.Eprof.memo_stats) -> m.table = table) s.memo with
  | Some m -> float_of_int (f m)
  | None -> 0.0

let artefacts = List.map fst Experiments.Report.artefact_names

(* Per-layer metrics of a traced run: medians over the untraced passes
   for times and GC, the traced pass for self times, exact counts for
   work done. *)
let layer_metrics (w : Workload.t) samples traced layers =
  let med f = median (List.map f samples) in
  let wall = med (fun s -> s.wall_s) in
  let jobs = float_of_int Workload.jobs in
  let self = Layers.self_s layers in
  let c = counter traced.counters in
  let static_instrs =
    match List.assoc_opt "strand.instrs_per_strand" traced.counters.histograms with
    | Some h -> h.Obs.Metrics.sum
    | None -> 0.0
  in
  let instrs_per_context = div static_instrs (c "strand.partitions") in
  let analysis_s = self "analysis" +. self "strand" in
  let budget = traced.wall_s *. jobs in
  let attributed = List.fold_left (fun acc l -> acc +. l.Layers.self_s) 0.0 layers in
  let s v = (v, "s") and n v = (v, "count") in
  ( List.map
    (fun a ->
      ( "experiments." ^ a ^ "_s",
        s (med (fun x -> Option.value ~default:0.0 (List.assoc_opt a x.pass.tables_s))) ))
    artefacts
  @ [
      ("experiments.self_s", s (self "experiments"));
      ("experiments.sweep_misses", n (med (fun x -> memo_field x "sweep.run" (fun m -> m.misses))));
      ("experiments.sweep_lookups", n (med (fun x -> memo_field x "sweep.run" (fun m -> m.lookups))));
      ("experiments.perf_misses", n (med (fun x -> memo_field x "perf_study.result" (fun m -> m.misses))));
      ("experiments.perf_lookups", n (med (fun x -> memo_field x "perf_study.result" (fun m -> m.lookups))));
      ("experiments.context_misses", n (med (fun x -> memo_field x "sweep.context" (fun m -> m.misses))));
      ( "experiments.memo_waits",
        n (med (fun x -> List.fold_left (fun acc (m : Util.Eprof.memo_stats) -> acc +. float_of_int m.waits) 0.0 x.memo)) );
      ("util.cpu_s", s (med (fun x -> x.cpu)));
      ("util.busy", (med (fun x -> div x.cpu (x.wall_s *. jobs)), "x"));
      ("analysis.context_s", s analysis_s);
      ("analysis.ns_per_instr", (1e9 *. div analysis_s static_instrs, "ns/instr"));
      ("strand.partitions", n (c "strand.partitions"));
      ("strand.strands", n (c "strand.strands"));
      ("alloc.place_s", s (self "alloc.place"));
      ( "alloc.ns_per_instr",
        (1e9 *. div (self "alloc.place") (c "alloc.runs" *. instrs_per_context), "ns/instr") );
      ("alloc.verify_s", s (self "alloc.verify"));
      ("alloc.runs", n (c "alloc.runs"));
      ("alloc.write_units", n (c "alloc.write_units"));
      ("sim.traffic_s", s (self "sim.traffic"));
      ("sim.traffic.runs", n (c "sim.traffic.runs"));
      ("sim.traffic.dynamic_instrs", n (c "sim.traffic.dynamic_instrs"));
      ( "sim.traffic.ns_per_instr",
        (1e9 *. div (self "sim.traffic") (c "sim.traffic.dynamic_instrs"), "ns/instr") );
      ("sim.perf_s", s (self "sim.perf"));
      ("sim.perf.runs", n (c "sim.perf.runs"));
      ("sim.perf.cycles", n (c "sim.perf.cycles"));
      ("sim.perf.ns_per_cycle", (1e9 *. div (self "sim.perf") (c "sim.perf.cycles"), "ns/cycle"));
      ("sim.simt_s", s (self "sim.simt"));
      ("transform_s", s (self "transform"));
      ("energy.counts_s", s (self "energy.counts"));
      ("workloads.generate_s", s w.Workload.generate_s);
      ("gc.minor_mwords", (med (fun x -> x.minor_words /. 1e6), "Mwords"));
      ("gc.promoted_mwords", (med (fun x -> x.promoted_words /. 1e6), "Mwords"));
      ("gc.major_collections", n (med (fun x -> float_of_int x.major_collections)));
      ("obs.traced_pass_s", s traced.wall_s);
      ("obs.trace_overhead_s", s (traced.wall_s -. wall));
      ("obs.unattributed_s", s (budget -. attributed));
    ],
    budget )

let write_trace args (w : Workload.t) spans layers ~budget metrics =
  let dir = Filename.concat trace_dir args.workload in
  mkdir_p dir;
  Obs.Trace_export.write_file ~path:(Filename.concat dir "trace.json")
    ~process_name:("perfbench " ^ args.workload) spans;
  let t =
    Layers.table ~title:(Printf.sprintf "%s: self time per layer, one traced pass" args.workload)
      ~budget_s:budget layers
  in
  let m = Util.Table.create ~title:"Per-layer metrics" ~columns:[ "Metric"; "Value"; "Unit" ] in
  List.iter (fun (k, (v, u)) -> Util.Table.add_row m [ k; Printf.sprintf "%.6g" v; u ]) metrics;
  let failed = w.Workload.failed_inputs () in
  let text =
    Util.Table.render t ^ "\n" ^ Util.Table.render m
    ^ (if failed = [] then "" else "\nFailed operations: " ^ String.concat ", " failed ^ "\n")
  in
  Out_channel.with_open_text (Filename.concat dir "layers.txt") (fun oc -> output_string oc text);
  prerr_string text;
  Printf.eprintf "trace and layer table written to %s\n%!" dir

let () =
  let args = parse_args () in
  if args.setup_only then begin
    let _, _, setup_s = setup args in
    Printf.printf "%.9f\n" setup_s;
    exit 0
  end;
  let child_setups =
    if args.smoke then [] else List.init extra_setups (fun _ -> setup_in_child args)
  in
  let w, warm, setup_s = setup args in
  let samples =
    let t0 = now () in
    let rec loop acc =
      let acc = measure w :: acc in
      if args.smoke || now () -. t0 >= args.seconds then List.rev acc else loop acc
    in
    loop []
  in
  let traced =
    if not args.trace then None
    else begin
      Obs.Span.reset ();
      Obs.Span.set_enabled true;
      let s = measure w in
      Obs.Span.set_enabled false;
      Some (s, Obs.Span.spans ())
    end
  in
  Printf.eprintf "%s: set-ups %s s; passes (wall/cpu) %s s\n%!" args.workload
    (String.concat " " (List.map (Printf.sprintf "%.3f") (setup_s :: child_setups)))
    (String.concat " " (List.map (fun s -> Printf.sprintf "%.3f/%.3f" s.wall_s s.cpu) samples));
  let outcome = w.Workload.outcome () in
  let all = samples @ Option.to_list (Option.map fst traced) in
  let digests = warm.Workload.digest :: List.map (fun s -> s.pass.Workload.digest) all in
  let check_failures =
    outcome.Workload.check_failures
    @ if List.for_all (( = ) warm.Workload.digest) digests then []
      else [ "outputs differ between passes over the same inputs" ]
  in
  List.iter (fun f -> prerr_endline ("CHECK FAILED: " ^ f)) check_failures;
  (match w.Workload.failed_inputs () with
   | [] -> ()
   | l -> prerr_endline ("failed operations: " ^ String.concat ", " l));
  let attempted = List.fold_left (fun acc s -> acc + s.pass.Workload.attempted) 0 all in
  let failed = List.fold_left (fun acc s -> acc + s.pass.Workload.failed) 0 all in
  let metrics =
    match traced with
    | None ->
      [
        ("wall_s", (median (List.map (fun s -> s.wall_s) samples), "s"));
        ("setup_s", (median (setup_s :: child_setups), "s"));
        ("peak_mem_mb", (peak_mem_mb (), "MB"));
        ("rf_energy_norm", (outcome.Workload.rf_energy_norm, "x"));
        ("sim_ipc", (outcome.Workload.sim_ipc, "instr/cycle"));
      ]
    | Some (t, spans) ->
      let layers = Layers.self_times spans in
      let metrics, budget = layer_metrics w samples t layers in
      write_trace args w spans layers ~budget metrics;
      metrics
  in
  let correct = check_failures = [] in
  let json =
    Obs.Json.Obj
      [
        ("correct", Obs.Json.Bool correct);
        ("attempted", Obs.Json.int attempted);
        ("failed", Obs.Json.int failed);
        ( "metrics",
          Obs.Json.Obj
            (List.map
               (fun (k, (v, u)) -> (k, Obs.Json.Obj [ ("value", Obs.Json.Num v); ("unit", Obs.Json.Str u) ]))
               metrics) );
      ]
  in
  print_endline (Obs.Json.to_string json);
  exit (if correct then 0 else 1)
