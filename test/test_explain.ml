(* Tests for the decision-level introspection layer: the allocation
   explainer (zero-cost-when-off, placement-neutral, manifest-neutral),
   per-instruction energy attribution, and the simulator counter
   tracks. *)

let check = Alcotest.check

(* The explainer and counter recorders are global; leave them off for
   whoever runs next. *)
let isolated f () =
  Fun.protect
    ~finally:(fun () ->
      Obs.Explain.disable ();
      Obs.Counters.set_enabled false;
      Obs.Counters.reset ();
      Obs.Span.set_enabled false;
      Obs.Span.reset ())
    f

let kernel_of name =
  match Workloads.Registry.find name with
  | Some e -> Lazy.force e.Workloads.Registry.kernel
  | None -> Alcotest.failf "unknown benchmark %s" name

let kernels_of name =
  match Workloads.Registry.find name with
  | Some e -> Lazy.force e.Workloads.Registry.kernels
  | None -> Alcotest.failf "unknown benchmark %s" name

let config () = Alloc.Config.make ~orf_entries:3 ~lrf:Alloc.Config.Split ()

(* --- Placement neutrality ----------------------------------------- *)

(* Property (satellite of the explainer): recording decisions must not
   change what the allocator decides. *)
let test_placements_identical_on_off () =
  List.iter
    (fun bench ->
      List.iter
        (fun k ->
          let config = config () in
          let ctx = Alloc.Context.create k in
          Obs.Explain.disable ();
          let p_off, s_off = Alloc.Allocator.run config ctx in
          let sink, _decisions = Obs.Explain.memory_sink () in
          Obs.Explain.set_sink sink;
          let p_on, s_on = Alloc.Allocator.run config ctx in
          Obs.Explain.disable ();
          check Alcotest.bool
            (Printf.sprintf "%s/%s: same placement" bench k.Ir.Kernel.name)
            true (p_off = p_on);
          check Alcotest.bool
            (Printf.sprintf "%s/%s: same stats" bench k.Ir.Kernel.name)
            true (s_off = s_on))
        (kernels_of bench))
    [ "MatrixMul"; "Reduction"; "hotspot"; "Mandelbrot" ]

(* --- One decision per live-range unit ----------------------------- *)

let outcome_is_lrf (d : Obs.Explain.decision) =
  match d.Obs.Explain.outcome with Obs.Explain.To_lrf _ -> true | _ -> false

let outcome_is_orf (d : Obs.Explain.decision) =
  match d.Obs.Explain.outcome with Obs.Explain.To_orf _ -> true | _ -> false

let outcome_is_partial (d : Obs.Explain.decision) =
  match d.Obs.Explain.outcome with
  | Obs.Explain.To_orf { shortened; _ } -> shortened > 0
  | _ -> false

let test_decision_counts_match_stats () =
  List.iter
    (fun bench ->
      let k = kernel_of bench in
      let config = config () in
      let ctx = Alloc.Context.create k in
      let sink, decisions = Obs.Explain.memory_sink () in
      Obs.Explain.set_sink sink;
      let _placement, stats = Alloc.Allocator.run config ctx in
      Obs.Explain.disable ();
      let ds = decisions () in
      let count p = List.length (List.filter p ds) in
      check Alcotest.int
        (bench ^ ": one decision per unit")
        (stats.Alloc.Allocator.write_units + stats.Alloc.Allocator.read_units)
        (List.length ds);
      check Alcotest.int (bench ^ ": LRF outcomes") stats.Alloc.Allocator.lrf_allocated
        (count outcome_is_lrf);
      check Alcotest.int (bench ^ ": ORF outcomes") stats.Alloc.Allocator.orf_allocated
        (count outcome_is_orf);
      check Alcotest.int (bench ^ ": partial outcomes")
        stats.Alloc.Allocator.partial_allocated (count outcome_is_partial);
      (* Deterministic emission: seq is the emission index, write units
         before read units. *)
      List.iteri
        (fun i (d : Obs.Explain.decision) ->
          check Alcotest.int (bench ^ ": seq is dense") i d.Obs.Explain.seq)
        ds;
      let rec no_write_after_read seen_read = function
        | [] -> true
        | d :: tl ->
          (match d.Obs.Explain.kind with
           | "read_unit" -> no_write_after_read true tl
           | _ -> (not seen_read) && no_write_after_read false tl)
      in
      check Alcotest.bool (bench ^ ": write units first") true
        (no_write_after_read false ds);
      (* A chosen candidate exists exactly when the unit was placed. *)
      List.iter
        (fun (d : Obs.Explain.decision) ->
          let chosen =
            List.exists
              (fun (c : Obs.Explain.candidate) -> c.Obs.Explain.verdict = Obs.Explain.Chosen)
              d.Obs.Explain.candidates
          in
          check Alcotest.bool (bench ^ ": chosen iff placed") (Obs.Explain.placed d) chosen)
        ds)
    [ "MatrixMul"; "Reduction"; "cp"; "hotspot" ]

(* --- Determinism of the event stream ------------------------------ *)

let test_decisions_deterministic () =
  let k = kernel_of "MatrixMul" in
  let config = config () in
  let run () =
    let ctx = Alloc.Context.create k in
    let sink, decisions = Obs.Explain.memory_sink () in
    Obs.Explain.set_sink sink;
    ignore (Alloc.Allocator.run config ctx);
    Obs.Explain.disable ();
    List.map (fun d -> Obs.Json.to_string (Obs.Explain.to_json d)) (decisions ())
  in
  check Alcotest.(list string) "two runs emit identical streams" (run ()) (run ())

(* --- JSONL round-trip --------------------------------------------- *)

let test_json_roundtrip () =
  let k = kernel_of "Reduction" in
  let config = config () in
  let ctx = Alloc.Context.create k in
  let sink, decisions = Obs.Explain.memory_sink () in
  Obs.Explain.set_sink sink;
  ignore (Alloc.Allocator.run config ctx);
  Obs.Explain.disable ();
  let ds = decisions () in
  check Alcotest.bool "some decisions recorded" true (ds <> []);
  List.iter
    (fun d ->
      let line = Obs.Json.to_string (Obs.Explain.to_json d) in
      match Obs.Json.parse line with
      | Error e -> Alcotest.fail e
      | Ok j ->
        (match Obs.Explain.of_json j with
         | Error e -> Alcotest.fail e
         | Ok d' ->
           check Alcotest.string "re-encode is byte-identical" line
             (Obs.Json.to_string (Obs.Explain.to_json d'))))
    ds

let test_of_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Error _ -> ()
      | Ok j ->
        (match Obs.Explain.of_json j with
         | Error _ -> ()
         | Ok _ -> Alcotest.failf "accepted %s" s))
    [ "{}"; "{\"ev\":\"span\"}"; "[1,2]"; "{\"ev\":\"decision\",\"seq\":\"x\"}" ]

(* --- Manifest neutrality (byte-level, across --jobs) --------------- *)

(* Scrub the only wall-clock field ([total_ms]) and the recorded
   parallelism ([options.jobs] — how the run was parallelised, never a
   result) so byte comparison is meaningful. *)
let rec scrub_total_ms = function
  | Obs.Json.Obj fields ->
    Obs.Json.Obj
      (List.map
         (fun (k, v) ->
           if k = "total_ms" || k = "jobs" then (k, Obs.Json.Num 0.0)
           else (k, scrub_total_ms v))
         fields)
  | Obs.Json.Arr xs -> Obs.Json.Arr (List.map scrub_total_ms xs)
  | j -> j

let collect_scrubbed ~jobs =
  Obs.Metrics.reset ();
  Obs.Span.reset ();
  Experiments.Sweep.clear_caches ();
  let opts =
    Experiments.Options.with_jobs
      (Experiments.Options.with_benchmarks
         { (Experiments.Options.default ()) with Experiments.Options.warps = 4 }
         [ "VectorAdd"; "MatrixMul" ])
      jobs
  in
  let m = Experiments.Run_manifest.collect opts in
  Obs.Json.to_string (scrub_total_ms (Obs.Manifest.to_json m))

let test_manifest_bytes_explainer_on_off () =
  Obs.Explain.disable ();
  let off = collect_scrubbed ~jobs:1 in
  let sink, _ = Obs.Explain.memory_sink () in
  Obs.Explain.set_sink sink;
  let on = collect_scrubbed ~jobs:1 in
  let on_par = collect_scrubbed ~jobs:4 in
  Obs.Explain.disable ();
  check Alcotest.string "explainer does not perturb the manifest" off on;
  check Alcotest.string "--jobs parity holds with the explainer on" off on_par

(* --- Energy attribution ------------------------------------------- *)

let test_attribution_sums_to_total () =
  let k = kernel_of "MatrixMul" in
  let config = config () in
  let ctx = Alloc.Context.create k in
  let placement = Alloc.Allocator.place config ctx in
  let r =
    Sim.Traffic.run ~warps:4 ~attribution:true ctx (Sim.Traffic.Sw { config; placement })
  in
  let params = Energy.Params.default in
  check Alcotest.bool "attribution enabled" true
    (Energy.Counts.attribution_enabled r.Sim.Traffic.counts);
  let energies = Energy.Counts.attributed_energies params ~orf_entries:3 r.Sim.Traffic.counts in
  check Alcotest.int "one slot per static instruction" (Ir.Kernel.instr_count k)
    (Array.length energies);
  let sum = Array.fold_left ( +. ) 0.0 energies in
  let total =
    (Energy.Counts.energy params ~orf_entries:3 r.Sim.Traffic.counts).Energy.Counts.total
  in
  check (Alcotest.float 1e-6) "attributed energy sums to the breakdown total" total sum

let test_attribution_off_is_empty () =
  let c = Energy.Counts.create () in
  Energy.Counts.bump_read c Energy.Model.Mrf Energy.Model.Private ~pc:0 ~n:3;
  check Alcotest.bool "off by default" false (Energy.Counts.attribution_enabled c);
  check Alcotest.int "no table" 0
    (Array.length (Energy.Counts.attributed_energies Energy.Params.default ~orf_entries:3 c));
  check (Alcotest.float 0.0) "instr_energy is 0 when off" 0.0
    (Energy.Counts.instr_energy Energy.Params.default ~orf_entries:3 c ~pc:0)

let test_top_instrs_ordering () =
  let c = Energy.Counts.create () in
  Energy.Counts.enable_attribution c ~instrs:4;
  (* pc 2 heaviest, pcs 0 and 3 tie, pc 1 zero. *)
  Energy.Counts.bump_read c Energy.Model.Mrf Energy.Model.Private ~pc:2 ~n:10;
  Energy.Counts.bump_read c Energy.Model.Mrf Energy.Model.Private ~pc:0 ~n:2;
  Energy.Counts.bump_read c Energy.Model.Mrf Energy.Model.Private ~pc:3 ~n:2;
  let top = Energy.Counts.top_instrs Energy.Params.default ~orf_entries:3 ~n:3 c in
  check Alcotest.(list int) "energy descending, pc ascending on ties" [ 2; 0; 3 ]
    (List.map fst top);
  (* Out-of-range pcs are dropped from attribution, still counted. *)
  Energy.Counts.bump_write c Energy.Model.Mrf Energy.Model.Private ~pc:99 ~n:5;
  check Alcotest.int "aggregate keeps out-of-range counts" 5
    (Energy.Counts.writes c Energy.Model.Mrf);
  check (Alcotest.float 0.0) "attribution drops them" 0.0
    (Energy.Counts.instr_energy Energy.Params.default ~orf_entries:3 c ~pc:99)

let test_merge_adopts_attribution () =
  let params = Energy.Params.default in
  let a = Energy.Counts.create () in
  let b = Energy.Counts.create () in
  Energy.Counts.enable_attribution b ~instrs:2;
  Energy.Counts.bump_read b Energy.Model.Orf Energy.Model.Private ~pc:1 ~n:4;
  Energy.Counts.merge_into ~dst:a b;
  check Alcotest.bool "dst adopts the table" true (Energy.Counts.attribution_enabled a);
  check Alcotest.bool "adoption is a copy" false
    (Energy.Counts.instr_energy params ~orf_entries:3 a ~pc:1 = 0.0);
  Energy.Counts.bump_read b Energy.Model.Orf Energy.Model.Private ~pc:1 ~n:4;
  let ea = Energy.Counts.instr_energy params ~orf_entries:3 a ~pc:1 in
  let eb = Energy.Counts.instr_energy params ~orf_entries:3 b ~pc:1 in
  check Alcotest.bool "src growth does not leak into dst" true (eb > ea);
  let wrong = Energy.Counts.create () in
  Energy.Counts.enable_attribution wrong ~instrs:5;
  Alcotest.check_raises "size mismatch rejected"
    (Invalid_argument "Energy.Counts.merge_into: attribution tables differ in size")
    (fun () -> Energy.Counts.merge_into ~dst:a wrong)

(* --- Counter tracks ----------------------------------------------- *)

let expected_tracks =
  [
    "alloc.lrf_occupancy"; "alloc.orf_occupancy"; "perf.active_warps"; "perf.issued";
    "perf.rf_accesses"; "simt.active_threads"; "traffic.lrf_accesses";
    "traffic.mrf_accesses"; "traffic.orf_accesses";
  ]

let run_counter_workload () =
  Obs.Counters.reset ();
  let k = kernel_of "Reduction" in
  let config = config () in
  let ctx = Alloc.Context.create k in
  let placement = Alloc.Allocator.place config ctx in
  ignore (Sim.Traffic.run ~warps:4 ctx (Sim.Traffic.Sw { config; placement }));
  ignore
    (Sim.Perf.run ~warps:4 ~scheduler:(Sim.Perf.Two_level 2) ~policy:Sim.Perf.On_dependence ctx);
  ignore (Sim.Simt.traffic ~warps:4 ctx ~scheme:(`Sw (config, placement)));
  Obs.Counters.tracks ()

(* Golden-stability property: simulated-time stamps make fixed-seed
   counter tracks byte-deterministic, so the exported Perfetto JSON
   (spans excluded — those carry wall clock) reproduces exactly. *)
let test_counter_tracks_deterministic () =
  Obs.Counters.set_enabled true;
  let t1 = run_counter_workload () in
  let t2 = run_counter_workload () in
  Obs.Counters.set_enabled false;
  check Alcotest.(list string) "every simulator published its tracks" expected_tracks
    (List.map (fun (t : Obs.Counters.track) -> t.Obs.Counters.track) t1);
  check Alcotest.bool "tracks are run-to-run identical" true (t1 = t2);
  let export ts = Obs.Trace_export.to_string ~counters:ts [] in
  check Alcotest.string "exported JSON is byte-stable" (export t1) (export t2)

let test_counter_export_shape () =
  Obs.Counters.set_enabled true;
  let tracks = run_counter_workload () in
  Obs.Counters.set_enabled false;
  let j =
    match Obs.Json.parse (Obs.Trace_export.to_string ~counters:tracks []) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let events =
    match Option.bind (Obs.Json.member "traceEvents" j) Obs.Json.to_list with
    | Some evs -> evs
    | None -> Alcotest.fail "no traceEvents"
  in
  let counter_events =
    List.filter
      (fun e -> Option.bind (Obs.Json.member "ph" e) Obs.Json.to_str = Some "C")
      events
  in
  check Alcotest.bool "counter events present" true (counter_events <> []);
  List.iter
    (fun e ->
      check Alcotest.(option int) "counter events live on pid 2" (Some 2)
        (Option.bind (Obs.Json.member "pid" e) Obs.Json.to_int))
    counter_events;
  (* Samples recorded in the serial workload all carry the recording
     domain as tid. *)
  let tids =
    List.sort_uniq compare
      (List.filter_map (fun e -> Option.bind (Obs.Json.member "tid" e) Obs.Json.to_int)
         counter_events)
  in
  check Alcotest.int "serial workload records one tid" 1 (List.length tids)

(* Per-domain tid separation: samples from different domains land on
   different counter-track rows. *)
let test_counter_domain_separation () =
  Obs.Counters.set_enabled true;
  Obs.Counters.reset ();
  Obs.Counters.sample "sep.track" ~at:0.0 1.0;
  let d = Domain.spawn (fun () -> Obs.Counters.sample "sep.track" ~at:1.0 2.0) in
  Domain.join d;
  let tracks = Obs.Counters.tracks () in
  Obs.Counters.set_enabled false;
  (match tracks with
   | [ t ] ->
     let domains =
       List.sort_uniq compare
         (List.map (fun (s : Obs.Counters.sample) -> s.Obs.Counters.domain) t.Obs.Counters.samples)
     in
     check Alcotest.int "two recording domains" 2 (List.length domains);
     let j =
       match Obs.Json.parse (Obs.Trace_export.to_string ~counters:tracks []) with
       | Ok j -> j
       | Error e -> Alcotest.fail e
     in
     let events =
       Option.value ~default:[]
         (Option.bind (Obs.Json.member "traceEvents" j) Obs.Json.to_list)
     in
     let tids =
       List.sort_uniq compare
         (List.filter_map
            (fun e ->
              if Option.bind (Obs.Json.member "ph" e) Obs.Json.to_str = Some "C" then
                Option.bind (Obs.Json.member "tid" e) Obs.Json.to_int
              else None)
            events)
     in
     check Alcotest.(list int) "tid per domain" domains tids
   | ts -> Alcotest.failf "expected one track, got %d" (List.length ts))

let test_counters_disabled_record_nothing () =
  Obs.Counters.set_enabled false;
  Obs.Counters.reset ();
  Obs.Counters.sample "nope" ~at:0.0 1.0;
  check Alcotest.int "no samples when disabled" 0 (List.length (Obs.Counters.tracks ()))

(* --- Metrics histogram under concurrent observation (lock fix) ----- *)

let test_histogram_concurrent_snapshot () =
  let r = Obs.Metrics.create_registry () in
  let h = Obs.Metrics.histogram ~registry:r "conc.hist" in
  let writers =
    List.init 4 (fun w ->
        Domain.spawn (fun () ->
            for i = 0 to 999 do
              Obs.Metrics.observe h (float_of_int ((w * 1000) + i))
            done))
  in
  (* Snapshot while writers run: percentile sorting happens outside the
     histogram mutex, so this must neither deadlock nor crash. *)
  for _ = 1 to 50 do
    ignore (Obs.Metrics.snapshot ~registry:r ())
  done;
  List.iter Domain.join writers;
  let s =
    match List.assoc_opt "conc.hist" (Obs.Metrics.snapshot ~registry:r ()).Obs.Metrics.histograms with
    | Some s -> s
    | None -> Alcotest.fail "histogram missing from snapshot"
  in
  check Alcotest.int "all observations counted" 4000 s.Obs.Metrics.count;
  check (Alcotest.float 1e-9) "min" 0.0 s.Obs.Metrics.min;
  check (Alcotest.float 1e-9) "max" 3999.0 s.Obs.Metrics.max;
  check Alcotest.bool "median in range" true
    (s.Obs.Metrics.p50 >= 1000.0 && s.Obs.Metrics.p50 <= 3000.0)

let suite =
  [
    Alcotest.test_case "placements identical on/off" `Quick
      (isolated test_placements_identical_on_off);
    Alcotest.test_case "decision counts match stats" `Quick
      (isolated test_decision_counts_match_stats);
    Alcotest.test_case "decision stream deterministic" `Quick
      (isolated test_decisions_deterministic);
    Alcotest.test_case "decision JSON round-trip" `Quick (isolated test_json_roundtrip);
    Alcotest.test_case "decision JSON rejects garbage" `Quick
      (isolated test_of_json_rejects_garbage);
    Alcotest.test_case "manifest bytes: explainer + --jobs parity" `Slow
      (isolated test_manifest_bytes_explainer_on_off);
    Alcotest.test_case "attribution sums to total" `Quick
      (isolated test_attribution_sums_to_total);
    Alcotest.test_case "attribution off is empty" `Quick (isolated test_attribution_off_is_empty);
    Alcotest.test_case "top instrs ordering" `Quick (isolated test_top_instrs_ordering);
    Alcotest.test_case "merge adopts attribution" `Quick (isolated test_merge_adopts_attribution);
    Alcotest.test_case "counter tracks deterministic" `Quick
      (isolated test_counter_tracks_deterministic);
    Alcotest.test_case "counter export shape" `Quick (isolated test_counter_export_shape);
    Alcotest.test_case "counter domain separation" `Quick
      (isolated test_counter_domain_separation);
    Alcotest.test_case "counters disabled record nothing" `Quick
      (isolated test_counters_disabled_record_nothing);
    Alcotest.test_case "histogram concurrent snapshot" `Quick
      (isolated test_histogram_concurrent_snapshot);
  ]
