(* Performance gate (make perfgate; wired into make ci).

   Times the sim:perf-two-level microbenchmark — the hot timing loop
   the allocation-free core targets — and measures the steady-state
   minor-heap cost of one run.  Both numbers are checked against the
   committed threshold file baselines/perfgate.json:

   - ns_per_run may regress at most 2x over the committed threshold:
     generous enough for machine-to-machine variance, tight enough to
     catch the cycle loop re-growing a per-cycle allocation or a
     quadratic scan;
   - minor words per run must stay under the committed cap.  The
     steady-state loop allocates nothing, so a run costs only the
     result record — a constant independent of cycle count;
   - promoted and major words per run (Gc.quick_stat deltas averaged
     over the timed runs) must stay under their committed caps: a
     steady-state allocation regression whose garbage survives minor
     collection would pass the minor-words gate while growing the
     major heap every run.

   The probe is timed --runs times (default 5); the gate compares the
   median, and the p90 rides along as a tail-latency indicator.  The
   measured numbers land in _build/perfgate.json for CI to upload, so
   the trajectory is recorded even when the gate passes.  With
   --history FILE one history record is appended to FILE so rfh trend
   sees the cross-run series; without it no tracked file is touched.
   If the threshold file does not exist yet it is recorded from the
   current measurement (the regress-gate convention). *)

let baseline_path = "baselines/perfgate.json"
let artifact_path = "_build/perfgate.json"
let default_timed_runs = 5

let arg_value name =
  let rec scan i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = name then Some Sys.argv.(i + 1)
    else scan (i + 1)
  in
  scan 1

let timed_runs =
  match Option.map int_of_string_opt (arg_value "--runs") with
  | Some (Some n) when n > 0 -> n
  | Some _ -> prerr_endline "perfgate: --runs wants a positive integer"; exit 2
  | None -> default_timed_runs

let history_path = arg_value "--history"

(* MatrixMul on 8 warps under the two-level scheduler, capped at 300
   dynamic instructions per warp: one short run of the cycle loop. *)
let bench_ctx () = Alloc.Context.create (Rfh.benchmark "MatrixMul")

let run_once ctx =
  Sim.Perf.run ~warps:8 ~max_dynamic_per_warp:300
    ~scheduler:(Sim.Perf.Two_level 8) ~policy:Sim.Perf.On_dependence ctx

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  a.(Array.length a / 2)

let p90 a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  a.(max 0 (int_of_float (ceil (0.9 *. float_of_int n)) - 1))

(* Caps recorded into a fresh baseline (and patched into a pre-GC-gate
   one): the steady-state loop promotes nothing, so anything beyond
   slack for an unluckily-timed minor collection is a regression. *)
let default_promoted_cap = 8192.0
let default_major_cap = 16384.0

let baseline_json ~ns ~minor_cap ~promoted_cap ~major_cap =
  Obs.Json.Obj
    [
      ("ns_per_run", Obs.Json.Num ns);
      ("max_minor_words_per_run", Obs.Json.Num minor_cap);
      ("max_promoted_words_per_run", Obs.Json.Num promoted_cap);
      ("max_major_words_per_run", Obs.Json.Num major_cap);
    ]

let read_baseline () =
  if not (Sys.file_exists baseline_path) then None
  else
    let s = In_channel.with_open_text baseline_path In_channel.input_all in
    match Obs.Json.parse s with
    | Error e ->
      Printf.eprintf "perfgate: cannot parse %s: %s\n" baseline_path e;
      exit 1
    | Ok j -> (
      let num k = Option.bind (Obs.Json.member k j) Obs.Json.to_num in
      match (num "ns_per_run", num "max_minor_words_per_run") with
      | Some t, Some cap ->
        (* Baselines written before the promotion gate lack the new
           caps; adopt the defaults and upgrade the file in place so
           the next run reads a complete threshold set. *)
        let promoted_cap, major_cap, upgraded =
          match (num "max_promoted_words_per_run", num "max_major_words_per_run") with
          | Some p, Some m -> (p, m, false)
          | p, m ->
            ( Option.value ~default:default_promoted_cap p,
              Option.value ~default:default_major_cap m,
              true )
        in
        Some (t, cap, promoted_cap, major_cap, upgraded)
      | _ ->
        Printf.eprintf "perfgate: malformed %s\n" baseline_path;
        exit 1)

let write_json path json =
  let oc = open_out path in
  Obs.Json.to_channel oc json;
  output_char oc '\n';
  close_out oc

let () =
  let wall0 = Obs.Clock.now_ns () in
  let ctx = bench_ctx () in
  (* Two warm-up runs fill the domain-local scratch and the predecode
     cache, so both the allocation probe and the timed runs see steady
     state; scratch reuse must not change the result. *)
  let r0 = run_once ctx in
  ignore (run_once ctx);
  let w0 = Gc.minor_words () in
  let r1 = run_once ctx in
  let words_per_run = Gc.minor_words () -. w0 in
  if r1 <> r0 then begin
    prerr_endline "perfgate: scratch reuse changed the simulation result";
    exit 1
  end;
  (* Promoted/major probe over the whole timed loop: a single run's
     delta is lumpy (promotion only happens when a minor collection
     lands mid-run), so the average over the timed runs is gated. *)
  let qs0 = Gc.quick_stat () in
  let samples =
    Array.init timed_runs (fun _ ->
        let t0 = Obs.Clock.now_ns () in
        ignore (run_once ctx);
        Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0))
  in
  let qs1 = Gc.quick_stat () in
  let per_run d = d /. float_of_int timed_runs in
  let promoted_per_run = per_run (qs1.Gc.promoted_words -. qs0.Gc.promoted_words) in
  let major_per_run = per_run (qs1.Gc.major_words -. qs0.Gc.major_words) in
  let ns_per_run = median samples in
  let p90_ns = p90 samples in
  let baseline =
    match read_baseline () with
    | Some (t, cap, pcap, mcap, upgraded) ->
      if upgraded then begin
        write_json baseline_path
          (baseline_json ~ns:t ~minor_cap:cap ~promoted_cap:pcap ~major_cap:mcap);
        Printf.printf "perfgate: added promoted/major caps to %s\n" baseline_path
      end;
      (t, cap, pcap, mcap)
    | None ->
      (* First run on this tree: record the current measurement as the
         threshold, with the fixed allocation caps the zero-alloc test
         also enforces. *)
      let cap = 8192.0 in
      write_json baseline_path
        (baseline_json ~ns:ns_per_run ~minor_cap:cap ~promoted_cap:default_promoted_cap
           ~major_cap:default_major_cap);
      Printf.printf "perfgate: no threshold recorded yet; wrote %s\n"
        baseline_path;
      (ns_per_run, cap, default_promoted_cap, default_major_cap)
  in
  let threshold_ns, words_cap, promoted_cap, major_cap = baseline in
  let allowed_ns = 2.0 *. threshold_ns in
  let time_ok = ns_per_run <= allowed_ns in
  let alloc_ok = words_per_run <= words_cap in
  let promoted_ok = promoted_per_run <= promoted_cap in
  let major_ok = major_per_run <= major_cap in
  write_json artifact_path
    (Obs.Json.Obj
       [
         ("benchmark", Obs.Json.Str "sim:perf-two-level");
         ("ns_per_run", Obs.Json.Num ns_per_run);
         ("p90_ns_per_run", Obs.Json.Num p90_ns);
         ("timed_runs", Obs.Json.int timed_runs);
         ("threshold_ns_per_run", Obs.Json.Num threshold_ns);
         ("allowed_ns_per_run", Obs.Json.Num allowed_ns);
         ("minor_words_per_run", Obs.Json.Num words_per_run);
         ("max_minor_words_per_run", Obs.Json.Num words_cap);
         ("promoted_words_per_run", Obs.Json.Num promoted_per_run);
         ("max_promoted_words_per_run", Obs.Json.Num promoted_cap);
         ("major_words_per_run", Obs.Json.Num major_per_run);
         ("max_major_words_per_run", Obs.Json.Num major_cap);
         ("cycles", Obs.Json.int r1.Sim.Perf.cycles);
         ("instructions", Obs.Json.int r1.Sim.Perf.instructions);
         ("pass", Obs.Json.Bool (time_ok && alloc_ok && promoted_ok && major_ok));
       ]);
  Printf.printf
    "perfgate: sim:perf-two-level %.2f ms/run median over %d, p90 %.2f ms \
     (threshold %.2f ms, allowed %.2f ms), %.0f minor words/run (cap %.0f), \
     %.0f promoted (cap %.0f), %.0f major (cap %.0f); wrote %s\n"
    (ns_per_run /. 1e6) timed_runs (p90_ns /. 1e6) (threshold_ns /. 1e6)
    (allowed_ns /. 1e6) words_per_run words_cap promoted_per_run promoted_cap
    major_per_run major_cap artifact_path;
  (match history_path with
  | None -> ()
  | Some path ->
    let record =
      {
        Obs.History.timestamp = Obs.Host.utc_now ();
        source = "perfgate";
        host = Obs.Host.fingerprint ();
        jobs = 1;
        wall_s =
          Obs.Clock.ns_to_ms (Int64.sub (Obs.Clock.now_ns ()) wall0) /. 1000.0;
        benches = [];
        perfgate =
          Some
            {
              Obs.History.pg_ns_per_run = ns_per_run;
              pg_p90_ns = p90_ns;
              pg_minor_words = words_per_run;
              pg_runs = timed_runs;
              pg_promoted_words = Some promoted_per_run;
              pg_major_words = Some major_per_run;
            };
        engine = None;
        gc = None;
        jobs2_slower = None;
      }
    in
    Obs.History.append ~path record;
    Printf.printf "perfgate: history record -> %s\n" path);
  if not time_ok then
    Printf.eprintf
      "perfgate: FAIL — ns_per_run regressed more than 2x over %s\n"
      baseline_path;
  if not alloc_ok then
    Printf.eprintf
      "perfgate: FAIL — steady-state run allocates %.0f minor words (cap \
       %.0f); the cycle loop is allocating again\n"
      words_per_run words_cap;
  if not promoted_ok then
    Printf.eprintf
      "perfgate: FAIL — steady-state run promotes %.0f words (cap %.0f); \
       per-run garbage is surviving minor collection\n"
      promoted_per_run promoted_cap;
  if not major_ok then
    Printf.eprintf
      "perfgate: FAIL — steady-state run grows the major heap by %.0f words \
       (cap %.0f)\n"
      major_per_run major_cap;
  if not (time_ok && alloc_ok && promoted_ok && major_ok) then exit 1
