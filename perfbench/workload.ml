(* The benchmark workloads: what one pass does, and the checks on
   its outputs.

   A workload builds its inputs (part of set-up), then runs pass after
   pass.  Every pass does the same work, so its outputs must be
   byte-identical from pass to pass; the simulated results and the
   method's properties are checked once the passes are done.

   Both workloads run on two domains: a single domain's pass time swings
   with the host's load far more than the bounds allow (see
   README.md). *)

module Report = Experiments.Report
module Sweep = Experiments.Sweep

let now () = Int64.to_float (Obs.Clock.now_ns ()) *. 1e-9

type pass = {
  attempted : int;
  failed : int;
  tables_s : (string * float) list;
      (** time of each [Report.tables_of] call, by artefact name *)
  digest : string;  (** of every output of the pass, in a fixed order *)
}

type outcome = {
  rf_energy_norm : float;
  sim_ipc : float;
  check_failures : string list;
}

let jobs = 2

type t = {
  generate_s : float;  (** time spent building the inputs *)
  pass : unit -> pass;
  outcome : unit -> outcome;
  failed_inputs : unit -> string list;  (** inputs whose operation failed in the last pass *)
}

let names = [ "paper-jobs2"; "random-compile" ]

let shuffle ~seed xs =
  let a = Array.of_list xs in
  let prng = Util.Prng.create seed in
  for i = Array.length a - 1 downto 1 do
    let j = Util.Prng.int prng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* Adds a check failure unless [ok]. *)
let check failures what ok = if not ok then failures := what :: !failures

let stall_sum_ok (r : Sim.Perf.result) ~warps =
  Sim.Perf.breakdown_total r.Sim.Perf.stalls = r.Sim.Perf.cycles * warps

(* ---- paper-jobs2 --------------------------------------------------- *)

(* The paper's claims that paper-jobs2 checks (Fig. 13, Sec. 6). *)
let paper_sw_energy = 0.46
let paper_energy_tolerance = 0.05
let min_relative_ipc = 0.98

(* Perf_study's configuration of the timing simulator. *)
let perf_study_warps = 32
let perf_study_cap = 600
let active_warps = 8

let smoke_benchmarks = [ "mm"; "vadd"; "reduce" ]

(* [rfh all --jobs 2]: the Table-1 suite in the artefact order of
   [rfh all], whatever the seed, since it has no random input. *)
let paper ~smoke =
  let t0 = now () in
  let opts = Experiments.Options.with_jobs (Experiments.Options.default ()) jobs in
  let opts = if smoke then Experiments.Options.with_benchmarks opts smoke_benchmarks else opts in
  List.iter
    (fun (e : Workloads.Registry.entry) -> ignore (Lazy.force e.Workloads.Registry.kernels))
    opts.Experiments.Options.benchmarks;
  let generate_s = now () -. t0 in
  let artefacts = List.map snd Report.artefact_names in
  let pass () =
    Report.clear_caches ();
    let results =
      List.map
        (fun a ->
          let t = now () in
          let out =
            match Report.tables_of opts a with
            | tables -> Some (String.concat "" (List.map Util.Table.render tables))
            | exception e ->
              Printf.eprintf "%s: %s\n%!" (Report.name_of a) (Printexc.to_string e);
              None
          in
          (a, now () -. t, out))
        artefacts
    in
    let outputs = List.map (fun (_, _, out) -> Option.value ~default:"<failed>" out) results in
    {
      attempted = List.length results;
      failed = List.length (List.filter (fun (_, _, out) -> out = None) results);
      tables_s = List.map (fun (a, s, _) -> (Report.name_of a, s)) results;
      digest = Digest.string (String.concat "\x00" outputs);
    }
  in
  let outcome () =
    let failures = ref [] in
    let sw = Sweep.mean_energy_ratio opts Sweep.Sw_three_split ~entries:3 in
    let hw = Sweep.mean_energy_ratio opts Sweep.Hw_two ~entries:3 in
    if not smoke then
      check failures
        (Printf.sprintf "SW three-level split energy %.3f is not within %.2f of the paper's %.2f"
           sw paper_energy_tolerance paper_sw_energy)
        (Float.abs (sw -. paper_sw_energy) <= paper_energy_tolerance);
    check failures
      (Printf.sprintf "SW three-level split energy %.3f is not below HW RFC's %.3f at 3 entries" sw hw)
      (sw < hw);
    List.iter
      (fun (policy, label) ->
        let rel = Experiments.Perf_study.relative_ipc opts ~policy ~active:active_warps in
        check failures
          (Printf.sprintf "two-level relative IPC %.4f under the %s policy is below %.2f" rel label
             min_relative_ipc)
          (rel >= min_relative_ipc))
      [ (Sim.Perf.On_dependence, "HW"); (Sim.Perf.At_strand_boundaries, "SW") ];
    (* Perf_study keeps its simulator results private, so the IPC metric
       re-runs its two-level, strand-boundary configuration. *)
    let ipcs =
      List.map
        (fun (e : Workloads.Registry.entry) ->
          let r =
            Sim.Perf.run ~warps:perf_study_warps ~seed:opts.Experiments.Options.seed
              ~max_dynamic_per_warp:perf_study_cap ~scheduler:(Sim.Perf.Two_level active_warps)
              ~policy:Sim.Perf.At_strand_boundaries (Sweep.context e)
          in
          check failures
            (Printf.sprintf "%s: stall breakdown does not sum to cycles x warps" e.Workloads.Registry.name)
            (stall_sum_ok r ~warps:perf_study_warps);
          r.Sim.Perf.ipc)
        opts.Experiments.Options.benchmarks
    in
    { rf_energy_norm = sw; sim_ipc = Util.Stats.mean ipcs; check_failures = List.rev !failures }
  in
  { generate_s; pass; outcome; failed_inputs = (fun () -> []) }

(* ---- random-compile ------------------------------------------------ *)

let random_kernels = 1000
let smoke_kernels = List.init 6 (fun i -> 60 + i)  (* includes the failing seed 63 *)
let size_of_seed s = 8 + (37 * s mod 57)
let random_warps = 8
let random_active = 2  (* the paper's 8-of-32 active-set proportion *)
let sim_seed = 0x5eed  (* Rfh.measure's default *)
let traffic_cap = 100_000  (* Sim.Traffic's default, which Rfh.measure uses *)

(* A kernel that compiles, with the problems the checks found in it. *)
type kernel_result = { energy_norm : float; ipc : float; problems : string list }

let random_compile ~seed ~smoke =
  let t0 = now () in
  let ids = if smoke then smoke_kernels else List.init random_kernels Fun.id in
  let kernels =
    List.map
      (fun s -> (s, Workloads.Generator.kernel ~size:(size_of_seed s) ~seed:s ()))
      (shuffle ~seed ids)
  in
  let generate_s = now () -. t0 in
  let config = Alloc.Config.make () in
  let span = Obs.Span.with_span in
  let last = ref [] in
  (* One operation: the steps of Rfh.compile, each timed as its own
     layer, then Baseline/SW traffic and one timing run.  A placement
     the verifier rejects is a failed operation: [Error] with the
     verifier's first complaint. *)
  let operation k =
    let context = span "analysis" (fun () -> Alloc.Context.create k) in
    let placement, stats = span "alloc.place" (fun () -> Alloc.Allocator.run config context) in
    match span "alloc.verify" (fun () -> Alloc.Verify.check config context placement) with
    | Error errs -> Error (match errs with e :: _ -> e | [] -> "rejected")
    | Ok () ->
      let compiled = { Rfh.context; config; placement; stats } in
      let m = span "energy.counts" (fun () -> Rfh.measure ~warps:random_warps ~seed:sim_seed compiled) in
      let r =
        span "sim.perf" (fun () ->
            Sim.Perf.run ~warps:random_warps ~seed:sim_seed ~max_dynamic_per_warp:traffic_cap
              ~scheduler:(Sim.Perf.Two_level random_active) ~policy:Sim.Perf.At_strand_boundaries
              context)
      in
      let problems = ref [] in
      let dynamic = m.Rfh.traffic.Sim.Traffic.dynamic_instrs in
      check problems "SW energy above Baseline" (m.Rfh.total_energy_pj <= m.Rfh.baseline_energy_pj);
      check problems
        (Printf.sprintf "Sim.Perf executed %d instructions, Sim.Traffic counted %d"
           r.Sim.Perf.instructions dynamic)
        (r.Sim.Perf.instructions = dynamic);
      check problems "stall breakdown does not sum to cycles x warps" (stall_sum_ok r ~warps:random_warps);
      Ok { energy_norm = m.Rfh.normalized_energy; ipc = r.Sim.Perf.ipc; problems = !problems }
  in
  let pass () =
    let results =
      Util.Pool.parallel_map ~jobs ~label:"random-compile"
        (fun (s, k) -> (s, operation k))
        kernels
    in
    last := List.sort compare results;
    {
      attempted = List.length results;
      failed = List.length (List.filter (fun (_, r) -> Result.is_error r) results);
      tables_s = [];
      digest = Digest.string (Marshal.to_string !last [ Marshal.No_sharing ]);
    }
  in
  let outcome () =
    let compiled = List.filter_map (fun (s, r) -> Result.to_option r |> Option.map (fun k -> (s, k))) !last in
    {
      rf_energy_norm = Util.Stats.mean (List.map (fun (_, k) -> k.energy_norm) compiled);
      sim_ipc = Util.Stats.mean (List.map (fun (_, k) -> k.ipc) compiled);
      check_failures =
        List.concat_map
          (fun (s, k) -> List.map (Printf.sprintf "kernel seed %d: %s" s) k.problems)
          compiled;
    }
  in
  let failed_inputs () =
    List.filter_map
      (function s, Error e -> Some (Printf.sprintf "generator seed %d (%s)" s e) | _, Ok _ -> None)
      !last
  in
  { generate_s; pass; outcome; failed_inputs }

let create name ~seed ~smoke =
  match name with
  | "paper-jobs2" -> paper ~smoke
  | "random-compile" -> random_compile ~seed ~smoke
  | _ -> invalid_arg ("unknown workload " ^ name)
