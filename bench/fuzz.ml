(* Differential fuzzing over random kernels (make fuzz; wired into
   make ci).

   Compiles Workloads.Generator seeds 0-999, each at size
   8 + (37 * seed mod 57), through the one compile-and-measure path
   (Sim.Pipeline) on 8 warps, and checks three independent facts per
   kernel:

   - the allocator's placement passes Alloc.Verify;
   - SW register-file energy is at most the single-level Baseline's;
   - the timing simulator executes exactly the dynamic instructions the
     traffic walk counted (both at the traffic walk's per-warp cap).

   Prints one line per failing seed with its first problem and exits 1
   if any seed fails; exits 0 and prints a summary otherwise.  The
   failing kernels can be committed as Ir.Asm text regressions (see
   test/kernels/). *)

let seeds = List.init 1000 Fun.id
let size_of_seed s = 8 + (37 * s mod 57)
let warps = 8

let problems seed =
  let k = Workloads.Generator.kernel ~size:(size_of_seed seed) ~seed () in
  match Sim.Pipeline.compile k with
  | _, Error errs -> [ "verify: " ^ List.hd errs ]
  | c, Ok () ->
    let m = Sim.Pipeline.measure ~warps c in
    let perf =
      Sim.Perf.run ~warps ~max_dynamic_per_warp:Sim.Traffic.default_max_dynamic_per_warp
        ~scheduler:(Sim.Perf.Two_level 2) ~policy:Sim.Perf.At_strand_boundaries
        c.Sim.Pipeline.context
    in
    let traffic = m.Sim.Pipeline.traffic.Sim.Traffic.dynamic_instrs in
    List.filter_map
      (fun (ok, what) -> if ok then None else Some what)
      [
        ( m.Sim.Pipeline.total_energy_pj <= m.Sim.Pipeline.baseline_energy_pj,
          Printf.sprintf "SW energy %.1f pJ above Baseline %.1f pJ" m.Sim.Pipeline.total_energy_pj
            m.Sim.Pipeline.baseline_energy_pj );
        ( perf.Sim.Perf.instructions = traffic,
          Printf.sprintf "Sim.Perf executed %d instructions, Sim.Traffic counted %d"
            perf.Sim.Perf.instructions traffic );
      ]

let () =
  let results =
    Util.Pool.parallel_map ~jobs:2 ~label:"fuzz" (fun s -> (s, problems s)) seeds
  in
  let failed = List.filter (fun (_, ps) -> ps <> []) results in
  List.iter
    (fun (s, ps) -> Printf.printf "fuzz: generator seed %d: %s\n" s (String.concat "; " ps))
    failed;
  match failed with
  | [] ->
    Printf.printf
      "fuzz OK: %d generator kernels verify, SW energy <= Baseline, Perf instructions = \
       Traffic instructions\n"
      (List.length seeds)
  | _ ->
    Printf.printf "fuzz: FAILED — %d of %d seeds: %s\n" (List.length failed) (List.length seeds)
      (String.concat ", " (List.map (fun (s, _) -> string_of_int s) failed));
    exit 1
