type row = {
  name : string;
  original : float;
  rescheduled : float;
  unrolled : float;
  unrolled_rescheduled : float;
  best : float;
}

(* SW and Baseline energy of one kernel, compiled and verified. *)
let measure (opts : Options.t) ~entries kernel =
  let config =
    Alloc.Config.make ~orf_entries:entries ~lrf:Alloc.Config.Split ~params:opts.Options.params ()
  in
  match Sim.Pipeline.compile ~config kernel with
  | _, Error errs ->
    failwith
      (Printf.sprintf "scheduling study: %s failed verification: %s" kernel.Ir.Kernel.name
         (String.concat "; " errs))
  | c, Ok () -> Sim.Pipeline.measure ~warps:opts.Options.warps ~seed:opts.Options.seed c

let compute ?(entries = 3) ?(factor = 4) (opts : Options.t) =
  List.map
    (fun (e : Workloads.Registry.entry) ->
      let ks = Lazy.force e.Workloads.Registry.kernels in
      (* Every variant is normalized to ITS OWN single-level baseline:
         unrolling changes the dynamic instruction count, so absolute
         energies are not comparable, ratios are. *)
      let ratio transform =
        let ms = List.map (fun k -> measure opts ~entries (transform k)) ks in
        let sum f = List.fold_left (fun acc m -> acc +. f m) 0.0 ms in
        Util.Stats.ratio
          (sum (fun m -> m.Sim.Pipeline.total_energy_pj))
          (sum (fun m -> m.Sim.Pipeline.baseline_energy_pj))
      in
      let original = ratio Fun.id in
      let rescheduled = ratio Transform.Reschedule.kernel in
      let unrolled = ratio (Transform.Unroll.kernel ~factor) in
      let unrolled_rescheduled =
        ratio (fun k -> Transform.Reschedule.kernel (Transform.Unroll.kernel ~factor k))
      in
      {
        name = e.Workloads.Registry.name;
        original;
        rescheduled;
        unrolled;
        unrolled_rescheduled;
        best = List.fold_left min original [ rescheduled; unrolled; unrolled_rescheduled ];
      })
    opts.Options.benchmarks

let table ?entries ?factor opts =
  let rows = compute ?entries ?factor opts in
  let t =
    Util.Table.create
      ~title:
        "Code motion (extension): normalized SW energy after real rescheduling / unrolling passes"
      ~columns:[ "Benchmark"; "Original"; "Rescheduled"; "Unrolled x4"; "Unroll+resched"; "JIT best" ]
  in
  List.iter
    (fun r ->
      Util.Table.add_float_row t r.name
        [ r.original; r.rescheduled; r.unrolled; r.unrolled_rescheduled; r.best ])
    rows;
  let mean f = Util.Stats.mean (List.map f rows) in
  Util.Table.add_float_row t "MEAN"
    [
      mean (fun r -> r.original);
      mean (fun r -> r.rescheduled);
      mean (fun r -> r.unrolled);
      mean (fun r -> r.unrolled_rescheduled);
      mean (fun r -> r.best);
    ];
  t
