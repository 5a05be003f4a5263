module Util = Util
module Ir = Ir
module Analysis = Analysis
module Strand = Strand
module Energy = Energy
module Alloc = Alloc
module Machine = Machine
module Transform = Transform
module Sim = Sim
module Workloads = Workloads
module Experiments = Experiments

type compiled = Sim.Pipeline.compiled = {
  context : Alloc.Context.t;
  config : Alloc.Config.t;
  placement : Alloc.Placement.t;
  stats : Alloc.Allocator.stats;
}

let compile ?config kernel =
  match Sim.Pipeline.compile ?config kernel with
  | c, Ok () -> c
  | _, Error errs ->
    failwith
      (Printf.sprintf "Rfh.compile: placement verification failed (library bug):\n%s"
         (String.concat "\n" errs))

type measurement = Sim.Pipeline.measurement = {
  traffic : Sim.Traffic.result;
  baseline : Sim.Traffic.result;
  total_energy_pj : float;
  baseline_energy_pj : float;
  normalized_energy : float;
  savings_percent : float;
}

let measure ?warps ?seed compiled = Sim.Pipeline.measure ?warps ?seed compiled

let benchmark name =
  match Workloads.Registry.find name with
  | Some e -> Lazy.force e.Workloads.Registry.kernel
  | None -> raise Not_found
