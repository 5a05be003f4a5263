(* Energy model tests: the Table 3/4 constants and the access/wire
   arithmetic, checked against hand-computed values. *)

let check = Alcotest.check
let feq = Alcotest.float 1e-9

let p = Energy.Params.default

let test_table3_values () =
  check feq "1-entry read" 0.7 (Energy.Params.orf_read_energy p ~entries:1);
  check feq "3-entry read" 1.2 (Energy.Params.orf_read_energy p ~entries:3);
  check feq "8-entry read" 3.4 (Energy.Params.orf_read_energy p ~entries:8);
  check feq "3-entry write" 4.4 (Energy.Params.orf_write_energy p ~entries:3);
  check feq "8-entry write" 10.9 (Energy.Params.orf_write_energy p ~entries:8)

let test_table3_clamping () =
  check feq "below range clamps" 0.7 (Energy.Params.orf_read_energy p ~entries:0);
  check feq "above range clamps" 3.4 (Energy.Params.orf_read_energy p ~entries:12)

let test_wire_energy () =
  (* 4 lanes x 1.9 pJ/mm x 1 mm = 7.6 pJ per 128-bit access. *)
  check feq "1mm" 7.6 (Energy.Params.wire_energy_128 p ~mm:1.0);
  check feq "0.2mm" 1.52 (Energy.Params.wire_energy_128 p ~mm:0.2)

let test_model_read_energies () =
  (* MRF private read: 8 + 7.6. *)
  check feq "mrf private" 15.6
    (Energy.Model.read_energy p ~orf_entries:3 Energy.Model.Mrf Energy.Model.Private);
  (* ORF private read at 3 entries: 1.2 + 0.2mm wire = 1.2 + 1.52. *)
  check feq "orf private" 2.72
    (Energy.Model.read_energy p ~orf_entries:3 Energy.Model.Orf Energy.Model.Private);
  (* ORF shared read: 1.2 + 0.4mm wire. *)
  check feq "orf shared" (1.2 +. 3.04)
    (Energy.Model.read_energy p ~orf_entries:3 Energy.Model.Orf Energy.Model.Shared);
  (* LRF read: 0.7 + 0.05mm wire. *)
  check feq "lrf" (0.7 +. 0.38)
    (Energy.Model.read_energy p ~orf_entries:3 Energy.Model.Lrf Energy.Model.Private);
  (* RFC adds tag energy over the ORF. *)
  check feq "rfc = orf + tag" 0.2
    (Energy.Model.read_energy p ~orf_entries:3 Energy.Model.Rfc Energy.Model.Private
     -. Energy.Model.read_energy p ~orf_entries:3 Energy.Model.Orf Energy.Model.Private)

let test_model_write_energies () =
  check feq "mrf write private" (11.0 +. 7.6)
    (Energy.Model.write_energy p ~orf_entries:3 Energy.Model.Mrf Energy.Model.Private);
  check feq "lrf write" (2.0 +. 0.38)
    (Energy.Model.write_energy p ~orf_entries:1 Energy.Model.Lrf Energy.Model.Private)

let test_model_lrf_shared_rejected () =
  Alcotest.check_raises "lrf shared"
    (Invalid_argument "Energy.Model: the LRF is not wired to the shared datapath") (fun () ->
      ignore (Energy.Model.read_energy p ~orf_entries:1 Energy.Model.Lrf Energy.Model.Shared))

let test_model_probe () =
  check feq "probe = tag read" 0.2 (Energy.Model.rfc_probe_energy p);
  check feq "tagless probe" 0.0 (Energy.Model.rfc_probe_energy Energy.Params.tagless)

let test_counts_accumulate () =
  let c = Energy.Counts.create () in
  Energy.Counts.bump_read c Energy.Model.Mrf Energy.Model.Private ~pc:(-1) ~n:3;
  Energy.Counts.bump_read c Energy.Model.Mrf Energy.Model.Shared ~pc:(-1) ~n:1;
  Energy.Counts.bump_write c Energy.Model.Orf Energy.Model.Private ~pc:(-1) ~n:2;
  check Alcotest.int "mrf reads" 4 (Energy.Counts.reads c Energy.Model.Mrf);
  check Alcotest.int "per dp" 3 (Energy.Counts.reads_dp c Energy.Model.Mrf Energy.Model.Private);
  check Alcotest.int "orf writes" 2 (Energy.Counts.writes c Energy.Model.Orf);
  check Alcotest.int "total reads" 4 (Energy.Counts.total_reads c);
  check Alcotest.int "total writes" 2 (Energy.Counts.total_writes c)

let test_counts_merge_copy () =
  let a = Energy.Counts.create () in
  Energy.Counts.bump_read a Energy.Model.Lrf Energy.Model.Private ~pc:(-1) ~n:1;
  let b = Energy.Counts.copy a in
  Energy.Counts.bump_read b Energy.Model.Lrf Energy.Model.Private ~pc:(-1) ~n:1;
  check Alcotest.int "copy independent" 1 (Energy.Counts.reads a Energy.Model.Lrf);
  Energy.Counts.merge_into ~dst:a b;
  check Alcotest.int "merged" 3 (Energy.Counts.reads a Energy.Model.Lrf)

let test_counts_energy_exact () =
  let c = Energy.Counts.create () in
  Energy.Counts.bump_read c Energy.Model.Mrf Energy.Model.Private ~pc:(-1) ~n:10;
  Energy.Counts.bump_write c Energy.Model.Mrf Energy.Model.Private ~pc:(-1) ~n:5;
  let bd = Energy.Counts.energy p ~orf_entries:3 c in
  (* 10 reads * (8 + 7.6) + 5 writes * (11 + 7.6) = 156 + 93 = 249. *)
  check feq "total" 249.0 bd.Energy.Counts.total;
  let mrf =
    List.find (fun (le : Energy.Counts.level_energy) -> le.Energy.Counts.level = Energy.Model.Mrf)
      bd.Energy.Counts.levels
  in
  check feq "access part" (80.0 +. 55.0) mrf.Energy.Counts.access;
  check feq "wire part" (76.0 +. 38.0) mrf.Energy.Counts.wire

let test_counts_probe_energy () =
  let c = Energy.Counts.create () in
  Energy.Counts.bump_rfc_probe c ~pc:(-1) ~n:10;
  let bd = Energy.Counts.energy p ~orf_entries:3 c in
  check feq "probes cost tag energy" 2.0 bd.Energy.Counts.total

let test_counts_lrf_shared_rejected () =
  let c = Energy.Counts.create () in
  Energy.Counts.bump_read c Energy.Model.Lrf Energy.Model.Shared ~pc:(-1) ~n:1;
  Alcotest.check_raises "rejected at pricing"
    (Invalid_argument "Energy.Counts: LRF accessed from the shared datapath") (fun () ->
      ignore (Energy.Counts.energy p ~orf_entries:3 c))

let test_chip_model () =
  let m = Energy.Chip.paper in
  (* The paper's published correspondences: 54% RF = 8.3% SM = 5.8% chip. *)
  check (Alcotest.float 1e-6) "SM saving" 0.083 (Energy.Chip.sm_saving m ~rf_saving:0.54);
  check (Alcotest.float 1e-6) "chip saving" 0.058 (Energy.Chip.chip_saving m ~rf_saving:0.54);
  (* 1 extra bit on a 32-bit encoding at 10% fetch/decode = 0.3125%. *)
  check (Alcotest.float 1e-6) "1-bit overhead" (0.10 /. 32.0)
    (Energy.Chip.encoding_overhead m ~extra_bits:1);
  check (Alcotest.float 1e-6) "net" (0.058 -. (0.5 /. 32.0))
    (Energy.Chip.net_chip_saving m ~rf_saving:0.54 ~extra_bits:5)

let suite =
  [
    Alcotest.test_case "chip model" `Quick test_chip_model;
    Alcotest.test_case "table 3 values" `Quick test_table3_values;
    Alcotest.test_case "table 3 clamping" `Quick test_table3_clamping;
    Alcotest.test_case "wire energy" `Quick test_wire_energy;
    Alcotest.test_case "model read energies" `Quick test_model_read_energies;
    Alcotest.test_case "model write energies" `Quick test_model_write_energies;
    Alcotest.test_case "LRF shared rejected" `Quick test_model_lrf_shared_rejected;
    Alcotest.test_case "probe energy" `Quick test_model_probe;
    Alcotest.test_case "counts accumulate" `Quick test_counts_accumulate;
    Alcotest.test_case "counts merge/copy" `Quick test_counts_merge_copy;
    Alcotest.test_case "counts energy exact" `Quick test_counts_energy_exact;
    Alcotest.test_case "probe pricing" `Quick test_counts_probe_energy;
    Alcotest.test_case "counts LRF shared rejected" `Quick test_counts_lrf_shared_rejected;
  ]
