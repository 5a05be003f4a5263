(* Smoke test of the benchmark command: runs every workload of
   BENCHMARK.json in the short --smoke setting, untraced and traced,
   and checks that the last line of each run is a result that reports
   exactly the metrics BENCHMARK.json declares, with their units.

     smoke_test.exe MAIN_EXE BENCHMARK_JSON *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench smoke: " ^ s); exit 1) fmt

let get what = function Some v -> v | None -> fail "malformed %s" what
let member k j = get k (Obs.Json.member k j)
let str k j = get k (Obs.Json.to_str (member k j))
let list k j = get k (Obs.Json.to_list (member k j))

(* Runs one smoke setting; its stderr goes to a log shown only on failure. *)
let run_workload exe ~workload ~trace =
  let argv =
    [| exe; "--smoke"; "--workload"; workload; "--seed"; "7"; "--seconds"; "1"; "--trace";
       string_of_int trace |]
  in
  let log = Printf.sprintf "smoke-%s-%d.log" workload trace in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe argv Unix.stdin out_w err in
  Unix.close out_w;
  Unix.close err;
  let ic = Unix.in_channel_of_descr out_r in
  let out = In_channel.input_all ic in
  close_in ic;
  let log_text () = In_channel.with_open_text log In_channel.input_all in
  (match Unix.waitpid [] pid with
   | _, Unix.WEXITED 0 -> ()
   | _ -> fail "%s --trace %d exited non-zero:\n%s%s" workload trace out (log_text ()));
  match List.rev (String.split_on_char '\n' (String.trim out)) with
  | last :: _ -> (
    match Obs.Json.parse last with
    | Ok j -> j
    | Error e -> fail "%s --trace %d: last line is not JSON (%s)" workload trace e)
  | [] -> fail "%s --trace %d printed nothing" workload trace

let () =
  let exe, spec_path =
    match Sys.argv with [| _; exe; spec |] -> (exe, spec) | _ -> fail "usage: smoke_test MAIN_EXE BENCHMARK_JSON"
  in
  let spec =
    match Obs.Json.parse (In_channel.with_open_text spec_path In_channel.input_all) with
    | Ok j -> j
    | Error e -> fail "%s: %s" spec_path e
  in
  let declared key = List.map (fun m -> (str "name" m, str "unit" m)) (list key spec) in
  List.iter
    (fun w ->
      let workload = str "name" w in
      List.iter
        (fun (trace, key) ->
          let r = run_workload exe ~workload ~trace in
          let num k = get k (Obs.Json.to_num (member k r)) in
          if Obs.Json.to_bool (member "correct" r) <> Some true then
            fail "%s --trace %d: correct is not true" workload trace;
          let attempted = num "attempted" and failed = num "failed" in
          if not (Float.is_integer attempted && Float.is_integer failed && attempted >= 1.0
                  && failed >= 0.0 && failed <= attempted)
          then fail "%s --trace %d: bad attempted/failed counts" workload trace;
          let metrics =
            match member "metrics" r with Obs.Json.Obj kv -> kv | _ -> fail "metrics is not an object"
          in
          let reported = List.map (fun (k, m) -> (k, str "unit" m)) metrics in
          if List.sort compare reported <> List.sort compare (declared key) then
            fail "%s --trace %d: reported metrics differ from BENCHMARK.json's %s" workload trace key;
          List.iter
            (fun (k, m) ->
              let v = get k (Obs.Json.to_num (member "value" m)) in
              if key = "end_to_end" && not (v > 0.0) then
                fail "%s: end-to-end metric %s is %g, not positive" workload k v)
            metrics)
        [ (0, "end_to_end"); (1, "per_layer") ])
    (list "workloads" spec)
