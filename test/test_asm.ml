(* Assembly front-end tests: parsing, error reporting, and printer
   round-trips. *)

let check = Alcotest.check

let saxpy_src =
  {|
.kernel saxpy
// kernel parameters: %a %base (never written)
entry:
  mov        %i
loop:
  shl.b32    %off, %i
  add.s32    %addr, %base, %off
  ld.global  %x, %addr
  fma.f32    %acc, %a, %x, %acc   # accumulate
  st.global  %addr, %acc
  setp       %p, %i
  br %p, loop, loop=8
exit:
  ret
|}

let test_parse_saxpy () =
  match Ir.Asm.parse ~name:"t" saxpy_src with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok k ->
    check Alcotest.string "name from directive" "saxpy" k.Ir.Kernel.name;
    check Alcotest.int "3 blocks" 3 (Ir.Kernel.block_count k);
    check Alcotest.int "8 instructions" 8 (Ir.Kernel.instr_count k);
    (* The loop branch resolves backwards to block 1. *)
    (match k.Ir.Kernel.blocks.(1).Ir.Block.term with
     | Ir.Terminator.Branch { target = 1; behavior = Ir.Terminator.Loop 8 } -> ()
     | _ -> Alcotest.fail "loop terminator mismatch")

let test_parse_pipeline () =
  (* The parsed kernel flows through the whole pipeline. *)
  let k = Ir.Asm.parse_exn ~name:"t" saxpy_src in
  let ctx = Alloc.Context.create k in
  let config = Alloc.Config.make () in
  let placement = Alloc.Allocator.place config ctx in
  (match Alloc.Verify.check config ctx placement with
   | Ok () -> ()
   | Error e -> Alcotest.failf "verify: %s" (String.concat "; " e));
  let r = Sim.Traffic.run ~warps:2 ctx (Sim.Traffic.Sw { config; placement }) in
  check Alcotest.bool "executes" true (r.Sim.Traffic.dynamic_instrs > 0)

let test_parse_wide () =
  let k =
    Ir.Asm.parse_exn ~name:"t"
      {|
  ld.global.wide64 %v, %addr
  st.global %addr, %v
|}
  in
  check Alcotest.bool "wide width" true
    ((Ir.Kernel.instr k 0).Ir.Instr.width = Ir.Width.W64)

let test_parse_errors () =
  let is_error src =
    match Ir.Asm.parse ~name:"t" src with Ok _ -> false | Error _ -> true
  in
  check Alcotest.bool "unknown mnemonic" true (is_error "frobnicate %a, %b");
  check Alcotest.bool "missing dst" true (is_error "add.s32");
  check Alcotest.bool "bad operand" true (is_error "add.s32 r1, r2, r3");
  check Alcotest.bool "bad store arity" true (is_error "st.global %a");
  check Alcotest.bool "code after ret" true (is_error "ret\nmov %x");
  check Alcotest.bool "unplaced label" true (is_error "mov %p\nbr %p, nowhere, always\nend:\nret");
  check Alcotest.bool "bad branch attr" true (is_error "mov %p\nbr %p, end, sometimes\nend:\nret");
  check Alcotest.bool "forward loop branch" true
    (is_error "mov %p\nbr %p, end, loop=4\nend:\nret")

let test_parse_line_numbers () =
  match Ir.Asm.parse ~name:"t" "mov %x\nmov %y\nbogus %z" with
  | Ok _ -> Alcotest.fail "accepted bogus"
  | Error msg ->
    check Alcotest.bool "line 3 reported" true
      (String.length msg >= 7 && String.sub msg 0 7 = "line 3:")

let test_roundtrip_idempotent () =
  (* Parsing renumbers registers by first appearance, so one
     parse/print pass normalizes; after that the representation is a
     fixpoint, and structure is always preserved. *)
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let k = Lazy.force e.Workloads.Registry.kernel in
      let src = Ir.Asm.to_source k in
      match Ir.Asm.parse ~name:k.Ir.Kernel.name src with
      | Error msg -> Alcotest.failf "%s: reparse failed: %s" e.Workloads.Registry.name msg
      | Ok k2 ->
        check Alcotest.int
          (e.Workloads.Registry.name ^ " instr count")
          (Ir.Kernel.instr_count k) (Ir.Kernel.instr_count k2);
        check Alcotest.int
          (e.Workloads.Registry.name ^ " block count")
          (Ir.Kernel.block_count k) (Ir.Kernel.block_count k2);
        let normalized = Ir.Asm.to_source k2 in
        let k3 = Ir.Asm.parse_exn ~name:k.Ir.Kernel.name normalized in
        check Alcotest.string
          (e.Workloads.Registry.name ^ " fixpoint")
          normalized (Ir.Asm.to_source k3))
    (Workloads.Registry.all ())

let prop_roundtrip_random =
  QCheck.Test.make ~count:80 ~name:"asm round-trip on random kernels"
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 50_000))
    (fun seed ->
      let k = Workloads.Generator.kernel ~size:8 ~seed () in
      let src = Ir.Asm.to_source k in
      match Ir.Asm.parse ~name:k.Ir.Kernel.name src with
      | Error msg -> QCheck.Test.fail_reportf "seed %d: %s" seed msg
      | Ok k2 ->
        let normalized = Ir.Asm.to_source k2 in
        let k3 = Ir.Asm.parse_exn ~name:k.Ir.Kernel.name normalized in
        Ir.Kernel.instr_count k = Ir.Kernel.instr_count k2
        && Ir.Kernel.block_count k = Ir.Kernel.block_count k2
        && Ir.Asm.to_source k3 = normalized)

(* rfh compile keeps the 0/1/2 contract: input it cannot compile — a
   syntax error, or a file without a single instruction — is exit 2. *)
let rfh_exe = "../bin/rfh.exe"

let compile_exit src =
  let path = Filename.temp_file "kernel" ".asm" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc src);
      Sys.command (Printf.sprintf "%s compile %s > /dev/null 2>&1" rfh_exe (Filename.quote path)))

let test_cli_compile_exit_codes () =
  if not (Sys.file_exists rfh_exe) then Alcotest.skip ();
  check Alcotest.int "compiles" 0 (compile_exit saxpy_src);
  check Alcotest.int "parse error is exit 2" 2 (compile_exit "frobnicate %a, %b\n");
  check Alcotest.int "empty file is exit 2" 2 (compile_exit "");
  check Alcotest.int "labels only is exit 2" 2 (compile_exit "entry:\n  ret\n")

let suite =
  [
    Alcotest.test_case "parse saxpy" `Quick test_parse_saxpy;
    Alcotest.test_case "parsed kernel compiles" `Quick test_parse_pipeline;
    Alcotest.test_case "wide loads" `Quick test_parse_wide;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "line numbers" `Quick test_parse_line_numbers;
    Alcotest.test_case "rfh compile exit codes" `Quick test_cli_compile_exit_codes;
    Alcotest.test_case "round-trip benchmarks" `Quick test_roundtrip_idempotent;
    QCheck_alcotest.to_alcotest prop_roundtrip_random;
  ]
