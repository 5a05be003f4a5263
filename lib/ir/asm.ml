let all_ops =
  [
    Op.Iadd; Op.Isub; Op.Imul; Op.Imad; Op.Iand; Op.Ior; Op.Ixor; Op.Ishl; Op.Ishr;
    Op.Imin; Op.Imax; Op.Setp; Op.Sel; Op.Cvt; Op.Mov; Op.Bra;
    Op.Fadd; Op.Fsub; Op.Fmul; Op.Ffma; Op.Fmin; Op.Fmax;
    Op.Rcp; Op.Sqrt; Op.Rsqrt; Op.Sin; Op.Cos; Op.Lg2; Op.Ex2;
    Op.Ld_global; Op.St_global; Op.Ld_shared; Op.St_shared; Op.Atom_global;
    Op.Tex_fetch;
  ]

let op_of_mnemonic =
  let table = Hashtbl.create 64 in
  List.iter (fun op -> Hashtbl.replace table (Op.mnemonic op) op) all_ops;
  fun m -> Hashtbl.find_opt table m

exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun s -> raise (Parse_error (line, s))) fmt

type line =
  | L_kernel of string
  | L_label of string
  | L_instr of Op.t * Width.t * string option * string list  (* dst, srcs *)
  | L_ret
  | L_jmp of string
  | L_br of string * string * Terminator.behavior  (* pred, target, behavior *)

let strip_comment s =
  let cut_at s pat =
    match String.index_opt s pat.[0] with
    | None -> s
    | Some _ ->
      (* find the first occurrence of the 1- or 2-char pattern *)
      let len = String.length s in
      let plen = String.length pat in
      let rec go i =
        if i + plen > len then s
        else if String.sub s i plen = pat then String.sub s 0 i
        else go (i + 1)
      in
      go 0
  in
  cut_at (cut_at s "//") "#"

let tokens_of s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char ',')
  |> List.map String.trim
  |> List.filter (fun t -> t <> "")

let parse_behavior line = function
  | "always" -> Terminator.Always_taken
  | "never" -> Terminator.Never_taken
  | tok ->
    (match String.index_opt tok '=' with
     | Some i ->
       let key = String.sub tok 0 i in
       let value = String.sub tok (i + 1) (String.length tok - i - 1) in
       (match key with
        | "loop" ->
          (match int_of_string_opt value with
           | Some n when n >= 1 -> Terminator.Loop n
           | Some _ | None -> fail line "invalid loop trip count %S" value)
        | "p" ->
          (match float_of_string_opt value with
           | Some p when p >= 0.0 && p <= 1.0 -> Terminator.Taken_with_prob p
           | Some _ | None -> fail line "invalid branch probability %S" value)
        | _ -> fail line "unknown branch attribute %S" key)
     | None -> fail line "expected loop=N, p=F, always or never; got %S" tok)

let parse_mnemonic line m =
  let op_name, width =
    if Filename.check_suffix m ".wide64" then (Filename.chop_suffix m ".wide64", Width.W64)
    else if Filename.check_suffix m ".wide128" then (Filename.chop_suffix m ".wide128", Width.W128)
    else (m, Width.W32)
  in
  match op_of_mnemonic op_name with
  | Some op -> (op, width)
  | None -> fail line "unknown mnemonic %S" op_name

let classify_line lineno raw =
  let s = String.trim (strip_comment raw) in
  if s = "" then None
  else if String.length s > 8 && String.sub s 0 8 = ".kernel " then
    Some (L_kernel (String.trim (String.sub s 8 (String.length s - 8))))
  else if String.length s > 1 && s.[String.length s - 1] = ':' then begin
    let name = String.trim (String.sub s 0 (String.length s - 1)) in
    if name = "" then fail lineno "empty label";
    Some (L_label name)
  end
  else begin
    match tokens_of s with
    | [] -> None
    | [ "ret" ] -> Some L_ret
    | [ "jmp"; target ] -> Some (L_jmp target)
    | "jmp" :: _ -> fail lineno "jmp takes exactly one label"
    | [ "br"; pred; target; attr ] -> Some (L_br (pred, target, parse_behavior lineno attr))
    | "br" :: _ -> fail lineno "expected: br %%pred, label, (loop=N | p=F | always | never)"
    | mnemonic :: operands ->
      let op, width = parse_mnemonic lineno mnemonic in
      List.iter
        (fun o ->
          if String.length o < 2 || o.[0] <> '%' then
            fail lineno "operand %S is not a register (%%name)" o)
        operands;
      if Op.has_result op then begin
        match operands with
        | dst :: srcs -> Some (L_instr (op, width, Some dst, srcs))
        | [] -> fail lineno "%s needs a destination" (Op.mnemonic op)
      end
      else Some (L_instr (op, width, None, operands))
  end

let parse ~name text =
  try
    let lines = String.split_on_char '\n' text in
    let b = Builder.create name in
    let kernel_name = ref name in
    let regs : (string, Reg.t) Hashtbl.t = Hashtbl.create 32 in
    let labels : (string, Builder.label) Hashtbl.t = Hashtbl.create 16 in
    let reg_of r =
      match Hashtbl.find_opt regs r with
      | Some x -> x
      | None ->
        let x = Builder.fresh b in
        Hashtbl.add regs r x;
        x
    in
    let label_of l =
      match Hashtbl.find_opt labels l with
      | Some x -> x
      | None ->
        let x = Builder.new_label b in
        Hashtbl.add labels l x;
        x
    in
    (* The builder auto-opens an entry block; track whether the current
       block has been terminated so labels insert fallthroughs. *)
    let block_open = ref true in
    let emitted_anything = ref false in
    List.iteri
      (fun idx raw ->
        let lineno = idx + 1 in
        match classify_line lineno raw with
        | None -> ()
        | Some (L_kernel n) ->
          if !emitted_anything then fail lineno ".kernel must precede all code";
          kernel_name := n
        | Some (L_label l) ->
          if not !emitted_anything && not (Hashtbl.mem labels l) then
            (* A leading label names the entry block itself. *)
            Hashtbl.add labels l (Builder.entry_label b)
          else Builder.start_block b (label_of l);
          block_open := true;
          emitted_anything := true
        | Some line_content ->
          if not !block_open then
            fail lineno "code after a terminator; add a label to start a new block";
          emitted_anything := true;
          (match line_content with
           | L_kernel _ | L_label _ -> assert false
           | L_instr (op, width, dst, srcs) ->
             let srcs = List.map reg_of srcs in
             (match dst with
              | Some d ->
                (match srcs with
                 | [] -> Builder.op0_into b op ~width ~dst:(reg_of d) ()
                 | [ x ] -> Builder.op1_into b op ~width ~dst:(reg_of d) x
                 | [ x; y ] -> Builder.op2_into b op ~width ~dst:(reg_of d) x y
                 | [ x; y; z ] -> Builder.op3_into b op ~width ~dst:(reg_of d) x y z
                 | _ -> fail lineno "too many source operands")
              | None ->
                (match op, srcs with
                 | (Op.St_global | Op.St_shared), [ addr; value ] ->
                   Builder.store b op ~addr ~value
                 | (Op.St_global | Op.St_shared), _ -> fail lineno "stores take addr, value"
                 | Op.Bra, _ -> fail lineno "write bra as: br %%pred, label, attr"
                 | _, _ -> fail lineno "%s cannot be used here" (Op.mnemonic op)))
           | L_ret ->
             Builder.ret b;
             block_open := false
           | L_jmp target ->
             Builder.jump b (label_of target);
             block_open := false
           | L_br (pred, target, behavior) ->
             Builder.branch b ~pred:(reg_of pred) ~target:(label_of target) behavior;
             block_open := false))
      lines;
    (* Rebuild under the directive-provided name if it differs. *)
    let k = Builder.finalize b in
    if Kernel.instr_count k = 0 then Error "no instructions"
    else if !kernel_name = name then Ok k
    else Ok (Kernel.make ~name:!kernel_name ~blocks:k.Kernel.blocks ~num_regs:k.Kernel.num_regs)
  with
  | Parse_error (line, msg) -> Error (Printf.sprintf "line %d: %s" line msg)
  | Invalid_argument msg -> Error msg

let parse_exn ~name text =
  match parse ~name text with Ok k -> k | Error msg -> invalid_arg ("Asm.parse: " ^ msg)

let to_source (k : Kernel.t) =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf ".kernel %s\n" k.Kernel.name;
  let label l = Printf.sprintf "bb%d" l in
  let reg r = Printf.sprintf "%%r%d" r in
  Array.iter
    (fun (blk : Block.t) ->
      Printf.bprintf buf "%s:\n" (label blk.Block.label);
      let n = Array.length blk.Block.instrs in
      let emit_instr (i : Instr.t) =
        let width_suffix =
          match i.Instr.width with
          | Width.W32 -> ""
          | Width.W64 -> ".wide64"
          | Width.W128 -> ".wide128"
        in
        let operands =
          (match i.Instr.dst with Some d -> [ reg d ] | None -> [])
          @ List.map reg i.Instr.srcs
        in
        Printf.bprintf buf "  %-12s %s\n"
          (Op.mnemonic i.Instr.op ^ width_suffix)
          (String.concat ", " operands)
      in
      let body, bra_pred =
        match blk.Block.term with
        | Terminator.Branch _ when n > 0 && (blk.Block.instrs.(n - 1)).Instr.op = Op.Bra ->
          ( Array.sub blk.Block.instrs 0 (n - 1),
            match (blk.Block.instrs.(n - 1)).Instr.srcs with
            | [ p ] -> Some p
            | _ -> None )
        | _ -> (blk.Block.instrs, None)
      in
      Array.iter emit_instr body;
      (match blk.Block.term with
       | Terminator.Fallthrough -> ()
       | Terminator.Ret -> Buffer.add_string buf "  ret\n"
       | Terminator.Jump l -> Printf.bprintf buf "  jmp %s\n" (label l)
       | Terminator.Branch { target; behavior } ->
         let attr =
           match behavior with
           | Terminator.Always_taken -> "always"
           | Terminator.Never_taken -> "never"
           | Terminator.Loop t -> Printf.sprintf "loop=%d" t
           | Terminator.Taken_with_prob p -> Printf.sprintf "p=%g" p
         in
         let pred = match bra_pred with Some p -> reg p | None -> "%r0" in
         Printf.bprintf buf "  br %s, %s, %s\n" pred (label target) attr))
    k.Kernel.blocks;
  Buffer.contents buf
