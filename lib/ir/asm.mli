(** Textual kernel syntax: a PTX-flavoured assembly for writing
    kernels without the OCaml builder, plus a round-trippable printer.

    {v
    .kernel saxpy
    entry:
      mov        %i
      shl.b32    %off, %i
      add.s32    %addr, %base, %off
      ld.global  %x, %addr
      fma.f32    %acc, %a, %x, %acc
      st.global  %addr, %acc
      setp       %p, %i
      br %p, entry, loop=8
    exit:
      ret
    v}

    - Lines hold one directive, label, instruction or terminator;
      [//] and [#] start comments.
    - Registers are [%name]; names map to dense ids in order of first
      appearance.  Registers read before any write are kernel inputs.
    - Mnemonics are {!Op.mnemonic} spellings; append [.wide64] /
      [.wide128] for 64/128-bit results.
    - Terminators: [ret], [jmp label], and
      [br %pred, label, (loop=N | p=F | always | never)] — the latter
      emits the predicate-reading [bra] instruction and the conditional
      terminator together.
    - A label line ([name:]) starts a new block; falling into a label
      without a terminator is an implicit fallthrough. *)

val parse : name:string -> string -> (Kernel.t, string) result
(** Errors carry 1-based line numbers; a text without a single
    instruction (empty, or only labels and terminators) is the error
    ["no instructions"]. *)

val parse_exn : name:string -> string -> Kernel.t
(** @raise Invalid_argument on parse errors. *)

val to_source : Kernel.t -> string
(** Print in the syntax accepted by {!parse}; [parse (to_source k)]
    yields a kernel with identical structure. *)
