(** The compiler-managed access rule.  The paper encodes each operand's
    level in the instruction (Sec. 3.1), so what one execution costs at
    each register-file level is a static fact of the placement: sources
    are read from their placed levels, each read-operand fill (Sec. 4.4)
    writes an ORF entry, and the destination is written to each of its
    levels.  The single-level Baseline is this rule over the all-MRF
    {!Alloc.Placement.baseline}.  {!Traffic}, {!Simt} and
    {!Variable_orf} all count through {!count}. *)

val count :
  Energy.Counts.t ->
  Alloc.Placement.t ->
  id:int ->
  nsrcs:int ->
  has_dst:bool ->
  dp:Energy.Model.datapath ->
  n:int ->
  orf_grant:int ->
  audit_warp:int ->
  unit
(** Count one execution of instruction [id] ([nsrcs] sources, a result
    iff [has_dst]): [n] accesses per operand, charged to pc [id], on the
    instruction's datapath [dp] (the LRF is always private).  ORF entry
    [e] is served only when [e < orf_grant] — otherwise the source reads
    the MRF mirror and the write is dropped; [max_int] is a full ORF.
    When [audit_warp >= 0] every write is mirrored by an
    {!Obs.Audit.Place} event and every fill by an {!Obs.Audit.Fill}
    event for that warp.  Allocation-free. *)

val write :
  Energy.Counts.t -> Energy.Model.level -> Energy.Model.datapath -> id:int -> n:int ->
  audit_warp:int -> unit
(** One counted write, mirrored like {!count}'s; hardware cache traffic
    uses it too. *)

val audit_level : Energy.Model.level -> Obs.Audit.level
