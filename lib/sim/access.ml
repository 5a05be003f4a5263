let audit_level = function
  | Energy.Model.Mrf -> Obs.Audit.Mrf
  | Energy.Model.Orf -> Obs.Audit.Orf
  | Energy.Model.Lrf -> Obs.Audit.Lrf
  | Energy.Model.Rfc -> Obs.Audit.Rfc

let write c level dp ~id ~n ~audit_warp =
  Energy.Counts.bump_write c level dp ~pc:id ~n;
  if audit_warp >= 0 then
    Obs.Audit.emit (Obs.Audit.Place { warp = audit_warp; instr = id; level = audit_level level })

(* Walked without a per-step closure: the simulators call [count] once
   per dynamic instruction. *)
let rec fills c ~id ~dp ~n ~orf_grant ~audit_warp = function
  | [] -> ()
  | (pos, entry) :: tl ->
    if entry < orf_grant then begin
      write c Energy.Model.Orf dp ~id ~n ~audit_warp;
      if audit_warp >= 0 then
        Obs.Audit.emit (Obs.Audit.Fill { warp = audit_warp; instr = id; pos; entry })
    end;
    fills c ~id ~dp ~n ~orf_grant ~audit_warp tl

let count c placement ~id ~nsrcs ~has_dst ~dp ~n ~orf_grant ~audit_warp =
  for pos = 0 to nsrcs - 1 do
    match Alloc.Placement.src placement ~instr:id ~pos with
    | Alloc.Placement.From_orf e when e < orf_grant ->
      Energy.Counts.bump_read c Energy.Model.Orf dp ~pc:id ~n
    | Alloc.Placement.From_mrf | Alloc.Placement.From_orf _ ->
      Energy.Counts.bump_read c Energy.Model.Mrf dp ~pc:id ~n
    | Alloc.Placement.From_lrf _ ->
      Energy.Counts.bump_read c Energy.Model.Lrf Energy.Model.Private ~pc:id ~n
  done;
  fills c ~id ~dp ~n ~orf_grant ~audit_warp (Alloc.Placement.fills_of placement ~instr:id);
  if has_dst then
    match Alloc.Placement.dest placement ~instr:id with
    | None -> ()
    | Some dest ->
      if dest.Alloc.Placement.to_mrf then write c Energy.Model.Mrf dp ~id ~n ~audit_warp;
      (match dest.Alloc.Placement.to_orf with
       | Some e when e < orf_grant -> write c Energy.Model.Orf dp ~id ~n ~audit_warp
       | Some _ | None -> ());
      if Option.is_some dest.Alloc.Placement.to_lrf then
        write c Energy.Model.Lrf Energy.Model.Private ~id ~n ~audit_warp
