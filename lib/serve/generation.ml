module Error = Rs_util.Error
module Metrics = Rs_util.Metrics
module Store = Rs_core.Store
module Synopsis = Rs_core.Synopsis
module Dataset = Rs_core.Dataset

type entry = {
  name : string;
  syn : Synopsis.t;
  bytes : string;
  n : int;
  words : int;
  plan : Rs_query.Batch.t;
  prefix : float array option;
  rmse_bound : float option;
  mutable dirty : float;
  mutable stale : bool;
}

type t = {
  gen_id : int;
  dir : string;
  dataset : Dataset.t option;
  entries : (string * entry) list;
  quarantined : (string * string) list;
  reused : int;
  decoded : int;
}

(* Recorded once per load — never per entry lookup. *)
let m_reused = Metrics.counter "generation.entries_reused"
let m_decoded = Metrics.counter "generation.entries_decoded"

let rmse_of_sse ~n sse =
  let ranges = float_of_int n *. float_of_int (n + 1) /. 2. in
  sqrt (Float.max 0. sse /. ranges)

(* Compile one freshly decoded entry: the batch plan, and one lowering
   pass for both the prefix vector and (when the dataset covers the
   domain) the RMSE bound — once per entry, never per request. *)
let compile ?dataset ~name ~bytes syn =
  let n = Synopsis.domain_size syn in
  let dataset =
    match dataset with Some ds when Dataset.n ds = n -> Some ds | _ -> None
  in
  let prefix, sse = Synopsis.prefix_and_sse ?dataset syn in
  {
    name;
    syn;
    bytes;
    n;
    words = Synopsis.storage_words syn;
    plan = Synopsis.batch_plan syn;
    prefix;
    rmse_bound = Option.map (rmse_of_sse ~n) sse;
    dirty = 0.;
    stale = false;
  }

let find t name = List.assoc_opt name t.entries

let load ?dataset ?previous ~gen_id dir =
  Error.guard @@ fun () ->
  let store = Store.open_dir dir in
  (* A previous entry is reusable when its file still holds exactly the
     bytes it was decoded from, and its RMSE bound was computed against
     this same dataset. *)
  let reusable name bytes =
    match previous with
    | Some prev when Option.equal ( == ) prev.dataset dataset -> (
        match find prev name with
        | Some e when String.equal e.bytes bytes -> Some e
        | _ -> None)
    | _ -> None
  in
  (* fsck before serving: stray tmp files from a torn writer go, corrupt
     entries are quarantined (moved aside, never deleted) and the
     manifest is brought back in sync.  It reads and decodes each
     changed file once and hands over what it decoded, so the
     generation serves exactly the bytes that just verified. *)
  let report =
    Store.fsck store ~reuse:(fun name bytes ->
        Option.map (fun e -> e.syn) (reusable name bytes))
  in
  let reused = ref 0 in
  let entries =
    List.map
      (fun (name, { Store.bytes; synopsis }) ->
        match reusable name bytes with
        | Some e when e.syn == synopsis ->
            incr reused;
            (* The reused values are immutable; the staleness fields
               belong to this generation. *)
            (name, { e with dirty = 0.; stale = false })
        | _ -> (name, compile ?dataset ~name ~bytes synopsis))
      report.Store.verified
  in
  let reused = !reused in
  let decoded = List.length entries - reused in
  Metrics.add m_reused reused;
  Metrics.add m_decoded decoded;
  {
    gen_id;
    dir;
    dataset;
    entries;
    quarantined = report.Store.quarantined;
    reused;
    decoded;
  }

let names t = List.map fst t.entries
let size t = List.length t.entries

let mark_staleness t ~name ~dirty ~stale =
  match find t name with
  | None -> ()
  | Some e ->
      e.dirty <- dirty;
      e.stale <- stale
