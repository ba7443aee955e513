(* Streaming ingestion over a segmented synopsis (DESIGN.md §16).

   The stream owns, per segment, its plain current values and a
   staleness mass; ingested point-deltas are WAL-acked (when a store
   is attached), added into the segment's values in O(1) per delta —
   never a rebuild, never a moment table (the builder derives prefix
   moments from raw data on every build) — and accumulate |δ| mass
   until the segment crosses the staleness threshold.
   [refresh] then re-optimizes only the dirty segments through the
   ordinary {!Builder} path, so a rebuilt segment is bit-identical to
   a from-scratch batch build of the same data (the determinism twin
   in @stream).

   Concurrency/faults discipline (CLAUDE.md): the stream is
   coordinator-only.  ["stream.ingest"]/["stream.refresh"] seams trip
   once per call, metrics record once per batch or per segment
   rebuild, and the refresh governor is polled once per segment
   boundary — never per delta, never per DP state.  Inner builds run
   whatever the caller's {!Builder.options} say; the stream itself
   spawns nothing. *)

module Error = Rs_util.Error
module Faults = Rs_util.Faults
module Metrics = Rs_util.Metrics
module Governor = Rs_util.Governor

let log_src = Logs.Src.create "rs.stream" ~doc:"Streaming ingestion"

module Log = (val Logs.src_log log_src : Logs.LOG)

let invalid fmt =
  Printf.ksprintf (fun m -> Error.raise_error (Error.Invalid_input m)) fmt

type config = {
  method_name : string;
  budget_words : int;
  segments : int;
  stale_threshold : float;
  entry_prefix : string;
  options : Builder.options;
}

let default_config =
  {
    method_name = "a0";
    budget_words = 64;
    segments = 4;
    stale_threshold = 0.;
    entry_prefix = "stream";
    options = Builder.default_options;
  }

type seg = {
  s_lo : int;
  s_hi : int;
  s_grant : int;
  values : float array;
      (* the segment's live slice, values.(i - s_lo) = A[i]; never
         handed out — readers copy *)
  mutable dirty : float; (* accumulated |δ| mass since last rebuild *)
  mutable applied : int; (* highest WAL seq folded into [values] *)
  mutable synopsis : Synopsis.t;
}

type t = {
  cfg : config;
  n : int;
  store : Store.t option;
  segs : seg array;
  mutable acked : int; (* highest WAL seq acked by this stream *)
  mutable pending_records : int;
      (* WAL records acked since the last manifest checkpoint *)
  mutable pending_deltas : int; (* ... and the deltas they carry *)
}

type ingest_report = { applied : int; stale : int list }

type refresh_report = {
  rebuilt : int list;
  skipped_clean : int;
  expired : bool;
}

let seg_name t i = Printf.sprintf "%s.seg%d" t.cfg.entry_prefix i

(* How far the WAL runs ahead of the STREAM manifest: set once per
   ingest batch, refresh and resume — never per delta. *)
let g_pending_records = Metrics.gauge "stream.wal.pending_records"
let g_pending_deltas = Metrics.gauge "stream.wal.pending_deltas"

let publish_pending t =
  Metrics.set g_pending_records (float_of_int t.pending_records);
  Metrics.set g_pending_deltas (float_of_int t.pending_deltas)

let check_config cfg n =
  if cfg.segments < 1 || cfg.segments > n then
    invalid "Stream: need 1 <= segments <= n (got segments=%d, n=%d)"
      cfg.segments n;
  if cfg.stale_threshold < 0. || not (Float.is_finite cfg.stale_threshold)
  then invalid "Stream: stale_threshold must be finite and >= 0"

let stale_segments t =
  let out = ref [] in
  Array.iteri
    (fun i s -> if s.dirty > t.cfg.stale_threshold then out := i :: !out)
    t.segs;
  List.rev !out

let staleness t = Array.map (fun s -> s.dirty) t.segs

let segment_of t i =
  (* Segments are near-equal widths; a linear scan is fine at S ~ tens
     and keeps this total for manifest-restored irregular bounds. *)
  let rec go k =
    if k >= Array.length t.segs then
      invalid "Stream: position %d outside [1..%d]" i t.n
    else
      let s = t.segs.(k) in
      if i >= s.s_lo && i <= s.s_hi then k else go (k + 1)
  in
  go 0

let n t = t.n
let segments t = Array.length t.segs
let config t = t.cfg
let value t i =
  let s = t.segs.(segment_of t i) in
  s.values.(i - s.s_lo)

let data t = Array.concat (Array.to_list (Array.map (fun s -> s.values) t.segs))

let plan t =
  Segmented.plan_of_bounds ~n:t.n
    (Array.map (fun s -> (s.s_lo, s.s_hi)) t.segs)

let dataset t = Dataset.of_floats ~name:(t.cfg.entry_prefix ^ "-live") (data t)

let synopsis t =
  Segmented.make (dataset t) (plan t)
    (Array.map (fun s -> s.synopsis) t.segs)

(* --- construction ------------------------------------------------- *)

(* [Dataset.of_floats] copies [values]: the build never shares the
   live slice. *)
let build_segment cfg ~grant ~name values =
  let ds = Dataset.of_floats ~name values in
  let built =
    Error.get
      (Builder.build_result ~options:cfg.options ds
         ~method_name:cfg.method_name ~budget_words:grant)
  in
  Metrics.count "stream.rebuilds" 1;
  built.Builder.synopsis

(* The stream manifest: config + per-segment bounds/grants, base data
   in %h (exact round-trip), staleness mass and applied WAL seq.  One
   line per segment keeps parsing trivial; Checkpoint framing adds the
   CRC and atomicity. *)
let manifest_body t =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "stream %d %d %s %d %h %s\n" t.n
    (Array.length t.segs) t.cfg.method_name t.cfg.budget_words
    t.cfg.stale_threshold t.cfg.entry_prefix;
  Array.iter
    (fun s ->
      Printf.bprintf buf "seg %d %d %d %d %h" s.s_lo s.s_hi s.s_grant
        s.applied s.dirty;
      Array.iter (fun v -> Printf.bprintf buf " %h" v) s.values;
      Buffer.add_char buf '\n')
    t.segs;
  Buffer.contents buf

let save_manifest t =
  match t.store with
  | None -> ()
  | Some store -> Store.save_manifest store Store.Stream (manifest_body t)

(* Validate a whole delta batch against the data it will apply to
   before any byte is written: Dataset.of_floats requires finite
   non-negative values, so a batch that would break that is refused
   up front — the WAL never records a delta the rebuild cannot use. *)
let check_batch t deltas =
  let pending = Hashtbl.create 16 in
  Array.iter
    (fun (i, d) ->
      if i < 1 || i > t.n then
        invalid "Stream.ingest: position %d outside [1..%d]" i t.n;
      if not (Float.is_finite d) then
        invalid "Stream.ingest: non-finite delta at position %d" i;
      let base =
        match Hashtbl.find_opt pending i with
        | Some v -> v
        | None -> value t i
      in
      let v = base +. d in
      if not (Float.is_finite v) then
        invalid "Stream.ingest: delta at position %d overflows" i;
      if v < 0. then
        invalid "Stream.ingest: delta at position %d drives the value to %g < 0"
          i v;
      Hashtbl.replace pending i v)
    deltas

let apply_seg t k sub =
  let s = t.segs.(k) in
  Array.iter
    (fun (i, d) ->
      s.values.(i - s.s_lo) <- s.values.(i - s.s_lo) +. d;
      s.dirty <- s.dirty +. abs_float d)
    sub

let ingest t deltas =
  Faults.trip "stream.ingest";
  Metrics.count "stream.ingests" 1;
  Metrics.count "stream.deltas" (Array.length deltas);
  check_batch t deltas;
  (* Route the batch to segments, preserving intra-segment order. *)
  let by_seg = Array.make (Array.length t.segs) [] in
  Array.iter
    (fun (i, d) ->
      let k = segment_of t i in
      by_seg.(k) <- (i, d) :: by_seg.(k))
    deltas;
  let batches = ref [] in
  Array.iteri
    (fun k ds ->
      if ds <> [] then
        batches := (k, Array.of_list (List.rev ds)) :: !batches)
    by_seg;
  let batches = List.rev !batches in
  (* WAL first (one fsync — the ack point), then fold into memory. *)
  (match t.store with
  | None ->
      List.iter
        (fun (k, _) ->
          t.acked <- t.acked + 1;
          t.segs.(k).applied <- t.acked)
        batches
  | Some store ->
      let records =
        Store.wal_append store
          (List.map (fun (k, sub) -> (seg_name t k, sub)) batches)
      in
      List.iter2
        (fun (k, _) r ->
          t.segs.(k).applied <- r.Store.seq;
          t.acked <- max t.acked r.Store.seq)
        batches records;
      t.pending_records <- t.pending_records + List.length records;
      t.pending_deltas <- t.pending_deltas + Array.length deltas;
      publish_pending t);
  List.iter (fun (k, sub) -> apply_seg t k sub) batches;
  { applied = Array.length deltas; stale = stale_segments t }

(* --- refresh ------------------------------------------------------ *)

let refresh ?(governor = Governor.unlimited) ?(force = false) t =
  Faults.trip "stream.refresh";
  Metrics.count "stream.refreshes" 1;
  let targets =
    if force then List.init (Array.length t.segs) Fun.id
    else stale_segments t
  in
  let skipped_clean = Array.length t.segs - List.length targets in
  let rebuilt = ref [] and expired = ref false in
  (* One governor poll per segment boundary — never per delta or per
     DP state; the inner build is governed by [cfg.options] alone. *)
  List.iter
    (fun k ->
      if not !expired then
        match Governor.poll governor with
        | Governor.Expired _ -> expired := true
        | Governor.Continue | Governor.Checkpoint_due ->
            let s = t.segs.(k) in
            let syn =
              build_segment t.cfg ~grant:s.s_grant ~name:(seg_name t k)
                s.values
            in
            s.synopsis <- syn;
            s.dirty <- 0.;
            (match t.store with
            | None -> ()
            | Some store -> Store.put store ~name:(seg_name t k) syn);
            rebuilt := k :: !rebuilt;
            Log.debug (fun m ->
                m "refresh: rebuilt segment %d [%d..%d] (%d words)" k s.s_lo
                  s.s_hi (Synopsis.storage_words syn)))
    targets;
  (* Checkpoint the folded state, then garbage-collect the WAL records
     the manifest now covers.  A crash between the two is benign:
     replay skips records at or below each segment's applied seq. *)
  (match t.store with
  | None -> ()
  | Some store ->
      save_manifest t;
      t.pending_records <- 0;
      t.pending_deltas <- 0;
      publish_pending t;
      let applied = Hashtbl.create 16 in
      Array.iteri
        (fun i (s : seg) -> Hashtbl.replace applied (seg_name t i) s.applied)
        t.segs;
      Store.wal_compact store ~keep:(fun r ->
          match Hashtbl.find_opt applied r.Store.name with
          | Some seq -> r.Store.seq > seq
          | None -> true));
  { rebuilt = List.rev !rebuilt; skipped_clean; expired = !expired }

(* --- create / resume ---------------------------------------------- *)

let create ?(config = default_config) ?store ds =
  check_config config (Dataset.n ds);
  let n = Dataset.n ds in
  let plan = Segmented.plan ~n ~segments:config.segments in
  let grants =
    Segmented.uniform_split plan ~method_name:config.method_name
      ~budget_words:config.budget_words
  in
  let values = Dataset.values ds in
  let segs =
    Array.mapi
      (fun i (lo, hi) ->
        let slice = Array.sub values (lo - 1) (hi - lo + 1) in
        {
          s_lo = lo;
          s_hi = hi;
          s_grant = grants.(i);
          values = slice;
          dirty = 0.;
          applied = 0;
          synopsis =
            build_segment config ~grant:grants.(i)
              ~name:(Printf.sprintf "%s.seg%d" config.entry_prefix i)
              slice;
        })
      plan.Segmented.bounds
  in
  let t =
    {
      cfg = config;
      n;
      store;
      segs;
      acked = 0;
      pending_records = 0;
      pending_deltas = 0;
    }
  in
  (match store with
  | None -> ()
  | Some store' ->
      Array.iteri (fun i s -> Store.put store' ~name:(seg_name t i) s.synopsis)
        t.segs;
      save_manifest t);
  t

type manifest_seg = {
  m_lo : int;
  m_hi : int;
  m_grant : int;
  m_applied : int;
  m_dirty : float;
  m_values : float array;
}

type manifest = { m_n : int; m_config : config; m_segs : manifest_seg array }

(* The header line, then one [seg] line per segment; every float must
   be finite and the staleness mass non-negative — a NaN mass would
   never go stale again, a NaN threshold is corruption, not bad input. *)
let parse_manifest ~path body =
  let module C = Rs_util.Checkpoint.Cursor in
  let cur = C.of_body ~path body in
  C.expect cur "stream";
  let m_n = C.int cur in
  let segments = C.int cur in
  let method_name = C.word cur in
  let budget_words = C.int cur in
  let stale_threshold = C.float cur in
  let entry_prefix = C.word cur in
  C.finish cur;
  let rec segs acc =
    if C.at_end cur then List.rev acc
    else begin
      C.expect cur "seg";
      let m_lo = C.int cur in
      let m_hi = C.int cur in
      let m_grant = C.int cur in
      let m_applied = C.int cur in
      let m_dirty = C.float cur in
      if m_dirty < 0. then C.fail cur "negative staleness mass %h" m_dirty;
      let m_values = C.floats cur in
      if Array.length m_values <> m_hi - m_lo + 1 then
        C.fail cur "stream manifest width mismatch";
      segs ({ m_lo; m_hi; m_grant; m_applied; m_dirty; m_values } :: acc)
    end
  in
  let m_segs = Array.of_list (segs []) in
  if Array.length m_segs <> segments then
    C.fail cur "stream manifest segment count mismatch";
  let options = Builder.default_options in
  let m_config =
    { method_name; budget_words; segments; stale_threshold; entry_prefix; options }
  in
  { m_n; m_config; m_segs }

(* Reopen a stream from its store: manifest base state, then WAL
   replay of records above each segment's applied seq — exactly the
   deltas acked after the last checkpoint, one in-place add each.
   Replay re-checks what {!check_batch} guaranteed at ingest (position
   inside the record's segment, finite non-negative result): a
   CRC-valid record that breaks it is a corrupt log, refused as
   [Corrupt_checkpoint] naming the WAL — never an array-bounds crash or
   a poisoned value.  Missing or corrupt segment entries are rebuilt
   from the replayed data (deterministic), never trusted stale. *)
let resume ?(options = Builder.default_options) ?(decoded = fun _ -> None)
    store =
  let started = Rs_util.Mclock.now () in
  match Store.load_manifest store Store.Stream with
  | Error e -> Error e
  | Ok None -> Ok None
  | Ok (Some body) ->
      Error.guard (fun () ->
          let path = Store.manifest_path store Store.Stream in
          let { m_n = n; m_config; m_segs = specs } =
            parse_manifest ~path body
          in
          let cfg = { m_config with options } in
          check_config cfg n;
          (* Restore per-segment base state, contiguity-checked. *)
          ignore
            (Segmented.plan_of_bounds ~n
               (Array.map (fun m -> (m.m_lo, m.m_hi)) specs));
          let values = Array.map (fun m -> m.m_values) specs in
          let applied = Array.map (fun m -> ref m.m_applied) specs in
          let dirty = Array.map (fun m -> ref m.m_dirty) specs in
          let name_of i = Printf.sprintf "%s.seg%d" cfg.entry_prefix i in
          let acked = ref (Array.fold_left (fun a r -> max a !r) 0 applied) in
          let replayed = ref 0 and replayed_deltas = ref 0 in
          let corrupt_wal fmt =
            Printf.ksprintf
              (fun reason ->
                Error.raise_error
                  (Error.Corrupt_checkpoint
                     { path = Store.wal_path store; reason }))
              fmt
          in
          (* Replay acked-but-uncheckpointed deltas, idempotently:
             records at or below a segment's applied seq are already in
             its manifest base data. *)
          (match Store.wal_load store with
          | Error e -> Error.raise_error e
          | Ok (records, dropped) ->
              if dropped > 0 then
                Log.warn (fun m ->
                    m "resume: dropped %d torn WAL line(s)" dropped);
              let by_name = Hashtbl.create 16 in
              Array.iteri
                (fun i _ -> Hashtbl.replace by_name (name_of i) i)
                specs;
              List.iter
                (fun r ->
                  match Hashtbl.find_opt by_name r.Store.name with
                  | None ->
                      Log.warn (fun m ->
                          m "resume: WAL record for unknown segment %s"
                            r.Store.name)
                  | Some k ->
                      let lo = specs.(k).m_lo and hi = specs.(k).m_hi in
                      let v = values.(k) in
                      if r.Store.seq > !(applied.(k)) then begin
                        Array.iter
                          (fun (i, d) ->
                            if i < lo || i > hi then
                              corrupt_wal
                                "WAL record %d puts position %d outside \
                                 segment %s [%d..%d]"
                                r.Store.seq i r.Store.name lo hi;
                            let x = v.(i - lo) +. d in
                            if not (Float.is_finite x && x >= 0.) then
                              corrupt_wal
                                "WAL record %d drives position %d to %h \
                                 (not finite and >= 0)"
                                r.Store.seq i x;
                            v.(i - lo) <- x;
                            dirty.(k) := !(dirty.(k)) +. abs_float d)
                          r.Store.deltas;
                        applied.(k) := r.Store.seq;
                        incr replayed;
                        replayed_deltas :=
                          !replayed_deltas + Array.length r.Store.deltas
                      end;
                      acked := max !acked r.Store.seq)
                records);
          (* The compacted log may hold nothing at or near the acked
             high-water mark; pin the seq counter above it so this
             handle's appends stay strictly increasing and replayable. *)
          Store.wal_reserve_seq store !acked;
          (* Load (or deterministically rebuild) each segment synopsis. *)
          let segs =
            Array.mapi
              (fun i { m_lo = lo; m_hi = hi; m_grant = grant; _ } ->
                let name = name_of i in
                let loaded =
                  match decoded name with
                  | Some syn -> Ok syn
                  | None -> Store.get store ~name
                in
                let synopsis =
                  match loaded with
                  | Ok syn when Synopsis.domain_size syn = hi - lo + 1 -> syn
                  | Ok _ | Error _ ->
                      Log.warn (fun m ->
                          m "resume: rebuilding segment %d (entry %s \
                             unusable)"
                            i name);
                      let syn = build_segment cfg ~grant ~name values.(i) in
                      dirty.(i) := 0.;
                      Store.put store ~name syn;
                      syn
                in
                {
                  s_lo = lo;
                  s_hi = hi;
                  s_grant = grant;
                  values = values.(i);
                  dirty = !(dirty.(i));
                  applied = !(applied.(i));
                  synopsis;
                })
              specs
          in
          let t =
            {
              cfg;
              n;
              store = Some store;
              segs;
              acked = !acked;
              pending_records = !replayed;
              pending_deltas = !replayed_deltas;
            }
          in
          publish_pending t;
          Log.info (fun m ->
              m "resume: replayed %d WAL record(s), %d delta(s) in %.3f ms"
                !replayed !replayed_deltas
                ((Rs_util.Mclock.now () -. started) *. 1e3));
          Some t)
