module Error = Rs_util.Error
module Crc32 = Rs_util.Crc32
module Faults = Rs_util.Faults
module Checkpoint = Rs_util.Checkpoint
module Cursor = Checkpoint.Cursor
module Metrics = Rs_util.Metrics
module Trace = Rs_util.Trace

let log_src = Logs.Src.create "rs.store" ~doc:"Durable synopsis store"

module Log = (val Logs.src_log log_src : Logs.LOG)

let manifest_kind = "rs-store-manifest-v1"
let manifest_file = "MANIFEST"

(* The side manifests beside MANIFEST; see [save_manifest]. *)
type manifest = Build | Stream

let manifest_file_of = function Build -> "BUILD" | Stream -> "STREAM"

let manifest_kind_of = function
  | Build -> "rs-build-manifest-v1"
  | Stream -> "rs-stream-state-v1"

let wal_file = "WAL"
let quarantine_dir = "quarantine"
let entry_ext = ".rs"

type t = {
  dir : string;
  mutable entries : (string * string) list;
  mutable wal_next : int option;
      (* next WAL sequence number; [None] until the first WAL scan *)
}
(* entries: (name, CRC-32 hex of the entry file's bytes), sorted by name. *)

type verified = { bytes : string; synopsis : Synopsis.t }

type fsck_report = {
  ok : string list;
  verified : (string * verified) list;
  quarantined : (string * string) list;
  removed_tmp : string list;
  manifest_rebuilt : bool;
}

let dir t = t.dir

let valid_name name =
  name <> ""
  && name <> manifest_file
  && name <> manifest_file_of Build
  && name <> manifest_file_of Stream
  && name <> wal_file
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true
         | _ -> false)
       name
  && name.[0] <> '.'

let check_name name =
  if not (valid_name name) then
    Error.raise_error
      (Error.Invalid_input
         (Printf.sprintf
            "store: invalid synopsis name %S (want [A-Za-z0-9._-]+, not \
             starting with '.')"
            name))

let entry_path t name = Filename.concat t.dir (name ^ entry_ext)

let name_of_file file =
  if Filename.check_suffix file entry_ext then
    let name = Filename.chop_suffix file entry_ext in
    if valid_name name then Some name else None
  else None

let mkdir_p path =
  if not (Sys.file_exists path) then
    try Unix.mkdir path 0o755
    with Unix.Unix_error (e, _, _) ->
      Error.raise_error
        (Error.Io_failure { path; reason = Unix.error_message e })

let store_manifest_path t = Filename.concat t.dir manifest_file

let manifest_body entries =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, crc) -> Printf.bprintf buf "entry %s %s\n" name crc)
    entries;
  Buffer.contents buf

let save_store_manifest t =
  Faults.trip "store.manifest";
  t.entries <-
    List.sort (fun (a, _) (b, _) -> String.compare a b) t.entries;
  Checkpoint.save ~path:(store_manifest_path t) ~kind:manifest_kind
    (manifest_body t.entries)

(* One [entry <name> <crc>] line per entry. *)
let parse_manifest ~path body =
  let cur = Cursor.of_body ~path body in
  let rec go acc =
    if Cursor.at_end cur then List.rev acc
    else begin
      Cursor.expect cur "entry";
      let name = Cursor.word cur in
      let crc = Cursor.word cur in
      Cursor.finish cur;
      if not (valid_name name && Crc32.of_hex crc <> None) then
        Cursor.fail cur "bad manifest entry %S %S" name crc;
      go ((name, crc) :: acc)
    end
  in
  go []

(* Scan the directory for decodable entries and rebuild the manifest
   from what is actually there — the self-healing path used when the
   manifest is missing or corrupt.  Undecodable files are left in place
   for [fsck] to quarantine. *)
let rebuild_entries t =
  let files = try Sys.readdir t.dir with Sys_error _ -> [||] in
  let entries = ref [] in
  Array.iter
    (fun file ->
      match name_of_file file with
      | None -> ()
      | Some name -> (
          match Checkpoint.read_file (Filename.concat t.dir file) with
          | Error _ -> ()
          | Ok content -> (
              match Codec.decode_result content with
              | Ok _ -> entries := (name, Crc32.digest content) :: !entries
              | Error _ -> ())))
    files;
  t.entries <- List.sort (fun (a, _) (b, _) -> String.compare a b) !entries

let open_dir dir =
  mkdir_p dir;
  let t = { dir; entries = []; wal_next = None } in
  let path = store_manifest_path t in
  (if Sys.file_exists path then
     match Checkpoint.load ~path ~kind:manifest_kind with
     | Ok body -> (
         match parse_manifest ~path body with
         | entries -> t.entries <- entries
         | exception Error.Rs_error _ ->
             rebuild_entries t;
             save_store_manifest t)
     | Error _ ->
         (* Corrupt manifest: the entries themselves are each CRC-framed,
            so rebuild from disk rather than failing the whole store. *)
         rebuild_entries t;
         save_store_manifest t
   else begin
     rebuild_entries t;
     if t.entries <> [] then save_store_manifest t
   end);
  t

let list t = List.map fst t.entries

let mem t name = List.mem_assoc name t.entries

let put t ~name synopsis =
  check_name name;
  Faults.trip "store.put";
  Trace.with_span "store.put" @@ fun () ->
  Metrics.count "store.puts" 1;
  let content = Codec.to_string synopsis in
  Checkpoint.write_atomic ~path:(entry_path t name) content;
  t.entries <-
    (name, Crc32.digest content) :: List.remove_assoc name t.entries;
  save_store_manifest t;
  Log.debug (fun m -> m "put %s (%d bytes)" name (String.length content))

let get t ~name =
  check_name name;
  Metrics.count "store.gets" 1;
  let path = entry_path t name in
  match Checkpoint.read_file path with
  | Error _ as e -> e
  | Ok content -> (
      match List.assoc_opt name t.entries with
      | Some crc when crc <> Crc32.digest content ->
          Error.fail
            (Error.Corrupt_synopsis
               {
                 line = 0;
                 reason =
                   Printf.sprintf
                     "store entry %s does not match its manifest checksum" name;
               })
      | Some _ | None -> Codec.decode_result content)

let remove t ~name =
  check_name name;
  Metrics.count "store.removes" 1;
  let path = entry_path t name in
  (try Sys.remove path with Sys_error _ -> ());
  if mem t name then begin
    t.entries <- List.remove_assoc name t.entries;
    save_store_manifest t
  end

(* Move a damaged entry aside (never delete data that might be partially
   recoverable by hand); name collisions in quarantine get a numeric
   suffix. *)
let quarantine t file =
  let qdir = Filename.concat t.dir quarantine_dir in
  mkdir_p qdir;
  let rec fresh candidate n =
    let dst = Filename.concat qdir candidate in
    if Sys.file_exists dst then fresh (Printf.sprintf "%s.%d" file n) (n + 1)
    else dst
  in
  let dst = fresh file 1 in
  Metrics.count "store.quarantined" 1;
  Log.warn (fun m -> m "quarantining damaged entry %s -> %s" file dst);
  (try Unix.rename (Filename.concat t.dir file) dst
   with Unix.Unix_error (e, _, _) ->
     Error.raise_error
       (Error.Io_failure
          { path = Filename.concat t.dir file; reason = Unix.error_message e }))

(* --- side manifests (Rs_core.Supervisor, Rs_core.Stream) ---

   Independent CRC-framed containers beside MANIFEST in the same
   directory: BUILD, the supervisor's per-segment build status, and
   STREAM, the streaming checkpoint (per-segment base data, staleness
   mass, applied WAL sequence).  Same atomic-write discipline; each has
   its own [kind] tag, so no manifest can be mistaken for another.  The
   files are invisible to entry scans ([name_of_file] wants the [.rs]
   suffix) and reserved by [valid_name], so fsck and the entry
   namespace cannot collide with them. *)

let manifest_path t m = Filename.concat t.dir (manifest_file_of m)

let save_manifest t m body =
  Faults.trip "store.manifest";
  Metrics.count
    (match m with
    | Build -> "store.build_manifests"
    | Stream -> "store.stream_manifests")
    1;
  Checkpoint.save ~path:(manifest_path t m) ~kind:(manifest_kind_of m) body

let load_manifest t m =
  let path = manifest_path t m in
  if not (Sys.file_exists path) then Ok None
  else
    match Checkpoint.load ~path ~kind:(manifest_kind_of m) with
    | Ok body -> Ok (Some body)
    | Error e -> Error e

let quarantine_manifest t m =
  if Sys.file_exists (manifest_path t m) then quarantine t (manifest_file_of m)

(* --- the ingest write-ahead log ---

   An append-only file of line-framed delta records, fsynced before
   the ingest is acknowledged — the durability contract is that an
   acked delta survives kill -9.  Unlike the manifests the WAL is NOT
   one CRC-framed container (that would force a rewrite per append):
   each record line carries its own CRC-32 over its body, so a torn
   tail — the only corruption a crash-during-append can produce — is
   detected at the record boundary and dropped (it was never acked).
   Parsing stops at the first bad line; everything after it is
   reported as dropped, never half-trusted.

   Record line: [d <crc> <seq> <name> <k> <i1> <h1> ... <ik> <hk>]
   with the CRC over everything after ["d <crc> "], floats in [%h]
   (shortest-round-trip exact), and [seq] strictly increasing across
   the file — replay idempotence keys off it. *)

type wal_record = { seq : int; name : string; deltas : (int * float) array }

let wal_path t = Filename.concat t.dir wal_file

let wal_record_body ~seq ~name deltas =
  let buf = Buffer.create 64 in
  Printf.bprintf buf "%d %s %d" seq name (Array.length deltas);
  Array.iter (fun (i, d) -> Printf.bprintf buf " %d %h" i d) deltas;
  Buffer.contents buf

(* The record on a WAL line, or [None] when the line is torn or
   rotted: ["d <crc> "] then a body whose exact bytes the CRC must
   match and which must read as [seq name k] plus [k] position/delta
   pairs with finite deltas. *)
let parse_wal_line line =
  let len = String.length line in
  let sp =
    if len >= 2 && line.[0] = 'd' && line.[1] = ' ' then
      String.index_from_opt line 2 ' '
    else None
  in
  match sp with
  | Some sp
    when Crc32.to_hex (Crc32.sub line ~pos:(sp + 1) ~len:(len - sp - 1))
         = String.sub line 2 (sp - 2) -> (
      let cur =
        Cursor.create line ~pos:(sp + 1) ~error:(fun ~line:_ reason ->
            Error.Invalid_input reason)
      in
      match
        let seq = Cursor.int_of cur (Cursor.next cur) in
        let name = Cursor.word cur in
        let k = Cursor.int cur in
        (* a pair takes at least four bytes: a bogus [k] sizes nothing *)
        if not (valid_name name && k >= 0 && k <= len) then
          Cursor.fail cur "bad record header";
        let deltas =
          Array.init k (fun _ ->
              let i = Cursor.int cur in
              (i, Cursor.float cur))
        in
        Cursor.finish cur;
        { seq; name; deltas }
      with
      | r -> Some r
      | exception Error.Rs_error _ -> None)
  | _ -> None

(* Records in file order plus the number of lines dropped at the torn
   (or rotted) tail: the first bad line ends the log, and it and every
   non-empty line after it are dropped, never half-trusted.  A missing
   WAL is an empty one. *)
let wal_load t =
  let path = wal_path t in
  if not (Sys.file_exists path) then Ok ([], 0)
  else
    let rec go acc last_seq = function
      | [] -> (List.rev acc, 0)
      | line :: rest -> (
          match parse_wal_line line with
          | Some r when r.seq > last_seq -> go (r :: acc) r.seq rest
          | Some _ | None ->
              let dropped = 1 + List.length rest in
              Log.warn (fun m ->
                  m "WAL: dropping torn tail (%d line(s)) at %s" dropped path);
              (List.rev acc, dropped))
    in
    Result.map
      (fun s ->
        go [] min_int
          (List.filter (fun l -> l <> "") (String.split_on_char '\n' s)))
      (Checkpoint.read_file path)

let wal_next_seq t =
  match t.wal_next with
  | Some next -> next
  | None ->
      let next =
        match wal_load t with
        | Ok (records, _) ->
            1 + List.fold_left (fun acc r -> max acc r.seq) 0 records
        | Error _ ->
            (* Unreadable WAL (OS refusal, not torn bytes): start the
               sequence over — quarantining is the caller's call. *)
            1
      in
      t.wal_next <- Some next;
      next

(* Raise the sequence floor: the next assigned seq will exceed [seq].
   The scan above only sees records still *in* the log, so after a
   compaction a fresh handle would restart below the manifest's
   applied seqs — and replay would silently drop its acked records as
   already applied.  Stream.resume reserves its high-water mark here. *)
let wal_reserve_seq t seq =
  let cur = wal_next_seq t in
  if seq + 1 > cur then t.wal_next <- Some (seq + 1)

(* Append one record per (name, deltas) batch entry, then fsync once —
   the ack point.  Returns the records written (with their assigned
   sequence numbers) so callers can fold them into in-memory state
   without re-reading the log. *)
let wal_append t batches =
  Faults.trip "store.wal";
  Metrics.count "store.wal_appends" 1;
  let next = wal_next_seq t in
  let buf = Buffer.create 256 in
  let records =
    List.mapi
      (fun j (name, deltas) ->
        check_name name;
        let seq = next + j in
        let body = wal_record_body ~seq ~name deltas in
        Printf.bprintf buf "d %s %s\n" (Crc32.digest body) body;
        { seq; name; deltas })
      batches
  in
  let path = wal_path t in
  let fd =
    try Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
    with Unix.Unix_error (e, _, _) ->
      Error.raise_error
        (Error.Io_failure { path; reason = Unix.error_message e })
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let bytes = Bytes.of_string (Buffer.contents buf) in
      let len = Bytes.length bytes in
      let written = ref 0 in
      (try
         while !written < len do
           written :=
             !written + Unix.write fd bytes !written (len - !written)
         done;
         Unix.fsync fd
       with Unix.Unix_error (e, _, _) ->
         Error.raise_error
           (Error.Io_failure { path; reason = Unix.error_message e }));
      t.wal_next <- Some (next + List.length batches);
      records)

(* Drop records a refresh has folded into the stream manifest: keep
   only those [keep] selects, rewritten atomically (temp + fsync +
   rename) so a crash leaves either the old or the new log.  Replay
   stays idempotent either way — the manifest's per-segment seq wins. *)
let wal_compact t ~keep =
  match wal_load t with
  | Error e -> Error.raise_error e
  | Ok (records, _) ->
      let kept = List.filter keep records in
      let buf = Buffer.create 256 in
      List.iter
        (fun r ->
          let body = wal_record_body ~seq:r.seq ~name:r.name r.deltas in
          Printf.bprintf buf "d %s %s\n" (Crc32.digest body) body)
        kept;
      Checkpoint.write_atomic ~path:(wal_path t) (Buffer.contents buf);
      Metrics.count "store.wal_compactions" 1

let fsck ?(reuse = fun _ _ -> None) t =
  Trace.with_span "store.fsck" @@ fun () ->
  Metrics.count "store.fscks" 1;
  let files = try Sys.readdir t.dir with Sys_error _ -> [||] in
  let quarantined = ref []
  and removed_tmp = ref []
  and dirty = ref false in
  let disk = ref [] in
  Array.iter
    (fun file ->
      let path = Filename.concat t.dir file in
      if Filename.check_suffix file ".tmp" then begin
        (* A crash between temp-file write and rename leaves these; they
           were never the live copy, so deleting is safe. *)
        (try Sys.remove path with Sys_error _ -> ());
        removed_tmp := file :: !removed_tmp
      end
      else
        match name_of_file file with
        | None -> ()
        | Some name -> (
            match Checkpoint.read_file path with
            | Error e ->
                let reason =
                  match e with
                  | Error.Io_failure { reason; _ } -> reason
                  | e -> Error.to_string e
                in
                quarantined := (name, "unreadable: " ^ reason) :: !quarantined;
                dirty := true
            | Ok content -> (
                let decoded =
                  match reuse name content with
                  | Some synopsis -> Ok synopsis
                  | None -> Codec.decode_result content
                in
                match decoded with
                | Ok synopsis ->
                    disk :=
                      (name, Crc32.digest content, { bytes = content; synopsis })
                      :: !disk
                | Error e ->
                    quarantine t file;
                    quarantined := (name, Error.to_string e) :: !quarantined;
                    dirty := true)))
    files;
  let disk = List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) !disk in
  let verified = List.map (fun (name, _, v) -> (name, v)) disk in
  let disk = List.map (fun (name, crc, _) -> (name, crc)) disk in
  (* Manifest entries whose file vanished (or was just quarantined). *)
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name disk) && not (List.mem_assoc name !quarantined)
      then begin
        quarantined :=
          (name, "listed in manifest but missing on disk") :: !quarantined;
        dirty := true
      end)
    t.entries;
  (* Valid files the manifest doesn't know (interrupted put, manual
     copy): adopt them. *)
  if disk <> t.entries then dirty := true;
  if !dirty then begin
    t.entries <- disk;
    save_store_manifest t
  end;
  {
    ok = List.map fst disk;
    verified;
    quarantined = List.rev !quarantined;
    removed_tmp = List.rev !removed_tmp;
    manifest_rebuilt = !dirty;
  }
