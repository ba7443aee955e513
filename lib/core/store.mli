(** A durable, self-healing directory store for synopses — the catalog a
    database would keep its precomputed summaries in.

    Layout: one {!Codec} v2 file per synopsis ([<name>.rs]), a
    [MANIFEST] listing every entry with the CRC-32 of its file bytes
    (framed by {!Rs_util.Checkpoint}, so the manifest itself is
    checksummed and written atomically), and a [quarantine/]
    subdirectory where {!fsck} moves damaged entries.

    Every write — entries and manifest alike — goes through
    {!Rs_util.Checkpoint.write_atomic} (temp file + [fsync] + atomic
    rename), so a crash at any point leaves the store readable: at
    worst a stray [*.tmp] file (removed by {!fsck}) or a manifest one
    entry behind disk (adopted by {!fsck}/{!open_dir}).

    Fault seams ({!Rs_util.Faults}): ["store.put"] (fail a put before
    any bytes move), ["store.manifest"] (fail the manifest rewrite after
    the entry file is durable), plus the ["atomic.*"] seams underneath
    every write.

    Corruption is never fatal to the store: a damaged manifest is
    rebuilt by scanning the directory (each entry file carries its own
    CRC), and a damaged entry is quarantined by {!fsck} — moved aside,
    never deleted — while every healthy entry stays served. *)

type t

type verified = {
  bytes : string;  (** the entry file's bytes, as read and verified *)
  synopsis : Synopsis.t;  (** what [bytes] decode to *)
}

type fsck_report = {
  ok : string list;  (** entries that decode and match the manifest *)
  verified : (string * verified) list;
      (** the [ok] entries, in the same order, with the bytes fsck read
          and the synopsis they decode to — a caller that serves the
          store needs no second read or decode *)
  quarantined : (string * string) list;
      (** [(name, reason)] — corrupt/unreadable entries moved to
          [quarantine/], or manifest entries missing on disk *)
  removed_tmp : string list;
      (** stray [*.tmp] files from interrupted atomic writes, deleted *)
  manifest_rebuilt : bool;  (** the manifest was out of sync and rewritten *)
}

val open_dir : string -> t
(** Open (creating the directory if needed).  A missing or corrupt
    manifest is self-healed by scanning the directory for decodable
    entries — never an error.  Raises [Rs_error (Io_failure _)] only
    when the OS refuses directory creation or the manifest rewrite. *)

val parse_manifest : path:string -> string -> (string * string) list
(** {!open_dir}'s reader of a MANIFEST body: [(name, crc)] from one
    [entry <name> <crc>] line per entry.  Raises
    [Rs_error (Corrupt_checkpoint _)]. *)

val dir : t -> string

val list : t -> string list
(** Manifest entry names, sorted. *)

val mem : t -> string -> bool

val put : t -> name:string -> Synopsis.t -> unit
(** Atomically write the synopsis and update the manifest.  Raises
    [Rs_error (Invalid_input _)] on a bad name ([A-Za-z0-9._-]+, no
    leading dot), [Rs_error (Io_failure _)] on OS failure.  If the
    manifest write dies after the entry write, the next
    {!fsck}/{!open_dir} adopts the orphaned entry. *)

val get : t -> name:string -> (Synopsis.t, Rs_util.Error.t) result
(** Read, verify (manifest CRC, then the codec's own framing), decode.
    [Io_failure] when unreadable, [Corrupt_synopsis] on any mismatch. *)

val remove : t -> name:string -> unit
(** Delete the entry and update the manifest; removing an absent entry
    is a no-op. *)

(** {2 Side manifests}

    Two CRC-framed files beside the store's [MANIFEST], each with the
    same {!Rs_util.Checkpoint} framing and atomic-write discipline but
    its own kind tag, so no manifest can be mistaken for another:

    - [BUILD] ([rs-build-manifest-v1]): {!Rs_core.Supervisor}'s
      per-segment build status;
    - [STREAM] ([rs-stream-state-v1]): {!Rs_core.Stream}'s checkpoint
      of per-segment base data, staleness mass and applied WAL
      sequence.

    Both names are reserved (not valid entry names) and ignored by
    entry scans and {!fsck}. *)

type manifest = Build | Stream

val manifest_path : t -> manifest -> string

val save_manifest : t -> manifest -> string -> unit
(** Atomically (re)write the manifest with [body].  Trips the
    ["store.manifest"] fault seam like the entry manifest and counts
    [store.build_manifests] or [store.stream_manifests]; raises
    [Rs_error (Io_failure _)] on OS failure. *)

val load_manifest : t -> manifest -> (string option, Rs_util.Error.t) result
(** [Ok None] when the manifest does not exist, [Ok (Some body)] when
    it loads and verifies, [Error (Corrupt_checkpoint _)] when the file
    is torn or mis-kinded (callers quarantine it and start fresh — never
    brick the build), [Error (Io_failure _)] when unreadable. *)

val quarantine_manifest : t -> manifest -> unit
(** Move a damaged manifest into [quarantine/] (no-op when absent). *)

(** {2 The ingest write-ahead log}

    An append-only [WAL] file of line-framed delta records, fsynced
    before the ingest is acknowledged: an acked delta survives
    kill -9.  Each record line carries its own CRC-32 (the log is
    never rewritten per append), so the only crash artifact — a torn
    tail — is detected at the record boundary and dropped; it was
    never acked.  Sequence numbers are strictly increasing across the
    file and replay idempotence keys off them: the stream manifest
    records, per segment, the last sequence folded into its base data,
    and replay skips records at or below it.  ["store.wal"] is the
    fault seam (tripped before any bytes move). *)

type wal_record = { seq : int; name : string; deltas : (int * float) array }

val wal_path : t -> string

val wal_append : t -> (string * (int * float) array) list -> wal_record list
(** Append one record per [(name, deltas)] batch entry and [fsync]
    once — the ack point.  Returns the records with their assigned
    sequence numbers.  Raises [Rs_error (Invalid_input _)] on a bad
    name, [Rs_error (Io_failure _)] on OS failure (nothing is acked). *)

val wal_load : t -> (wal_record list * int, Rs_util.Error.t) result
(** Records in file order plus the count of lines dropped at the torn
    tail (0 when clean).  A missing WAL is [Ok ([], 0)].  Parsing
    stops at the first bad or out-of-order line — suffixes of a
    corrupt record are dropped, never half-trusted. *)

val wal_compact : t -> keep:(wal_record -> bool) -> unit
(** Atomically rewrite the log keeping only records [keep] selects
    (garbage collection after a refresh folds records into the stream
    manifest).  Crash-safe: the old or the new log survives, and
    replay is idempotent either way. *)

val wal_reserve_seq : t -> int -> unit
(** Raise the sequence floor: the next assigned seq will exceed [seq].
    A fresh handle derives its counter from the records still in the
    log, so after a compaction it would restart below the manifest's
    applied seqs and replay would drop its acked records as already
    applied — {!Stream.resume} reserves its manifest high-water mark
    here before any new append.  Never lowers the counter. *)

val fsck :
  ?reuse:(string -> string -> Synopsis.t option) -> t -> fsck_report
(** Repair pass: delete stray [*.tmp] files, quarantine entries that
    fail to decode, drop manifest entries whose files vanished, adopt
    valid files the manifest missed, and rewrite the manifest when
    anything changed.  Each entry file is read and decoded once.
    [reuse name bytes] may return a synopsis that was decoded earlier
    from exactly [bytes] (compared in full, never by checksum); fsck
    then takes it instead of decoding the same bytes again. *)
