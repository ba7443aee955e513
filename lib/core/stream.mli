(** Streaming ingestion over a segmented synopsis (DESIGN.md §16).

    The batch world builds a synopsis once over a frozen array; this
    module keeps one {e alive} under point-deltas.  The domain is
    partitioned as in {!Segmented}; each segment owns its plain
    current values, into which a delta is one in-place add (O(1) per
    delta, never a rebuild), plus an accumulated [|δ|] staleness
    mass.  {!ingest} routes a delta batch to its segments —
    write-ahead-logged and fsynced {e before} it is acknowledged when a
    {!Store} is attached, so kill -9 after an ack never loses a delta —
    and {!refresh} re-optimizes {e only} the segments whose mass
    crossed the threshold, through the ordinary {!Builder} path, making
    every rebuilt segment {b bit-identical} to a from-scratch batch
    build of the same data (the @stream determinism twin).

    Durability protocol (all under {!Store}): the [STREAM] manifest
    checkpoints per-segment base data and the WAL sequence each segment
    has folded in; the [WAL] holds acked deltas beyond that.  {!resume}
    restores the manifest, replays WAL records {e above} each segment's
    applied sequence (idempotent — a crash between manifest write and
    WAL compaction double-delivers, and the sequence check drops the
    duplicates) at O(1) per delta, and reloads or deterministically
    rebuilds segment synopses.  Two gauges say how far the WAL runs
    ahead of the manifest: ["stream.wal.pending_records"] and
    ["stream.wal.pending_deltas"], set once per ingest batch, refresh
    and resume.

    Concurrency/faults (CLAUDE.md invariants): the stream is
    {e coordinator-only}.  The ["stream.ingest"] / ["stream.refresh"]
    fault seams trip once per call; metrics record per batch and per
    segment rebuild; {!refresh}'s governor is polled once per segment
    {e boundary} — never per delta, never per DP state.  Nothing here
    spawns domains; inner builds obey the caller's
    {!Builder.options}. *)

type config = {
  method_name : string;  (** per-segment construction method *)
  budget_words : int;  (** global budget, split uniformly across segments *)
  segments : int;
  stale_threshold : float;
      (** a segment whose accumulated [|δ|] mass {e exceeds} this is
          stale (so [0.] marks a segment stale on any nonzero delta) *)
  entry_prefix : string;
      (** store entry names are [<entry_prefix>.seg<i>] *)
  options : Builder.options;  (** threaded into every segment build *)
}

val default_config : config
(** ["a0"], 64 words, 4 segments, threshold [0.], prefix ["stream"],
    {!Builder.default_options}. *)

type t

type ingest_report = {
  applied : int;  (** deltas folded in (the whole batch, or none) *)
  stale : int list;  (** segments now beyond the staleness threshold *)
}

type refresh_report = {
  rebuilt : int list;  (** segments re-optimized, in index order *)
  skipped_clean : int;  (** segments under the threshold, untouched *)
  expired : bool;
      (** the refresh governor expired at a segment boundary; remaining
          targets keep their staleness and the next refresh resumes *)
}

val create : ?config:config -> ?store:Store.t -> Dataset.t -> t
(** Build the initial per-segment synopses (through {!Builder}) and,
    when [store] is given, persist them, the [STREAM] manifest and an
    empty WAL position.  Raises typed errors on bad config, an
    unbuildable budget ({!Segmented.uniform_split}'s contract), or
    store I/O failure. *)

val resume :
  ?options:Builder.options ->
  ?decoded:(string -> Synopsis.t option) ->
  Store.t ->
  (t option, Rs_util.Error.t) result
(** Reopen from a store: [Ok None] when no stream manifest exists;
    otherwise restore base data, replay the WAL idempotently, and load
    (or rebuild, deterministically) every segment synopsis.  [decoded]
    names segment entries the caller already read and verified from
    this store (the serving generation's); those are taken as they are
    instead of read again through [Store.get].  Either way a synopsis
    whose domain does not match its segment is rebuilt.  Config is
    the manifest's; [options] re-arms the non-serializable build
    options.  [Error (Corrupt_checkpoint _)] on a damaged manifest, or
    naming the WAL when a CRC-valid record puts a delta outside its
    segment or drives a value non-finite or negative — quarantine via
    [Store.quarantine_manifest _ Stream] and rebuild from scratch.  Logs
    one [rs.stream] info line: records and deltas replayed, and the
    time taken. *)

(** {2 The STREAM manifest} *)

type manifest_seg = {
  m_lo : int;
  m_hi : int;
  m_grant : int;
  m_applied : int;  (** highest WAL seq folded into [m_values] *)
  m_dirty : float;  (** staleness mass, finite and [>= 0.] *)
  m_values : float array;
}

type manifest = { m_n : int; m_config : config; m_segs : manifest_seg array }

val parse_manifest : path:string -> string -> manifest
(** {!resume}'s reader of a STREAM manifest body: the header line, then
    one [seg] line per segment, every float finite ([m_config.options]
    is the default).  Raises [Rs_error (Corrupt_checkpoint _)]. *)

val n : t -> int
val segments : t -> int
val config : t -> config

val value : t -> int -> float
(** Current [A[i]], [1 ≤ i ≤ n]. *)

val data : t -> float array
(** Fresh copy of the current live data. *)

val staleness : t -> float array
(** Per-segment accumulated [|δ|] mass since its last rebuild. *)

val stale_segments : t -> int list
(** Segments whose mass exceeds the threshold, in index order. *)

val ingest : t -> (int * float) array -> ingest_report
(** Apply one batch of point-deltas [(i, δ)] (global 1-based
    positions).  All-or-nothing: the batch is validated first (bounds,
    finiteness, and no resulting value may go negative — the rebuild
    path requires buildable data), then WAL-appended and fsynced (the
    ack point) as one record per touched segment, then added into the
    segments' values, O(1) per delta.  Raises [Rs_error (Invalid_input _)] on a bad
    batch (nothing applied, nothing logged), [Io_failure] if the WAL
    write fails (nothing acked). *)

val refresh :
  ?governor:Rs_util.Governor.t -> ?force:bool -> t -> refresh_report
(** Re-optimize every stale segment (all segments under [~force:true]):
    rebuild a copy of its values through {!Builder} with the segment's
    grant (bit-identical to a batch build of the same data),
    persist the new entry, and reset its mass.  The [governor] is
    polled once per segment boundary; expiry stops cleanly with the
    remaining segments still marked stale.  After the loop the [STREAM]
    manifest is rewritten and the WAL compacted (records the manifest
    now covers are dropped). *)

val plan : t -> Segmented.plan
val dataset : t -> Dataset.t
(** The current live data as a dataset (fresh). *)

val synopsis : t -> Segmented.t
(** The live segmented synopsis: current synopses (possibly stale)
    with {e exact current} per-segment totals — boundary estimates may
    lag the data until {!refresh}, interior totals never do. *)

val log_src : Logs.src
(** The [rs.stream] log source. *)
