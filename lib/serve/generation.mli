(** A loaded store generation: the immutable in-memory snapshot of a
    {!Rs_core.Store} directory that the serving daemon answers from.

    Loading is self-healing, exactly like the store underneath: the
    manifest is rebuilt if damaged, an {!Rs_core.Store.fsck} pass
    quarantines corrupt entries (they are dropped from the generation,
    never served, never fatal), and the generation takes the synopses
    that pass decoded — query evaluation then runs on pure in-memory
    values, so a concurrent writer, a later fsck, or on-disk corruption
    cannot affect answers already being served from this generation.

    A load decodes every changed entry once, reuses byte-equal entries
    of the previous generation, and holds no file handles.  An entry is
    byte-equal when its file holds exactly the bytes (compared in full)
    the previous entry was decoded from; its synopsis, plan and RMSE
    bound are then taken over as they are (all immutable), under the
    same dataset only.

    An entry's one domain-wide structure is its plan (an unboxed table,
    outside the OCaml heap); the synopsis itself is O(B) words for a
    histogram.  When the daemon knows the dataset its synopses
    summarize, each entry also carries a precomputed per-range RMSE
    bound over all ranges (the O(n) SSE lowerings make this one pass
    per entry at load time, not per request); without a dataset no
    lowering is built. *)

type entry = {
  name : string;
  syn : Rs_core.Synopsis.t;
  bytes : string;  (** the verified file bytes [syn] was decoded from *)
  n : int;  (** domain size *)
  words : int;  (** storage words (paper accounting) *)
  plan : Rs_query.Batch.t;
      (** the vectorized evaluation plan ({!Rs_core.Synopsis.batch_plan},
          compiled once at load) behind the [Exact] and [Bound] rungs —
          answers bit-identically to [Synopsis.estimate] *)
  bound : bool;
      (** the entry has a [Bound] rung: {!Rs_core.Synopsis.prefix_form}
          (non-rounded [Avg] histograms, shared-prefix wavelets) *)
  rmse_bound : float option;
      (** [sqrt(SSE / #ranges)] over all ranges, from the load-time
          dataset; [None] without one (or on domain-size mismatch) *)
  mutable dirty : float;
      (** accumulated ingest [|δ|] mass absorbed since this entry was
          built — maintained by the server's stream integration
          (coordinator-only, like the cache); [0.] at load until the
          stream's per-segment staleness is mirrored in *)
  mutable stale : bool;
      (** [dirty] exceeds the staleness threshold: answers from this
          entry are flagged and their construction-time [rmse_bound]
          suppressed, since it describes pre-update data *)
}

type t = private {
  gen_id : int;  (** monotone per daemon; echoed in every answer *)
  dir : string;
  dataset : Rs_core.Dataset.t option;  (** what the RMSE bounds measure *)
  entries : (string * entry) list;  (** sorted by name *)
  quarantined : (string * string) list;
      (** entries dropped at load: [(name, reason)] *)
  reused : int;  (** entries taken over from the previous generation *)
  decoded : int;  (** entries decoded and compiled by this load *)
}

val load :
  ?dataset:Rs_core.Dataset.t ->
  ?previous:t ->
  gen_id:int ->
  string ->
  (t, Rs_util.Error.t) result
(** Open the store (creating an empty one if the directory is new),
    fsck it, and keep every healthy entry: decoded once by the fsck
    pass, or reused from [previous] when the file is byte-equal to the
    previous entry's and [dataset] is physically the previous
    generation's.  Every entry gets fresh [dirty]/[stale] fields.
    Corruption is degradation, not failure: damaged entries land in
    [quarantined] and the rest serve.  [Error] only when the OS refuses
    the directory itself — the caller (hot reload) then keeps the
    previous generation.  Adds [reused]/[decoded] to the
    [generation.entries_reused]/[generation.entries_decoded] counters,
    once per load. *)

val find : t -> string -> entry option
val names : t -> string list
val size : t -> int

val mark_staleness : t -> name:string -> dirty:float -> stale:bool -> unit
(** Update the named entry's staleness metadata (no-op for unknown
    names).  Called by the server's one domain at load and after each
    ingest. *)
