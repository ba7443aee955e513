(** The hash-indexed LRU answer cache: O(1) lookup, insert and evict.

    A hash table keyed by the request's cache key points into an
    intrusive doubly-linked recency list; a hit or an overwrite moves
    the node to the fresh end, and inserting a fresh key at capacity
    evicts the least recently used one.  Eviction is deterministic: the
    same operation sequence always produces the same resident set, so
    stale-rung replays and restart-determinism probes stay
    byte-identical.  [test_serve.ml] pins it against a list-based LRU
    model.

    The cache holds whatever the server feeds it — and the server only
    ever feeds *exact* answers (a bound answer must never displace a
    cached exact answer); that invariant lives in [Server], not here. *)

type policy = Lru

type 'v t

val create : policy:policy -> capacity:int -> 'v t
(** [capacity = 0] disables the cache ({!put} is a no-op).  Raises
    [Invalid_argument] on negative capacity. *)

val capacity : 'v t -> int
val length : 'v t -> int

val find : 'v t -> string -> 'v option
(** O(1).  A hit refreshes the entry's recency. *)

val mem : 'v t -> string -> bool
(** O(1), never affects recency. *)

val put : 'v t -> string -> 'v -> unit
(** O(1).  Overwriting a live key refreshes it and keeps the resident
    set unchanged.  Inserting a fresh key at capacity evicts the least
    recently used entry first. *)

val keys_oldest_first : 'v t -> string list
(** The resident keys in eviction order (oldest first) — test/debug
    surface for the eviction-order pins; O(length). *)
