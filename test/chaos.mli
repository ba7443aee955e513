(** The seeded chaos harness for {!Rs_serve.Server}: a deterministic
    randomized request scheduler plus an invariant checker, used by the
    [@serve]/[@fault] test suite (test_serve.ml).

    A soak drives one server through a seeded schedule of query
    requests (valid, unknown-synopsis, out-of-domain, malformed bytes),
    control operations (ping, metrics, reload), deadline/poll-budget
    pressure, queue-overflow bursts, and one-shot fault injections at
    every serve seam — and checks, per response:

    - {b exactly one well-formed response per request}, decodable by
      {!Rs_serve.Protocol.decode_response}, correlation id echoed;
    - {b no wrong answers}: [exact] estimates are recomputed from the
      server's live generation via {!Rs_core.Synopsis.estimate} and must
      match bit-for-bit; [bound] answers likewise (the bound rung
      evaluates the same plan), and only from entries with a bound rung
      (non-rounded [Avg] histograms, shared-prefix wavelets); [stale]
      answers must be byte-identical to an answer previously returned
      for the same key;
    - {b no unlabeled degradation}: every answer carries its rung;
      [rmse_bound] must match the generation's precomputed bound on
      governed rungs and be absent on [stale];
    - {b typed refusals}: [overloaded] carries a [retry_after_ms] hint
      that matches the configured backoff policy exactly; expiry
      messages never render poll counts as seconds;
    - {b no lost shutdowns}: the final [shutdown] is acknowledged, and
      queries after it are refused [shutting-down].

    Violations are collected (with the offending request/response
    pair), never raised — the caller decides whether they fail a test
    or not. *)

type outcome = {
  requests : int;  (** request lines sent (including malformed ones) *)
  exact : int;
  bound : int;
  stale : int;  (** answers per rung *)
  refused : int;  (** typed refusals *)
  shed : int;  (** [overloaded] refusals among them *)
  injected : int;  (** refusals from armed fault seams *)
  reloads : int;  (** successful generation swaps *)
  violations : string list;  (** empty = the soak held every invariant *)
}

val pp_outcome : Format.formatter -> outcome -> unit

val soak :
  ?requests:int -> ?clients:int -> seed:int -> Rs_serve.Server.config -> outcome
(** Run a fresh server through [requests] (default 200) scheduled
    request lines.  Same seed + same store contents ⇒ the same
    schedule, byte for byte.  All fault seams are disarmed on exit,
    even on an unexpected exception.

    [clients] (default 1) round-robins queries over that many simulated
    connections (distinct cookies) and additionally checks, per
    connection, that every queued query is answered {e exactly once on
    the connection that asked} — the daemon routes responses by cookie,
    so this is the multi-client no-leak/no-loss invariant. *)

val probe : Rs_serve.Server.config -> lines:string list -> string list
(** Create a server, serve [lines] serially, close it, and return the
    response lines — the restart-determinism primitive: run the same
    probes against a second server on the same store and compare for
    byte equality (the kill is simulated by abandoning the first server
    without any orderly shutdown). *)

val probe_cookied :
  Rs_serve.Server.config ->
  lines:(Rs_serve.Server.cookie * string) list ->
  (Rs_serve.Server.cookie * string) list
(** The multi-connection restart-determinism primitive: push every
    [(cookie, line)] in order {e without} stepping between pushes (the
    interleaving a daemon under concurrent clients produces), then
    drain the queue.  Returns immediate replies in push order followed
    by queued responses in FIFO order, each tagged with the asking
    cookie.  Two servers on the same store must return byte-identical
    lists for the same interleaving. *)
