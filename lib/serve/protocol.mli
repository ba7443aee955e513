(** The rs_serve wire protocol: line-delimited JSON over a Unix socket
    (or stdio).

    One request per line, one response line per request, always in
    order.  Requests are JSON objects dispatched on their ["op"] field:

    - [{"op":"query","synopsis":NAME,"ranges":[[a,b],...]}] — answer
      the given ranges from the named synopsis.  Optional fields:
      ["id"] (echoed back for correlation), ["deadline_ms"] (wall-clock
      deadline for this request, milliseconds), ["poll_budget"] (a
      deterministic work-based deadline — the request may spend at most
      that many {!Rs_util.Governor} polls, mirroring the builder's
      poll-budget governors; used by batch schedulers and the chaos
      tests), ["attempt"] (≥ 1, the client's retry count — drives the
      retry-after hint on overload).
    - [{"op":"ingest","synopsis":NAME,"deltas":[[i,d],...]}] — apply
      point-deltas to the named stream-backed synopsis (positions are
      global 1-based indices; deltas are finite floats).  The reply
      reports the batch size actually applied, the synopsis's
      accumulated staleness mass, and whether it is now stale.
      Optional ["id"] as for query.
    - [{"op":"ping"}] — liveness probe.
    - [{"op":"metrics"}] — the live [rs-metrics-v1] report.
    - [{"op":"reload"}] — hot-reload the store generation.
    - [{"op":"shutdown"}] — acknowledge, then stop serving.

    Every successful query response carries the degradation rung that
    produced it ({!rung}); every refusal carries a typed reason
    ({!refusal}), a human-readable message (expiries rendered by
    {!Rs_util.Governor.describe_expiry}) and, for overload, a
    [retry_after_ms] hint from the supervisor's {!Rs_core.Supervisor.Backoff}
    machinery.  Malformed input is a [Bad_request] refusal — never a
    crash, never a dropped connection. *)

(** {2 JSON} *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val json_to_string : json -> string
(** Compact rendering.  Non-finite numbers encode as [null] (JSON has
    no representation for them); integral floats below 1e15 print as
    integers ([-0] keeps its sign); everything else as libc's [%.17g]
    prints it: 17 significant digits, which round-trip but are not the
    shortest digits that would.  Magnitudes from 1e-10 up to 1e17 are
    rendered without libc; the rest call its formatter. *)

val add_int : Buffer.t -> int -> unit
(** [add_int buf n] appends the bytes [string_of_int n] would, without
    allocating once [buf] has grown to fit. *)

val json_of_string : string -> (json, string) result
(** Strict parser for the subset above (no trailing garbage, nesting at
    most 32 deep).  String escapes: the JSON two-character forms plus
    [\uXXXX] with exactly four hex digits (code points ≥ 128 decode to
    ['?'] — the protocol is ASCII).  Numbers: what [float_of_string]
    reads, finite, with no leading ['+'] and no ['.'] first or right
    after the sign. *)

(** {2 Requests} *)

type request =
  | Query of {
      id : string option;
      synopsis : string;
      ranges : (int * int) array;
      deadline_ms : float option;
      poll_budget : int option;
      attempt : int;  (** ≥ 1; defaults to 1 *)
    }
  | Ingest of {
      id : string option;
      synopsis : string;
      deltas : (int * float) array;
          (** [(i, δ)] point-deltas, global 1-based positions *)
    }
  | Ping
  | Metrics
  | Reload
  | Shutdown

val encode_request : request -> string
(** One line, no trailing newline. *)

val decode_request : string -> (request, string) result
(** [Error msg] on malformed JSON, a missing/unknown ["op"], or
    ill-typed fields — the server turns it into a [Bad_request]
    refusal.  Reads the line once, straight into the request, without
    building a {!json} tree.  On a line of known keys whose numbers are
    plain integers it allocates only the result and a three-word cursor;
    any other number token also allocates its span for
    [float_of_string], and an unknown or duplicate key's value its
    tree.  Its stack stays bounded whatever the number of pairs: those
    past the 1,024th are counted before they are read.  The
    result equals that of the AST reading — {!json_of_string}, then the
    first occurrence of each field, then the field checks — for every
    line: the same request, or the same message, "at offset N"
    included. *)

(** {2 Responses} *)

(** The degradation rung that produced an answer (DESIGN.md §14):
    every response is labeled; a degraded answer is never silent. *)
type rung =
  | Exact  (** full per-range evaluation of the synopsis estimator *)
  | Bound
      (** answered from the precomputed prefix (boundary) vector —
          O(1) per range, SSE bound attached when available *)
  | Stale  (** replayed from the answer cache (possibly a previous
               generation) *)

val rung_to_string : rung -> string
(** ["exact"] / ["bound"] / ["stale"]. *)

type refusal =
  | Bad_request  (** malformed line or ill-typed/out-of-domain fields *)
  | Unknown_synopsis  (** the named synopsis is not in the live generation *)
  | Overloaded  (** the request queue is full; retry after the hint *)
  | Deadline
      (** the deadline or poll budget cannot be (or was not) met, and
          no cached answer could stand in *)
  | Corrupt_store  (** a reload found the store unusable; the old
                       generation keeps serving *)
  | Shutting_down  (** the daemon acknowledged a shutdown *)
  | Injected  (** an armed {!Rs_util.Faults} seam fired (tests only) *)

val refusal_to_string : refusal -> string

type response =
  | Answers of {
      id : string option;
      generation : int;  (** the store generation that answered *)
      rung : rung;
      estimates : float array;
      rmse_bound : float option;
          (** per-range RMSE over all ranges of the answering synopsis,
              precomputed at load time via the O(n) SSE lowerings;
              absent when the daemon has no dataset to bound against,
              always absent on the [Stale] rung, and absent when
              [stale] is set — a construction-time bound must never be
              cited for post-update data *)
      stale : bool;
          (** the answering synopsis has absorbed ingest deltas beyond
              its staleness threshold since it was last (re)built; the
              wire field is emitted only when [true], so pre-ingest
              response bytes are unchanged *)
    }
  | Ingested of {
      id : string option;
      synopsis : string;
      applied : int;  (** deltas applied (the whole batch, or none) *)
      dirty : float;  (** accumulated [|δ|] mass since last rebuild *)
      stale : bool;  (** [dirty] now exceeds the staleness threshold *)
    }
  | Refused of {
      id : string option;
      refusal : refusal;
      message : string;
      retry_after_ms : float option;  (** only on [Overloaded] *)
    }
  | Pong
  | Metrics_report of string  (** the raw [rs-metrics-v1] JSON object *)
  | Reloaded of { generation : int; entries : int; quarantined : int }
  | Shutdown_ack

val encode_response : response -> string
(** One line, no trailing newline. *)

val encode_response_into : Buffer.t -> response -> unit
(** The allocation-lean encode path: appends exactly the bytes
    {!encode_response} returns to [buf] (which the server reuses across
    requests).  Does not clear [buf] and adds no trailing newline.
    Once [buf] has grown to fit, encoding an [Answers] reply whose
    numbers lie in the libc-free range above allocates nothing. *)

val response_json : response -> json option
(** The AST rendering of a response — the determinism twin for
    {!encode_response_into}: when [Some j], [json_to_string j] is
    byte-identical to the direct writer's output.  [None] only for
    [Metrics_report], whose report object is spliced in verbatim. *)

val decode_response : string -> (response, string) result
(** Inverse of {!encode_response} (used by clients, tests and the chaos
    checker).  [Metrics_report] round-trips as the re-rendered report
    object. *)
