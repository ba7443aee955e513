(** Fixed-size fork-join pool over stdlib [Domain.spawn] for the
    level-parallel DP engines ({!Rs_histogram.Dp}, {!Rs_histogram.Opt_a}).

    A pool holds [jobs - 1] worker domains; the coordinator participates
    in every {!run}, so [jobs] is the total worker count.  [jobs = 1]
    spawns nothing and {!run} short-circuits to a plain sequential loop —
    the default everywhere, so parallelism is strictly opt-in.

    Indices are claimed dynamically (atomic fetch-and-add), which only
    balances load: callers must pass bodies whose indices are pairwise
    independent (each writes its own cell and reads only data completed
    before the {!run} — the DP's previous level).  Under that contract
    results are bit-identical for any job count.

    Worker bodies must never touch coordinator-only machinery:
    {!Governor.poll}/{!Governor.check}, {!Faults.trip} and
    {!Checkpoint.save} all stay on the coordinator, at chunk barriers
    between {!run} calls.

    {2 Inline or dispatched}

    A pool runs every chunk inline on the coordinator exactly when
    {!inline} holds for its [jobs] — [jobs = 1], or a machine with
    fewer than two cores, where the workers would time-slice the one
    core and every chunk would pay the wake-up handshake for no
    speedup.  Otherwise every chunk is dispatched.  Inline chunks run
    the plain ascending loop, so results, failure choice (smallest
    index) and every bit-identity contract are the same on both paths —
    only scheduling moves. *)

type t

val inline : jobs:int -> bool
(** [jobs ≤ 1 || Domain.recommended_domain_count () < 2]: a pool of
    [jobs] workers runs everything on the coordinator, never spawns a
    domain, and so cannot break worker-visibility restrictions (e.g.
    sharing a {!Ktbl} arena).  A static per-process fact for each
    [jobs]. *)

val run : t -> lo:int -> hi:int -> (int -> unit) -> unit
(** [run t ~lo ~hi body] applies [body] to every index of [lo..hi]
    (empty when [hi < lo]) across the pool and returns when all are
    done.  If any [body] raises, remaining indices are abandoned and the
    exception of the {e smallest} failing index is re-raised here, with
    its backtrace — deterministic whenever the failures are. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] on a pool of [max 1 jobs] workers and
    joins the worker domains when [f] returns or raises.  The
    [jobs - 1] domains are spawned lazily, at the first dispatched
    {!run} — an {!inline} pool never leaves single-domain execution, so
    it never pays multi-domain minor-GC synchronization for idle
    workers. *)
