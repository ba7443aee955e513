(** Segmented synopses: partition the domain, summarize each segment
    independently, answer global ranges by composition.

    This is the Storyboard-style architecture from ROADMAP: the
    pseudopolynomial OPT-A DP caps usable [n], so the domain [1..n] is
    split into [S] contiguous segments, each built as an independent
    (small-[n]) job, and the global byte budget is divided across the
    segments.  Each part stores its synopsis {e plus its exact total
    mass} (one extra word, counted by {!storage_words}), so a
    cross-segment query takes estimates only at its two boundary
    segments — every interior segment contributes exactly (see
    {!Rs_query.Segments} for the evaluation and the O(n) SSE
    decomposition it enables).

    Construction with retries, degradation and crash-safe resume lives
    in {!Supervisor}; this module is the pure data side: the partition
    {!plan}, the assembled synopsis {!t}, query evaluation, and the
    budget {!greedy_split} (marginal range-SSE descent, priced by a
    caller-supplied per-segment error curve). *)

type plan = private { plan_n : int; bounds : (int * int) array }
(** A partition of [1..plan_n] into contiguous inclusive segments
    [(lo, hi)], in order, covering the domain. *)

val plan : n:int -> segments:int -> plan
(** Balanced partition into [segments] parts (widths differ by at most
    one).  Raises [Rs_error (Invalid_input _)] unless
    [1 ≤ segments ≤ n]. *)

val plan_of_bounds : n:int -> (int * int) array -> plan
(** A plan from explicit inclusive bounds ({!Rs_core.Stream} restores
    its manifest-pinned layout through this).  Raises
    [Rs_error (Invalid_input _)] unless the bounds are non-empty,
    contiguous, in order, and cover exactly [1..n]. *)

type part = { lo : int; hi : int; total : float; synopsis : Synopsis.t }

type t = private { n : int; parts : part array }

val make : Dataset.t -> plan -> Synopsis.t array -> t
(** Assemble: [synopses.(i)] summarizes segment [i] of the plan (its
    domain size must equal the segment width); exact totals are taken
    from the dataset.  Raises [Rs_error (Invalid_input _)] on length or
    width mismatch. *)

val parts : t -> part array
val segments : t -> int
val domain_size : t -> int

val estimator : t -> a:int -> b:int -> float
(** Global range-sum estimator (boundary estimates + exact interior
    totals).  O(log S) per query after O(S) setup — prefer binding the
    result once over calling {!estimate} in a loop. *)

val estimate : t -> a:int -> b:int -> float
(** One-shot convenience over {!estimator}. *)

val storage_words : t -> int
(** [Σ Synopsis.storage_words + S]: the paper's per-method accounting
    plus one word per segment for the stored exact total. *)

val sub_dataset : Dataset.t -> lo:int -> hi:int -> Dataset.t
(** The named slice [A[lo..hi]] as its own dataset (what per-segment
    builds and pricing run on). *)

val sse : Dataset.t -> t -> float
(** Exact SSE over all global ranges, via the {!Rs_query.Segments}
    decomposition: O(n) for every lowered per-segment representation
    (intra terms via {!Synopsis.sse}), never the O(n²) sweep. *)

val to_string : t -> string
(** Canonical byte rendering (header + per-part exact totals in [%h] +
    each part's {!Codec} v2 encoding).  Two segmented synopses are
    bit-identical iff their renderings are equal — the determinism
    twins compare these bytes. *)

val describe : t -> string
(** One-line human-readable description. *)

(** {2 Budget planning}

    Both planners split a global budget of [budget_words] machine words
    across the plan's segments and return the per-segment grant in
    words.  Invariants (tested): the grants {e never} sum to more than
    [budget_words − S] (the [S] words reserved for the stored totals),
    every segment gets at least one unit of the method's representation
    ([Builder.words_per_unit]), and no segment is granted more units
    than its width.  Raises [Rs_error (Invalid_input _)] when the
    budget cannot cover one unit per segment plus the totals. *)

val uniform_split : plan -> method_name:string -> budget_words:int -> int array
(** Equal share per segment (the baseline the greedy planner must
    beat). *)

val greedy_split :
  price:(seg:int -> units:int -> float) ->
  plan ->
  method_name:string ->
  budget_words:int ->
  int array
(** Greedy marginal-SSE descent: starting from one unit per segment,
    repeatedly grant one more unit to the segment whose priced SSE
    drops the most ([price ~seg ~units] = the segment's all-ranges SSE
    when summarized with [units] units — O(n) to evaluate via the SSE
    lowerings), until the budget is exhausted or no grant helps.
    [price] is memoized per [(seg, units)]; ties break to the smallest
    segment index, so the split is deterministic. *)
