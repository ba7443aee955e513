module Checks = Rs_util.Checks
module Governor = Rs_util.Governor
module Pool = Rs_util.Pool
module Metrics = Rs_util.Metrics
module Trace = Rs_util.Trace
module Tab = Rs_util.Tab

let log_src = Logs.Src.create "rs.dp" ~doc:"Interval DP engines (level + monotone)"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Recorded once per completed level, never per cell (DESIGN.md §12). *)
let m_levels = Metrics.counter "dp.levels"
let m_cells = Metrics.counter "dp.cells"

type result = { cost : float; bucketing : Bucket.t }

type engine = Auto | Level

(* The [e]/[parent] matrices live in flat unboxed {!Rs_util.Tab}
   buffers (row-major, row [k] at offset [k * (n + 1)]): the transition
   scan reads [e] at a random [j] per candidate, and a [float array
   array] pays a row-pointer load per access while keeping the whole
   matrix on the GC heap.  The transition loop goes through the
   raw-load accessors; reconstruction uses the bounds-checked family. *)

(* First/last finite column of a completed DP row, scanned once at the
   start of every level — O(n) against the level's O(n²) transitions.
   An all-infinite row yields the empty window [(n + 1, -1)].  Stray
   infinities inside the bounds stay harmless: an infinite candidate
   never beats the running best in the strict-< scan. *)
let finite_bounds ebuf ~base ~n =
  let inf = Float.infinity in
  let lo = ref 0 in
  while !lo <= n && Tab.f1_get ebuf (base + !lo) = inf do incr lo done;
  let hi = ref n in
  while !hi >= 0 && Tab.f1_get ebuf (base + !hi) = inf do decr hi done;
  (!lo, !hi)

(* Cells dispatched to the pool between two coordinator polls.  A
   constant (not a function of [jobs]) so poll counts line up across
   every parallel job count. *)
let parallel_chunk = 64

(* j-tile width of the sequential sweep: the tile of row k−1 (and the
   prefix-table window the cost closure reads) stays cache-resident
   while every destination cell consumes it.  Purely a wall-clock knob
   — see [relax] for why results are bit-identical at any width. *)
let dp_tile_j = 256

(* The only transition loop: relax cell (k, i) over the candidate
   splits [j ∈ jlo..jhi].  The running best lives in the cell itself
   (+inf and −1 until a candidate lands), candidates arrive in
   ascending j and the update is a strict <, so any ascending split of
   a window into consecutive calls gives the same bits and the leftmost
   argmin.  Cell (k, i) reads only the completed row k−1 and writes
   only its own slots, so pool workers may relax distinct cells of a
   level at once.  The raw-load index arithmetic is pinned by the Tab
   debug-twin test (test_tab.ml runs the same scan through
   {!Tab.Debug}). *)
let relax ebuf pbuf ~cols ~cost k i ~jlo ~jhi =
  let prev = (k - 1) * cols in
  let cell = prev + cols + i in
  let best = ref (Tab.f1_unsafe_get ebuf cell)
  and best_j = ref (Tab.i1_unsafe_get pbuf cell) in
  for j = jlo to jhi do
    let c = Tab.f1_unsafe_get ebuf (prev + j) +. cost ~l:(j + 1) ~r:i in
    if c < !best then begin
      best := c;
      best_j := j
    end
  done;
  Tab.f1_unsafe_set ebuf cell !best;
  Tab.i1_unsafe_set pbuf cell !best_j

(* Fresh tables: e.(k,i) = best cost of covering [1..i] with exactly k
   buckets, +inf until relaxed; parent.(k,i) = its split, −1. *)
let tables ~n ~buckets =
  let n = Checks.positive ~name:"Dp.solve n" n in
  let b = max 1 (min buckets n) in
  let cols = n + 1 in
  let e = Tab.f2_create ~rows:(b + 1) ~cols in
  Tab.f2_fill e Float.infinity;
  let parent = Tab.i2_create ~rows:(b + 1) ~cols in
  Tab.i2_fill parent (-1);
  Tab.f2_set e 0 0 0.;
  (n, b, e, parent)

(* Run [fill k ~lo ~hi] for every level, [lo]/[hi] the finite bounds of
   row k−1.  Spans and counters land once per completed level, always
   on the coordinator (DESIGN.md §12). *)
let levels ~n ~b e fill =
  let cols = n + 1 in
  for k = 1 to b do
    Trace.with_span "dp.level" (fun () ->
        let lo, hi = finite_bounds e.Tab.fbuf ~base:((k - 1) * cols) ~n in
        fill k ~lo ~hi;
        Metrics.incr m_levels;
        Metrics.add m_cells (n - k + 1))
  done

(* The level engine.  Sequentially, each level is swept in j-tiles of
   [dp_tile_j]; the governor is checked once per (tile, cell) visited,
   which is once per cell while n ≤ [dp_tile_j] and bounds the work
   between two polls to one tile of transitions above it.  At
   [jobs > 1] the coordinator checks once per [parallel_chunk] cells and
   the workers relax whole cells — they never poll. *)
let run ?(governor = Governor.unlimited) ?(stage = "dp") ?(jobs = 1) ~n
    ~buckets ~cost () =
  let n, b, e, parent = tables ~n ~buckets in
  let ebuf = e.Tab.fbuf and pbuf = parent.Tab.ibuf and cols = n + 1 in
  Log.debug (fun m ->
      m "level engine: stage=%s n=%d buckets=%d jobs=%d" stage n b jobs);
  (if jobs <= 1 then
     levels ~n ~b e (fun k ~lo ~hi ->
         let jh = min hi (n - 1) in
         let t = ref (max lo (k - 1)) in
         while !t <= jh do
           let t1 = min jh (!t + dp_tile_j - 1) in
           for i = max k (!t + 1) to n do
             Governor.check governor ~stage;
             relax ebuf pbuf ~cols ~cost k i ~jlo:!t ~jhi:(min t1 (i - 1))
           done;
           t := t1 + 1
         done)
   else
     Pool.with_pool ~jobs (fun pool ->
         levels ~n ~b e (fun k ~lo ~hi ->
             let jlo = max lo (k - 1) in
             let cell i =
               relax ebuf pbuf ~cols ~cost k i ~jlo ~jhi:(min hi (i - 1))
             in
             let cl = ref k in
             while !cl <= n do
               let ch = min n (!cl + parallel_chunk - 1) in
               Governor.check governor ~stage;
               Pool.run pool ~lo:!cl ~hi:ch cell;
               cl := ch + 1
             done)));
  (e, parent, b)

(* Divide-and-conquer monotone engine (Knuth/D&C-opt).  Requires the
   cost to satisfy the quadrangle inequality
   [w(a,c) + w(b,d) ≤ w(b,c) + w(a,d)] for [a ≤ b ≤ c ≤ d]; then the
   leftmost argmin of level k is nondecreasing in i (THEORY.md §11), so
   relaxing the middle cell of a span splits the candidate range and
   each level costs O(n log n) transitions instead of O(n²).

   [relax] picks the leftmost argmin for both engines; under the QI the
   two therefore agree on the [parent] matrix (not just the optimum),
   because the leftmost argmin of every outer cell brackets the
   leftmost argmin of every inner one.

   Sequential-only by design: cells of a level are filled in D&C order,
   so no worker pool is involved.  The governor is checked once per
   cell (never per transition). *)
let run_monotone ?(governor = Governor.unlimited) ?(stage = "dp") ~n ~buckets
    ~cost () =
  let n, b, e, parent = tables ~n ~buckets in
  let ebuf = e.Tab.fbuf and pbuf = parent.Tab.ibuf and cols = n + 1 in
  Log.debug (fun m ->
      m "monotone engine: stage=%s n=%d buckets=%d" stage n b);
  levels ~n ~b e (fun k ~lo ~hi ->
      let rec fill lo hi jlo jhi =
        if lo <= hi then begin
          Governor.check governor ~stage;
          let i = (lo + hi) / 2 in
          relax ebuf pbuf ~cols ~cost k i ~jlo:(max jlo (k - 1))
            ~jhi:(min jhi (i - 1));
          let best_j = Tab.i2_get parent k i in
          (* An empty window (all-infinite row k−1, impossible for
             finite costs) keeps the original bounds rather than
             poisoning the recursion with −1. *)
          let split = if best_j < 0 then jlo else best_j in
          fill lo (i - 1) jlo split;
          fill (i + 1) hi split jhi
        end
      in
      fill k n lo (min hi (n - 1)));
  (e, parent, b)

let reconstruct parent ~n ~k =
  let rights = Array.make k 0 in
  let i = ref n and kk = ref k in
  while !kk > 0 do
    rights.(!kk - 1) <- !i;
    i := Tab.i2_get parent !kk !i;
    decr kk
  done;
  Bucket.of_rights ~n rights

let best_of (e, parent, b) ~n =
  let best_k = ref 1 in
  for k = 2 to b do
    if Tab.f2_get e k n < Tab.f2_get e !best_k n then best_k := k
  done;
  { cost = Tab.f2_get e !best_k n; bucketing = reconstruct parent ~n ~k:!best_k }

let exact_of (e, parent, b) ~n =
  { cost = Tab.f2_get e b n; bucketing = reconstruct parent ~n ~k:b }

let solve ?governor ?stage ?jobs ~n ~buckets ~cost () =
  best_of (run ?governor ?stage ?jobs ~n ~buckets ~cost ()) ~n

let solve_exact_buckets ?governor ?stage ?jobs ~n ~buckets ~cost () =
  exact_of (run ?governor ?stage ?jobs ~n ~buckets ~cost ()) ~n

let solve_monotone ?governor ?stage ~n ~buckets ~cost () =
  best_of (run_monotone ?governor ?stage ~n ~buckets ~cost ()) ~n

let solve_monotone_exact_buckets ?governor ?stage ~n ~buckets ~cost () =
  exact_of (run_monotone ?governor ?stage ~n ~buckets ~cost ()) ~n

(* Engine selection for the decomposable methods.  [certified] is the
   method's statement that its cost carries a quadrangle-inequality
   certificate (THEORY.md §11).  A certified cost takes the monotone
   engine whatever [jobs] is: its O(n log n) levels beat the level
   engine's O(n²) ones at every job count this code runs at. *)
let use_monotone ~engine ~certified = engine = Auto && certified

let solve_with ?(engine = Auto) ~certified ?governor ?(stage = "dp")
    ?(jobs = 1) ~n ~buckets ~cost () =
  if use_monotone ~engine ~certified then
    solve_monotone ?governor ~stage ~n ~buckets ~cost ()
  else solve ?governor ~stage ~jobs ~n ~buckets ~cost ()
