module Checks = Rs_util.Checks
module Governor = Rs_util.Governor
module Checkpoint = Rs_util.Checkpoint
module Pool = Rs_util.Pool
module Metrics = Rs_util.Metrics
module Trace = Rs_util.Trace
module Tab = Rs_util.Tab

let log_src = Logs.Src.create "rs.dp" ~doc:"Interval DP engines (level + monotone)"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Recorded once per completed level — the same coarse boundary as the
   governor poll's row granularity, never per cell (DESIGN.md §12). *)
let m_levels = Metrics.counter "dp.levels"
let m_cells = Metrics.counter "dp.cells"

type result = { cost : float; bucketing : Bucket.t }

type engine = Auto | Level

(* The [e]/[parent] matrices live in flat unboxed {!Rs_util.Tab}
   buffers (row-major, row [k] at offset [k * (n + 1)]): the transition
   scan reads [e] at a random [j] per candidate, and a [float array
   array] pays a row-pointer load per access while keeping the whole
   matrix on the GC heap.  Kernel loops go through the raw-load
   accessors with offsets hoisted per row; cold paths (snapshots,
   restore, reconstruction) use the bounds-checked family. *)

(* First/last finite column of a completed DP row — scan form.  The
   engines maintain these bounds {e incrementally} (each row's bounds
   are recorded as its cells are written, so no extra pass over the
   matrix); this scan survives as the debug-assertion reference — every
   completed level asserts its incremental bounds against it — and as
   the resume-time seed, where restored rows have no write history.  An
   all-infinite row yields the empty window [(n + 1, -1)], exactly the
   incremental tracker's initial state.  Stray infinities inside the
   bounds stay harmless — an infinite candidate never beats [best] in
   the strict-< scan. *)
let finite_bounds ebuf ~base ~n =
  let inf = Float.infinity in
  let lo = ref 0 in
  while !lo <= n && Tab.f1_get ebuf (base + !lo) = inf do incr lo done;
  let hi = ref n in
  while !hi >= 0 && Tab.f1_get ebuf (base + !hi) = inf do decr hi done;
  (!lo, !hi)

(* Cells dispatched to the pool between two coordinator polls.  A
   constant (not a function of [jobs]) so chunk barriers — and hence
   snapshot positions — line up across every parallel job count. *)
let parallel_chunk = 64

(* j-tile width for the pure-path blocked sweep: the tile of row k−1
   (and the prefix-table window the cost closure reads) stays
   cache-resident while every destination cell consumes it.  Purely a
   wall-clock knob — per-cell candidate order stays ascending in j, so
   results are bit-identical at any width. *)
let dp_tile_j = 256

let snapshot_kind = "dp-row-v1"

(* Snapshot body: identity header, the resume position, then the full
   [e]/[parent] matrices.  Floats are printed with %h (hex, lossless
   round-trip including infinities), so a resumed run restarts from
   bit-identical state. *)
let snapshot_body ~stage ~fingerprint ~n ~b ~e ~parent ~next_k ~next_i =
  let buf = Buffer.create ((b + 1) * (n + 1) * 12) in
  Printf.bprintf buf "engine dp\nstage %s\nfingerprint %s\nn %d\nbuckets %d\nnext %d %d\n"
    stage fingerprint n b next_k next_i;
  for k = 0 to b do
    Printf.bprintf buf "e %d" k;
    for i = 0 to n do
      Buffer.add_char buf ' ';
      Printf.bprintf buf "%h" (Tab.f2_get e k i)
    done;
    Buffer.add_char buf '\n';
    Printf.bprintf buf "p %d" k;
    for i = 0 to n do Printf.bprintf buf " %d" (Tab.i2_get parent k i) done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

(* Restore [e]/[parent] in place and return the [(k, i)] cell the DP
   should resume at.  Any malformed or mismatched field raises
   [Rs_error (Corrupt_checkpoint _)] via {!Snapshot_io}. *)
let restore ~path ~stage ~fingerprint ~n ~b e parent =
  match Checkpoint.load ~path ~kind:snapshot_kind with
  | Error err -> Rs_util.Error.raise_error err
  | Ok body ->
      let cur = Snapshot_io.of_body ~path body in
      Snapshot_io.check_string cur "engine" "dp"
        (Snapshot_io.expect_string cur "engine");
      Snapshot_io.check_string cur "stage" stage
        (Snapshot_io.expect_string cur "stage");
      Snapshot_io.check_string cur "fingerprint" fingerprint
        (Snapshot_io.expect_string cur "fingerprint");
      Snapshot_io.check_int cur "n" n (Snapshot_io.expect_int cur "n");
      Snapshot_io.check_int cur "buckets" b (Snapshot_io.expect_int cur "buckets");
      let next_k, next_i =
        match Snapshot_io.expect cur "next" with
        | [ k; i ] -> (Snapshot_io.int_of cur k, Snapshot_io.int_of cur i)
        | _ -> Snapshot_io.corrupt cur "expected \"next <k> <i>\""
      in
      if next_k < 1 || next_k > b || next_i < next_k || next_i > n then
        Snapshot_io.corrupt cur "resume position (%d, %d) out of range" next_k
          next_i;
      let row_index key =
        match Snapshot_io.expect cur key with
        | idx :: values ->
            let k = Snapshot_io.int_of cur idx in
            if k < 0 || k > b then
              Snapshot_io.corrupt cur "row index %d out of range" k;
            if List.length values <> n + 1 then
              Snapshot_io.corrupt cur "row %d: expected %d values" k (n + 1);
            (k, values)
        | [] -> Snapshot_io.corrupt cur "empty %s row" key
      in
      for _k = 0 to b do
        let ek, evs = row_index "e" in
        List.iteri (fun i v -> Tab.f2_set e ek i (Snapshot_io.float_of cur v)) evs;
        let pk, pvs = row_index "p" in
        List.iteri (fun i v -> Tab.i2_set parent pk i (Snapshot_io.int_of cur v)) pvs
      done;
      (next_k, next_i)

let run ?(governor = Governor.unlimited) ?(stage = "dp") ?(fingerprint = "")
    ?checkpoint_path ?resume_from ?(jobs = 1) ~n ~buckets ~cost () =
  let n = Checks.positive ~name:"Dp.solve n" n in
  let b = max 1 (min buckets n) in
  let inf = Float.infinity in
  let cols = n + 1 in
  (* e.(k,i): best cost of covering [1..i] with exactly k buckets. *)
  let e = Tab.f2_create ~rows:(b + 1) ~cols in
  Tab.f2_fill e inf;
  let parent = Tab.i2_create ~rows:(b + 1) ~cols in
  Tab.i2_fill parent (-1);
  Tab.f2_set e 0 0 0.;
  let ebuf = e.Tab.fbuf and pbuf = parent.Tab.ibuf in
  let start_k, start_i =
    match resume_from with
    | None -> (1, 1)
    | Some path -> restore ~path ~stage ~fingerprint ~n ~b e parent
  in
  let save path ~next_k ~next_i =
    Checkpoint.save ~path ~kind:snapshot_kind
      (snapshot_body ~stage ~fingerprint ~n ~b ~e ~parent ~next_k ~next_i)
  in
  (* Deadline/checkpoint poll once per O(n) row, never per cell.  The
     snapshot is taken before cell (k, i) is processed, so resuming
     replays from the first incomplete cell. *)
  let poll ~k ~i =
    match Governor.poll governor with
    | Governor.Continue -> ()
    | Governor.Checkpoint_due -> (
        match checkpoint_path with
        | Some path -> save path ~next_k:k ~next_i:i
        | None -> ())
    | Governor.Expired { elapsed; deadline; resumable; reason } -> (
        match checkpoint_path with
        | Some path when resumable ->
            save path ~next_k:k ~next_i:i;
            raise (Governor.Interrupted { stage; checkpoint = path })
        | _ ->
            raise (Governor.Deadline_exceeded { stage; elapsed; deadline; reason }))
  in
  (* One cell's work, shared verbatim by the canonical sequential and
     parallel paths: cell (k, i) reads only the completed level k−1 and
     writes only its own e/parent slots, so results are bit-identical
     for any job count.  [jlo]/[jhi] are the finite bounds of row k−1,
     maintained incrementally by the coordinator.  The raw-load index
     arithmetic is pinned by the Tab debug-twin test (test_tab.ml runs
     the same scan through {!Tab.Debug} accessors). *)
  let fill_cell ~jlo ~jhi k i =
    let prev = (k - 1) * cols in
    let best = ref inf and best_j = ref (-1) in
    let j1 = min jhi (i - 1) in
    for j = max jlo (k - 1) to j1 do
      let c = Tab.f1_unsafe_get ebuf (prev + j) +. cost ~l:(j + 1) ~r:i in
      if c < !best then begin
        best := c;
        best_j := j
      end
    done;
    Tab.f1_unsafe_set ebuf (prev + cols + i) !best;
    Tab.i1_unsafe_set pbuf (prev + cols + i) !best_j
  in
  (* Need at least k positions for k non-empty buckets — pruning the
     trivially infeasible cells. *)
  let row_start k = if k = start_k then max k start_i else k in
  Log.debug (fun m ->
      m "level engine: stage=%s n=%d buckets=%d jobs=%d resume=%b" stage n b
        jobs (resume_from <> None));
  (* Spans and counters land once per completed level (the row boundary
     the governor already polls at), always on the coordinator. *)
  let level_done k i0 =
    Metrics.incr m_levels;
    Metrics.add m_cells (max 0 (n - i0 + 1));
    ignore k
  in
  (* Incremental finite-bounds tracking.  [plo]/[phi] hold the bounds
     of the last completed row (row 0: cell 0 only); each engine path
     folds row k's bounds as its cells land and publishes them through
     [level_bounds_done], which also debug-asserts the incremental
     result against the reference scan.  Resume seeds from the scan:
     restored rows have no write history. *)
  let plo = ref 0 and phi = ref 0 in
  if start_k > 1 || start_i > 1 then begin
    let lo, hi = finite_bounds ebuf ~base:((start_k - 1) * cols) ~n in
    plo := lo;
    phi := hi
  end;
  (* Bounds seed for the resumed row itself: cells [k, start_i) were
     restored, not written, so fold their finiteness up front. *)
  let seed_restored_prefix k lo hi =
    for i = k to row_start k - 1 do
      if Tab.f2_get e k i < inf then begin
        if !lo > n then lo := i;
        hi := i
      end
    done
  in
  let level_bounds_done k lo hi =
    assert ((lo, hi) = finite_bounds ebuf ~base:(k * cols) ~n);
    plo := lo;
    phi := hi
  in
  let pure =
    jobs <= 1 && governor == Governor.unlimited && checkpoint_path = None
    && resume_from = None
  in
  if pure then begin
    (* Cache-blocked level sweep: candidates tile along j so the tile
       of row k−1 (and the prefix windows behind [cost]) is consumed by
       every destination cell while cache-resident, instead of
       re-streaming the row once per cell.  Per cell, tiles arrive in
       ascending j and the running best uses the same strict-< update,
       so best/best_j — and every downstream byte — match the canonical
       per-cell scan exactly.  Only the ungoverned, un-checkpointed,
       sequential case takes this path: the canonical schedule below
       owns the contractual poll cadence and snapshot positions. *)
    let bestv = Array.make cols inf and bestj = Array.make cols (-1) in
    for k = 1 to b do
      Trace.with_span "dp.level" (fun () ->
          Array.fill bestv 0 cols inf;
          Array.fill bestj 0 cols (-1);
          let prev = (k - 1) * cols in
          let jl = max !plo (k - 1) and jh = min !phi (n - 1) in
          let t = ref jl in
          while !t <= jh do
            let t1 = min jh (!t + dp_tile_j - 1) in
            for i = max k (!t + 1) to n do
              let j1 = min t1 (i - 1) in
              let best = ref bestv.(i) and best_j = ref bestj.(i) in
              for j = !t to j1 do
                let c =
                  Tab.f1_unsafe_get ebuf (prev + j) +. cost ~l:(j + 1) ~r:i
                in
                if c < !best then begin
                  best := c;
                  best_j := j
                end
              done;
              bestv.(i) <- !best;
              bestj.(i) <- !best_j
            done;
            t := t1 + 1
          done;
          let lo = ref (n + 1) and hi = ref (-1) in
          for i = k to n do
            Tab.f1_unsafe_set ebuf (prev + cols + i) bestv.(i);
            Tab.i1_unsafe_set pbuf (prev + cols + i) bestj.(i);
            if bestv.(i) < inf then begin
              if !lo > n then lo := i;
              hi := i
            end
          done;
          level_bounds_done k !lo !hi;
          level_done k k)
    done
  end
  else if jobs <= 1 then
    for k = start_k to b do
      Trace.with_span "dp.level" (fun () ->
          let jlo = !plo and jhi = !phi in
          let lo = ref (n + 1) and hi = ref (-1) in
          seed_restored_prefix k lo hi;
          for i = row_start k to n do
            poll ~k ~i;
            fill_cell ~jlo ~jhi k i;
            if Tab.f1_unsafe_get ebuf ((k * cols) + i) < inf then begin
              if !lo > n then lo := i;
              hi := i
            end
          done;
          level_bounds_done k !lo !hi;
          level_done k (row_start k))
    done
  else
    (* Level-parallel: the poll/snapshot hook moves to chunk barriers on
       the coordinator; workers only ever run [fill_cell].  The finite
       bounds stay coordinator state — each chunk's contribution is
       folded at its barrier, right after the workers land. *)
    Pool.with_pool ~jobs (fun pool ->
        for k = start_k to b do
          Trace.with_span "dp.level" (fun () ->
              let jlo = !plo and jhi = !phi in
              let lo = ref (n + 1) and hi = ref (-1) in
              seed_restored_prefix k lo hi;
              let cl = ref (row_start k) in
              while !cl <= n do
                let ch = min n (!cl + parallel_chunk - 1) in
                poll ~k ~i:!cl;
                Pool.run pool ~lo:!cl ~hi:ch (fill_cell ~jlo ~jhi k);
                for i = !cl to ch do
                  if Tab.f1_unsafe_get ebuf ((k * cols) + i) < inf then begin
                    if !lo > n then lo := i;
                    hi := i
                  end
                done;
                cl := ch + 1
              done;
              level_bounds_done k !lo !hi;
              level_done k (row_start k))
        done);
  (e, parent, b)

(* Divide-and-conquer monotone engine (Knuth/D&C-opt).  Requires the
   cost to satisfy the quadrangle inequality
   [w(a,c) + w(b,d) ≤ w(b,c) + w(a,d)] for [a ≤ b ≤ c ≤ d]; then the
   leftmost argmin of level k is nondecreasing in i (THEORY.md §11), so
   solving the middle cell of a span splits the candidate range and each
   level costs O(n log n) transitions instead of O(n²).

   The strict-< scan picks the leftmost argmin, exactly like
   [fill_cell]; under the QI the two engines therefore agree on the
   [parent] matrix (not just the optimum), because the leftmost argmin
   of every outer cell brackets the leftmost argmin of every inner one.

   Sequential-only by design: cells of a level are filled in D&C order,
   so there is no row prefix to snapshot — no checkpoint/resume, no
   worker pool.  The governor is checked once per cell (the same
   granularity as the level engine's per-cell poll, never per
   transition) via the non-resumable {!Governor.check}.  The D&C fill
   order also rules out incremental bounds tracking (there is no
   in-order write stream), so this engine keeps the reference scan. *)
let run_monotone ?(governor = Governor.unlimited) ?(stage = "dp") ~n ~buckets
    ~cost () =
  let n = Checks.positive ~name:"Dp.solve n" n in
  let b = max 1 (min buckets n) in
  let inf = Float.infinity in
  let cols = n + 1 in
  let e = Tab.f2_create ~rows:(b + 1) ~cols in
  Tab.f2_fill e inf;
  let parent = Tab.i2_create ~rows:(b + 1) ~cols in
  Tab.i2_fill parent (-1);
  Tab.f2_set e 0 0 0.;
  let ebuf = e.Tab.fbuf and pbuf = parent.Tab.ibuf in
  Log.debug (fun m ->
      m "monotone engine: stage=%s n=%d buckets=%d" stage n b);
  for k = 1 to b do
    let prev = (k - 1) * cols in
    let jlo0, jhi0 = finite_bounds ebuf ~base:prev ~n in
    let rec fill lo hi jlo jhi =
      if lo <= hi then begin
        Governor.check governor ~stage;
        let i = (lo + hi) / 2 in
        let best = ref inf and best_j = ref (-1) in
        let j1 = min jhi (i - 1) in
        for j = max jlo (k - 1) to j1 do
          let c = Tab.f1_unsafe_get ebuf (prev + j) +. cost ~l:(j + 1) ~r:i in
          if c < !best then begin
            best := c;
            best_j := j
          end
        done;
        Tab.f1_unsafe_set ebuf (prev + cols + i) !best;
        Tab.i1_unsafe_set pbuf (prev + cols + i) !best_j;
        (* An empty window (all-infinite row k−1, impossible for finite
           costs) keeps the original bounds rather than poisoning the
           recursion with −1. *)
        let split = if !best_j < 0 then jlo else !best_j in
        fill lo (i - 1) jlo split;
        fill (i + 1) hi split jhi
      end
    in
    Trace.with_span "dp.level" (fun () ->
        fill k n jlo0 (min jhi0 (n - 1));
        Metrics.incr m_levels;
        Metrics.add m_cells (max 0 (n - k + 1)))
  done;
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

let solve ?governor ?stage ?fingerprint ?checkpoint_path ?resume_from ?jobs ~n
    ~buckets ~cost () =
  best_of
    (run ?governor ?stage ?fingerprint ?checkpoint_path ?resume_from ?jobs ~n
       ~buckets ~cost ())
    ~n

let solve_exact_buckets ?governor ?stage ?fingerprint ?checkpoint_path
    ?resume_from ?jobs ~n ~buckets ~cost () =
  exact_of
    (run ?governor ?stage ?fingerprint ?checkpoint_path ?resume_from ?jobs ~n
       ~buckets ~cost ())
    ~n

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
