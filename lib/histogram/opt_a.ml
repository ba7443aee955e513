module Prefix = Rs_util.Prefix
module Checks = Rs_util.Checks
module Governor = Rs_util.Governor
module Faults = Rs_util.Faults
module Checkpoint = Rs_util.Checkpoint
module Cursor = Checkpoint.Cursor
module Crc32 = Rs_util.Crc32
module Mclock = Rs_util.Mclock
module Pool = Rs_util.Pool
module Tab = Rs_util.Tab

module Metrics = Rs_util.Metrics
module Trace = Rs_util.Trace

(* OPT-A logs through the shared rs.dp source: it is one of the DP
   engines, and operators select engine instrumentation as a unit. *)
module Log = (val Logs.src_log Dp.log_src : Logs.LOG)

(* Per-run DP accounting, recorded into the registry once per solve
   (and accumulated per cell/chunk only in locals/delta slots — never a
   registry touch inside the state loops, and never from a worker). *)
let m_states = Metrics.counter "opt_a.states"
let m_pruned = Metrics.counter "opt_a.pruned"
let m_beam_truncations = Metrics.counter "opt_a.beam.truncations"
let m_beam_dropped = Metrics.counter "opt_a.beam.dropped"
let m_solves = Metrics.counter "opt_a.solves"
let g_key_cap = Metrics.gauge "opt_a.key_cap"

(* Probe-length histogram for the Ktbl kernel.  Tallies accumulate in
   [cell_stats] (per cell under Pool, per run sequentially) and are
   absorbed here once per solve — the registry is never touched from
   the state loops, and never from a worker. *)
let h_probe_len = Metrics.histogram ~bounds:Ktbl.probe_bounds "ktbl.probe_len"

type cell_stats = {
  mutable cs_explored : int;
  mutable cs_beam_truncations : int;
  mutable cs_beam_dropped : int;
  cs_relax : Ktbl.relax_stats;
      (* pruned count + probe-length tallies, accumulated by the kernel *)
}

let fresh_stats () =
  {
    cs_explored = 0;
    cs_beam_truncations = 0;
    cs_beam_dropped = 0;
    cs_relax = Ktbl.fresh_relax_stats ();
  }

let zero_stats s =
  s.cs_explored <- 0;
  s.cs_beam_truncations <- 0;
  s.cs_beam_dropped <- 0;
  Ktbl.zero_relax_stats s.cs_relax

let merge_stats ~into s =
  into.cs_explored <- into.cs_explored + s.cs_explored;
  into.cs_beam_truncations <- into.cs_beam_truncations + s.cs_beam_truncations;
  into.cs_beam_dropped <- into.cs_beam_dropped + s.cs_beam_dropped;
  Ktbl.merge_relax_stats ~into:into.cs_relax s.cs_relax

let record_stats s =
  Metrics.incr m_solves;
  Metrics.add m_states s.cs_explored;
  Metrics.add m_pruned s.cs_relax.Ktbl.rx_pruned;
  Metrics.add m_beam_truncations s.cs_beam_truncations;
  Metrics.add m_beam_dropped s.cs_beam_dropped;
  Metrics.absorb h_probe_len ~counts:s.cs_relax.Ktbl.rx_probe_counts
    ~count:s.cs_relax.Ktbl.rx_probe_obs
    ~sum:(float_of_int s.cs_relax.Ktbl.rx_probe_sum)
    ~max:(float_of_int s.cs_relax.Ktbl.rx_probe_max)

exception Too_many_states of { states : int; limit : int }

type result = { histogram : Histogram.t; sse : float; states : int }

(* Transition-kernel selection.  [Fast] is {!Ktbl.relax} — the fused
   unboxed loop.  [Reference] is the original closure formulation
   ([Ktbl.iter] + [Ktbl.update_min]); it is retained as the living
   baseline: both kernels are contractually bit-identical (same floats,
   same layouts, same snapshot bytes, same [Too_many_states] payloads),
   pinned by twin tests and timed against each other by bench P8. *)
type kernel = Fast | Reference

let kernel_name = function Fast -> "fast" | Reference -> "reference"

let integer_prefix p =
  let n = Prefix.n p in
  let ip = Array.make (n + 1) 0 in
  for i = 1 to n do
    let v = Prefix.value p i in
    Checks.check (Float.is_integer v)
      "Opt_a: data must be integral (use build_rounded or round the data)";
    ip.(i) <- ip.(i - 1) + int_of_float v
  done;
  ip

(* The provably safe cap on |2Λ|: |Λ| ≤ √(n·OPT) because every δ^suf_l
   is the error of the intra-bucket query (l, B^>_l), so Σ(δ^suf)² ≤ OPT,
   and any upper bound on OPT (here: the A0 histogram's exact SSE) can
   stand in. *)
let derive_key_cap ?ub ?governor ?stage ctx p ~buckets =
  let a0 = A0.build ?governor ?stage p ~buckets in
  let a0_sse = Exact_sse.avg_histogram ctx (Histogram.bucketing a0) in
  let ub = match ub with Some u -> Float.min u a0_sse | None -> a0_sse in
  let n = float_of_int (Prefix.n p) in
  let cap = 2. *. ceil (sqrt (Float.max 0. (n *. ub))) in
  (* +2 slack for float rounding in the bound itself. *)
  let cap = int_of_float (Float.min cap 4e18) + 2 in
  Log.debug (fun m -> m "key cap %d from UB %.4g (A0 UB %.4g)" cap ub a0_sse);
  cap

(* Keep only the [beam] entries with the smallest partial cost;
   returns the replacement table and the number of dropped states.
   Hot per-cell path whenever a beam is set, so it works over the
   exported physical layout: one array sort on [Float.compare], parent
   pointers carried along instead of re-probed per kept entry.  Ties
   order by descending slot — exactly the order the previous
   list-based implementation produced — so the surviving set and the
   rebuilt table's layout are unchanged. *)
let truncate_to_beam ?arena cell beam =
  if Ktbl.length cell <= beam then (cell, 0)
  else begin
    let slots = (Ktbl.export cell).Ktbl.slots in
    Array.sort
      (fun (s1, _, f1, _, _) (s2, _, f2, _, _) ->
        let c = Float.compare f1 f2 in
        if c <> 0 then c else Int.compare s2 s1)
      slots;
    let fresh = Ktbl.create ?arena () in
    let kept = min beam (Array.length slots) in
    for rank = 0 to kept - 1 do
      let _, key, f, prev_j, prev_key = slots.(rank) in
      ignore (Ktbl.update_min fresh ~key ~f ~prev_j ~prev_key)
    done;
    let dropped = Ktbl.length cell - Ktbl.length fresh in
    Ktbl.recycle cell;
    (fresh, dropped)
  end

(* --- row-granularity snapshots --- *)

let snapshot_kind = "opt-a-row-v1"

(* Binds a snapshot to its input data: CRC-32 over the %h forms, so two
   datasets that differ in any bit get different fingerprints and resume
   against the wrong data is refused. *)
let fingerprint_of p =
  let data = Prefix.data p in
  let buf = Buffer.create (Array.length data * 16) in
  Array.iter (fun v -> Printf.bprintf buf "%h;" v) data;
  Crc32.digest (Buffer.contents buf)

(* The snapshot carries every non-empty Ktbl cell with its physical slot
   layout (see {!Ktbl.export}): tie-breaking in the DP depends on
   iteration order, so resume must restore layout, not just contents. *)
let snapshot_body ~stage ~fingerprint ~n ~b ~key_cap ~beam ~total ~levels
    ~next_k ~next_i =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    "engine opt-a\nstage %s\nfingerprint %s\nn %d\nbuckets %d\nkey_cap %d\nbeam %d\nstates %d\nnext %d %d\n"
    stage fingerprint n b key_cap beam total next_k next_i;
  for k = 0 to b do
    for i = 0 to n do
      let cell = levels.(k).(i) in
      if Ktbl.length cell > 0 then begin
        let w = Ktbl.export cell in
        Printf.bprintf buf "cell %d %d %d %d\n" k i w.Ktbl.capacity
          (Array.length w.Ktbl.slots);
        Array.iter
          (fun (slot, key, f, pj, pk) ->
            Printf.bprintf buf "s %d %d %h %d %d\n" slot key f pj pk)
          w.Ktbl.slots
      end
    done
  done;
  Buffer.contents buf

type resume_state = {
  r_key_cap : int;
  r_total : int;
  r_next_k : int;
  r_next_i : int;
  r_cells : (int * int * Ktbl.t) list;
}

(* Identity fields: resuming against the wrong dataset, stage or shape
   must be refused as corruption, never silently computed. *)
let field_int cur key =
  Cursor.expect cur key;
  let v = Cursor.int cur in
  Cursor.finish cur;
  v

let check_int cur key expected actual =
  if expected <> actual then
    Cursor.fail cur "%s mismatch: snapshot has %d, caller has %d" key actual
      expected

let check_string cur key expected =
  Cursor.expect cur key;
  let actual = String.concat " " (Cursor.words cur) in
  if not (String.equal expected actual) then
    Cursor.fail cur "%s mismatch: snapshot has %S, caller has %S" key actual
      expected

let load_snapshot ~path ~stage ~fingerprint ~n ~b ~key_cap ~beam =
  match Checkpoint.load ~path ~kind:snapshot_kind with
  | Error err -> Rs_util.Error.raise_error err
  | Ok body ->
      let cur = Cursor.of_body ~path body in
      check_string cur "engine" "opt-a";
      check_string cur "stage" stage;
      check_string cur "fingerprint" fingerprint;
      check_int cur "n" n (field_int cur "n");
      check_int cur "buckets" b (field_int cur "buckets");
      let snap_cap = field_int cur "key_cap" in
      Option.iter (fun c -> check_int cur "key_cap" c snap_cap) key_cap;
      if snap_cap <= 0 then Cursor.fail cur "key_cap must be positive";
      check_int cur "beam" (Option.value beam ~default:0) (field_int cur "beam");
      let total = field_int cur "states" in
      if total < 1 then Cursor.fail cur "state count must be >= 1";
      Cursor.expect cur "next";
      let next_k = Cursor.int cur in
      let next_i = Cursor.int cur in
      Cursor.finish cur;
      if next_k < 1 || next_k > b || next_i < next_k || next_i > n then
        Cursor.fail cur "resume position (%d, %d) out of range" next_k next_i;
      let cells = ref [] in
      while not (Cursor.at_end cur) do
        Cursor.expect cur "cell";
        let k = Cursor.int cur in
        let i = Cursor.int cur in
        let cap = Cursor.int cur in
        let cnt = Cursor.int cur in
        Cursor.finish cur;
        if k < 0 || k > b || i < 0 || i > n then
          Cursor.fail cur "cell (%d, %d) out of range" k i;
        (* a slot line takes more than one byte: a corrupt count is
           refused here, before it sizes an allocation *)
        if cnt < 0 || cnt > cap || cnt > String.length body then
          Cursor.fail cur "cell (%d, %d): bad slot count %d" k i cnt;
        let slots =
          Array.init cnt (fun _ ->
              Cursor.expect cur "s";
              let slot = Cursor.int cur in
              let key = Cursor.int cur in
              let f = Cursor.float cur in
              let pj = Cursor.int cur in
              let pk = Cursor.int cur in
              Cursor.finish cur;
              (slot, key, f, pj, pk))
        in
        let tbl =
          match Ktbl.import { Ktbl.capacity = cap; slots } with
          | tbl -> tbl
          | exception Invalid_argument reason ->
              Cursor.fail cur "cell (%d, %d): %s" k i reason
        in
        cells := (k, i, tbl) :: !cells
      done;
      {
        r_key_cap = snap_cap;
        r_total = total;
        r_next_k = next_k;
        r_next_i = next_i;
        r_cells = !cells;
      }

(* Cells dispatched to the pool between two coordinator polls.  A
   constant (not a function of [jobs]) so chunk barriers — and hence
   snapshot positions — line up across every parallel job count. *)
let parallel_chunk = 64

(* Destination-cell block width for the pure sequential schedule (see
   the [blocked] path in [solve]): big enough to amortize streaming
   level k−1 (source traffic shrinks by this factor), small enough
   that a block of growing destination tables stays cache-resident.
   Purely a wall-clock knob — results are bit-identical at any value. *)
let seq_block_cells = 32

let solve ?key_cap ?ub ?(max_states = 30_000_000) ?beam
    ?(governor = Governor.unlimited) ?(stage = "opt-a") ?checkpoint_path
    ?resume_from ?(jobs = 1) ?(kernel = Fast) p ~buckets =
  (* Legacy early bail; skipped when checkpointing so an expired
     Snapshot-mode governor snapshots at (1, 1) instead of raising with
     nothing saved. *)
  if checkpoint_path = None then Governor.check governor ~stage;
  let n = Prefix.n p in
  let b = max 1 (min buckets n) in
  let fingerprint = fingerprint_of p in
  let resume =
    match resume_from with
    | None -> None
    | Some path -> Some (load_snapshot ~path ~stage ~fingerprint ~n ~b ~key_cap ~beam)
  in
  let ip = integer_prefix p in
  let cip = Array.make (n + 1) 0 in
  cip.(0) <- ip.(0);
  for t = 1 to n do
    cip.(t) <- cip.(t - 1) + ip.(t)
  done;
  let sum_ip u v = if u > v then 0 else cip.(v) - if u = 0 then 0 else cip.(u - 1) in
  let seg l r = ip.(r) - ip.(l - 1) in
  (* 2S and 2P are exact integers for integer data:
     S = Σ_j s[j,r] − s(m+1)/2 and Σ_j s[j,r] = m·P[r] − Σ_{t=l−1}^{r−1} P[t]. *)
  let two_s l r =
    let m = r - l + 1 in
    (2 * ((m * ip.(r)) - sum_ip (l - 1) (r - 1))) - (seg l r * (m + 1))
  in
  let two_p l r =
    let m = r - l + 1 in
    (2 * (sum_ip l r - (m * ip.(l - 1)))) - (seg l r * (m + 1))
  in
  let ctx = Cost.make p in
  let cost l r = Cost.a0_bucket ctx ~l ~r in
  let key_cap =
    match resume with
    | Some r -> r.r_key_cap
    | None -> (
        match key_cap with
        | Some c -> Checks.positive ~name:"Opt_a key_cap" c
        | None -> derive_key_cap ?ub ~governor ~stage ctx p ~buckets:b)
  in
  Metrics.set g_key_cap (float_of_int key_cap);
  (* Scratch-buffer arena for the beam path.  Coordinator-only state:
     a dispatching pool grows cells on its workers concurrently, so an
     arena is threaded only when the pool below runs inline
     ({!Pool.inline}: workers are never even spawned, every cell grows
     on the coordinator).  Recycling never changes capacities or slot
     layouts, so sequential and parallel runs — and snapshot bytes —
     stay bit-identical either way. *)
  let arena = if Pool.inline ~jobs then Some (Ktbl.arena ()) else None in
  (* levels.(k).(i): key (= 2Λ) → best partial cost and parent. *)
  let levels =
    Array.init (b + 1) (fun _ ->
        Array.init (n + 1) (fun _ -> Ktbl.create ?arena ()))
  in
  ignore (Ktbl.update_min levels.(0).(0) ~key:0 ~f:0. ~prev_j:(-1) ~prev_key:0);
  (match resume with
  | None -> ()
  | Some r -> List.iter (fun (k, i, tbl) -> levels.(k).(i) <- tbl) r.r_cells);
  let total_states = ref (match resume with Some r -> r.r_total | None -> 1) in
  let bump delta =
    total_states := !total_states + delta;
    if !total_states > max_states then
      raise (Too_many_states { states = !total_states; limit = max_states })
  in
  let beam_tag = match beam with Some x -> x | None -> 0 in
  let save path ~next_k ~next_i =
    Checkpoint.save ~path ~kind:snapshot_kind
      (snapshot_body ~stage ~fingerprint ~n ~b ~key_cap ~beam:beam_tag
         ~total:!total_states ~levels ~next_k ~next_i)
  in
  (* Cooperative deadline/checkpoint poll: once per DP row (a row holds
     up to |Λ|·i states), never per state.  The snapshot is taken before
     cell (k, i) is filled, so it captures only completed cells. *)
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
  let start_k, start_i =
    match resume with Some r -> (r.r_next_k, r.r_next_i) | None -> (1, 1)
  in
  (* One cell's work, shared verbatim by the sequential and parallel
     paths: cell (k, i) reads only the completed level k−1 (and the
     read-only prefix context) and writes only levels.(k).(i), so every
     job count produces the same Ktbl — contents, physical slot layout,
     tie-breaking and all.  [count] is the only side channel: the
     sequential path passes [bump] directly; the parallel path
     accumulates a per-cell delta and bumps at the chunk barrier. *)
  (* The probe profile rides [cell_stats] exactly like the other
     per-state tallies, and only the insert branch pays it (see
     {!Ktbl.relax}); the flag is sampled once per solve on the
     coordinator so both execution paths (and hence all job counts)
     collect identically. *)
  let profile = Metrics.enabled () in
  (* The Fast kernel reads level k−1 through compact seal streams
     ({!Ktbl.sealed}) instead of iterating the hash tables: a level is
     re-read once per destination cell, and the seal streams ~16 bytes
     per state where the table streams every slot lane — sealing is
     where most of the DP's memory traffic goes away.  [seal_level]
     runs once at the start of each level, on the coordinator, after
     level k−1 is complete (including any beam truncation or resume
     restoration), so the streams are never stale; workers only ever
     read them. *)
  let seals = Array.make (n + 1) (Tab.f1_create 0) in
  let seal_level km1 =
    if kernel = Fast then
      for j = 0 to n do
        seals.(j) <- Ktbl.sealed levels.(km1).(j)
      done
  in
  (* [budget] feeds the kernel's early stop so the running state total
     crosses [max_states] on exactly the same insertion as the
     reference kernel's per-insertion accounting; the parallel path
     never stops early (workers cannot raise — the coordinator bumps at
     the chunk barrier), exactly as before. *)
  let fill_cell ~count ~budget ~stats k i =
    let cell = ref levels.(k).(i) in
    let final = i = n in
    for j = k - 1 to i - 1 do
      let prev = levels.(k - 1).(j) in
      if Ktbl.length prev > 0 then begin
        let l = j + 1 in
        let c = cost l i in
        let s2 = two_s l i in
        let p2 = float_of_int (two_p l i) in
        match kernel with
        | Fast ->
            let ins =
              Ktbl.relax ~src:seals.(j) ~dst:!cell ~c ~p2 ~s2 ~prev_j:j
                ~key_cap ~final ~budget:(budget ()) ~profile
                ~stats:stats.cs_relax
            in
            stats.cs_explored <- stats.cs_explored + ins;
            count ins
        | Reference ->
            Ktbl.iter
              (fun ~key ~f ->
                (* cross term 2·Λ·P = (2Λ)(2P)/2 *)
                let f' = f +. c +. (0.5 *. float_of_int key *. p2) in
                let key' = key + s2 in
                (* Prune by the Λ bound, except at the very end where Λ
                   no longer interacts with anything. *)
                if final || abs key' <= key_cap then begin
                  if
                    Ktbl.update_min !cell ~key:key' ~f:f' ~prev_j:j
                      ~prev_key:key
                  then begin
                    count 1;
                    stats.cs_explored <- stats.cs_explored + 1
                  end
                end
                else
                  stats.cs_relax.Ktbl.rx_pruned <-
                    stats.cs_relax.Ktbl.rx_pruned + 1)
              prev
      end
    done;
    (match beam with
    | Some beam when i < n ->
        let fresh, dropped = truncate_to_beam ?arena !cell beam in
        cell := fresh;
        count (-dropped);
        if dropped > 0 then begin
          stats.cs_beam_truncations <- stats.cs_beam_truncations + 1;
          stats.cs_beam_dropped <- stats.cs_beam_dropped + dropped
        end
    | Some _ | None -> ());
    levels.(k).(i) <- !cell
  in
  let run_stats = fresh_stats () in
  (* Pure builds — no governor, no checkpoint/resume, no beam, one job,
     Fast kernel — take a cache-blocked schedule: filling level k cell
     by cell re-streams the whole of level k−1 once per cell (O(n) ×
     level bytes, far beyond L2), so instead a block of
     [seq_block_cells] destination cells is filled together while each
     source cell streams through once per block.  Each destination
     still receives its (j, i) batches in ascending-j order — the outer
     j loop is ascending and contributes at most one batch per
     destination — so insertion order, tie-breaking, slot layouts,
     per-batch state counts and the {!Too_many_states} crossing total
     are identical to the cell-by-cell schedule; only the interleaving
     across cells (and hence wall-clock) changes.  Governed,
     checkpointed or beam runs keep the canonical schedule: snapshots
     capture whole completed cells and poll cadence is contractual. *)
  let blocked =
    jobs <= 1 && kernel = Fast && beam = None && checkpoint_path = None
    && resume = None
    && governor == Governor.unlimited
  in
  (if blocked then
     for k = 1 to b do
       Trace.with_span "opt_a.level" (fun () ->
           seal_level (k - 1);
           let i0 = ref k in
           while !i0 <= n do
             let i1 = min n (!i0 + seq_block_cells - 1) in
             poll ~k ~i:!i0;
             for j = k - 1 to i1 - 1 do
               if Ktbl.length levels.(k - 1).(j) > 0 then begin
                 let l = j + 1 in
                 for i = max !i0 (j + 1) to i1 do
                   let c = cost l i in
                   let s2 = two_s l i in
                   let p2 = float_of_int (two_p l i) in
                   let ins =
                     Ktbl.relax ~src:seals.(j) ~dst:levels.(k).(i) ~c ~p2 ~s2
                       ~prev_j:j ~key_cap ~final:(i = n)
                       ~budget:(max_states - !total_states)
                       ~profile ~stats:run_stats.cs_relax
                   in
                   run_stats.cs_explored <- run_stats.cs_explored + ins;
                   bump ins
                 done
               end
             done;
             i0 := i1 + 1
           done;
           Log.debug (fun m ->
               m "level k=%d done, %d states total" k !total_states))
     done
   else if jobs <= 1 then
     for k = start_k to b do
       Trace.with_span "opt_a.level" (fun () ->
           seal_level (k - 1);
           let i_from = if k = start_k then max k start_i else k in
           for i = i_from to n do
             poll ~k ~i;
             fill_cell ~count:bump
               ~budget:(fun () -> max_states - !total_states)
               ~stats:run_stats k i
           done;
           Log.debug (fun m ->
               m "level k=%d done, %d states total" k !total_states))
     done
   else
     (* Level-parallel: workers fill disjoint cells of level k against
        the read-only level k−1; the poll/snapshot hook and all state
        accounting — including metrics deltas — stay on the coordinator,
        at chunk barriers. *)
     Pool.with_pool ~jobs (fun pool ->
         let deltas = Array.make (n + 1) 0 in
         let cell_stats = Array.init (n + 1) (fun _ -> fresh_stats ()) in
         for k = start_k to b do
           Trace.with_span "opt_a.level" (fun () ->
               seal_level (k - 1);
               let i_from = if k = start_k then max k start_i else k in
               let lo = ref i_from in
               while !lo <= n do
                 let chunk_hi = min n (!lo + parallel_chunk - 1) in
                 poll ~k ~i:!lo;
                 Pool.run pool ~lo:!lo ~hi:chunk_hi (fun i ->
                     deltas.(i) <- 0;
                     let st = cell_stats.(i) in
                     zero_stats st;
                     fill_cell
                       ~count:(fun d -> deltas.(i) <- deltas.(i) + d)
                       ~budget:(fun () -> max_int)
                       ~stats:st k i);
                 (* Merge on the coordinator in ascending i, so
                    Too_many_states fires at a deterministic cell boundary
                    and the running total matches the sequential count at
                    every chunk barrier (= every snapshot position). *)
                 for i = !lo to chunk_hi do
                   bump deltas.(i);
                   merge_stats ~into:run_stats cell_stats.(i)
                 done;
                 lo := chunk_hi + 1
               done;
               Log.debug (fun m ->
                   m "level k=%d done, %d states total" k !total_states))
         done));
  record_stats run_stats;
  (* Best over at most b buckets. *)
  let best = ref None in
  for k = 1 to b do
    Ktbl.iter
      (fun ~key ~f ->
        match !best with
        | Some (_, _, bf) when bf <= f -> ()
        | _ -> best := Some (k, key, f))
      levels.(k).(n)
  done;
  match !best with
  | None -> assert false (* k = 1 always yields a state *)
  | Some (k, key, f) ->
      (* Walk the parent chain to recover the right endpoints. *)
      let rights = Array.make k 0 in
      let i = ref n and kk = ref k and cur_key = ref key in
      while !kk > 0 do
        rights.(!kk - 1) <- !i;
        if !kk > 1 then begin
          match Ktbl.find_parent levels.(!kk).(!i) !cur_key with
          | Some (j, pk) ->
              cur_key := pk;
              i := j
          | None -> assert false
        end;
        decr kk
      done;
      (Bucket.of_rights ~n rights, f, !total_states)

let build_exact ?key_cap ?ub ?max_states ?beam ?governor ?checkpoint_path
    ?resume_from ?jobs ?kernel p ~buckets =
  Faults.trip "opt_a.exact";
  let bucketing, sse, states =
    solve ?key_cap ?ub ?max_states ?beam ?governor ?checkpoint_path
      ?resume_from ?jobs ?kernel p ~buckets
  in
  {
    histogram = Summaries.avg_histogram ~name:"opt-a" p bucketing;
    sse;
    states;
  }

let build p ~buckets = (build_exact p ~buckets).histogram

let rounded_name x = Printf.sprintf "opt-a-rounded(x=%d)" x

let build_rounded ?max_states ?beam ?governor ?checkpoint_path ?resume_from
    ?jobs p ~buckets ~x =
  let x = Checks.positive ~name:"Opt_a.build_rounded x" x in
  Faults.trip "opt_a.rounded";
  let fx = float_of_int x in
  let scaled =
    Array.map (fun v -> Float.round (v /. fx)) (Prefix.data p)
  in
  let p_scaled = Prefix.create scaled in
  let bucketing, _, states =
    solve ?max_states ?beam ?governor ~stage:(rounded_name x) ?checkpoint_path
      ?resume_from ?jobs p_scaled ~buckets
  in
  let histogram = Summaries.avg_histogram ~name:(rounded_name x) p bucketing in
  let ctx = Cost.make p in
  {
    histogram;
    sse = Exact_sse.avg_histogram ctx bucketing;
    states;
  }

(* --- the governed degradation ladder --- *)

type outcome =
  | Completed of { states : int }
  | Exhausted of { states : int; limit : int }
  | Timed_out of {
      elapsed : float;
      deadline : float;
      reason : Governor.expiry_reason;
    }
  | Faulted of string

type attempt = { rung : string; outcome : outcome; elapsed : float }

type staged = {
  result : result;
  delivered : string;
  attempts : attempt list;
  degraded : bool;
}

exception All_rungs_failed of attempt list

let describe_outcome = function
  | Completed { states } -> Printf.sprintf "completed (%d states)" states
  | Exhausted { states; limit } ->
      Printf.sprintf "state budget exhausted (%d states, limit %d)" states limit
  | Timed_out { elapsed; deadline; reason } ->
      Printf.sprintf "deadline exceeded (%s)"
        (Governor.describe_expiry ~reason ~elapsed ~deadline)
  | Faulted reason -> Printf.sprintf "fault injected (%s)" reason

let outcome_tag = function
  | Completed _ -> "completed"
  | Exhausted _ -> "exhausted"
  | Timed_out _ -> "timed_out"
  | Faulted _ -> "faulted"

(* The ladder OPT-A → OPT-A-ROUNDED(x ∈ xs) → A0.  The exact rung seeds
   its Λ cap with the first workable rounded grid (which shrinks the
   state space ∝ √UB); rounded results computed during seeding are
   cached so a fall-through rung reuses them instead of re-running the
   DP.  Every rung except the final A0 floor is governed; A0 is the
   polynomial-time guarantee that the ladder always delivers — it is
   never checkpointed either, for the same reason.

   With [checkpoint_path] and a Snapshot-mode governor, an expiry inside
   the exact rung raises {!Governor.Interrupted} out of the ladder
   instead of degrading: the caller asked for a resumable snapshot, not
   a lower rung.  On [resume_from], UB seeding is skipped — the snapshot
   already fixes the Λ cap. *)
let build_governed ?(max_states = 10_000_000) ?(xs = [ 8; 32; 128 ])
    ?(governor = Governor.unlimited) ?checkpoint_path ?resume_from ?jobs p
    ~buckets =
  let attempts = ref [] in
  let record rung outcome elapsed =
    (* One registry touch per ladder rung — the degradation report's
       granularity, far above the DP loops. *)
    Metrics.count "opt_a.ladder.rungs" 1;
    Metrics.count ("opt_a.ladder.outcome." ^ outcome_tag outcome) 1;
    attempts := { rung; outcome; elapsed } :: !attempts
  in
  (* x → what happened when the seeding pass ran this grid. *)
  let cache : (int, outcome * result option * float) Hashtbl.t =
    Hashtbl.create 4
  in
  let run_rounded x =
    let t0 = Mclock.now () in
    let outcome, res =
      Trace.with_span "opt_a.rung" @@ fun () ->
      match build_rounded ~max_states ~governor ?jobs p ~buckets ~x with
      | r -> (Completed { states = r.states }, Some r)
      | exception Too_many_states { states; limit } ->
          (Exhausted { states; limit }, None)
      | exception Governor.Deadline_exceeded { elapsed; deadline; reason; _ } ->
          (Timed_out { elapsed; deadline; reason }, None)
      | exception Faults.Injected { site; reason } ->
          (Faulted (Printf.sprintf "%s: %s" site reason), None)
    in
    let entry = (outcome, res, Mclock.now () -. t0) in
    Hashtbl.replace cache x entry;
    entry
  in
  let exact_rung () =
    let t0 = Mclock.now () in
    let outcome, res =
      Trace.with_span "opt_a.rung" @@ fun () ->
      match
        (* Seeding is charged to the exact rung: it exists only to make
           the exact DP feasible. *)
        let seed =
          (* No seeding on resume: the snapshot already fixes the Λ cap.
             Expiry during seeding (or cap derivation) degrades as
             before — snapshots only exist once the exact DP is
             underway, where all the resumable work lives. *)
          if resume_from <> None then None
          else
            List.fold_left
              (fun acc x ->
                match acc with
                | Some _ -> acc
                | None ->
                    let _, res, _ = run_rounded x in
                    res)
              None xs
        in
        let ub = Option.map (fun r -> r.sse) seed in
        build_exact ?ub ~max_states ~governor ?checkpoint_path ?resume_from
          ?jobs p ~buckets
      with
      | r -> (Completed { states = r.states }, Some r)
      | exception Too_many_states { states; limit } ->
          (Exhausted { states; limit }, None)
      | exception Governor.Deadline_exceeded { elapsed; deadline; reason; _ } ->
          (Timed_out { elapsed; deadline; reason }, None)
      | exception Faults.Injected { site; reason } ->
          (Faulted (Printf.sprintf "%s: %s" site reason), None)
    in
    record "opt-a" outcome (Mclock.now () -. t0);
    res
  in
  let rounded_rung x =
    let outcome, res, elapsed =
      match Hashtbl.find_opt cache x with
      | Some entry -> entry
      | None -> run_rounded x
    in
    record (rounded_name x) outcome elapsed;
    res
  in
  let a0_rung () =
    let t0 = Mclock.now () in
    let outcome, res =
      Trace.with_span "opt_a.rung" @@ fun () ->
      match
        Faults.trip "ladder.a0";
        let histogram = A0.build p ~buckets:(max 1 (min buckets (Prefix.n p))) in
        let ctx = Cost.make p in
        let sse = Exact_sse.avg_histogram ctx (Histogram.bucketing histogram) in
        { histogram; sse; states = 0 }
      with
      | r -> (Completed { states = 0 }, Some r)
      | exception Faults.Injected { site; reason } ->
          (Faulted (Printf.sprintf "%s: %s" site reason), None)
    in
    record "a0" outcome (Mclock.now () -. t0);
    res
  in
  let delivered_by rung = Option.map (fun r -> (rung, r)) in
  let res =
    match exact_rung () with
    | Some r -> Some ("opt-a", r)
    | None ->
        let rounded =
          List.fold_left
            (fun acc x ->
              match acc with
              | Some _ -> acc
              | None -> delivered_by (rounded_name x) (rounded_rung x))
            None xs
        in
        (match rounded with
        | Some _ -> rounded
        | None -> delivered_by "a0" (a0_rung ()))
  in
  let attempts = List.rev !attempts in
  match res with
  | None -> raise (All_rungs_failed attempts)
  | Some (delivered, result) ->
      if delivered <> "opt-a" then begin
        Metrics.count "opt_a.ladder.degraded" 1;
        Log.info (fun m ->
            m "degraded to %s after: %s" delivered
              (String.concat "; "
                 (List.map
                    (fun a ->
                      Printf.sprintf "%s: %s" a.rung (describe_outcome a.outcome))
                    attempts)))
      end;
      { result; delivered; attempts; degraded = delivered <> "opt-a" }

(* Staged construction: a cheap rounded pass supplies a tight upper
   bound on OPT, which shrinks the Λ cap (∝ √UB) for the exact run,
   falling down the ladder when the exact DP exceeds its budget — so it
   always returns something. *)
let build_staged ?max_states ?xs ?governor ?checkpoint_path ?resume_from ?jobs
    p ~buckets =
  (build_governed ?max_states ?xs ?governor ?checkpoint_path ?resume_from ?jobs
     p ~buckets)
    .result

let x_of_eps p ~eps =
  Checks.check (eps > 0.) "Opt_a.x_of_eps: eps must be > 0";
  max 1 (int_of_float (ceil (eps *. Prefix.total p /. float_of_int (Prefix.n p))))
