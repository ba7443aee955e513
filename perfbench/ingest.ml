(* ingest-mixed: writes beside reads on one in-process Server (the
   daemon has no refresh operation, so the refresh cycle has to run in
   the serving process).  One caller, closed loop:

   - cycles of [batches] ingest lines, each [deltas] point-deltas aimed
     at two "hot" segments (recent data), pushed through Server.push —
     the reply is the fsynced ack (one fsync per acknowledged batch, the
     store's flush policy);
   - after every batch, [queries] small-k queries on the
     stream.seg<i> entries through Server.handle_line;
   - at the end of a cycle, Stream.refresh on Server.stream, then
     Server.reload, then the first query on a rebuilt segment; the
     refresh time runs until that answer arrives unflagged from the
     new generation.

   setup_s is Server.create over a copy of a prepared stream store whose
   WAL holds a fixed backlog, so it times crash recovery (Stream.resume
   replay) plus Generation.load; several copies are created at spread
   moments of the run and the median is reported. *)

open Common

let n = 2048
let segments = 8
let method_name = "point-opt"
let budget_words = 264
let backlog = 200
let batches = 8
let deltas = 16
let queries = 4
let query_k = 8
let setup_samples = 20

type t = {
  pristine : string;
  model : float array;  (** base + backlog: the data after recovery *)
  backlog_dirty : bool array;  (** segments the backlog left stale *)
  st : Random.State.t;
}

let config =
  {
    Rs_core.Stream.default_config with
    method_name;
    budget_words;
    segments;
    stale_threshold = 0.;
    entry_prefix = "stream";
  }

let seg_name k = Printf.sprintf "stream.seg%d" k
let width = n / segments

(* A batch of [deltas] signed integral deltas inside the hot segments,
   never driving a value below zero (the model is updated in place). *)
let batch st model ~hot =
  Array.init deltas (fun _ ->
      let k = hot.(Random.State.int st (Array.length hot)) in
      let i = (k * width) + 1 + Random.State.int st width in
      let d = float_of_int (1 + Random.State.int st 9) in
      let d = if Random.State.bool st || model.(i - 1) < d then d else -.d in
      model.(i - 1) <- model.(i - 1) +. d;
      (i, d))

let prepare ~seed ~dir =
  let st = rng ~seed ~salt:11 in
  let pristine = Filename.concat dir "ingest-store" in
  rm_rf pristine;
  let base = frequencies st ~n ~scale:100 in
  let model = Array.copy base in
  let backlog_dirty = Array.make segments false in
  let stream =
    Rs_core.Stream.create ~config ~store:(Rs_core.Store.open_dir pristine)
      (Rs_core.Dataset.of_floats ~name:"ingest" base)
  in
  for _ = 1 to backlog do
    let hot = [| Random.State.int st segments |] in
    backlog_dirty.(hot.(0)) <- true;
    ignore (Rs_core.Stream.ingest stream (batch st model ~hot))
  done;
  { pristine; model; backlog_dirty; st }

let decode_segments dir =
  Array.init segments (fun k ->
      Rs_util.Error.get
        (Rs_core.Codec.decode_result
           (read_file (Filename.concat dir (seg_name k ^ ".rs")))))

let cold_start t ~dir =
  rm_rf dir;
  copy_dir t.pristine dir;
  let t0 = now () in
  let srv =
    Rs_util.Error.get (Rs_serve.Server.create (Rs_serve.Server.default_config ~store_dir:dir))
  in
  (srv, now () -. t0)

(* The end-of-run oracle: the live data is the base plus every acked
   delta, and every segment entry is byte-identical to a batch build of
   its current data. *)
let final_checks srv model ~dir =
  let stream = Option.get (Rs_serve.Server.stream srv) in
  let data = Rs_core.Stream.data stream in
  let data_ok = Array.length data = n && Array.for_all2 Oracle.same_bits data model in
  let plan = Rs_core.Segmented.plan ~n ~segments in
  let grants = Rs_core.Segmented.uniform_split plan ~method_name ~budget_words in
  let segs_ok =
    Array.for_all Fun.id
      (Array.mapi
         (fun k (lo, hi) ->
           let ds = Rs_core.Dataset.of_floats ~name:(seg_name k) (Array.sub data (lo - 1) (hi - lo + 1)) in
           let ref_bytes =
             Rs_core.Codec.to_string
               (Rs_core.Builder.build ds ~method_name ~budget_words:grants.(k))
           in
           ref_bytes = read_file (Filename.concat dir (seg_name k ^ ".rs")))
         plan.Rs_core.Segmented.bounds)
  in
  [ data_ok; segs_ok ]

let run ~work ~seed ~seconds =
  let t = prepare ~seed ~dir:work in
  let st = t.st in
  let model = Array.copy t.model in
  let setup = Steal.kept () in
  let ack = Samples.create () and lat = Samples.create () in
  let ack_t = Samples.create () and lat_t = Samples.create () in
  let refresh = Samples.create () and rates = Samples.create () in
  let cycle_t = Samples.create () in
  let attempted = ref 0 and failed = ref 0 in
  let check ok =
    incr attempted;
    if not ok then incr failed
  in
  let dir = Filename.concat work "live" in
  let (srv, t0), share = Steal.guarded (fun () -> cold_start t ~dir) in
  Steal.add setup ~share [| t0 |];
  let decoded = ref (decode_segments dir) in
  reset_peak_rss ();
  let gen = ref 1 and cycle = ref 0 in
  let dirty = Array.copy t.backlog_dirty in
  let started = now () in
  let until = started +. float_of_int seconds in
  let marks = Steal.marks ~from:started ~width:1. in
  let next_setup = ref 1 in
  while now () < until do
    incr cycle;
    let hot = [| Random.State.int st segments; Random.State.int st segments |] in
    let answers = ref [] in
    let ops = ref 0 in
    let c0 = now () in
    for b = 1 to batches do
      let ds = batch st model ~hot in
      Array.iter (fun (i, _) -> dirty.((i - 1) / width) <- true) ds;
      let id = Printf.sprintf "i%d.%d" !cycle b in
      let line = Oracle.ingest_line ~id ~synopsis:"stream" ds in
      let t1 = now () in
      let reply =
        match Rs_serve.Server.push srv ~cookie:0 line with `Reply r -> r | `Queued -> ""
      in
      Samples.add ack (now () -. t1);
      Samples.add ack_t t1;
      incr ops;
      check (Oracle.ingest_ok ~id ~applied:deltas reply);
      for q = 1 to queries do
        let k = Random.State.int st segments in
        let ranges = Array.init query_k (fun _ -> range st ~n:width) in
        let id = Printf.sprintf "q%d.%d.%d" !cycle b q in
        let line = Oracle.query_line ~id ~synopsis:(seg_name k) ranges in
        let t1 = now () in
        let reply = Rs_serve.Server.handle_line srv line in
        Samples.add lat (now () -. t1);
        Samples.add lat_t t1;
        incr ops;
        answers := (id, k, ranges, dirty.(k), reply) :: !answers
      done
    done;
    (* The refresh cycle, up to the first answer from the reloaded
       generation on a rebuilt segment. *)
    let k = hot.(0) in
    let ranges = Array.init query_k (fun _ -> range st ~n:width) in
    let id = Printf.sprintf "r%d" !cycle in
    let t1 = now () in
    let report = Rs_core.Stream.refresh (Option.get (Rs_serve.Server.stream srv)) in
    let reloaded = Rs_serve.Server.reload srv in
    let first = Rs_serve.Server.handle_line srv (Oracle.query_line ~id ~synopsis:(seg_name k) ranges) in
    let t2 = now () in
    Samples.add refresh (t2 -. t1);
    incr ops;
    Samples.add rates (float_of_int !ops /. (t2 -. c0));
    Samples.add cycle_t t2;
    Steal.note marks t2;
    (* Checks, outside the timed part of the cycle. *)
    incr gen;
    check (Oracle.reload_ok ~generation:!gen reloaded);
    check
      (List.sort compare report.Rs_core.Stream.rebuilt
      = List.filter (fun k -> dirty.(k)) (List.init segments Fun.id));
    List.iter
      (fun (id, k, ranges, stale, reply) ->
        check
          (Oracle.query_ok ~generation:(!gen - 1) ~stale ~id
             ~expected:(Oracle.expected !decoded.(k) ranges) reply))
      !answers;
    Array.fill dirty 0 segments false;
    decoded := decode_segments dir;
    check
      (Oracle.query_ok ~generation:!gen ~id ~expected:(Oracle.expected !decoded.(k) ranges) first);
    (* A cold start on a fresh copy, at [setup_samples] spread moments. *)
    if !next_setup < setup_samples
       && now () -. started >= float_of_int !next_setup *. float_of_int seconds /. float_of_int setup_samples
    then begin
      incr next_setup;
      let (other, t_setup), share =
        Steal.guarded (fun () -> cold_start t ~dir:(Filename.concat work "cold"))
      in
      Steal.add setup ~share [| t_setup |];
      Rs_serve.Server.close other
    end
  done;
  List.iter check (final_checks srv model ~dir);
  let rss = peak_rss_mb "self" in
  Rs_serve.Server.close srv;
  let ms = Samples.to_array in
  (* One-second windows, without those the host stole from. *)
  let finished = now () in
  let win times xs =
    Windows.keep
      (Windows.split ~from:started ~until:finished ~width:1. (ms times) (ms xs))
      (Steal.window_share marks)
  in
  (* The percentile in each window, averaged over windows. *)
  let windowed times xs q = mean (Windows.quantiles (win times xs) q) in
  let kept_mean times xs = mean (Windows.values (win times xs)) in
  let m name value unit samples = { name; value; unit; samples } in
  {
    metrics =
      [
        m "setup_s" (median (Steal.values setup)) "s" (Array.length (Steal.values setup));
        m "latency_p50_us" (windowed lat_t lat 0.5 *. 1e6) "us" (Samples.length lat);
        m "latency_p90_us" (windowed lat_t lat 0.9 *. 1e6) "us" (Samples.length lat);
        m "throughput_per_s" (kept_mean cycle_t rates) "1/s" (Samples.length rates);
        m "peak_rss_mb" rss "MiB" 1;
        m "ack_p50_us" (windowed ack_t ack 0.5 *. 1e6) "us" (Samples.length ack);
        m "refresh_p50_ms" (windowed cycle_t refresh 0.5 *. 1e3) "ms" (Samples.length refresh);
      ];
    ungated = [ m "ack_p90_us" (windowed ack_t ack 0.9 *. 1e6) "us" (Samples.length ack) ];
    attempted = !attempted;
    failed = !failed;
    notes =
      [
        ("connections", "0");
        ("callers", "1");
        ("loop", json_string "closed, in process");
        ("flush_policy", json_string "one fsync per acknowledged ingest batch");
        ( "cycle",
          json_string
            (Printf.sprintf "%d batches x %d deltas, %d queries of k=%d after each, then refresh"
               batches deltas queries query_k) );
        ("wal_backlog_batches", string_of_int backlog);
        ("cycles", string_of_int !cycle);
        ( "steal_excluded",
          json_obj
            [
              ( "windows",
                string_of_int
                  (Windows.count (Windows.split ~from:started ~until:finished ~width:1. (ms cycle_t) (ms rates))
                  - Windows.count (win cycle_t rates)) );
              ("setups", string_of_int (Steal.dropped setup));
            ] );
      ];
  }
