(* The traced run (--trace 1): per-layer numbers, timed from outside.

   Every traced run replays all four workloads' operations, so it
   reports every per-layer metric whatever --workload says; the
   workload named on the command line only selects which replay's
   tracing overhead is reported as trace.overhead_frac.  Each replay
   first runs its operations untimed by spans (plain end-to-end
   timing), then again with spans: a root span around the public call
   a user makes and child spans replaying the operation's sub-steps
   through each layer's public functions on a mirror of the same state
   (see Spans).  trace.overhead_frac compares the two passes' mean
   end-to-end time.  <workload>.unattributed_us is the mean root self
   time: end-to-end time minus the layer replays' time. *)

open Common
module P = Rs_serve.Protocol
module Server = Rs_serve.Server

let us x = x *. 1e6
let med name = median (Spans.durations name)

type replay = {
  metrics : metric list;
  overhead : float;
  attempted : int;
  failed : int;
}

let metric name value unit samples = { name; value; unit; samples }

(* The median duration of the named spans, reported as [as_]. *)
let timed name ~as_ scale unit =
  let d = Spans.durations name in
  metric as_ (median d *. scale) unit (Array.length d)

(* Root self time: mean per operation and share of root time. *)
let unattributed prefix roots =
  let self = Spans.self_times () in
  let selfs = Array.concat (List.map self roots) in
  let total = Array.concat (List.map Spans.durations roots) in
  let sum = Array.fold_left ( +. ) 0. in
  [
    metric (prefix ^ ".unattributed_us") (us (mean selfs)) "us" (Array.length selfs);
    metric (prefix ^ ".unattributed_frac") (sum selfs /. sum total) "ratio" (Array.length selfs);
  ]

let ops = ref 0

let new_op () =
  incr ops;
  !ops

let root ~op name t0 t1 = Spans.add ~op ~parent:(-1) name t0 t1
let child ~op ~parent name f = snd (Spans.time ~op ~parent name f)

(* Mirror of Server's cache key, for replaying Cache.put. *)
let cache_key synopsis ranges =
  let b = Buffer.create 64 in
  Buffer.add_string b synopsis;
  Array.iter (fun (a, c) -> Printf.bprintf b "|%d,%d" a c) ranges;
  Buffer.contents b

let decoded_response line =
  match P.decode_response line with Ok r -> r | Error e -> failwith ("response: " ^ e)

(* {2 Socket workloads} *)

let histogram_mean report name =
  let key = Printf.sprintf "\"%s\": {\"count\": " name in
  match Oracle.index_from report 0 key with
  | -1 -> nan
  | i ->
      Scanf.sscanf
        (String.sub report (i + String.length key) (min 120 (String.length report - i - String.length key)))
        "%d, \"sum\": %f" (fun c s -> s /. float_of_int c)

let load_breakdown (st : Query.store) ~work =
  Spans.section ();
  for _ = 1 to 3 do
    let dir = Filename.concat work "load" in
    rm_rf dir;
    copy_dir st.Query.pristine dir;
    let op = new_op () in
    let t0 = now () in
    ignore (Rs_util.Error.get (Rs_serve.Generation.load ~dataset:st.Query.data ~gen_id:1 dir));
    let r = root ~op "query.load" t0 (now ()) in
    let store = Rs_core.Store.open_dir dir in
    ignore (child ~op ~parent:r "store.fsck" (fun () -> Rs_core.Store.fsck store));
    let files = List.map (fun n -> read_file (Filename.concat dir (n ^ ".rs"))) (Rs_core.Store.list store) in
    let syns =
      child ~op ~parent:r "codec.decode" (fun () ->
          List.map (fun b -> Rs_util.Error.get (Rs_core.Codec.decode_result b)) files)
    in
    ignore
      (child ~op ~parent:r "synopsis.batch_plan" (fun () ->
           List.map Rs_core.Synopsis.batch_plan syns));
    ignore
      (child ~op ~parent:r "synopsis.sse" (fun () ->
           List.map
             (fun s ->
               if Rs_core.Synopsis.domain_size s = Rs_core.Dataset.n st.Query.data then
                 Rs_core.Synopsis.sse st.Query.data s
               else 0.)
             syns))
  done;
  [
    timed "query.load" ~as_:"generation.load_ms" 1e3 "ms";
    timed "store.fsck" ~as_:"store.fsck_ms" 1e3 "ms";
    timed "codec.decode" ~as_:"codec.decode_ms" 1e3 "ms";
    timed "synopsis.batch_plan" ~as_:"synopsis.batch_plan_ms" 1e3 "ms";
    timed "synopsis.sse" ~as_:"synopsis.sse_ms" 1e3 "ms";
  ]

let query_replay ~served ~work (st : Query.store) ~seed kind =
  Spans.section ();
  let name = Query.name_of kind in
  let n_ops = match kind with Query.Point -> 2000 | Query.Scan -> 300 in
  let pool = Query.make_pool ~seed kind st in
  let dir_d = Filename.concat work (name ^ "-daemon") and dir_p = Filename.concat work (name ^ "-inproc") in
  List.iter (fun d -> rm_rf d; copy_dir st.Query.pristine d) [ dir_d; dir_p ];
  let d, _ =
    Query.start ~served ~store:dir_d ~socket:(Filename.concat work "t.sock")
      ~data_file:st.Query.data_file ~log:(Filename.concat work "daemon.log")
      ~metrics:(kind = Query.Scan) ~connections:1
  in
  let c = d.Query.conns.(0) in
  let srv =
    Rs_util.Error.get
      (Server.create { (Server.default_config ~store_dir:dir_p) with dataset = Some st.Query.data })
  in
  let attempted = ref 0 and failed = ref 0 in
  let check ok =
    incr attempted;
    if not ok then incr failed
  in
  let slot i = i mod Array.length pool.Query.lines in
  let line i = String.trim pool.Query.lines.(slot i) in
  (* Warm-up, then the untraced pass. *)
  for i = 0 to (n_ops / 10) - 1 do
    ignore (Query.rpc c (line i))
  done;
  let plain =
    Array.init n_ops (fun i ->
        let t0 = now () in
        ignore (Query.rpc c (line i));
        now () -. t0)
  in
  let cache = Rs_serve.Cache.create ~policy:Rs_serve.Cache.Lru ~capacity:256 in
  let buf = Buffer.create 8192 in
  let alloc = Samples.create () and roots = Samples.create () in
  for i = 0 to n_ops - 1 do
    let op = new_op () in
    let l = line i in
    let t0 = now () in
    let reply = Query.rpc c l in
    let t1 = now () in
    let r = root ~op (name ^ ".op") t0 t1 in
    Samples.add roots (t1 -. t0);
    check
      (Oracle.query_ok ~generation:1 ~id:(string_of_int (slot i))
         ~expected:(Query.expected pool (slot i)) reply);
    let w0 = Gc.minor_words () in
    let h0 = now () in
    ignore (Server.handle_line srv l);
    let handle = now () -. h0 in
    Samples.add alloc (Gc.minor_words () -. w0);
    ignore (Spans.add ~op ~parent:r "daemon.transport" t0 (t0 +. (t1 -. t0 -. handle)));
    let pid, _ = Spans.time ~op ~parent:r "server.push" (fun () -> Server.push srv ~cookie:0 l) in
    ignore (child ~op ~parent:pid "protocol.decode" (fun () -> P.decode_request l));
    let sid, _ = Spans.time ~op ~parent:r "server.step" (fun () -> Server.step srv) in
    let ranges = pool.Query.ranges.(slot i) in
    let synopsis = Option.get (Oracle.str_field l "synopsis") in
    let entry = Option.get (Rs_serve.Generation.find (Server.generation srv) synopsis) in
    let out = Array.make (Array.length ranges) 0. in
    ignore
      (child ~op ~parent:sid "batch.eval" (fun () ->
           Rs_query.Batch.eval entry.Rs_serve.Generation.plan ~ranges ~lo:0
             ~hi:(Array.length ranges - 1) ~out));
    ignore
      (child ~op ~parent:sid "cache.put" (fun () ->
           Rs_serve.Cache.put cache (cache_key synopsis ranges) out));
    let resp = decoded_response reply in
    Buffer.clear buf;
    ignore (child ~op ~parent:sid "protocol.encode" (fun () -> P.encode_response_into buf resp))
  done;
  let xcheck =
    match kind with
    | Query.Point -> []
    | Query.Scan ->
        let report = Query.rpc c "{\"op\":\"metrics\"}" in
        (* warm-up + untraced pass + traced pass *)
        let daemon_requests = (n_ops / 10) + (2 * n_ops) in
        [
          metric "xcheck.daemon.serve_eval_exact_mean_us"
            (histogram_mean report "serve.eval_ns.exact" /. 1e3) "us" daemon_requests;
          metric "xcheck.bench.server_step_mean_us" (us (mean (Spans.durations "server.step")))
            "us" n_ops;
          metric "xcheck.daemon.serve_request_alloc_mean"
            (histogram_mean report "serve.request_alloc") "words" daemon_requests;
          metric "xcheck.bench.server_alloc_words_mean" (mean (Samples.to_array alloc)) "words"
            n_ops;
        ]
  in
  check (Query.stop d);
  Server.close srv;
  let k = float_of_int (match kind with Query.Point -> 1 | Query.Scan -> Query.scan_k) in
  let layer =
    match kind with
    | Query.Point ->
        [
          timed "daemon.transport" ~as_:"daemon.transport_us" 1e6 "us";
          timed "protocol.decode" ~as_:"protocol.decode_us" 1e6 "us";
          timed "server.push" ~as_:"server.push_us" 1e6 "us";
          timed "server.step" ~as_:"server.step_us" 1e6 "us";
          timed "cache.put" ~as_:"cache.put_us" 1e6 "us";
        ]
    | Query.Scan ->
        [
          metric "batch.eval_ns_per_range" (med "batch.eval" *. 1e9 /. k) "ns" n_ops;
          timed "protocol.encode" ~as_:"protocol.encode_us" 1e6 "us";
          metric "server.alloc_words" (median (Samples.to_array alloc)) "words" n_ops;
        ]
  in
  {
    metrics = layer @ xcheck @ unattributed name [ name ^ ".op" ];
    overhead = (mean (Samples.to_array roots) /. mean plain) -. 1.;
    attempted = !attempted;
    failed = !failed;
  }

(* {2 ingest-mixed} *)

let ingest_replay ~work ~seed =
  Spans.section ();
  let t = Ingest.prepare ~seed ~dir:work in
  let st = t.Ingest.st and model = Array.copy t.Ingest.model in
  let attempted = ref 0 and failed = ref 0 in
  let check ok =
    incr attempted;
    if not ok then incr failed
  in
  (* Recovery: Server.create (root) against Stream.resume on a copy. *)
  for _ = 1 to 3 do
    let op = new_op () in
    let srv, dt = Ingest.cold_start t ~dir:(Filename.concat work "cold") in
    let t1 = now () in
    Server.close srv;
    let r = root ~op "ingest-mixed.setup" (t1 -. dt) t1 in
    let dir = Filename.concat work "resume" in
    rm_rf dir;
    copy_dir t.Ingest.pristine dir;
    ignore
      (child ~op ~parent:r "stream.resume" (fun () ->
           Rs_core.Stream.resume (Rs_core.Store.open_dir dir)))
  done;
  let main, _ = Ingest.cold_start t ~dir:(Filename.concat work "main") in
  let mirror, _ = Ingest.cold_start t ~dir:(Filename.concat work "mirror") in
  let wal_dir = Filename.concat work "wal" in
  rm_rf wal_dir;
  copy_dir t.Ingest.pristine wal_dir;
  let wal = Rs_core.Store.open_dir wal_dir in
  let put_store = Rs_core.Store.open_dir (Filename.concat work "puts") in
  let incs =
    Array.init Ingest.segments (fun k ->
        Rs_util.Prefix.Inc.of_array (Array.sub model (k * Ingest.width) Ingest.width))
  in
  let plan = Rs_core.Segmented.plan ~n:Ingest.n ~segments:Ingest.segments in
  let grants =
    Rs_core.Segmented.uniform_split plan ~method_name:Ingest.method_name
      ~budget_words:Ingest.budget_words
  in
  let buf = Buffer.create 1024 in
  let wal_bytes = Samples.create () and rebuilt = Samples.create () in
  let plain = Samples.create () and traced = Samples.create () in
  let gen = ref 1 in
  (* The mirror follows every operation; only the traced pass wraps its
     calls in spans. *)
  let cycle ~trace =
    let step ~op ~parent name f = if trace then Spans.time ~op ~parent name f else (-1, f ()) in
    let e2e ~op name t0 t1 =
      if trace then begin
        Samples.add traced (t1 -. t0);
        root ~op name t0 t1
      end
      else begin
        Samples.add plain (t1 -. t0);
        -1
      end
    in
    let hot = [| Random.State.int st Ingest.segments; Random.State.int st Ingest.segments |] in
    for _ = 1 to Ingest.batches do
      let ds = Ingest.batch st model ~hot in
      let l = Oracle.ingest_line ~id:"i" ~synopsis:"stream" ds in
      let op = new_op () in
      let t0 = now () in
      let reply = match Server.push main ~cookie:0 l with `Reply r -> r | `Queued -> "" in
      let r = e2e ~op "ingest-mixed.ingest" t0 (now ()) in
      check (Oracle.ingest_ok ~id:"i" ~applied:Ingest.deltas reply);
      ignore (step ~op ~parent:r "protocol.decode" (fun () -> P.decode_request l));
      let sid, _ =
        step ~op ~parent:r "stream.ingest" (fun () ->
            Rs_core.Stream.ingest (Option.get (Server.stream mirror)) ds)
      in
      let by_seg = Array.make Ingest.segments [] in
      Array.iter (fun (i, d) -> by_seg.((i - 1) / Ingest.width) <- (i, d) :: by_seg.((i - 1) / Ingest.width)) ds;
      let records =
        List.filter_map
          (fun k ->
            if by_seg.(k) = [] then None
            else Some (Ingest.seg_name k, Array.of_list (List.rev by_seg.(k))))
          (List.init Ingest.segments Fun.id)
      in
      let before = file_size (Rs_core.Store.wal_path wal) in
      ignore (step ~op ~parent:sid "store.wal_append" (fun () -> Rs_core.Store.wal_append wal records));
      if trace then
        Samples.add wal_bytes
          (float_of_int (file_size (Rs_core.Store.wal_path wal) - before)
          /. float_of_int Ingest.deltas);
      ignore
        (step ~op ~parent:sid "prefix_inc.add" (fun () ->
             Array.iter
               (fun (i, d) ->
                 let k = (i - 1) / Ingest.width in
                 Rs_util.Prefix.Inc.add incs.(k) ~i:(i - (k * Ingest.width)) ~delta:d)
               ds));
      let resp = decoded_response reply in
      Buffer.clear buf;
      ignore (step ~op ~parent:r "protocol.encode" (fun () -> P.encode_response_into buf resp));
      for _ = 1 to Ingest.queries do
        let k = Random.State.int st Ingest.segments in
        let ranges = Array.init Ingest.query_k (fun _ -> range st ~n:Ingest.width) in
        let l = Oracle.query_line ~id:"q" ~synopsis:(Ingest.seg_name k) ranges in
        let op = new_op () in
        let t0 = now () in
        let reply = Server.handle_line main l in
        let r = e2e ~op "ingest-mixed.query" t0 (now ()) in
        ignore (step ~op ~parent:r "protocol.decode" (fun () -> P.decode_request l));
        let entry =
          Option.get (Rs_serve.Generation.find (Server.generation mirror) (Ingest.seg_name k))
        in
        let out = Array.make Ingest.query_k 0. in
        ignore
          (step ~op ~parent:r "batch.eval" (fun () ->
               Rs_query.Batch.eval entry.Rs_serve.Generation.plan ~ranges ~lo:0
                 ~hi:(Ingest.query_k - 1) ~out));
        let resp = decoded_response reply in
        Buffer.clear buf;
        ignore (step ~op ~parent:r "protocol.encode" (fun () -> P.encode_response_into buf resp))
      done
    done;
    let l = Oracle.query_line ~id:"r" ~synopsis:(Ingest.seg_name hot.(0)) [| (1, Ingest.width) |] in
    let op = new_op () in
    let t0 = now () in
    ignore (Rs_core.Stream.refresh (Option.get (Server.stream main)));
    let reloaded = Server.reload main in
    ignore (Server.handle_line main l);
    let r = e2e ~op "ingest-mixed.refresh" t0 (now ()) in
    incr gen;
    check (Oracle.reload_ok ~generation:!gen reloaded);
    let mstream = Option.get (Server.stream mirror) in
    let targets = Rs_core.Stream.stale_segments mstream in
    let data = Rs_core.Stream.data mstream in
    let fid, report = step ~op ~parent:r "stream.refresh" (fun () -> Rs_core.Stream.refresh mstream) in
    if trace then Samples.add rebuilt (float_of_int (List.length report.Rs_core.Stream.rebuilt));
    List.iter
      (fun k ->
        let lo, hi = plan.Rs_core.Segmented.bounds.(k) in
        let ds =
          Rs_core.Dataset.of_floats ~name:(Ingest.seg_name k) (Array.sub data (lo - 1) (hi - lo + 1))
        in
        let _, syn =
          step ~op ~parent:fid "builder.build" (fun () ->
              Rs_core.Builder.build ds ~method_name:Ingest.method_name ~budget_words:grants.(k))
        in
        ignore
          (step ~op ~parent:fid "refresh.store_put" (fun () ->
               Rs_core.Store.put put_store ~name:(Ingest.seg_name k) syn)))
      targets;
    ignore (step ~op ~parent:r "server.reload" (fun () -> Server.reload mirror));
    ignore (step ~op ~parent:r "server.handle_line" (fun () -> Server.handle_line mirror l))
  in
  (* The first cycle after recovery refreshes every segment the WAL
     backlog left stale; it warms up both sides and is not compared. *)
  cycle ~trace:false;
  Samples.clear plain;
  for _ = 1 to 12 do
    cycle ~trace:false
  done;
  for _ = 1 to 12 do
    cycle ~trace:true
  done;
  List.iter check (Ingest.final_checks main model ~dir:(Filename.concat work "main"));
  Server.close main;
  Server.close mirror;
  {
    metrics =
      [
        timed "stream.ingest" ~as_:"stream.ingest_us" 1e6 "us";
        timed "store.wal_append" ~as_:"store.wal_append_us" 1e6 "us";
        metric "prefix_inc.add_us"
          (us (med "prefix_inc.add" /. float_of_int Ingest.deltas))
          "us"
          (Array.length (Spans.durations "prefix_inc.add") * Ingest.deltas);
        metric "store.wal_bytes_per_delta" (median (Samples.to_array wal_bytes)) "bytes"
          (Samples.length wal_bytes);
        timed "stream.refresh" ~as_:"stream.refresh_ms" 1e3 "ms";
        metric "stream.segments_rebuilt" (mean (Samples.to_array rebuilt)) "count"
          (Samples.length rebuilt);
        timed "refresh.store_put" ~as_:"refresh.store_put_ms" 1e3 "ms";
        timed "server.reload" ~as_:"server.reload_ms" 1e3 "ms";
        timed "stream.resume" ~as_:"stream.resume_ms" 1e3 "ms";
      ]
      @ unattributed "ingest-mixed"
          [ "ingest-mixed.ingest"; "ingest-mixed.query"; "ingest-mixed.refresh" ];
    overhead = (mean (Samples.to_array traced) /. mean (Samples.to_array plain)) -. 1.;
    attempted = !attempted;
    failed = !failed;
  }

(* {2 build} *)

let build_replay ~work ~seed =
  Spans.section ();
  let inputs = Build.prepare ~seed ~dir:work in
  let main = Rs_core.Store.open_dir (Filename.concat work "built") in
  let mirror = Rs_core.Store.open_dir (Filename.concat work "built-mirror") in
  let plain = Samples.create () and traced = Samples.create () in
  let attempted = ref 0 and failed = ref 0 in
  let rounds = 6 in
  let pass ~trace =
    for round = 0 to rounds - 1 do
      Array.iteri
        (fun m (method_name, _, _, _) ->
          let input = inputs.((m * Build.files_per_method) + (round mod Build.files_per_method)) in
          let op = new_op () in
          let t0 = now () in
          let ds = Build.load input.Build.path in
          let built = Build.build_one ds input in
          let syn = built.Rs_core.Builder.synopsis in
          ignore (Rs_core.Codec.to_string syn);
          Rs_core.Store.put main ~name:(Build.entry_name input) syn;
          let t1 = now () in
          incr attempted;
          if built.Rs_core.Builder.report <> None then incr failed;
          if not trace then Samples.add plain (t1 -. t0)
          else begin
            Samples.add traced (t1 -. t0);
            let r = root ~op "build.op" t0 t1 in
            let lid, ds =
              Spans.time ~op ~parent:r "dataset.load" (fun () -> Build.load input.Build.path)
            in
            let values = Rs_core.Dataset.values ds in
            ignore (child ~op ~parent:lid "prefix.create" (fun () -> Rs_util.Prefix.create values));
            let built =
              child ~op ~parent:r ("builder.build." ^ method_name) (fun () -> Build.build_one ds input)
            in
            let syn = built.Rs_core.Builder.synopsis in
            ignore (child ~op ~parent:r "codec.encode" (fun () -> Rs_core.Codec.to_string syn));
            ignore
              (child ~op ~parent:r "store.put" (fun () ->
                   Rs_core.Store.put mirror ~name:(Build.entry_name input) syn))
          end)
        Build.specs
    done
  in
  pass ~trace:false;
  Samples.clear plain;
  pass ~trace:false;
  pass ~trace:true;
  let states =
    Array.fold_left
      (fun acc input ->
        if input.Build.method_name = "opt-a-rounded" then
          acc + Build.opt_a_states (Build.load input.Build.path) input
        else acc)
      0 inputs
  in
  {
    metrics =
      List.map
        (fun (m, _, _, _) ->
          timed ("builder.build." ^ m) ~as_:("builder.build_ms." ^ m) 1e3 "ms")
        (Array.to_list Build.specs)
      @ [
          timed "dataset.load" ~as_:"dataset.load_ms" 1e3 "ms";
          timed "prefix.create" ~as_:"prefix.create_ms" 1e3 "ms";
          timed "codec.encode" ~as_:"codec.encode_ms" 1e3 "ms";
          timed "store.put" ~as_:"store.put_ms" 1e3 "ms";
          metric "opt_a.states" (float_of_int states) "count" Build.files_per_method;
        ]
      @ unattributed "build" [ "build.op" ];
    overhead = (mean (Samples.to_array traced) /. mean (Samples.to_array plain)) -. 1.;
    attempted = !attempted;
    failed = !failed;
  }

let run ~served ~work ~seed ~seconds:_ workload =
  let st = Query.prepare ~seed ~dir:work in
  let load = load_breakdown st ~work in
  let point = query_replay ~served ~work st ~seed Query.Point in
  let scan = query_replay ~served ~work st ~seed Query.Scan in
  let ingest = ingest_replay ~work ~seed in
  let build = build_replay ~work ~seed in
  let replays =
    [ ("query-point", point); ("query-scan", scan); ("ingest-mixed", ingest); ("build", build) ]
  in
  let selected = List.assoc workload replays in
  let spans = Spans.count () in
  let trace_file = Filename.concat (Filename.dirname work) (Printf.sprintf "trace-%s-%d.jsonl" workload seed) in
  Spans.write trace_file;
  {
    metrics =
      load
      @ List.concat_map (fun (_, r) -> r.metrics) replays
      @ [
          metric "trace.overhead_frac" selected.overhead "ratio" 1;
          metric "trace.spans" (float_of_int spans) "count" spans;
        ];
    ungated = [];
    attempted = List.fold_left (fun a (_, r) -> a + r.attempted) 0 replays;
    failed = List.fold_left (fun a (_, r) -> a + r.failed) 0 replays;
    notes = [ ("trace_file", json_string trace_file) ];
  }
