(* build: the rs_cli build path, in process, one caller, jobs = 1.  Each
   operation loads a seeded -d file (Dataset.load_result), runs
   Builder.build_result, Codec.to_string and Store.put.  Operations
   cycle through a fixed mix of the paper's constructions sized to
   similar cost: opt-a-rounded (Opt_a/Ktbl), sap1 (the Dp level engine)
   and wave-range-opt.  A round is one build of each method.

   Store.put (temp + fsync + rename) is the build's durable ack
   (the ack metrics).  After every round the store is reloaded into a Server and
   queried once: refresh_p50_ms times that build-to-serving handoff.
   setup_s is Store.open_dir plus loading every operation input, taken
   at several spread moments of the run.  peak_rss_mb is the median
   over builds of each build's own peak, so one input with an unusually
   large OPT-A state table moves it no more than any other input. *)

open Common

(* method, domain size, budget words, input generator.  OPT-A's state
   count depends on the data far more than on n: on random-walk inputs
   it ranged from 2k to 600k states (20 ms to 0.8 s) between seeds, and
   on randomly rounded Zipf(1) data with total 300 two seeds in ten
   needed 120k states instead of 2-3k, growing the retained Ktbl arena
   by 6 MiB.  With total 200 forty seeds in a row stayed within 2.2k to
   3.7k states (20-40 ms), so one seed's opt-a cost and memory match
   another's. *)
let specs =
  [|
    ( "opt-a-rounded", 160, 16,
      fun st n -> Array.map float_of_int
          (Rs_dist.Datasets.zipf ~seed:(Random.State.bits st) ~n ~alpha:1.0 ~total:200. ()) );
    ("sap1", 192, 40, fun st n -> frequencies st ~n ~scale:100);
    ("wave-range-opt", 4096, 64, fun st n -> frequencies st ~n ~scale:100);
  |]

let files_per_method = 4
let setup_samples = 15

let options = { Rs_core.Builder.default_options with jobs = 1 }

type input = { method_name : string; path : string; budget : int; slot : int }

let prepare ~seed ~dir =
  let st = rng ~seed ~salt:21 in
  let inputs = Filename.concat dir "inputs" in
  mkdir_p inputs;
  Array.concat
    (Array.to_list
       (Array.map
          (fun (m, n, w, gen) ->
            Array.init files_per_method (fun i ->
                let path = Filename.concat inputs (Printf.sprintf "%s-%d.txt" m i) in
                let b = Buffer.create (8 * n) in
                Array.iter (fun v -> Printf.bprintf b "%.0f\n" v) (gen st n);
                write_file path (Buffer.contents b);
                { method_name = m; path; budget = w; slot = i }))
          specs))

let load path = Rs_util.Error.get (Rs_core.Dataset.load_result path)

let setup_once inputs ~store_dir =
  let t0 = now () in
  let store = Rs_core.Store.open_dir store_dir in
  let data = Array.map (fun i -> load i.path) inputs in
  (store, data, now () -. t0)

let build_one ds input =
  Rs_util.Error.get
    (Rs_core.Builder.build_result ~options ds ~method_name:input.method_name
       ~budget_words:input.budget)

(* The reference paths a first build is checked against, each sharing
   as little as possible with the builder's own:
   - opt-a-rounded: Opt_a's Reference transition kernel on the scaled
     data, boundaries refilled with the original averages;
   - sap1: Sap1 forced onto the Dp level engine;
   - wave-range-opt: the predicted residual SSE (coefficient energy)
     against the O(n) range-SSE lowering of the built synopsis.
   Every method must also round-trip through Codec byte for byte. *)
let same_buckets expected syn =
  match syn with
  | Rs_core.Synopsis.Histogram h ->
      let module H = Rs_histogram.Histogram in
      let module B = Rs_histogram.Bucket in
      let be = H.bucketing expected and bh = H.bucketing h in
      B.count be = B.count bh
      && List.for_all (fun i -> B.bounds be i = B.bounds bh i) (List.init (B.count be) Fun.id)
      && Array.for_all2 Oracle.same_bits (H.avg_values expected) (H.avg_values h)
  | Rs_core.Synopsis.Wavelet _ -> false

let reference_ok ds input syn bytes =
  let p = Rs_core.Dataset.prefix ds in
  let roundtrip =
    match Rs_core.Codec.decode_result bytes with
    | Ok back -> Rs_core.Codec.to_string back = bytes
    | Error _ -> false
  in
  let units =
    Rs_core.Builder.units_for_budget ~method_name:input.method_name
      ~budget_words:input.budget
  in
  let same h = Rs_core.Codec.to_string (Rs_core.Synopsis.Histogram h) = bytes in
  let reference =
    match input.method_name with
    | "opt-a-rounded" ->
        let x = options.Rs_core.Builder.rounded_x in
        let scaled =
          Rs_util.Prefix.create
            (Array.map (fun v -> Float.round (v /. float_of_int x)) (Rs_util.Prefix.data p))
        in
        let r =
          Rs_histogram.Opt_a.build_exact ~kernel:Rs_histogram.Opt_a.Reference
            ~max_states:options.Rs_core.Builder.opt_a_max_states scaled ~buckets:units
        in
        let expected =
          Rs_histogram.Summaries.avg_histogram p
            (Rs_histogram.Histogram.bucketing r.Rs_histogram.Opt_a.histogram)
        in
        same_buckets expected syn
    | "sap1" ->
        same (Rs_histogram.Sap1.build ~engine:Rs_histogram.Dp.Level ~stage:"sap1" p ~buckets:units)
    | _ -> (
        match syn with
        | Rs_core.Synopsis.Wavelet w -> (
            match Rs_wavelet.Synopsis.predicted_sse w with
            | Some predicted ->
                let sse = Rs_core.Synopsis.sse ds syn in
                Float.abs (sse -. predicted) <= 1e-9 *. Float.max 1. (Float.abs predicted)
            | None -> false)
        | _ -> false)
  in
  roundtrip && reference

(* The Opt_a state count for one input, from a direct call with the
   builder's parameters (an exact count, reported by the traced run). *)
let opt_a_states ds input =
  let x = options.Rs_core.Builder.rounded_x in
  let units =
    Rs_core.Builder.units_for_budget ~method_name:input.method_name ~budget_words:input.budget
  in
  (Rs_histogram.Opt_a.build_rounded ~max_states:options.Rs_core.Builder.opt_a_max_states
     (Rs_core.Dataset.prefix ds) ~buckets:units ~x)
    .Rs_histogram.Opt_a.states

let entry_name input = Printf.sprintf "%s-%d" input.method_name input.slot

let run ~work ~seed ~seconds =
  let inputs = prepare ~seed ~dir:work in
  let store_dir = Filename.concat work "built" in
  let setup = Steal.kept () in
  let lat = Samples.create () and ack = Samples.create () in
  let rates = Samples.create () and refresh = Samples.create () in
  let rss = Samples.create () in
  let build_t = Samples.create () and rate_t = Samples.create () in
  let refresh_t = Samples.create () in
  let attempted = ref 0 and failed = ref 0 in
  let check ok =
    incr attempted;
    if not ok then incr failed
  in
  let (store, _, t_setup), share = Steal.guarded (fun () -> setup_once inputs ~store_dir) in
  Steal.add setup ~share [| t_setup |];
  let checked = Hashtbl.create 3 in
  let srv = ref None and gen = ref 0 in
  let started = now () in
  let until = started +. float_of_int seconds in
  let marks = Steal.marks ~from:started ~width:1. in
  let round = ref 0 and next_setup = ref 1 in
  let per_method = Array.length specs in
  let by_method = Array.init per_method (fun _ -> Samples.create ()) in
  while now () < until do
    let busy = ref 0. in
    for m = 0 to per_method - 1 do
      let input = inputs.((m * files_per_method) + (!round mod files_per_method)) in
      (* Each build starts from a compacted heap, as a fresh rs_cli
         process would, and its own peak RSS is recorded. *)
      Gc.compact ();
      reset_peak_rss ();
      let t0 = now () in
      let ds = load input.path in
      let built = build_one ds input in
      let syn = built.Rs_core.Builder.synopsis in
      let bytes = Rs_core.Codec.to_string syn in
      let t1 = now () in
      Rs_core.Store.put store ~name:(entry_name input) syn;
      let t2 = now () in
      Samples.add rss (peak_rss_mb "self");
      Samples.add build_t t2;
      Samples.add lat (t2 -. t0);
      Samples.add by_method.(m) (t2 -. t0);
      Samples.add ack (t2 -. t1);
      busy := !busy +. (t2 -. t0);
      (* The first build of each method is checked outside the clock. *)
      if not (Hashtbl.mem checked input.method_name) then begin
        Hashtbl.add checked input.method_name ();
        check (reference_ok ds input syn bytes)
      end;
      check (built.Rs_core.Builder.report = None)
    done;
    Samples.add rates (float_of_int per_method /. !busy);
    Samples.add rate_t (now ());
    (* Build-to-serving handoff: reload and answer from the new entries. *)
    let input = inputs.(!round mod files_per_method) in
    let t0 = now () in
    let server, reply =
      match !srv with
      | None ->
          let s =
            Rs_util.Error.get
              (Rs_serve.Server.create (Rs_serve.Server.default_config ~store_dir))
          in
          srv := Some s;
          gen := 1;
          (s, "")
      | Some s ->
          incr gen;
          (s, Rs_serve.Server.reload s)
    in
    let id = string_of_int !round in
    let ranges = [| (1, 64); (17, 100) |] in
    let first =
      Rs_serve.Server.handle_line server
        (Oracle.query_line ~id ~synopsis:(entry_name input) ranges)
    in
    let dt = now () -. t0 in
    Steal.note marks (now ());
    if !gen > 1 then begin
      Samples.add refresh dt;
      Samples.add refresh_t (now ());
      check (Oracle.reload_ok ~generation:!gen reply)
    end;
    let stored =
      Rs_util.Error.get
        (Rs_core.Codec.decode_result
           (read_file (Filename.concat store_dir (entry_name input ^ ".rs"))))
    in
    check (Oracle.query_ok ~generation:!gen ~id ~expected:(Oracle.expected stored ranges) first);
    incr round;
    if !next_setup < setup_samples
       && now () -. started
          >= float_of_int !next_setup *. float_of_int seconds /. float_of_int setup_samples
    then begin
      incr next_setup;
      let (_, _, t), share =
        Steal.guarded (fun () -> setup_once inputs ~store_dir:(Filename.concat work "cold"))
      in
      Steal.add setup ~share [| t |]
    end
  done;
  Option.iter Rs_serve.Server.close !srv;
  let ms = Samples.to_array in
  (* One-second windows, without those the host stole from. *)
  let finished = now () in
  let kept times xs =
    Windows.values
      (Windows.keep
         (Windows.split ~from:started ~until:finished ~width:1. (ms times) (ms xs))
         (Steal.window_share marks))
  in
  let lat_us = Array.map (fun x -> x *. 1e6) (kept build_t lat) in
  let ack_us = Array.map (fun x -> x *. 1e6) (kept build_t ack) in
  let m name value unit samples = { name; value; unit; samples } in
  {
    metrics =
      [
        m "setup_s" (median (Steal.values setup)) "s" (Array.length (Steal.values setup));
        m "latency_p50_us" (quantile lat_us 0.5) "us" (Array.length lat_us);
        m "latency_p90_us" (quantile lat_us 0.9) "us" (Array.length lat_us);
        m "throughput_per_s" (median (kept rate_t rates)) "1/s" (Array.length (kept rate_t rates));
        m "peak_rss_mb" (median (kept build_t rss)) "MiB" (Array.length (kept build_t rss));
        m "ack_p50_us" (quantile ack_us 0.5) "us" (Array.length ack_us);
        m "refresh_p50_ms" (median (kept refresh_t refresh) *. 1e3) "ms"
          (Array.length (kept refresh_t refresh));
      ];
    ungated = [ m "ack_p90_us" (quantile ack_us 0.9) "us" (Array.length ack_us) ];
    attempted = !attempted;
    failed = !failed;
    notes =
      [
        ("callers", "1");
        ("jobs", "1");
        ("loop", json_string "closed, in process");
        ("flush_policy", json_string "Store.put: temp file + fsync + rename per build");
        ( "mix",
          json_string
            (String.concat ", "
               (Array.to_list
                  (Array.map (fun (m, n, w, _) -> Printf.sprintf "%s n=%d words=%d" m n w) specs)))
        );
        ("rounds", string_of_int !round);
        ( "steal_excluded",
          json_obj
            [
              ("builds", string_of_int (Samples.length lat - Array.length lat_us));
              ("setups", string_of_int (Steal.dropped setup));
            ] );
        ( "latency_p50_us_by_method",
          json_obj
            (Array.to_list
               (Array.mapi
                  (fun i (name, _, _, _) ->
                    (name, json_float (median (Samples.to_array by_method.(i)) *. 1e6)))
                  specs)) );
      ];
  }
