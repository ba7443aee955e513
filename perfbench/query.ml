(* The two socket workloads, query-point and query-scan: one client
   process (this one) drives a real rs_served daemon over a Unix socket
   with a fixed number of connections, each keeping a fixed window of
   requests outstanding (a closed loop).  Both run against the same
   seeded store and differ only in the requests:

   - query-point: one range per request, round-robin over small-domain
     entries whose plans fit in L2, so the per-request fixed cost
     (Daemon read/select/write, Protocol decode/encode, Server
     admission, the Cache put on every exact answer) dominates.
   - query-scan: k = 192 ranges per request over large-domain entries
     whose plans exceed L2, so Batch.eval and the float encoding
     dominate.

   A run is split into segments.  Each segment restores the pristine
   store, cold-starts the daemon (setup_s: spawn until the first ping
   is answered; an extra cold start per segment doubles the set-up
   samples), drives the closed loop, then probes the two paths a
   query never takes: ingest acks over the socket (the store carries a
   small stream that no query touches) and refreshes (each a reload
   until the first answer from the new generation).  Spreading cold
   starts and refreshes across the run lets each metric be a median of
   several samples taken at different moments. *)

open Common

let large_n = 262_144
let wave_n = 16_384
let wave_words = 128
let stream_n = 4096
let scan_k = 192

type kind = Point | Scan

let name_of = function Point -> "query-point" | Scan -> "query-scan"

(* {2 The store} *)

type store = {
  pristine : string;  (** store directory, never served directly *)
  data_file : string;  (** the large-domain dataset, for --data *)
  data : Rs_core.Dataset.t;
  small : (string * Rs_core.Synopsis.t) array;  (** query-point entries *)
  large : (string * Rs_core.Synopsis.t) array;  (** query-scan entries *)
}

let prepare ~seed ~dir =
  let st = rng ~seed ~salt:1 in
  let pristine = Filename.concat dir "query-store" in
  rm_rf pristine;
  let store = Rs_core.Store.open_dir pristine in
  let put name ds ~method_name ~budget_words =
    Rs_core.Store.put store ~name (Rs_core.Builder.build ds ~method_name ~budget_words)
  in
  let small_specs =
    [ ("pt.ew", "equi-width-reopt", 1024, 64); ("pt.topbb", "topbb", 1024, 64);
      ("pt.wave", "wave-range-opt", 1024, 64); ("pt.vopt", "point-opt", 512, 32);
      ("pt.sap0", "sap0", 256, 24); ("pt.sap1", "sap1", 256, 40) ]
  in
  List.iter
    (fun (name, m, n, w) ->
      let ds = Rs_core.Dataset.of_floats ~name (frequencies st ~n ~scale:200) in
      put name ds ~method_name:m ~budget_words:w)
    small_specs;
  let data =
    Rs_core.Dataset.of_floats ~name:"scan" (frequencies st ~n:large_n ~scale:1000)
  in
  let data_file = Filename.concat dir "scan.data" in
  Rs_core.Dataset.save data data_file;
  List.iter
    (fun (name, w) -> put name data ~method_name:"equi-width-reopt" ~budget_words:w)
    [ ("scan.ew64", 64); ("scan.ew128", 128); ("scan.ew256", 256) ];
  let wave = Rs_core.Dataset.of_floats ~name:"wave" (frequencies st ~n:wave_n ~scale:1000) in
  put "scan.topbb" wave ~method_name:"topbb" ~budget_words:wave_words;
  (* A small stream that only the ingest probes touch. *)
  let sds = Rs_core.Dataset.of_floats ~name:"stream" (frequencies st ~n:stream_n ~scale:100) in
  ignore
    (Rs_core.Stream.create
       ~config:
         {
           Rs_core.Stream.default_config with
           method_name = "equi-width-reopt";
           budget_words = 64;
           segments = 4;
           stale_threshold = 1e12;
           entry_prefix = "stream";
         }
       ~store sds);
  (* Reference entries are decoded here, from the stored bytes. *)
  let decode name =
    ( name,
      Rs_util.Error.get
        (Rs_core.Codec.decode_result (read_file (Filename.concat pristine (name ^ ".rs")))) )
  in
  {
    pristine;
    data_file;
    data;
    small = Array.of_list (List.map (fun (n, _, _, _) -> decode n) small_specs);
    large =
      Array.map decode [| "scan.ew64"; "scan.ew128"; "scan.ew256"; "scan.topbb" |];
  }

(* {2 Request pools}

   Requests are drawn once per run from the seed and cycled; expected
   answers are computed lazily per pool slot, outside the timed loop. *)

type pool = {
  lines : string array;  (** each ends with '\n' *)
  entry : Rs_core.Synopsis.t array;
  ranges : (int * int) array array;
  expected : float array option array;
  verified : string option array;
      (** a response line that passed the full check for this slot *)
}

let make_pool ~seed kind st_store =
  let st = rng ~seed ~salt:(match kind with Point -> 2 | Scan -> 3) in
  let entries, k, size =
    match kind with
    | Point -> (st_store.small, 1, 4096)
    | Scan -> (st_store.large, scan_k, 512)
  in
  let entry = Array.init size (fun i -> snd entries.(i mod Array.length entries)) in
  let ranges =
    Array.init size (fun i ->
        let n = Rs_core.Synopsis.domain_size entry.(i) in
        Array.init k (fun _ -> range st ~n))
  in
  let lines =
    Array.init size (fun i ->
        Oracle.query_line ~id:(string_of_int i)
          ~synopsis:(fst entries.(i mod Array.length entries))
          ranges.(i)
        ^ "\n")
  in
  { lines; entry; ranges; expected = Array.make size None; verified = Array.make size None }

let expected pool i =
  match pool.expected.(i) with
  | Some e -> e
  | None ->
      let e = Oracle.expected pool.entry.(i) pool.ranges.(i) in
      pool.expected.(i) <- Some e;
      e

(* {2 Daemon and connections} *)

let spawn ~served ~store ~socket ~data_file ~log ~metrics =
  let env =
    Array.of_list
      ((if metrics then [ "RS_METRICS=1" ] else [])
      @ List.filter
          (fun kv ->
            not
              (String.starts_with ~prefix:"RS_METRICS=" kv
              || String.starts_with ~prefix:"RS_LOG=" kv
              || String.starts_with ~prefix:"RS_JOBS=" kv))
          (Array.to_list (Unix.environment ())))
  in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let inp = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process_env served
      [| served; "--store"; store; "--socket"; socket; "--data"; data_file; "--jobs"; "1" |]
      env inp out out
  in
  Unix.close out;
  Unix.close inp;
  pid

type conn = { fd : Unix.file_descr; partial : Buffer.t; pending : (float * int) Queue.t }

let chunk = Bytes.create 65536

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

(* One read; [f] gets every line it completes. *)
let read_lines c f =
  let k = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if k = 0 then failwith "daemon closed the connection";
  let start = ref 0 in
  for i = 0 to k - 1 do
    if Bytes.get chunk i = '\n' then begin
      Buffer.add_subbytes c.partial chunk !start (i - !start);
      f (Buffer.contents c.partial);
      Buffer.clear c.partial;
      start := i + 1
    end
  done;
  Buffer.add_subbytes c.partial chunk !start (k - !start)

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some { fd; partial = Buffer.create 4096; pending = Queue.create () }
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let rpc c line =
  write_all c.fd (line ^ "\n");
  let got = ref None in
  while !got = None do
    read_lines c (fun l -> got := Some l)
  done;
  Option.get !got

type daemon = { pid : int; conns : conn array }

(* Daemons not yet stopped, killed by [kill_all] if a run aborts. *)
let live = ref []

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* Spawn and wait for the first answered ping; returns the daemon and
   the cold-start time in seconds. *)
let start ~served ~store ~socket ~data_file ~log ~metrics ~connections =
  let t0 = now () in
  let pid = spawn ~served ~store ~socket ~data_file ~log ~metrics in
  live := pid :: !live;
  let rec first tries =
    match connect socket with
    | Some c -> c
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith ("rs_served exited during start-up; see " ^ log));
        if tries = 0 then failwith "rs_served did not come up within 120 s";
        Unix.sleepf 0.001;
        first (tries - 1)
  in
  let c0 = first 120_000 in
  let pong = rpc c0 "{\"op\":\"ping\"}" in
  let setup = now () -. t0 in
  if Oracle.str_field pong "op" <> Some "ping" then failwith ("bad ping reply: " ^ pong);
  let rest = Array.init (connections - 1) (fun _ -> Option.get (connect socket)) in
  ({ pid; conns = Array.append [| c0 |] rest }, setup)

let stop d =
  let ack = rpc d.conns.(0) "{\"op\":\"shutdown\"}" in
  Array.iter (fun c -> Unix.close c.fd) d.conns;
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (( <> ) d.pid) !live;
  Oracle.str_field ack "op" = Some "shutdown"

(* {2 The closed loop} *)

type loop_result = {
  latencies : Samples.t;  (** completed between warm-up and the end *)
  completions : Samples.t;  (** their completion times *)
  mutable answers : (int * string) list;  (** pool slot, response line *)
  mutable repeats : int;
      (** answers byte-equal to their slot's verified line, kept as a
          count: the line already passed the full check *)
}

let closed_loop d pool ~window ~warm_until ~until ~cursor ~marks =
  let r =
    { latencies = Samples.create (); completions = Samples.create (); answers = []; repeats = 0 }
  in
  let next () =
    let i = !cursor mod Array.length pool.lines in
    incr cursor;
    i
  in
  let t = now () in
  Array.iter
    (fun c ->
      let out = Buffer.create 4096 in
      for _ = 1 to window do
        let i = next () in
        Queue.push (t, i) c.pending;
        Buffer.add_string out pool.lines.(i)
      done;
      write_all c.fd (Buffer.contents out))
    d.conns;
  let fds = Array.to_list (Array.map (fun c -> c.fd) d.conns) in
  let out = Buffer.create 65536 in
  while Array.exists (fun c -> not (Queue.is_empty c.pending)) d.conns do
    let ready, _, _ = Unix.select fds [] [] 30. in
    if ready = [] then failwith "no response within 30 s";
    Array.iter
      (fun c ->
        if List.memq c.fd ready then begin
          Buffer.clear out;
          read_lines c (fun line ->
              let t_send, i = Queue.pop c.pending in
              let t = now () in
              Steal.note marks t;
              if t_send >= warm_until && t < until then begin
                Samples.add r.latencies (t -. t_send);
                Samples.add r.completions t
              end;
              (match pool.verified.(i) with
              | Some v when String.equal v line -> r.repeats <- r.repeats + 1
              | _ -> r.answers <- (i, line) :: r.answers);
              if t < until then begin
                let j = next () in
                Queue.push (t, j) c.pending;
                Buffer.add_string out pool.lines.(j)
              end);
          if Buffer.length out > 0 then write_all c.fd (Buffer.contents out)
        end)
      d.conns
  done;
  r

(* {2 The end-to-end run} *)

let connections = 2
let window = function Point -> 4 | Scan -> 2
let segments = 5
let ack_probes = 50
let refreshes = 2
let warmup = 0.2
let rate_window = 0.25

(* Latency and throughput are taken per fixed window of [rate_window]
   seconds and the mean over windows is reported, so a phase of host
   contention shifts a few windows rather than the whole tail, and a
   run's figure moves in proportion to the share of slow windows
   instead of jumping when that share crosses a half (as a median over
   windows does). *)
let run ~served ~work ~seed ~seconds kind =
  let st = prepare ~seed ~dir:work in
  let pool = make_pool ~seed kind st in
  let ist = rng ~seed ~salt:4 in
  let setup = Steal.kept () and rss = Samples.create () in
  let rates = Samples.create () and p50s = Samples.create () and p90s = Samples.create () in
  let refresh = Steal.kept () in
  let windows = ref 0 and windows_kept = ref 0 in
  let busy = Samples.create () in
  let requests = ref 0 in
  let attempted = ref 0 and failed = ref 0 in
  let check ok =
    incr attempted;
    if not ok then incr failed
  in
  let cursor = ref 0 in
  let per_segment = float_of_int seconds /. float_of_int segments in
  let store = Filename.concat work "serve" and socket = Filename.concat work "d.sock" in
  let cold_start () =
    rm_rf store;
    copy_dir st.pristine store;
    let (d, t_setup), share =
      Steal.guarded (fun () ->
          start ~served ~store ~socket ~data_file:st.data_file
            ~log:(Filename.concat work "daemon.log") ~metrics:false ~connections)
    in
    Steal.add setup ~share [| t_setup |];
    d
  in
  (* Ingest acks: one batch at a time, each fsynced before its reply,
     in bursts on every daemon so they sample ten moments of the run. *)
  let acks = Steal.kept () in
  let ack_burst d ~s =
    let burst = Samples.create () in
    let (), share =
      Steal.guarded @@ fun () ->
      for p = 1 to ack_probes do
      let deltas =
        Array.init 16 (fun _ ->
            (1 + Random.State.int ist stream_n, float_of_int (1 + Random.State.int ist 9)))
      in
      let id = Printf.sprintf "i%d.%d" s p in
      let t = now () in
      let reply = rpc d.conns.(0) (Oracle.ingest_line ~id ~synopsis:"stream" deltas) in
      Samples.add burst (now () -. t);
      check (Oracle.ingest_ok ~id ~applied:16 reply)
      done
    in
    Steal.add acks ~share (Samples.to_array burst)
  in
  (* Refresh: reload, then the first answer from the new generation;
     [refreshes] in a row on every daemon (generations 2, 3, ...). *)
  let refresh_probe d =
    for g = 2 to refreshes + 1 do
      let t = now () in
      let (reloaded, first), share =
        Steal.guarded (fun () ->
            let reloaded = rpc d.conns.(0) "{\"op\":\"reload\"}" in
            (reloaded, rpc d.conns.(0) (String.trim pool.lines.(0))))
      in
      Steal.add refresh ~share [| now () -. t |];
      check (Oracle.reload_ok ~generation:g reloaded);
      check (Oracle.query_ok ~generation:g ~id:"0" ~expected:(expected pool 0) first)
    done
  in
  for s = 1 to segments do
    (* Two cold starts per segment: one only for the set-up, ack and
       refresh samples, one that also serves the segment's queries. *)
    let d = cold_start () in
    ack_burst d ~s:(-s);
    refresh_probe d;
    check (stop d);
    let d = cold_start () in
    let t0 = now () in
    let warm_until = t0 +. warmup and until = t0 +. warmup +. per_segment in
    let cpu0 = cpu_seconds (string_of_int d.pid) in
    let marks = Steal.marks ~from:warm_until ~width:rate_window in
    let r = closed_loop d pool ~window:(window kind) ~warm_until ~until ~cursor ~marks in
    Samples.add busy ((cpu_seconds (string_of_int d.pid) -. cpu0) /. (now () -. t0));
    let all =
      Windows.split ~from:warm_until ~until ~width:rate_window
        (Samples.to_array r.completions) (Samples.to_array r.latencies)
    in
    let w = Windows.keep all (Steal.window_share marks) in
    windows := !windows + Windows.count all;
    windows_kept := !windows_kept + Windows.count w;
    requests := !requests + Samples.length r.latencies;
    Array.iter (Samples.add rates) (Windows.rates w);
    Array.iter (Samples.add p50s) (Windows.quantiles w 0.5);
    Array.iter (Samples.add p90s) (Windows.quantiles w 0.9);
    ack_burst d ~s;
    refresh_probe d;
    Samples.add rss (peak_rss_mb (string_of_int d.pid));
    check (stop d);
    (* Every answer of the segment, checked after its clock stopped:
       a repeat of a verified line passes, any other line is checked
       in full. *)
    attempted := !attempted + r.repeats;
    List.iter
      (fun (i, line) ->
        let ok = Oracle.query_ok ~generation:1 ~id:(string_of_int i) ~expected:(expected pool i) line in
        check ok;
        if ok then pool.verified.(i) <- Some line)
      r.answers
  done;
  let med xs = median (Samples.to_array xs) in
  let avg xs = mean (Samples.to_array xs) in
  let kept_bursts = Steal.groups acks in
  let m name value unit samples = { name; value; unit; samples } in
  {
    metrics =
      [
        m "setup_s" (median (Steal.values setup)) "s" (Array.length (Steal.values setup));
        m "latency_p50_us" (avg p50s *. 1e6) "us" !requests;
        m "latency_p90_us" (avg p90s *. 1e6) "us" !requests;
        m "throughput_per_s" (avg rates) "1/s" (Samples.length rates);
        m "peak_rss_mb" (med rss) "MiB" (Samples.length rss);
        m "ack_p50_us"
          (mean (Array.of_list (List.map median kept_bursts)) *. 1e6)
          "us" (Array.length (Steal.values acks));
        m "refresh_p50_ms" (median (Steal.values refresh) *. 1e3) "ms"
          (Array.length (Steal.values refresh));
      ];
    ungated = [ m "ack_p90_us" (quantile (Steal.values acks) 0.9 *. 1e6) "us" (Array.length (Steal.values acks)) ];
    attempted = !attempted;
    failed = !failed;
    notes =
      [
        ("connections", string_of_int connections);
        ("window_per_connection", string_of_int (window kind));
        ("ranges_per_request", string_of_int (match kind with Point -> 1 | Scan -> scan_k));
        ("loop", json_string "closed");
        ("flush_policy", json_string "one fsync per acknowledged ingest batch");
        ("segments", string_of_int segments);
        ( "steal_excluded",
          json_obj
            [
              ("windows", string_of_int (!windows - !windows_kept));
              ("of_windows", string_of_int !windows);
              ("setups", string_of_int (Steal.dropped setup));
              ("ack_bursts", string_of_int (Steal.dropped acks));
              ("refreshes", string_of_int (Steal.dropped refresh));
            ] );
        ("daemon_cpu_frac", json_float (med busy));
      ];
  }
