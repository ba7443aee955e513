(* range_synopsis — the serving daemon (DESIGN.md §14).

   Loads a synopsis store once and answers line-delimited JSON range
   queries over a Unix-domain socket (or stdio with --stdio) until a
   shutdown request: admission control against per-request deadlines
   and poll budgets, a labeled exact → bound → stale degradation
   ladder, bounded-queue load shedding with retry-after hints, and
   crash-only hot reload of the store generation.

   Exit codes follow Rs_util.Error.exit_code: 0 clean shutdown, 2 bad
   input (store directory, dataset, socket), 3 corrupt store beyond
   self-healing.  Protocol and invariants: README "Serving" and
   DESIGN.md §14. *)

open Cmdliner
module Error = Rs_util.Error
module Server = Rs_serve.Server
module Daemon = Rs_serve.Daemon

let store_arg =
  let doc = "Synopsis store directory (as written by rs_cli store put)." in
  Arg.(required & opt (some string) None & info [ "s"; "store" ] ~docv:"DIR" ~doc)

let socket_arg =
  let doc =
    "Unix-domain socket path to listen on (default: $(i,STORE)/rs_serve.sock)."
  in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let stdio_arg =
  let doc =
    "Serve stdin/stdout instead of a socket (one request line in, one \
     response line out) — for scripting and tests."
  in
  Arg.(value & flag & info [ "stdio" ] ~doc)

let data_arg =
  let doc =
    "Dataset the stored synopses summarize: a file path or a generator name \
     (paper, zipf-<n>, mixture-<n>, uniform-<n>).  Enables the per-answer \
     RMSE bound; without it answers carry no bound."
  in
  Arg.(value & opt (some string) None & info [ "d"; "data" ] ~docv:"DATA" ~doc)

let jobs_arg =
  let doc =
    "Accepted for compatibility and must be >= 1; serving evaluates every \
     range on the coordinator whatever its value."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let queue_arg =
  let doc = "Request-queue capacity; queries beyond it are shed (overloaded)." in
  Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)

let cache_arg =
  let doc = "LRU answer-cache capacity (the stale rung's reach; 0 disables)." in
  Arg.(value & opt int 256 & info [ "cache" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc =
    "Default per-request deadline in milliseconds (finite and > 0), applied \
     to queries that carry none of their own."
  in
  Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let stale_threshold_arg =
  let doc =
    "Staleness demotion threshold: once a stream-backed synopsis has \
     absorbed more than this much absolute ingest mass since its last \
     rebuild, its answers are flagged stale and their construction-time \
     RMSE bound is withheld (finite and >= 0).  Defaults to the threshold \
     recorded in the store's stream manifest."
  in
  Arg.(
    value
    & opt (some float) None
    & info [ "stale-threshold" ] ~docv:"MASS" ~doc)

(* Server.create names a bad setting by its config field; the operator
   set it by flag. *)
let flag_of_field =
  [
    ("default_deadline_ms", "--deadline-ms");
    ("stale_threshold", "--stale-threshold");
    ("cache_capacity", "--cache");
  ]

let name_flag = function
  | Error.Invalid_input msg as e -> (
      match
        List.find_opt
          (fun (field, _) -> String.starts_with ~prefix:field msg)
          flag_of_field
      with
      | Some (field, flag) ->
          let rest = String.length field in
          Error.Invalid_input (flag ^ String.sub msg rest (String.length msg - rest))
      | None -> e)
  | e -> e

let serve store socket stdio data jobs queue cache deadline_ms stale_threshold =
  match
    Error.guard (fun () ->
        if jobs < 1 then
          Error.raise_error (Error.Invalid_input "--jobs must be >= 1");
        if queue < 1 then
          Error.raise_error (Error.Invalid_input "--queue must be >= 1");
        let dataset =
          Option.map
            (fun spec ->
              if Sys.file_exists spec then
                Error.get (Rs_core.Dataset.load_result spec)
              else Rs_core.Dataset.generate spec)
            data
        in
        let config =
          {
            (Server.default_config ~store_dir:store) with
            Server.dataset;
            queue_capacity = queue;
            cache_capacity = cache;
            default_deadline_ms = deadline_ms;
            stale_threshold;
          }
        in
        let server = Error.get (Result.map_error name_flag (Server.create config)) in
        Fun.protect ~finally:(fun () -> Server.close server) @@ fun () ->
        if stdio then Daemon.run_stdio server
        else
          let socket =
            match socket with
            | Some s -> s
            | None -> Filename.concat store "rs_serve.sock"
          in
          Daemon.run server ~socket)
  with
  | Ok () -> 0
  | Error e ->
      Printf.eprintf "rs_serve: %s\n%!" (Error.to_string e);
      Error.exit_code e

let exits =
  Cmd.Exit.defaults
  @ [
      Cmd.Exit.info 2 ~doc:"on bad input (store directory, dataset, socket).";
      Cmd.Exit.info 3 ~doc:"on a store corrupt beyond self-healing.";
    ]

let main_cmd =
  let doc = "serve range-aggregate queries from a synopsis store" in
  Cmd.v
    (Cmd.info "rs_served" ~version:"1.0.0" ~doc ~exits)
    Term.(
      const serve $ store_arg $ socket_arg $ stdio_arg $ data_arg $ jobs_arg
      $ queue_arg $ cache_arg $ deadline_arg $ stale_threshold_arg)

(* Same environment contract as rs_cli and the bench: RS_LOG selects
   the log level (unknown values warn, naming the accepted set),
   RS_METRICS=1 enables recording and dumps rs-metrics-v1 on exit. *)
let () =
  Rs_util.Logging.setup_from_env ();
  let code = Cmd.eval' main_cmd in
  if Rs_util.Logging.metrics_env_requested () then
    prerr_string (Rs_util.Metrics.to_json ());
  exit code
