module Error = Rs_util.Error
module Faults = Rs_util.Faults
module Rng = Rs_dist.Rng
module Backoff = Rs_core.Supervisor.Backoff
module Synopsis = Rs_core.Synopsis
module Server = Rs_serve.Server
module Generation = Rs_serve.Generation
module P = Rs_serve.Protocol

type outcome = {
  requests : int;
  exact : int;
  bound : int;
  stale : int;
  refused : int;
  shed : int;
  injected : int;
  reloads : int;
  violations : string list;
}

let pp_outcome ppf o =
  Format.fprintf ppf
    "%d requests: %d exact, %d bound, %d stale, %d refused (%d shed, %d \
     injected), %d reloads, %d violations"
    o.requests o.exact o.bound o.stale o.refused o.shed o.injected o.reloads
    (List.length o.violations)

let seams = [ "serve.decode"; "serve.admit"; "serve.evaluate"; "serve.reload" ]

let malformed_pool =
  [|
    "{";
    "not json at all";
    "{\"op\":\"nope\"}";
    "{\"op\":\"query\",\"ranges\":[[1,2]]}";
    "{\"op\":\"query\",\"synopsis\":7,\"ranges\":[[1,2]]}";
    "\"just a string\"";
    "{\"op\":\"query\",\"synopsis\":\"x\",\"ranges\":[[1,2]],\"attempt\":0}";
  |]

(* What the scheduler knew when it sent a query — everything the checker
   needs to decide which responses are legitimate. *)
type sent = {
  s_synopsis : string;
  s_known : bool;
  s_ranges : (int * int) array;
  s_bad_range : bool;
  s_budget : int option;
  s_deadline : float option;
  s_burst : bool;  (** sent inside a queue-overflow burst *)
  s_attempt : int;
  s_armed : bool;  (** some fault seam was armed at send time *)
  s_conn : int;  (** the simulated connection (cookie) that asked *)
}

let bits = Int64.bits_of_float

let floats_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> bits x = bits y) a b

(* The serving chunk constant (Server.chunk); the deterministic-rung
   oracle below depends on it. *)
let chunk = 64
let exact_polls n = (n + chunk - 1) / chunk

(* The entries that have a bound rung, read off the representation
   here rather than asked of the server: non-rounded Avg histograms
   and shared-prefix wavelets. *)
let has_bound_rung = function
  | Synopsis.Histogram h -> (
      let module H = Rs_histogram.Histogram in
      (not (H.rounded h)) && match H.repr h with H.Avg _ -> true | _ -> false)
  | Synopsis.Wavelet w -> Rs_wavelet.Synopsis.prefix_hat_left w = None

let soak ?(requests = 200) ?(clients = 1) ~seed config =
  if clients < 1 then invalid_arg "Chaos.soak: clients must be >= 1";
  let rng = Rng.create seed in
  let server = Error.get (Server.create config) in
  let finally () =
    List.iter Faults.disarm seams;
    Server.close server
  in
  Fun.protect ~finally @@ fun () ->
  let violations = ref [] in
  let viol fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let sent_count = ref 0 in
  let n_exact = ref 0
  and n_bound = ref 0
  and n_stale = ref 0
  and n_refused = ref 0
  and n_shed = ref 0
  and n_injected = ref 0
  and n_reloads = ref 0 in
  let outstanding : (string, sent) Hashtbl.t = Hashtbl.create 64 in
  (* Multi-connection accounting: queries round-robin over [clients]
     simulated connections (the cookie), and every queued response must
     come back on the connection that asked — the daemon routes by
     cookie, so a mismatch here is a cross-connection answer leak. *)
  let conn_sent = Array.make clients 0 in
  let conn_answered = Array.make clients 0 in
  (* Mirror of the server's answer cache: key -> (generation, estimates)
     last answered.  Stale answers must replay one of these exactly. *)
  let model : (string, int * float array) Hashtbl.t = Hashtbl.create 64 in
  let key_of q =
    q.s_synopsis
    ^ Array.fold_left
        (fun acc (a, b) -> acc ^ Printf.sprintf "|%d,%d" a b)
        "" q.s_ranges
  in
  (* Pre-generate a small pool of range sets per entry so keys repeat —
     that is what makes the stale rung reachable. *)
  let gen0 = Server.generation server in
  let entry_pools =
    List.map
      (fun name ->
        let entry = Option.get (Generation.find gen0 name) in
        let n = entry.Generation.n in
        let pool =
          Array.init 6 (fun i ->
              let count = [| 1; 3; 17; 64; 130; 200 |].(i) in
              Array.init count (fun _ ->
                  let a = 1 + Rng.int rng n in
                  let b = a + Rng.int rng (n - a + 1) in
                  (a, b)))
        in
        (name, pool))
      (Generation.names gen0)
  in
  let pick arr = arr.(Rng.int rng (Array.length arr)) in
  let pick_list l = List.nth l (Rng.int rng (List.length l)) in
  let expected_estimates q rung =
    (* Recompute from the live generation — the no-wrong-answers oracle. *)
    let gen = Server.generation server in
    match Generation.find gen q.s_synopsis with
    | None -> None
    | Some entry -> (
        match rung with
        | P.Exact ->
            Some
              ( gen.Generation.gen_id,
                Array.map
                  (fun (a, b) -> Synopsis.estimate entry.Generation.syn ~a ~b)
                  q.s_ranges,
                entry.Generation.rmse_bound )
        | P.Bound ->
            if has_bound_rung entry.Generation.syn then
              Some
                ( gen.Generation.gen_id,
                  Array.map
                    (fun (a, b) -> Synopsis.estimate entry.Generation.syn ~a ~b)
                    q.s_ranges,
                  entry.Generation.rmse_bound )
            else None
        | P.Stale -> None)
  in
  let check_deterministic_rung q rung =
    (* Poll-budget-only requests degrade deterministically: enforce the
       routing oracle exactly. *)
    match (q.s_budget, q.s_deadline) with
    | Some b, None ->
        let c = exact_polls (Array.length q.s_ranges) in
        let has_bound =
          match Generation.find (Server.generation server) q.s_synopsis with
          | Some e -> has_bound_rung e.Generation.syn
          | None -> false
        in
        let expected =
          if b >= c + 2 then P.Exact
          else if b >= 3 && has_bound then P.Bound
          else P.Stale
        in
        if rung <> expected then
          viol "budget %d over %d ranges answered %s, oracle says %s" b
            (Array.length q.s_ranges) (P.rung_to_string rung)
            (P.rung_to_string expected)
    | _ -> ()
  in
  let check_answer q ~generation ~rung ~estimates ~rmse_bound =
    (match rung with
    | P.Exact -> incr n_exact
    | P.Bound -> incr n_bound
    | P.Stale -> incr n_stale);
    check_deterministic_rung q rung;
    match rung with
    | P.Exact | P.Bound -> (
        match expected_estimates q rung with
        | None ->
            viol "%s answer for %s but rung not computable from generation"
              (P.rung_to_string rung) q.s_synopsis
        | Some (exp_gen, exp_est, exp_rmse) ->
            if generation <> exp_gen then
              viol "answer cites generation %d, live is %d" generation exp_gen;
            if not (floats_equal estimates exp_est) then
              viol "WRONG ANSWER (%s, %s): estimates differ from oracle"
                q.s_synopsis (P.rung_to_string rung);
            (match (rmse_bound, exp_rmse) with
            | None, None -> ()
            | Some r, Some e when bits r = bits e -> ()
            | _ -> viol "rmse_bound mismatch on %s rung" (P.rung_to_string rung));
            (* Only exact answers feed the server's stale cache. *)
            if rung = P.Exact then
              Hashtbl.replace model (key_of q) (generation, estimates))
    | P.Stale -> (
        if q.s_budget = None && q.s_deadline = None then
          viol "stale answer for an ungoverned request";
        if rmse_bound <> None then viol "stale answer carries an rmse_bound";
        match Hashtbl.find_opt model (key_of q) with
        | None -> viol "stale answer with no previously answered value"
        | Some (g, est) ->
            if g <> generation || not (floats_equal estimates est) then
              viol "WRONG ANSWER (stale): replay differs from history")
  in
  let check_refusal q ~refusal ~message ~retry_after_ms =
    incr n_refused;
    match refusal with
    | P.Injected ->
        incr n_injected;
        if not q.s_armed then viol "injected refusal with no fault armed"
    | P.Overloaded -> (
        incr n_shed;
        if not q.s_burst then viol "overloaded refusal outside a burst";
        let expected =
          1000. *. Backoff.delay config.Server.backoff ~seg:0 ~attempt:q.s_attempt
        in
        match retry_after_ms with
        | None -> viol "overloaded refusal without retry_after_ms"
        | Some r ->
            if bits r <> bits expected then
              viol "retry_after_ms %.6f, backoff policy says %.6f" r expected)
    | P.Unknown_synopsis ->
        if q.s_known then viol "unknown-synopsis refusal for %s" q.s_synopsis
    | P.Bad_request ->
        if not q.s_bad_range then viol "bad-request refusal for a valid query"
    | P.Deadline ->
        if q.s_budget = None && q.s_deadline = None then
          viol "deadline refusal for an ungoverned request";
        (* Satellite 2's contract, enforced under chaos too: poll-budget
           expiries must read as polls, never as seconds. *)
        if
          q.s_budget <> None && q.s_deadline = None
          && not
               (String.length message >= 4
               && (let has_sub s sub =
                     let n = String.length s and m = String.length sub in
                     let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
                     go 0
                   in
                   has_sub message "poll"))
        then viol "poll-budget expiry rendered without poll units: %s" message
    | P.Shutting_down -> viol "shutting-down refusal before shutdown"
    | P.Corrupt_store -> viol "corrupt-store refusal for a query"
  in
  let handle_query_response q line =
    match P.decode_response line with
    | Error e -> viol "undecodable response %S: %s" line e
    | Ok (P.Answers { id = _; generation; rung; estimates; rmse_bound; stale })
      ->
        (* The chaos workload never ingests, so staleness can only be a
           server bug here. *)
        if stale then viol "stale-flagged answer with no ingest in the soak";
        check_answer q ~generation ~rung ~estimates ~rmse_bound
    | Ok (P.Refused { id = _; refusal; message; retry_after_ms }) ->
        check_refusal q ~refusal ~message ~retry_after_ms
    | Ok _ -> viol "non-query response to a query: %S" line
  in
  let drain () =
    let rec go () =
      match Server.step server with
      | None -> ()
      | Some (cookie, line) ->
          (match P.decode_response line with
          | Error e -> viol "undecodable response %S: %s" line e
          | Ok (P.Answers { id = Some id; _ } | P.Refused { id = Some id; _ })
            -> (
              match Hashtbl.find_opt outstanding id with
              | None -> viol "unsolicited or duplicate response for id %s" id
              | Some q ->
                  Hashtbl.remove outstanding id;
                  if q.s_conn <> cookie then
                    viol "response for id %s routed to connection %d, asked on %d"
                      id cookie q.s_conn
                  else conn_answered.(cookie) <- conn_answered.(cookie) + 1;
                  handle_query_response q line)
          | Ok _ -> viol "evaluated response without an id: %S" line);
          go ()
    in
    go ()
  in
  let send_query ~burst =
    let seq = !sent_count in
    incr sent_count;
    let conn = seq mod clients in
    let id = Printf.sprintf "r%d" seq in
    let unknown = Rng.bernoulli rng 0.05 in
    let name, pool = pick_list entry_pools in
    let synopsis = if unknown then "no-such-synopsis" else name in
    let ranges = pick pool in
    let bad_range = (not unknown) && Rng.bernoulli rng 0.04 in
    let ranges =
      if bad_range then Array.append [| (0, 5) |] ranges else ranges
    in
    let budget =
      if Rng.bernoulli rng 0.35 then
        Some [| 1; 2; 3; 4; 8; 100 |].(Rng.int rng 6)
      else None
    in
    let deadline_ms =
      if budget = None && Rng.bernoulli rng 0.05 then Some 0.0005 else None
    in
    let attempt = 1 + Rng.int rng 4 in
    let q =
      {
        s_synopsis = synopsis;
        s_known = not unknown;
        s_ranges = ranges;
        s_bad_range = bad_range;
        s_budget = budget;
        s_deadline = deadline_ms;
        s_burst = burst;
        s_attempt = attempt;
        s_armed = Faults.any_armed ();
        s_conn = conn;
      }
    in
    let line =
      P.encode_request
        (P.Query
           {
             id = Some id;
             synopsis;
             ranges;
             deadline_ms;
             poll_budget = budget;
             attempt;
           })
    in
    match Server.push server ~cookie:conn line with
    | `Reply r -> handle_query_response q r
    | `Queued ->
        conn_sent.(conn) <- conn_sent.(conn) + 1;
        Hashtbl.replace outstanding id q
  in
  let send_control req ~expect =
    incr sent_count;
    let line = P.encode_request req in
    let armed = Faults.any_armed () in
    match Server.push server ~cookie:0 line with
    | `Queued -> viol "control operation was queued"
    | `Reply r -> (
        match P.decode_response r with
        | Error e -> viol "undecodable control response %S: %s" r e
        | Ok resp -> expect ~armed resp)
  in
  (* {2 The schedule} *)
  while !sent_count < requests do
    let roll = Rng.float rng in
    if roll < 0.05 then
      send_control P.Ping ~expect:(fun ~armed resp ->
          match resp with
          | P.Pong -> ()
          | P.Refused { refusal = P.Injected; _ } when armed ->
              incr n_refused;
              incr n_injected
          | _ -> viol "ping did not pong")
    else if roll < 0.08 then
      send_control P.Metrics ~expect:(fun ~armed resp ->
          match resp with
          | P.Metrics_report _ -> ()
          | P.Refused { refusal = P.Injected; _ } when armed ->
              incr n_refused;
              incr n_injected
          | _ -> viol "metrics op did not report")
    else if roll < 0.13 then begin
      if Rng.bernoulli rng 0.3 then Faults.arm ~count:1 "serve.reload";
      let before = (Server.generation server).Generation.gen_id in
      send_control P.Reload ~expect:(fun ~armed resp ->
          let after = (Server.generation server).Generation.gen_id in
          match resp with
          | P.Reloaded { generation; _ } ->
              incr n_reloads;
              if generation <> before + 1 || after <> generation then
                viol "reload cited generation %d (was %d, live %d)" generation
                  before after
          | P.Refused { refusal = (P.Injected | P.Corrupt_store); _ }
            when armed ->
              incr n_refused;
              incr n_injected;
              if after <> before then
                viol "failed reload still swapped the generation"
          | _ -> viol "unexpected reload response")
    end
    else if roll < 0.18 then begin
      incr sent_count;
      let armed = Faults.any_armed () in
      match Server.push server ~cookie:0 (pick malformed_pool) with
      | `Queued -> viol "malformed line was queued"
      | `Reply r -> (
          match P.decode_response r with
          | Ok (P.Refused { refusal = P.Bad_request; _ }) -> incr n_refused
          | Ok (P.Refused { refusal = P.Injected; _ }) when armed ->
              incr n_refused;
              incr n_injected
          | _ -> viol "malformed line not refused bad-request: %S" r)
    end
    else begin
      if Rng.bernoulli rng 0.08 then
        Faults.arm ~count:1 (pick_list seams);
      if Rng.bernoulli rng 0.1 then begin
        (* Overflow burst: push past queue capacity without stepping, so
           the tail is shed with retry hints, then drain. *)
        let k = config.Server.queue_capacity + 2 + Rng.int rng 4 in
        for _ = 1 to k do
          send_query ~burst:true
        done;
        drain ()
      end
      else begin
        send_query ~burst:false;
        drain ()
      end
    end
  done;
  drain ();
  (* {2 Shutdown — acknowledged, drained, never lost} *)
  List.iter Faults.disarm seams;
  send_control P.Shutdown ~expect:(fun ~armed:_ resp ->
      match resp with
      | P.Shutdown_ack -> ()
      | _ -> viol "shutdown was not acknowledged");
  if not (Server.draining server) then viol "server not draining after ack";
  for _ = 1 to 2 do
    let seq = !sent_count in
    incr sent_count;
    let line =
      P.encode_request
        (P.Query
           {
             id = Some (Printf.sprintf "r%d" seq);
             synopsis = fst (List.hd entry_pools);
             ranges = [| (1, 1) |];
             deadline_ms = None;
             poll_budget = None;
             attempt = 1;
           })
    in
    match Server.push server ~cookie:seq line with
    | `Reply r -> (
        match P.decode_response r with
        | Ok (P.Refused { refusal = P.Shutting_down; _ }) -> incr n_refused
        | _ -> viol "post-shutdown query not refused shutting-down: %S" r)
    | `Queued -> viol "post-shutdown query was queued"
  done;
  Hashtbl.iter
    (fun id _ -> viol "request %s never received a response" id)
    outstanding;
  (* Per-connection conservation: every queued query came back exactly
     once on its own connection (immediate [`Reply]s are answered on
     the spot and never enter these tallies). *)
  Array.iteri
    (fun c sent ->
      if conn_answered.(c) <> sent then
        viol "connection %d: %d queued queries but %d responses" c sent
          conn_answered.(c))
    conn_sent;
  {
    requests = !sent_count;
    exact = !n_exact;
    bound = !n_bound;
    stale = !n_stale;
    refused = !n_refused;
    shed = !n_shed;
    injected = !n_injected;
    reloads = !n_reloads;
    violations = List.rev !violations;
  }

let probe config ~lines =
  let server = Error.get (Server.create config) in
  Fun.protect ~finally:(fun () -> Server.close server) @@ fun () ->
  List.map (Server.handle_line server) lines

let probe_cookied config ~lines =
  let server = Error.get (Server.create config) in
  Fun.protect ~finally:(fun () -> Server.close server) @@ fun () ->
  (* Push the whole interleaving before stepping anything — the
     multi-connection analogue of [probe]: immediate replies come back
     in push order, queued queries drain FIFO afterwards, each tagged
     with the cookie (connection) that asked. *)
  let immediate = ref [] in
  List.iter
    (fun (cookie, line) ->
      match Server.push server ~cookie line with
      | `Reply r -> immediate := (cookie, r) :: !immediate
      | `Queued -> ())
    lines;
  let rec drain acc =
    match Server.step server with
    | None -> List.rev acc
    | Some cr -> drain (cr :: acc)
  in
  List.rev !immediate @ drain []
