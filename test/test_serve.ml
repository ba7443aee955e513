(* The rs_serve suite: protocol codec fuzz, generation loading and
   quarantine, admission control and the exact→bound→stale ladder,
   queue shedding with backoff hints, crash-only hot reload, fault
   seams, daemon kill -9 / restart determinism over a real Unix
   socket, and the seeded chaos soak (DESIGN.md §14). *)

module Error = Rs_util.Error
module Faults = Rs_util.Faults
module Store = Rs_core.Store
module Builder = Rs_core.Builder
module Dataset = Rs_core.Dataset
module Synopsis = Rs_core.Synopsis
module Backoff = Rs_core.Supervisor.Backoff
module P = Rs_serve.Protocol
module Server = Rs_serve.Server
module Generation = Rs_serve.Generation
module Chaos = Rs_serve.Chaos
module Daemon = Rs_serve.Daemon
open Helpers

let tmp_path suffix =
  let path = Filename.temp_file "rs_serve" suffix in
  Sys.remove path;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_tmp_dir f =
  let dir = tmp_path ".servestore" in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir)

let paper = Dataset.generate "paper"
let n = Dataset.n paper

(* Store fixture: a prefix-capable histogram, a prefix-less SAP1 and a
   wavelet synopsis — the three serving shapes. *)
let fixture_methods =
  [ ("opta", "opt-a", 24); ("sap1", "sap1", 24); ("wave", "wave-range-opt", 24) ]

(* Building the three synopses is by far the slowest part of the suite
   (OPT-A dominates), so build them exactly once into a shared base
   directory and copy the store files into each test's private dir. *)
let fixture_base =
  lazy
    (let dir = tmp_path ".servefixture" in
     Unix.mkdir dir 0o755;
     at_exit (fun () -> if Sys.file_exists dir then rm_rf dir);
     let store = Store.open_dir dir in
     List.iter
       (fun (name, method_name, budget_words) ->
         Store.put store ~name (Builder.build paper ~method_name ~budget_words))
       fixture_methods;
     dir)

let copy_file src dst =
  let ic = open_in_bin src in
  let len = in_channel_length ic in
  let b = really_input_string ic len in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc b;
  close_out oc

let rec copy_tree src dst =
  if Sys.is_directory src then begin
    if not (Sys.file_exists dst) then Unix.mkdir dst 0o755;
    Array.iter
      (fun f -> copy_tree (Filename.concat src f) (Filename.concat dst f))
      (Sys.readdir src)
  end
  else copy_file src dst

let make_store dir =
  copy_tree (Lazy.force fixture_base) dir;
  Store.open_dir dir

let config ?(queue = 16) ?(cache = 64) ?(jobs = 1) ?dataset dir =
  {
    (Server.default_config ~store_dir:dir) with
    Server.dataset;
    jobs;
    queue_capacity = queue;
    cache_capacity = cache;
  }

let with_server ?queue ?cache ?jobs ?dataset dir f =
  let server = Error.get (Server.create (config ?queue ?cache ?jobs ?dataset dir)) in
  Fun.protect ~finally:(fun () -> Server.close server) (fun () -> f server)

let query ?id ?deadline_ms ?poll_budget ?(attempt = 1) ~synopsis ranges =
  P.encode_request
    (P.Query
       { id; synopsis; ranges = Array.of_list ranges; deadline_ms; poll_budget; attempt })

let decode line =
  match P.decode_response line with
  | Ok r -> r
  | Error e -> Alcotest.failf "undecodable response %S: %s" line e

(* Inline-record payloads cannot escape their match; rebind them. *)
type answer = {
  generation : int;
  rung : P.rung;
  estimates : float array;
  rmse_bound : float option;
  stale : bool;
}

type refusal = {
  refusal : P.refusal;
  message : string;
  retry_after_ms : float option;
}

let expect_answers line =
  match decode line with
  | P.Answers { id = _; generation; rung; estimates; rmse_bound; stale } ->
      { generation; rung; estimates; rmse_bound; stale }
  | _ -> Alcotest.failf "expected an answer, got %S" line

let expect_refusal line =
  match decode line with
  | P.Refused { id = _; refusal; message; retry_after_ms } ->
      { refusal; message; retry_after_ms }
  | _ -> Alcotest.failf "expected a refusal, got %S" line

let check_floats msg expected actual =
  Alcotest.(check (array (float 0.))) msg expected actual;
  Array.iteri
    (fun i e ->
      if Int64.bits_of_float e <> Int64.bits_of_float actual.(i) then
        Alcotest.failf "%s: index %d not bit-identical" msg i)
    expected

(* --- Protocol codec ---------------------------------------------------- *)

let json_gen =
  let open QCheck.Gen in
  sized_size (int_range 0 3) @@ fix (fun self depth ->
      let scalar =
        oneof
          [
            return P.Null;
            map (fun b -> P.Bool b) bool;
            map (fun f -> P.Num f) (float_range (-1e9) 1e9);
            map (fun i -> P.Num (float_of_int i)) (int_range (-1000000) 1000000);
            map
              (fun s -> P.Str s)
              (string_size ~gen:(map Char.chr (int_range 32 126)) (int_range 0 12));
          ]
      in
      if depth = 0 then scalar
      else
        frequency
          [
            (3, scalar);
            (1, map (fun l -> P.Arr l) (list_size (int_range 0 4) (self (depth - 1))));
            ( 1,
              map
                (fun kvs -> P.Obj kvs)
                (list_size (int_range 0 4)
                   (pair
                      (string_size ~gen:(map Char.chr (int_range 97 122))
                         (int_range 1 6))
                      (self (depth - 1)))) );
          ])

let rec json_eq a b =
  match (a, b) with
  | P.Null, P.Null -> true
  | P.Bool x, P.Bool y -> x = y
  | P.Num x, P.Num y -> Int64.bits_of_float x = Int64.bits_of_float y
  | P.Str x, P.Str y -> x = y
  | P.Arr x, P.Arr y -> List.length x = List.length y && List.for_all2 json_eq x y
  | P.Obj x, P.Obj y ->
      List.length x = List.length y
      && List.for_all2 (fun (k1, v1) (k2, v2) -> k1 = k2 && json_eq v1 v2) x y
  | _ -> false

let json_roundtrip =
  qtest ~count:500 "json round-trip"
    (QCheck.make ~print:P.json_to_string json_gen)
    (fun j ->
      match P.json_of_string (P.json_to_string j) with
      | Ok j' -> json_eq j j'
      | Error e -> QCheck.Test.fail_reportf "reparse failed: %s" e)

let test_json_parser_rejects () =
  let bad s =
    match P.json_of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "parser accepted %S" s
  in
  bad "";
  bad "{";
  bad "[1,2";
  bad "{\"a\":1} trailing";
  bad "{\"a\"}";
  bad "nul";
  bad "+5";
  bad "'single'";
  bad "\"unterminated";
  bad "\"raw\tcontrol\"";
  bad "[1,]";
  (* a \u escape takes exactly four hex digits *)
  bad "\"\\u0_41\"";
  (match P.json_of_string "\"\\u0041\"" with
  | Ok (P.Str "A") -> ()
  | _ -> Alcotest.fail "\\u0041 does not decode to A");
  (* depth bomb: past the parser's nesting limit *)
  bad (String.concat "" (List.init 64 (fun _ -> "[")) );
  let deep = String.concat "" (List.init 40 (fun _ -> "[")) ^ "1"
             ^ String.concat "" (List.init 40 (fun _ -> "]")) in
  bad deep

let test_request_roundtrip () =
  let reqs =
    [
      P.Ping;
      P.Metrics;
      P.Reload;
      P.Shutdown;
      P.Query
        {
          id = Some "r1";
          synopsis = "opta";
          ranges = [| (1, 5); (3, 100) |];
          deadline_ms = Some 12.5;
          poll_budget = Some 3;
          attempt = 2;
        };
      P.Query
        {
          id = None;
          synopsis = "w.x-y_z";
          ranges = [| (7, 7) |];
          deadline_ms = None;
          poll_budget = None;
          attempt = 1;
        };
    ]
  in
  List.iter
    (fun r ->
      match P.decode_request (P.encode_request r) with
      | Ok r' when r = r' -> ()
      | Ok _ -> Alcotest.failf "request round-trip changed %s" (P.encode_request r)
      | Error e -> Alcotest.failf "request round-trip failed: %s" e)
    reqs

let test_request_decode_rejects () =
  let bad s =
    match P.decode_request s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "decode_request accepted %S" s
  in
  bad "{}";
  bad "{\"op\":\"nope\"}";
  bad "{\"op\":\"query\"}";
  bad "{\"op\":\"query\",\"synopsis\":3,\"ranges\":[[1,2]]}";
  bad "{\"op\":\"query\",\"synopsis\":\"x\"}";
  bad "{\"op\":\"query\",\"synopsis\":\"x\",\"ranges\":[[1]]}";
  bad "{\"op\":\"query\",\"synopsis\":\"x\",\"ranges\":[[1,2,3]]}";
  bad "{\"op\":\"query\",\"synopsis\":\"x\",\"ranges\":[[1,2.5]]}";
  bad "{\"op\":\"query\",\"synopsis\":\"x\",\"ranges\":[[1,2]],\"attempt\":0}";
  bad "{\"op\":\"query\",\"synopsis\":\"x\",\"ranges\":[[1,2]],\"poll_budget\":0}";
  bad "{\"op\":\"query\",\"synopsis\":\"x\",\"ranges\":[[1,2]],\"deadline_ms\":-1}"

let test_response_roundtrip () =
  let resps =
    [
      P.Pong;
      P.Shutdown_ack;
      P.Reloaded { generation = 3; entries = 7; quarantined = 1 };
      P.Answers
        {
          id = Some "q";
          generation = 2;
          rung = P.Exact;
          estimates = [| 1.5; -0.25; 1e17; 0.1 |];
          rmse_bound = Some 0.125;
          stale = false;
        };
      P.Answers
        {
          id = Some "qs";
          generation = 2;
          rung = P.Exact;
          estimates = [| 4.5 |];
          rmse_bound = None;
          stale = true;
        };
      P.Ingested
        {
          id = Some "i1";
          synopsis = "stream";
          applied = 3;
          dirty = 2.5;
          stale = true;
        };
      P.Ingested
        { id = None; synopsis = "s"; applied = 0; dirty = 0.; stale = false };
      P.Answers
        {
          id = None;
          generation = 1;
          rung = P.Stale;
          estimates = [||];
          rmse_bound = None;
          stale = false;
        };
      P.Refused
        {
          id = Some "q2";
          refusal = P.Overloaded;
          message = "queue full";
          retry_after_ms = Some 20.5;
        };
      P.Refused
        { id = None; refusal = P.Bad_request; message = "no"; retry_after_ms = None };
    ]
  in
  List.iter
    (fun r ->
      match P.decode_response (P.encode_response r) with
      | Ok r' when r = r' -> ()
      | Ok _ ->
          Alcotest.failf "response round-trip changed %s" (P.encode_response r)
      | Error e -> Alcotest.failf "response round-trip failed: %s" e)
    resps;
  (* every rung label survives the wire *)
  List.iter
    (fun rung ->
      let line =
        P.encode_response
          (P.Answers
             {
               id = None;
               generation = 1;
               rung;
               estimates = [| 1. |];
               rmse_bound = None;
               stale = false;
             })
      in
      match P.decode_response line with
      | Ok (P.Answers a) when a.rung = rung -> ()
      | _ -> Alcotest.failf "rung %s lost on the wire" (P.rung_to_string rung))
    [ P.Exact; P.Bound; P.Stale ]

(* --- The allocation-lean codec, pinned against its twins --------------- *)

module Rng = Rs_dist.Rng
module Cache = Rs_serve.Cache

(* The float-rendering contract as a Printf reference: integral floats
   below 1e15 through the integer path (sign of -0 preserved), the rest
   through %.17g, non-finite as null. *)
let num_reference x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let test_float_rendering_pins () =
  let render x = P.json_to_string (P.Num x) in
  List.iter
    (fun x ->
      Alcotest.(check string)
        (Printf.sprintf "render %h" x)
        (num_reference x) (render x))
    [ 0.; 1.; -1.; 42.; -42.; 0.5; -0.25; 0.1; 1.5; 123456.789;
      1e15 -. 1.; -.(1e15 -. 1.); 1e15; -1e15; 1e15 +. 2.; 1e17; -1e17;
      4e18; 1e-300; Float.max_float; Float.min_float; epsilon_float;
      nan; infinity; neg_infinity ];
  (* the hazards, spelled out *)
  Alcotest.(check string) "negative zero keeps its sign" "-0" (render (-0.));
  Alcotest.(check string) "positive zero" "0" (render 0.);
  Alcotest.(check string)
    "largest integer-path value" "999999999999999" (render (1e15 -. 1.));
  Alcotest.(check string) "non-finite is null" "null" (render nan);
  (* -0 survives the wire with its sign bit *)
  (match P.json_of_string "-0" with
  | Ok (P.Num x) when 1. /. x = Float.neg_infinity -> ()
  | _ -> Alcotest.fail "-0 did not decode to negative zero");
  (* and a rendered float reparses to identical bits *)
  List.iter
    (fun x ->
      match P.json_of_string (render x) with
      | Ok (P.Num y) when Int64.bits_of_float y = Int64.bits_of_float x -> ()
      | _ -> Alcotest.failf "%h did not survive the wire" x)
    [ 0.; -0.; 0.1; 1.5; -0.25; 1e15; 1e17; 1e15 -. 1.; 4e18; 1e-300 ]

(* The float writer against the Printf oracle at scale: over a million
   seeded doubles, [json_to_string (Num x)] and the estimates inside
   [encode_response_into] must both print exactly [num_reference x]. *)
let test_float_rendering_twin_at_scale () =
  let rng = Rng.create 0xF10A7 in
  let checked = ref 0 in
  let batch = Array.make 192 0. and fill = ref 0 in
  let want_line = Buffer.create 8192 and got_line = Buffer.create 8192 in
  let head = "{\"ok\":true,\"op\":\"query\",\"generation\":1,\"rung\":\"exact\",\"estimates\":[" in
  let flush () =
    if !fill > 0 then begin
      let estimates = Array.sub batch 0 !fill in
      Buffer.clear want_line;
      Buffer.add_string want_line head;
      Array.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char want_line ',';
          Buffer.add_string want_line (num_reference x))
        estimates;
      Buffer.add_string want_line "]}";
      Buffer.clear got_line;
      P.encode_response_into got_line
        (P.Answers
           { id = None; generation = 1; rung = P.Exact; estimates;
             rmse_bound = None; stale = false });
      if Buffer.contents got_line <> Buffer.contents want_line then
        Alcotest.failf "encode_response_into differs from the Printf oracle: %s"
          (Buffer.contents got_line);
      fill := 0
    end
  in
  let check x =
    let want = num_reference x and got = P.json_to_string (P.Num x) in
    if got <> want then
      Alcotest.failf "%h rendered %s, Printf %%.17g gives %s" x got want;
    incr checked;
    batch.(!fill) <- x;
    incr fill;
    if !fill = Array.length batch then flush ()
  in
  let signed x = if Rng.bool rng then x else -.x in
  let pow10 k = float_of_string (Printf.sprintf "1e%d" k) in
  (* random bit patterns of both signs; then subnormals (exponent 0) *)
  for _ = 1 to 400_000 do
    check (Int64.float_of_bits (Rng.next_int64 rng))
  done;
  for _ = 1 to 20_000 do
    check
      (signed
         (Int64.float_of_bits
            (Int64.logand (Rng.next_int64 rng) 0xF_FFFF_FFFF_FFFFL)))
  done;
  (* uniform draws in every decade from 1e-20 to 1e20 *)
  for k = -20 to 19 do
    let scale = pow10 k in
    for _ = 1 to 5_000 do
      check (signed ((1. +. (9. *. Rng.float rng)) *. scale))
    done
  done;
  (* i/j ratios *)
  for _ = 1 to 250_000 do
    check
      (signed
         (float_of_int (Rng.int rng 1_000_000)
         /. float_of_int (1 + Rng.int rng 1_000_000)))
  done;
  (* a thousand ulps either side of the fast range's edges and of the
     integer path's limits *)
  List.iter
    (fun base ->
      let x = ref base in
      for _ = 1 to 1_000 do
        x := Float.pred !x
      done;
      for _ = 0 to 2_000 do
        check !x;
        check (-. !x);
        x := Float.succ !x
      done)
    [ 1e-10; 1e-5; 1e-4; 1e15; 1e16; 1e17 ];
  (* doubles just below a power of ten whose 17-digit rounding carries
     into the next decade (none falls inside the fast range; their
     neighbours do, and test the decimal-exponent guess) *)
  let carries = ref 0 in
  for k = -320 to 308 do
    let x = ref (pow10 k) in
    for _ = 1 to 3 do
      x := Float.pred !x
    done;
    for _ = 1 to 7 do
      let wide = Printf.sprintf "%.25e" !x and short = Printf.sprintf "%.16e" !x in
      if wide.[0] = '9' && short.[0] = '1' then incr carries;
      check !x;
      check (-. !x);
      x := Float.succ !x
    done
  done;
  Alcotest.(check bool) "decade carries found" true (!carries > 0);
  (* exact round-half-even ties: x = k / 2^j with k odd has exactly j
     decimals, the last one a 5; with k * 5^j in [1e17, 1e18) it has 18
     significant digits, so the 17-digit rounding is an exact tie *)
  let pow5 j =
    let r = ref 1 in
    for _ = 1 to j do
      r := 5 * !r
    done;
    !r
  in
  let e17 = 100_000_000_000_000_000 in
  for j = 2 to 25 do
    let f = pow5 j in
    let lo = (e17 + f - 1) / f and hi = min (((10 * e17) - 1) / f) ((1 lsl 53) - 1) in
    for t = 1 to 5_000 do
      let k = (lo + Rng.int rng (hi - lo + 1)) lor 1 in
      let k = if k > hi then k - 2 else k in
      let x = signed (Float.ldexp (float_of_int k) (-j)) in
      if t <= 20 then begin
        let digits18 = Printf.sprintf "%.17e" (Float.abs x) in
        if digits18.[18] <> '5' then
          Alcotest.failf "%h is not a 17-digit tie (%s)" x digits18
      end;
      check x
    done
  done;
  flush ();
  if !checked < 1_000_000 then
    Alcotest.failf "only %d doubles checked" !checked

let test_add_int_matches_string_of_int () =
  let rng = Rng.create 0x1A7 in
  let buf = Buffer.create 64 in
  let check n =
    Buffer.clear buf;
    Buffer.add_char buf '|';
    P.add_int buf n;
    Alcotest.(check string) (string_of_int n) ("|" ^ string_of_int n) (Buffer.contents buf)
  in
  List.iter check [ 0; 1; -1; 9; 10; -10; 99; 100; max_int; min_int; max_int - 1; min_int + 1 ];
  for _ = 1 to 100_000 do
    check (Int64.to_int (Rng.next_int64 rng));
    check (Rng.int rng 2_000_001 - 1_000_000)
  done

let test_number_fast_path_twin () =
  (* The in-place integer fast path (<= 15 digits) must parse to the
     same bits float_of_string produces, across the 15/16-digit
     boundary where the slow path takes over. *)
  let check_num s =
    match (P.json_of_string s, float_of_string_opt s) with
    | Ok (P.Num got), Some expect ->
        if Int64.bits_of_float got <> Int64.bits_of_float expect then
          Alcotest.failf "%S parsed to %h; float_of_string says %h" s got
            expect
    | Ok _, _ -> Alcotest.failf "%S did not parse to a number" s
    | Error e, Some _ -> Alcotest.failf "%S rejected: %s" s e
    | _, None -> Alcotest.failf "bad twin input %S" s
  in
  let rng = Rng.create 0xFA57 in
  for digits = 1 to 19 do
    for _ = 1 to 30 do
      let b = Buffer.create 24 in
      if Rng.bool rng then Buffer.add_char b '-';
      Buffer.add_char b (Char.chr (Char.code '1' + Rng.int rng 9));
      for _ = 2 to digits do
        Buffer.add_char b (Char.chr (Char.code '0' + Rng.int rng 10))
      done;
      check_num (Buffer.contents b)
    done
  done;
  List.iter check_num
    [ "0"; "-0"; "007"; "-0012"; "999999999999999"; "1000000000000000";
      "9007199254740993"; "123e2"; "1.5"; "-3.25e-2"; "1E6"; "0.0001" ];
  List.iter
    (fun s ->
      match P.json_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parser accepted %S" s)
    [ "+5"; ".5"; "-.5"; "-"; "--1"; "1-2"; "1e"; "0x10"; "1e999"; "1.2.3" ]

let test_encoder_direct_vs_ast () =
  (* The direct response writer must emit byte-for-byte what rendering
     response_json's AST would — over responses that stress every
     constructor, float shape and string escape. *)
  let rng = Rng.create 0xE2C0 in
  let rand_float () =
    match Rng.int rng 8 with
    | 0 -> 0.
    | 1 -> -0.
    | 2 -> float_of_int (Rng.int rng 1000)
    | 3 -> -.float_of_int (Rng.int rng 1000000)
    | 4 -> 1e15 +. float_of_int (Rng.int rng 100)
    | 5 -> Rng.float rng *. 1e17
    | 6 -> nan
    | _ -> Rng.float rng -. 0.5
  in
  let rand_string () =
    String.init (Rng.int rng 12) (fun _ ->
        match Rng.int rng 8 with
        | 0 -> '"'
        | 1 -> '\\'
        | 2 -> '\n'
        | 3 -> '\t'
        | 4 -> Char.chr (Rng.int rng 32)
        | _ -> Char.chr (32 + Rng.int rng 95))
  in
  let opt f = if Rng.bool rng then Some (f ()) else None in
  let rand_response () =
    match Rng.int rng 7 with
    | 0 -> P.Pong
    | 1 -> P.Shutdown_ack
    | 2 ->
        P.Reloaded
          {
            generation = Rng.int rng 100;
            entries = Rng.int rng 10;
            quarantined = Rng.int rng 4;
          }
    | 3 | 4 ->
        P.Answers
          {
            id = opt rand_string;
            generation = 1 + Rng.int rng 9;
            rung = [| P.Exact; P.Bound; P.Stale |].(Rng.int rng 3);
            estimates = Array.init (Rng.int rng 6) (fun _ -> rand_float ());
            rmse_bound = opt rand_float;
            stale = Rng.bool rng;
          }
    | 5 ->
        P.Ingested
          {
            id = opt rand_string;
            synopsis = rand_string ();
            applied = Rng.int rng 64;
            dirty = Float.abs (rand_float ());
            stale = Rng.bool rng;
          }
    | _ ->
        P.Refused
          {
            id = opt rand_string;
            refusal =
              [|
                P.Bad_request; P.Unknown_synopsis; P.Overloaded; P.Deadline;
                P.Corrupt_store; P.Shutting_down; P.Injected;
              |].(Rng.int rng 7);
            message = rand_string ();
            retry_after_ms = opt rand_float;
          }
  in
  for i = 1 to 500 do
    let r = rand_response () in
    let direct = P.encode_response r in
    match P.response_json r with
    | None -> Alcotest.failf "response_json None on a non-metrics response (%d)" i
    | Some j ->
        Alcotest.(check string)
          "direct writer = AST rendering" (P.json_to_string j) direct
  done;
  (* the metrics splice is the one deliberate exception *)
  Alcotest.(check bool)
    "metrics report has no AST twin" true
    (P.response_json (P.Metrics_report "{}") = None);
  Alcotest.(check string)
    "metrics report splices verbatim"
    "{\"ok\":true,\"op\":\"metrics\",\"report\":{\"a\":1}}"
    (P.encode_response (P.Metrics_report "{\"a\":1}"))

(* 650 mutated request/response lines, the same on every call: byte
   flips, truncations, insertions, deletions and splices of valid
   lines. *)
let line_mutants () =
  let bases =
    [|
      query ~id:"m1" ~synopsis:"opta" ~deadline_ms:12.5 ~poll_budget:3
        [ (1, 5); (3, 100) ];
      query ~synopsis:"w.x-y_z" [ (7, 7) ];
      P.encode_request P.Ping;
      P.encode_request P.Metrics;
      P.encode_request P.Reload;
      P.encode_request P.Shutdown;
      P.encode_response
        (P.Answers
           {
             id = Some "q\"\\x";
             generation = 2;
             rung = P.Bound;
             estimates = [| 1.5; -0.; 1e17; 0.1 |];
             rmse_bound = Some 0.125;
             stale = true;
           });
      P.encode_response
        (P.Refused
           {
             id = None;
             refusal = P.Overloaded;
             message = "queue full";
             retry_after_ms = Some 20.5;
           });
    |]
  in
  let rng = Rng.create 0x9F0D in
  let pick () = bases.(Rng.int rng (Array.length bases)) in
  let mutate line =
    let len = String.length line in
    match Rng.int rng 5 with
    | 0 when len > 0 ->
        (* flip one byte *)
        let b = Bytes.of_string line in
        Bytes.set b (Rng.int rng len) (Char.chr (Rng.int rng 256));
        Bytes.to_string b
    | 1 -> String.sub line 0 (Rng.int rng (len + 1))
    | 2 ->
        let i = Rng.int rng (len + 1) in
        String.sub line 0 i
        ^ String.make 1 (Char.chr (Rng.int rng 256))
        ^ String.sub line i (len - i)
    | 3 when len > 0 ->
        let i = Rng.int rng len in
        String.sub line 0 i ^ String.sub line (i + 1) (len - i - 1)
    | _ ->
        (* splice the head of one base onto the tail of another *)
        let other = pick () in
        String.sub line 0 (Rng.int rng (len + 1))
        ^
        let ol = String.length other in
        let o = Rng.int rng (ol + 1) in
        String.sub other o (ol - o)
  in
  Array.init 650 (fun _ -> mutate (pick ()))

let test_line_mutants_never_crash () =
  (* >= 600 mutated request/response lines: the codecs must never
     raise, must decode deterministically, and every accepted mutant
     must re-encode to a fixpoint. *)
  let mutants = line_mutants () in
  for i = 1 to 650 do
    let m = mutants.(i - 1) in
    let d1 =
      try `Ok (P.decode_request m)
      with e -> Alcotest.failf "mutant %d %S raised %s" i m (Printexc.to_string e)
    in
    (match (d1, P.decode_request m) with
    | `Ok a, b when a = b -> ()
    | _ -> Alcotest.failf "mutant %d %S decoded unstably" i m);
    (match d1 with
    | `Ok (Ok req) ->
        let e1 = P.encode_request req in
        (match P.decode_request e1 with
        | Ok req' when P.encode_request req' = e1 -> ()
        | Ok _ -> Alcotest.failf "mutant %d: request encode not a fixpoint" i
        | Error e -> Alcotest.failf "mutant %d: re-decode refused: %s" i e)
    | _ -> ());
    match
      try P.decode_response m
      with e ->
        Alcotest.failf "mutant %d: decode_response raised %s" i
          (Printexc.to_string e)
    with
    | Ok resp ->
        let e1 = P.encode_response resp in
        (match P.decode_response e1 with
        | Ok resp' when P.encode_response resp' = e1 -> ()
        | Ok _ -> Alcotest.failf "mutant %d: response encode not a fixpoint" i
        | Error e -> Alcotest.failf "mutant %d: response re-decode refused: %s" i e)
    | Error _ -> ()
  done

(* --- Request decoding, pinned against the AST decoder --------------- *)

(* The AST request decoder: parse the line into a [json] tree, then
   look each field up (the first occurrence wins) and check it.  It is
   the contract of the direct [P.decode_request]: the same [Ok] request
   and the same [Error] string, offsets included. *)
module Oracle = struct
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e
  let field name = function P.Obj fields -> List.assoc_opt name fields | _ -> None

  let str_field name obj =
    match field name obj with
    | Some (P.Str s) -> Ok (Some s)
    | Some _ -> Error (Printf.sprintf "field %S must be a string" name)
    | None -> Ok None

  let num_field name obj =
    match field name obj with
    | Some (P.Num x) -> Ok (Some x)
    | Some _ -> Error (Printf.sprintf "field %S must be a number" name)
    | None -> Ok None

  let int_field name obj =
    match num_field name obj with
    | Error _ as e -> e
    | Ok None -> Ok None
    | Ok (Some x) ->
        if Float.is_integer x && Float.abs x <= 1e9 then Ok (Some (int_of_float x))
        else Error (Printf.sprintf "field %S must be an integer" name)

  let decode_ranges obj =
    match field "ranges" obj with
    | None -> Error "query needs a \"ranges\" array"
    | Some (P.Arr items) ->
        let rec go acc = function
          | [] -> Ok (Array.of_list (List.rev acc))
          | P.Arr [ P.Num a; P.Num b ] :: rest
            when Float.is_integer a && Float.is_integer b
                 && Float.abs a <= 1e9 && Float.abs b <= 1e9 ->
              go ((int_of_float a, int_of_float b) :: acc) rest
          | _ -> Error "each range must be a pair [a,b] of integers"
        in
        go [] items
    | Some _ -> Error "field \"ranges\" must be an array"

  let decode_deltas obj =
    match field "deltas" obj with
    | None -> Error "ingest needs a \"deltas\" array"
    | Some (P.Arr items) ->
        let rec go acc = function
          | [] -> Ok (Array.of_list (List.rev acc))
          | P.Arr [ P.Num p; P.Num d ] :: rest
            when Float.is_integer p && Float.abs p <= 1e9 && Float.is_finite d ->
              go ((int_of_float p, d) :: acc) rest
          | _ ->
              Error
                "each delta must be a pair [i,d] of an integer position and a \
                 finite value"
        in
        go [] items
    | Some _ -> Error "field \"deltas\" must be an array"

  let decode_request line =
    let* v = P.json_of_string line in
    let* op = str_field "op" v in
    match op with
    | None -> Error "missing \"op\" field"
    | Some "ping" -> Ok P.Ping
    | Some "metrics" -> Ok P.Metrics
    | Some "reload" -> Ok P.Reload
    | Some "shutdown" -> Ok P.Shutdown
    | Some "query" ->
        let* id = str_field "id" v in
        let* synopsis = str_field "synopsis" v in
        let* ranges = decode_ranges v in
        let* deadline_ms = num_field "deadline_ms" v in
        let* deadline_ms =
          match deadline_ms with
          | Some d when d <= 0. -> Error "\"deadline_ms\" must be positive"
          | d -> Ok d
        in
        let* poll_budget = int_field "poll_budget" v in
        let* poll_budget =
          match poll_budget with
          | Some b when b < 1 -> Error "\"poll_budget\" must be >= 1"
          | b -> Ok b
        in
        let* attempt = int_field "attempt" v in
        let* attempt =
          match attempt with
          | None -> Ok 1
          | Some a when a >= 1 -> Ok a
          | Some _ -> Error "\"attempt\" must be >= 1"
        in
        (match synopsis with
        | None -> Error "query needs a \"synopsis\" name"
        | Some synopsis ->
            Ok (P.Query { id; synopsis; ranges; deadline_ms; poll_budget; attempt }))
    | Some "ingest" -> (
        let* id = str_field "id" v in
        let* synopsis = str_field "synopsis" v in
        let* deltas = decode_deltas v in
        match synopsis with
        | None -> Error "ingest needs a \"synopsis\" name"
        | Some synopsis -> Ok (P.Ingest { id; synopsis; deltas }))
    | Some other -> Error (Printf.sprintf "unknown op %S" other)
end

let show_decoded = function
  | Ok r -> "Ok " ^ P.encode_request r
  | Error e -> "Error " ^ e

(* Structural equality, plus equal re-encodings: [=] cannot tell -0
   from 0 in a delta, the encoder can. *)
let check_decode_twin what line =
  let got = P.decode_request line and want = Oracle.decode_request line in
  let same =
    got = want
    &&
    match (got, want) with
    | Ok g, Ok w -> P.encode_request g = P.encode_request w
    | _ -> true
  in
  if not same then
    Alcotest.failf "%s %S:\n  decode_request %s\n  oracle         %s" what line
      (show_decoded got) (show_decoded want);
  Result.is_ok got

(* Random request lines for the decoder twin: fields in any order,
   whitespace around every token, duplicate and unknown keys (some with
   deeply nested values), escaped keys, every number shape the lexer
   treats differently, ill-typed fields and non-object top levels. *)
let random_request_line rng =
  let pick a = a.(Rng.int rng (Array.length a)) in
  let ws () = pick [| ""; ""; ""; " "; "  "; "\t"; "\n"; "\r\n " |] in
  let tok t = ws () ^ t ^ ws () in
  let arr items = tok "[" ^ String.concat (tok ",") items ^ tok "]" in
  let nest d inner = String.make d '[' ^ inner ^ String.make d ']' in
  (* one time in forty, a token from the [bad] pool *)
  let pool good bad = if Rng.int rng 40 = 0 then pick bad else pick good in
  let num () =
    pool
      [|
        "1"; "7"; "0"; "-0"; "-3"; "1e2"; "2.0"; "2.5"; "-1e9"; "1e9"; "1000000000";
        "1000000001"; "999999999999999"; "1000000000000000"; "12345678901234567";
        "0.0001"; "1E1"; "007"; "12.5";
      |]
      [| "-.5"; ".5"; "+1"; "1e"; "1e999"; "--1"; "1-2"; "-" |]
  in
  let int_tok () =
    if Rng.int rng 4 > 0 then string_of_int (Rng.int rng 2000 - 20) else num ()
  in
  let str () =
    pool
      [|
        "\"opta\""; "\"w.x-y_z\""; "\"q\\\"\\\\x\""; "\"\\u0041b\""; "\"t\\tab\""; "\"\"";
        "\"\\u00e9\"";
      |]
      [| "\"\\u0_41\""; "\"\\x\""; "\"raw\001\""; "\"\\u12\""; "\"open" |]
  in
  let rec scalar_or_nested depth =
    match Rng.int rng (if depth > 3 then 5 else 8) with
    | 0 -> num ()
    | 1 -> str ()
    | 2 -> pool [| "true"; "false"; "null" |] [| "nul"; "tru" |]
    | 3 -> int_tok ()
    | 4 -> "{}"
    | 5 -> arr (List.init (Rng.int rng 4) (fun _ -> scalar_or_nested (depth + 1)))
    | 6 ->
        tok "{"
        ^ String.concat (tok ",")
            (List.init (1 + Rng.int rng 3) (fun _ ->
                 tok (str ()) ^ ":" ^ scalar_or_nested (depth + 1)))
        ^ tok "}"
    | _ -> arr []
  in
  (* values at depth 1 (a top-level member): innermost depth 1 + d *)
  let deep () = nest (pick [| 30; 31; 32; 33 |]) (pick [| "1"; ""; "[1,2]" |]) in
  let pairs item =
    let k = Rng.int rng 6 in
    arr
      (List.init k (fun _ ->
           match Rng.int rng 40 with
           | 0 -> arr [ item () ]
           | 1 -> arr [ item (); item (); item () ]
           | 2 -> arr []
           | 3 -> scalar_or_nested 2
           | 4 -> arr [ item (); str () ]
           | _ -> arr [ item (); item () ]))
  in
  let value key =
    let wrong () = scalar_or_nested 1 in
    match key with
    | "op" ->
        if Rng.int rng 16 = 0 then wrong ()
        else
          pick
            [|
              "\"query\""; "\"query\""; "\"query\""; "\"ingest\""; "\"ingest\"";
              "\"query\""; "\"ingest\""; "\"ping\""; "\"metrics\""; "\"reload\"";
              "\"shutdown\""; "\"nope\""; "\"q\\u0075ery\""; "\"Query\"";
            |]
    | "id" | "synopsis" -> if Rng.int rng 8 = 0 then wrong () else str ()
    | "ranges" -> (
        match Rng.int rng 20 with
        | 0 | 1 -> wrong ()
        | 2 -> deep ()
        | _ -> pairs int_tok)
    | "deltas" -> (
        match Rng.int rng 20 with
        | 0 | 1 -> wrong ()
        | 2 -> deep ()
        | _ -> pairs (fun () -> if Rng.bool rng then int_tok () else num ()))
    | "deadline_ms" | "poll_budget" | "attempt" ->
        if Rng.int rng 6 = 0 then wrong ()
        else pick [| num (); int_tok (); "1"; "2"; "3"; "12.5" |]
    | _ -> if Rng.int rng 10 = 0 then deep () else wrong ()
  in
  let known =
    [|
      "op"; "id"; "synopsis"; "ranges"; "deltas"; "deadline_ms"; "poll_budget"; "attempt";
    |]
  in
  let key_text key =
    match (key, Rng.int rng 24) with
    | "op", 0 -> "\"o\\u0070\""
    | "ranges", 0 -> "\"range\\u0073\""
    | "synopsis", 0 -> "\"\\u0073ynopsis\""
    | "op", 1 -> "\"op\\u0080\""
    | _ -> "\"" ^ key ^ "\""
  in
  let members () =
    let keys =
      [ "op"; "synopsis" ]
      @ List.filter (fun _ -> Rng.int rng 3 = 0) (Array.to_list known)
      @ List.filter (fun _ -> Rng.int rng 4 > 0) [ "ranges"; "deltas" ]
      @ List.init (Rng.int rng 3) (fun _ ->
            if Rng.bool rng then pick known else pick [| "x"; "opx"; "Op"; "extra" |])
    in
    let keys = List.filter (fun _ -> Rng.int rng 30 > 0) keys in
    (* shuffle *)
    let a = Array.of_list keys in
    for i = Array.length a - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  match Rng.int rng 40 with
  | 0 -> scalar_or_nested 0
  | 1 -> deep ()
  | 2 -> tok "{" ^ tok "}" ^ pick [| ""; "x"; "{}"; " " |]
  | _ ->
      tok "{"
      ^ String.concat (tok ",")
          (List.map (fun k -> tok (key_text k) ^ ":" ^ value k) (members ()))
      ^ tok "}"
      ^ if Rng.int rng 25 = 0 then pick [| "x"; ","; "}"; "{}" |] else ""

let test_decode_request_twin () =
  (* the line mutants *)
  Array.iteri
    (fun i m -> ignore (check_decode_twin (Printf.sprintf "mutant %d" (i + 1)) m : bool))
    (line_mutants ());
  (* structured random lines *)
  let rng = Rng.create 0xDEC0DE in
  let accepted = ref 0 and lines = 6000 in
  for i = 1 to lines do
    let line = random_request_line rng in
    if check_decode_twin (Printf.sprintf "random line %d" i) line then incr accepted
  done;
  (* both outcomes must be well represented for the twin to mean much *)
  if !accepted < lines / 10 || !accepted > lines * 9 / 10 then
    Alcotest.failf "random lines: %d of %d accepted" !accepted lines;
  (* every prefix of a valid query and a valid ingest line *)
  List.iter
    (fun line ->
      for len = 0 to String.length line do
        ignore (check_decode_twin "prefix" (String.sub line 0 len) : bool)
      done)
    [
      query ~id:"t1" ~synopsis:"opta" ~deadline_ms:12.5 ~poll_budget:3 ~attempt:2
        (List.init 8 (fun i -> (i + 1, (3 * i) + 10)));
      P.encode_request
        (P.Ingest
           {
             id = Some "i\"1";
             synopsis = "stream";
             deltas = [| (1, 2.5); (3, -0.); (7, 1e-3); (9, -4.) |];
           });
    ]

(* Decoding keeps a bounded stack: a line of 100,000 ranges or deltas
   decodes under a 64k-word stack limit (a frame per pair would need
   several times that), equal to the oracle's reading taken on the
   normal stack.  The last three lines break the end of the array, so
   the wrong-shape path re-reads the whole array too. *)
let test_long_lines_decode_on_small_stack () =
  let n = 100_000 in
  let q = query ~synopsis:"opta" (List.init n (fun i -> (i + 1, i + 2))) in
  let lines =
    [
      q;
      P.encode_request
        (P.Ingest
           {
             id = None;
             synopsis = "stream";
             deltas = Array.init n (fun i -> (i, float_of_int i /. 4.));
           });
      (* [... ,[a,b]]}] becomes [... ,[a,b,3]]}], [... ,[a,b],]}] and
         [... [c,d][a,b]]}] *)
      String.sub q 0 (String.length q - 3) ^ ",3]]}";
      String.sub q 0 (String.length q - 2) ^ ",]}";
      (let i = Option.get (String.rindex_opt q ',') in
       let i = Option.get (String.rindex_from_opt q (i - 1) ',') in
       String.sub q 0 i ^ String.sub q (i + 1) (String.length q - i - 1));
    ]
  in
  List.iteri
    (fun i line ->
      let want = Oracle.decode_request line in
      let limit = (Gc.get ()).Gc.stack_limit in
      let got =
        Fun.protect
          ~finally:(fun () -> Gc.set { (Gc.get ()) with Gc.stack_limit = limit })
          (fun () ->
            Gc.set { (Gc.get ()) with Gc.stack_limit = 65_536 };
            match P.decode_request line with
            | r -> Some r
            | exception Stack_overflow -> None)
      in
      match got with
      | None -> Alcotest.failf "long line %d: Stack_overflow" i
      | Some got ->
          if got <> want then
            Alcotest.failf "long line %d: %s, oracle %s" i
              (match got with Ok _ -> "Ok" | Error e -> e)
              (match want with Ok _ -> "Ok" | Error e -> e))
    lines

(* --- The answer cache -------------------------------------------------- *)

let test_cache_eviction_pins () =
  let keys = Cache.keys_oldest_first in
  (* LRU: hits and overwrites refresh recency *)
  let c = Cache.create ~policy:Cache.Lru ~capacity:3 in
  Cache.put c "a" 1;
  Cache.put c "b" 2;
  Cache.put c "c" 3;
  Alcotest.(check (list string)) "insert order" [ "a"; "b"; "c" ] (keys c);
  Alcotest.(check (option int)) "find a" (Some 1) (Cache.find c "a");
  Alcotest.(check (list string)) "lru hit refreshes" [ "b"; "c"; "a" ] (keys c);
  Alcotest.(check bool) "mem" true (Cache.mem c "b");
  Alcotest.(check (list string)) "mem never touches" [ "b"; "c"; "a" ] (keys c);
  Cache.put c "d" 4;
  Alcotest.(check (list string)) "evicts least-recent" [ "c"; "a"; "d" ] (keys c);
  Alcotest.(check bool) "b evicted" true (Cache.find c "b" = None);
  Cache.put c "a" 10;
  Alcotest.(check (list string)) "lru overwrite refreshes" [ "c"; "d"; "a" ] (keys c);
  Alcotest.(check (option int)) "overwrite value" (Some 10) (Cache.find c "a");
  (* FIFO: pure insertion order (the PR 7 Hashtbl+Queue semantics) *)
  let f = Cache.create ~policy:Cache.Fifo ~capacity:3 in
  Cache.put f "a" 1;
  Cache.put f "b" 2;
  Cache.put f "c" 3;
  ignore (Cache.find f "a");
  Cache.put f "d" 4;
  Alcotest.(check (list string)) "fifo ignores hits" [ "b"; "c"; "d" ] (keys f);
  Cache.put f "b" 20;
  Alcotest.(check (list string)) "fifo overwrite keeps its slot" [ "b"; "c"; "d" ] (keys f);
  Alcotest.(check (option int)) "fifo overwrite value" (Some 20) (Cache.find f "b");
  Cache.put f "e" 5;
  Alcotest.(check (list string)) "fifo evicts the original slot" [ "c"; "d"; "e" ] (keys f);
  (* capacity 0 disables; negative capacity is a caller bug *)
  let z = Cache.create ~policy:Cache.Lru ~capacity:0 in
  Cache.put z "a" 1;
  Alcotest.(check int) "capacity 0 holds nothing" 0 (Cache.length z);
  Alcotest.(check bool) "capacity 0 find misses" true (Cache.find z "a" = None);
  match Cache.create ~policy:Cache.Fifo ~capacity:(-1) with
  | exception Invalid_argument _ -> ()
  | (_ : int Cache.t) -> Alcotest.fail "negative capacity accepted"

let test_cache_policy_twins () =
  (* Replay random op sequences against a reference model per policy:
     the FIFO model is exactly the PR 7 semantics, the LRU model the
     textbook recency list. *)
  let rng = Rng.create 0xCAC4E in
  let keyspace = Array.init 12 (Printf.sprintf "k%d") in
  List.iter
    (fun policy ->
      let cap = 4 in
      let c = Cache.create ~policy ~capacity:cap in
      let model = ref [] (* (key, value), oldest first *) in
      let drop k = List.filter (fun (k', _) -> k' <> k) !model in
      let model_find k =
        match List.assoc_opt k !model with
        | None -> None
        | Some v ->
            if policy = Cache.Lru then model := drop k @ [ (k, v) ];
            Some v
      in
      let model_put k v =
        if List.mem_assoc k !model then
          if policy = Cache.Lru then model := drop k @ [ (k, v) ]
          else
            model :=
              List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) !model
        else begin
          if List.length !model >= cap then model := List.tl !model;
          model := !model @ [ (k, v) ]
        end
      in
      let name = match policy with Cache.Lru -> "lru" | Cache.Fifo -> "fifo" in
      for step = 1 to 600 do
        let k = keyspace.(Rng.int rng (Array.length keyspace)) in
        (match Rng.int rng 3 with
        | 0 ->
            model_put k step;
            Cache.put c k step
        | 1 ->
            if model_find k <> Cache.find c k then
              Alcotest.failf "%s step %d: find %s diverged" name step k
        | _ ->
            if List.mem_assoc k !model <> Cache.mem c k then
              Alcotest.failf "%s step %d: mem %s diverged" name step k);
        if List.map fst !model <> Cache.keys_oldest_first c then
          Alcotest.failf "%s step %d: eviction order diverged" name step
      done;
      Alcotest.(check bool)
        (name ^ " reached capacity") true
        (Cache.length c = cap))
    [ Cache.Lru; Cache.Fifo ]

(* --- Generation loading ------------------------------------------------ *)

let test_generation_load () =
  with_tmp_dir @@ fun dir ->
  let (_ : Store.t) = make_store dir in
  let gen = Error.get (Generation.load ~dataset:paper ~gen_id:1 dir) in
  Alcotest.(check int) "three entries" 3 (Generation.size gen);
  Alcotest.(check (list string))
    "sorted names" [ "opta"; "sap1"; "wave" ] (Generation.names gen);
  Alcotest.(check bool) "nothing quarantined" true (gen.Generation.quarantined = []);
  let opta = Option.get (Generation.find gen "opta") in
  Alcotest.(check int) "domain size" n opta.Generation.n;
  Alcotest.(check bool) "opt-a has a prefix vector" true (opta.Generation.prefix <> None);
  Alcotest.(check bool) "rmse bound present" true (opta.Generation.rmse_bound <> None);
  let sap1 = Option.get (Generation.find gen "sap1") in
  Alcotest.(check bool) "sap1 has no prefix vector" true (sap1.Generation.prefix = None);
  (* and the bound really is sqrt(SSE / #ranges) *)
  let expected =
    sqrt (Synopsis.sse paper opta.Generation.syn /. (float_of_int n *. float_of_int (n + 1) /. 2.))
  in
  check_close "rmse bound formula" expected (Option.get opta.Generation.rmse_bound)

let corrupt_entry dir name =
  let path = Filename.concat dir (name ^ ".rs") in
  let ic = open_in_bin path in
  let bytes = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string bytes in
  let mid = Bytes.length b / 2 in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0xFF));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let test_generation_quarantines_corruption () =
  with_tmp_dir @@ fun dir ->
  let (_ : Store.t) = make_store dir in
  corrupt_entry dir "sap1";
  let gen = Error.get (Generation.load ~gen_id:1 dir) in
  Alcotest.(check int) "two healthy entries" 2 (Generation.size gen);
  Alcotest.(check bool)
    "sap1 quarantined" true
    (List.mem_assoc "sap1" gen.Generation.quarantined);
  Alcotest.(check bool) "sap1 absent" true (Generation.find gen "sap1" = None);
  Alcotest.(check bool) "opta still served" true (Generation.find gen "opta" <> None);
  (* without a dataset there is no bound *)
  Alcotest.(check bool)
    "no dataset, no bound" true
    ((Option.get (Generation.find gen "opta")).Generation.rmse_bound = None)

let test_generation_empty_dir () =
  with_tmp_dir @@ fun dir ->
  let gen = Error.get (Generation.load ~gen_id:1 (Filename.concat dir "fresh")) in
  Alcotest.(check int) "empty store serves zero entries" 0 (Generation.size gen)

(* --- The serving ladder ------------------------------------------------ *)

let many_ranges count =
  List.init count (fun i ->
      let a = 1 + (i mod n) in
      let b = min n (a + (i mod 17)) in
      (a, b))

let test_exact_twin () =
  with_tmp_dir @@ fun dir ->
  let (_ : Store.t) = make_store dir in
  with_server ~dataset:paper dir @@ fun server ->
  List.iter
    (fun (name, _, _) ->
      let ranges = [ (1, 1); (1, n); (3, 17); (n / 2, n) ] in
      let a = expect_answers (Server.handle_line server (query ~synopsis:name ranges)) in
      Alcotest.(check int) "generation 1" 1 a.generation;
      Alcotest.(check bool) "exact rung" true (a.rung = P.Exact);
      let entry =
        Option.get (Generation.find (Server.generation server) name)
      in
      let expected =
        Array.of_list
          (List.map (fun (a, b) -> Synopsis.estimate entry.Generation.syn ~a ~b) ranges)
      in
      check_floats (name ^ " twin") expected a.estimates;
      Alcotest.(check bool)
        "rmse bound attached" true
        (a.rmse_bound = entry.Generation.rmse_bound))
    fixture_methods

let test_budget_routing () =
  with_tmp_dir @@ fun dir ->
  let (_ : Store.t) = make_store dir in
  with_server ~dataset:paper dir @@ fun server ->
  let ranges = many_ranges 100 in
  (* 100 ranges = 2 chunks: exact needs budget >= 4 *)
  let a = expect_answers (Server.handle_line server (query ~synopsis:"opta" ~poll_budget:4 ranges)) in
  Alcotest.(check bool) "budget 4 -> exact" true (a.rung = P.Exact);
  let b = expect_answers (Server.handle_line server (query ~synopsis:"opta" ~poll_budget:3 ranges)) in
  Alcotest.(check bool) "budget 3 -> bound" true (b.rung = P.Bound);
  Alcotest.(check bool) "bound carries the rmse bound" true (b.rmse_bound <> None);
  let entry = Option.get (Generation.find (Server.generation server) "opta") in
  let prefix = Option.get entry.Generation.prefix in
  let expected =
    Array.of_list (List.map (fun (a, b) -> prefix.(b) -. prefix.(a - 1)) ranges)
  in
  check_floats "bound = prefix arithmetic" expected b.estimates;
  (* budget 2: one working poll — stale floor; the exact answer above
     primed the cache for this key *)
  let c = expect_answers (Server.handle_line server (query ~synopsis:"opta" ~poll_budget:2 ranges)) in
  Alcotest.(check bool) "budget 2 -> stale" true (c.rung = P.Stale);
  Alcotest.(check bool) "stale has no bound" true (c.rmse_bound = None);
  check_floats "stale replays the exact answer" a.estimates c.estimates;
  Alcotest.(check int) "stale cites the caching generation" a.generation c.generation

let test_bound_answers_never_cached () =
  with_tmp_dir @@ fun dir ->
  let (_ : Store.t) = make_store dir in
  with_server ~dataset:paper dir @@ fun server ->
  let ranges = many_ranges 100 in
  let ask ?poll_budget () =
    Server.handle_line server (query ~synopsis:"opta" ?poll_budget ranges)
  in
  (* cold cache, budget 3: the bound rung answers... *)
  let b = expect_answers (ask ~poll_budget:3 ()) in
  Alcotest.(check bool) "bound on a cold cache" true (b.rung = P.Bound);
  (* ...and must NOT have fed the stale floor *)
  let r = expect_refusal (ask ~poll_budget:2 ()) in
  Alcotest.(check bool)
    "stale floor still cold after a bound answer" true
    (r.refusal = P.Deadline);
  (* prime exact, answer bound again: the stale rung must replay the
     exact bytes — a bound answer never displaces a cached exact one *)
  let a = expect_answers (ask ()) in
  Alcotest.(check bool) "exact" true (a.rung = P.Exact);
  let again = expect_answers (ask ~poll_budget:3 ()) in
  Alcotest.(check bool) "bound again" true (again.rung = P.Bound);
  let s = expect_answers (ask ~poll_budget:2 ()) in
  Alcotest.(check bool) "stale" true (s.rung = P.Stale);
  check_floats "stale replays the exact answer" a.estimates s.estimates

let test_stale_floor_keys () =
  (* The stale floor replays an answer only for the very request that
     cached it: one endpoint moved, one range fewer or another synopsis
     name is a different key, and must find the floor cold. *)
  with_tmp_dir @@ fun dir ->
  let (_ : Store.t) = make_store dir in
  with_server ~dataset:paper dir @@ fun server ->
  let ranges = many_ranges 192 in
  let ask ?poll_budget synopsis ranges =
    Server.handle_line server (query ?poll_budget ~synopsis ranges)
  in
  let expect_cold what line =
    let r = expect_refusal line in
    Alcotest.(check bool) (what ^ ": no cached answer") true (r.refusal = P.Deadline)
  in
  let exact = expect_answers (ask "opta" ranges) in
  Alcotest.(check bool) "exact" true (exact.rung = P.Exact);
  let replay = expect_answers (ask ~poll_budget:2 "opta" ranges) in
  Alcotest.(check bool) "repeat -> stale" true (replay.rung = P.Stale);
  check_floats "stale replays the cached exact answer" exact.estimates replay.estimates;
  let move i f = List.mapi (fun j r -> if j = i then f r else r) ranges in
  List.iter
    (fun (what, moved) -> expect_cold what (ask ~poll_budget:2 "opta" moved))
    [
      ("first a + 1", move 0 (fun (a, b) -> (a + 1, b + 1)));
      ("first b + 1", move 0 (fun (a, b) -> (a, b + 1)));
      ("middle a - 1", move 95 (fun (a, b) -> (a - 1, b)));
      ("last b - 1", move 191 (fun (a, b) -> (a, b - 1)));
      ("one range fewer", List.filteri (fun j _ -> j < 191) ranges);
    ];
  List.iter
    (fun name ->
      expect_cold ("synopsis " ^ name) (ask ~poll_budget:2 name ranges);
      let own = expect_answers (ask name ranges) in
      let again = expect_answers (ask ~poll_budget:2 name ranges) in
      Alcotest.(check bool) (name ^ ": repeat -> stale") true (again.rung = P.Stale);
      check_floats (name ^ ": replays its own answer") own.estimates again.estimates)
    [ "sap1"; "wave" ];
  let last = expect_answers (ask ~poll_budget:2 "opta" ranges) in
  check_floats "opta still replays its own answer" exact.estimates last.estimates

let test_budget_refusal_renders_polls () =
  with_tmp_dir @@ fun dir ->
  let (_ : Store.t) = make_store dir in
  with_server dir @@ fun server ->
  (* cold cache + budget 1: admission itself expires *)
  let r = expect_refusal (Server.handle_line server (query ~synopsis:"opta" ~poll_budget:1 [ (1, 5) ])) in
  Alcotest.(check bool) "deadline refusal" true (r.refusal = P.Deadline);
  Alcotest.(check bool) "message counts polls" true (contains r.message "poll");
  Alcotest.(check bool)
    "message does not render polls as seconds" false
    (contains r.message "s elapsed")

let test_no_prefix_falls_to_floor () =
  with_tmp_dir @@ fun dir ->
  let (_ : Store.t) = make_store dir in
  with_server dir @@ fun server ->
  let ranges = many_ranges 100 in
  (* sap1 has no prefix vector: budget 3 cannot finish exact (needs 4),
     there is no bound rung, the cache is cold -> typed refusal *)
  let r = expect_refusal (Server.handle_line server (query ~synopsis:"sap1" ~poll_budget:3 ranges)) in
  Alcotest.(check bool) "deadline refusal" true (r.refusal = P.Deadline);
  Alcotest.(check bool) "poll units" true (contains r.message "poll");
  (* prime with an unbudgeted query, then the same budget goes stale *)
  let a = expect_answers (Server.handle_line server (query ~synopsis:"sap1" ranges)) in
  let s = expect_answers (Server.handle_line server (query ~synopsis:"sap1" ~poll_budget:3 ranges)) in
  Alcotest.(check bool) "stale after priming" true (s.rung = P.Stale);
  check_floats "stale replay" a.estimates s.estimates

let test_wall_clock_deadline () =
  with_tmp_dir @@ fun dir ->
  let (_ : Store.t) = make_store dir in
  with_server dir @@ fun server ->
  (* a deadline that has certainly passed by the first poll *)
  let r =
    expect_refusal
      (Server.handle_line server (query ~synopsis:"opta" ~deadline_ms:1e-6 [ (1, 5) ]))
  in
  Alcotest.(check bool) "deadline refusal" true (r.refusal = P.Deadline);
  Alcotest.(check bool) "seconds units" true (contains r.message "elapsed")

let test_unknown_and_bad_ranges () =
  with_tmp_dir @@ fun dir ->
  let (_ : Store.t) = make_store dir in
  with_server dir @@ fun server ->
  let r = expect_refusal (Server.handle_line server (query ~synopsis:"nope" [ (1, 2) ])) in
  Alcotest.(check bool) "unknown synopsis" true (r.refusal = P.Unknown_synopsis);
  List.iter
    (fun range ->
      let r = expect_refusal (Server.handle_line server (query ~synopsis:"opta" [ range ])) in
      Alcotest.(check bool) "bad range refused" true (r.refusal = P.Bad_request))
    [ (0, 5); (5, 3); (1, n + 1) ];
  let r = expect_refusal (Server.handle_line server "garbage") in
  Alcotest.(check bool) "malformed line refused" true (r.refusal = P.Bad_request)

(* --- Queue shedding ---------------------------------------------------- *)

let test_queue_shedding () =
  with_tmp_dir @@ fun dir ->
  let (_ : Store.t) = make_store dir in
  with_server ~queue:2 dir @@ fun server ->
  let send i attempt =
    Server.push server ~cookie:i
      (query ~id:(Printf.sprintf "q%d" i) ~attempt ~synopsis:"opta" [ (1, i + 1) ])
  in
  (match send 1 1 with `Queued -> () | `Reply r -> Alcotest.failf "q1 not queued: %s" r);
  (match send 2 1 with `Queued -> () | `Reply r -> Alcotest.failf "q2 not queued: %s" r);
  Alcotest.(check int) "two pending" 2 (Server.pending server);
  (* the queue is full: these are shed with deterministic retry hints *)
  List.iter
    (fun (i, attempt) ->
      match send i attempt with
      | `Queued -> Alcotest.failf "q%d should have been shed" i
      | `Reply r ->
          let refusal = expect_refusal r in
          Alcotest.(check bool) "overloaded" true (refusal.refusal = P.Overloaded);
          let expected = 1000. *. Backoff.delay Backoff.default ~seg:0 ~attempt in
          Alcotest.(check (float 0.)) "retry hint is the backoff delay" expected
            (Option.get refusal.retry_after_ms))
    [ (3, 1); (4, 2); (5, 7) ];
  (* the queued two still answer, in order, to the right cookies *)
  (match Server.step server with
  | Some (1, line) -> ignore (expect_answers line)
  | _ -> Alcotest.fail "q1 should answer first");
  (match Server.step server with
  | Some (2, line) -> ignore (expect_answers line)
  | _ -> Alcotest.fail "q2 should answer second");
  Alcotest.(check bool) "queue drained" true (Server.step server = None)

(* --- Shutdown ---------------------------------------------------------- *)

let test_shutdown_drains () =
  with_tmp_dir @@ fun dir ->
  let (_ : Store.t) = make_store dir in
  with_server dir @@ fun server ->
  (match Server.push server ~cookie:1 (query ~id:"q1" ~synopsis:"opta" [ (1, 5) ]) with
  | `Queued -> ()
  | `Reply r -> Alcotest.failf "query not queued: %s" r);
  (match Server.push server ~cookie:0 (P.encode_request P.Shutdown) with
  | `Reply r -> (
      match decode r with
      | P.Shutdown_ack -> ()
      | _ -> Alcotest.failf "no ack: %s" r)
  | `Queued -> Alcotest.fail "shutdown was queued");
  Alcotest.(check bool) "draining" true (Server.draining server);
  (* new queries are refused, the queued one still answers *)
  (match Server.push server ~cookie:2 (query ~synopsis:"opta" [ (1, 2) ]) with
  | `Reply r ->
      Alcotest.(check bool)
        "refused shutting-down" true
        ((expect_refusal r).refusal = P.Shutting_down)
  | `Queued -> Alcotest.fail "post-shutdown query queued");
  (match Server.step server with
  | Some (1, line) -> ignore (expect_answers line)
  | _ -> Alcotest.fail "queued query lost in shutdown");
  Alcotest.(check int) "drained" 0 (Server.pending server)

(* --- Hot reload -------------------------------------------------------- *)

let test_reload_picks_up_new_entries () =
  with_tmp_dir @@ fun dir ->
  let store = make_store dir in
  with_server ~dataset:paper dir @@ fun server ->
  let r = expect_refusal (Server.handle_line server (query ~synopsis:"extra" [ (1, 2) ])) in
  Alcotest.(check bool) "unknown before reload" true (r.refusal = P.Unknown_synopsis);
  Store.put store ~name:"extra" (Builder.build paper ~method_name:"a0" ~budget_words:12);
  (match decode (Server.handle_line server (P.encode_request P.Reload)) with
  | P.Reloaded { generation; entries; quarantined } ->
      Alcotest.(check int) "generation bumps" 2 generation;
      Alcotest.(check int) "four entries" 4 entries;
      Alcotest.(check int) "none quarantined" 0 quarantined
  | _ -> Alcotest.fail "reload failed");
  let a = expect_answers (Server.handle_line server (query ~synopsis:"extra" [ (1, 2) ])) in
  Alcotest.(check int) "answers cite the new generation" 2 a.generation

let test_reload_quarantines_and_keeps_serving () =
  with_tmp_dir @@ fun dir ->
  let (_ : Store.t) = make_store dir in
  with_server dir @@ fun server ->
  let before = expect_answers (Server.handle_line server (query ~synopsis:"opta" [ (1, n) ])) in
  corrupt_entry dir "sap1";
  (match decode (Server.handle_line server (P.encode_request P.Reload)) with
  | P.Reloaded { generation; entries; quarantined } ->
      Alcotest.(check int) "generation bumps" 2 generation;
      Alcotest.(check int) "two healthy entries" 2 entries;
      Alcotest.(check int) "one quarantined" 1 quarantined
  | _ -> Alcotest.fail "reload should succeed past corruption");
  let r = expect_refusal (Server.handle_line server (query ~synopsis:"sap1" [ (1, 2) ])) in
  Alcotest.(check bool)
    "corrupt entry refused, typed" true
    (r.refusal = P.Unknown_synopsis);
  let after = expect_answers (Server.handle_line server (query ~synopsis:"opta" [ (1, n) ])) in
  check_floats "healthy entry identical across reload" before.estimates after.estimates

let test_reload_failure_keeps_old_generation () =
  with_tmp_dir @@ fun dir ->
  let (_ : Store.t) = make_store dir in
  with_server dir @@ fun server ->
  Faults.arm ~count:1 "serve.reload";
  let r = expect_refusal (Server.handle_line server (P.encode_request P.Reload)) in
  Alcotest.(check bool) "typed injected refusal" true (r.refusal = P.Injected);
  Alcotest.(check int)
    "generation unchanged" 1 (Server.generation server).Generation.gen_id;
  let a = expect_answers (Server.handle_line server (query ~synopsis:"opta" [ (1, 5) ])) in
  Alcotest.(check int) "old generation keeps serving" 1 a.generation

(* --- Reload reuse: only byte-equal entries carry over ----------------- *)

let reload_counts server =
  match decode (Server.handle_line server (P.encode_request P.Reload)) with
  | P.Reloaded { entries; quarantined; _ } ->
      let g = Server.generation server in
      (entries, quarantined, g.Generation.reused, g.Generation.decoded)
  | _ -> Alcotest.fail "reload failed"

let read_entry dir name =
  let ic = open_in_bin (Filename.concat dir (name ^ ".rs")) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_entry dir name bytes =
  let oc = open_out_bin (Filename.concat dir (name ^ ".rs")) in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc bytes)

let test_reload_reuses_untouched_entries () =
  with_tmp_dir @@ fun dir ->
  let (_ : Store.t) = make_store dir in
  with_server ~dataset:paper dir @@ fun server ->
  let g1 = Server.generation server in
  Alcotest.(check (pair int int)) "cold start decodes all" (0, 3)
    (g1.Generation.reused, g1.Generation.decoded);
  Generation.mark_staleness g1 ~name:"opta" ~dirty:5. ~stale:true;
  let before = expect_answers (Server.handle_line server (query ~synopsis:"wave" (many_ranges 70))) in
  Alcotest.(check (pair int int)) "unchanged store: all reused" (3, 0)
    (let _, _, r, d = reload_counts server in (r, d));
  let g2 = Server.generation server in
  List.iter
    (fun name ->
      let e1 = Option.get (Generation.find g1 name)
      and e2 = Option.get (Generation.find g2 name) in
      Alcotest.(check bool) (name ^ ": plan physically reused") true
        (e1.Generation.plan == e2.Generation.plan);
      Alcotest.(check bool) (name ^ ": synopsis physically reused") true
        (e1.Generation.syn == e2.Generation.syn);
      Alcotest.(check bool) (name ^ ": bound reused") true
        (e1.Generation.rmse_bound == e2.Generation.rmse_bound);
      Alcotest.(check bool) (name ^ ": a fresh entry record") true (e1 != e2))
    [ "opta"; "sap1"; "wave" ];
  let opta2 = Option.get (Generation.find g2 "opta") in
  Alcotest.(check bool) "staleness is per generation" false opta2.Generation.stale;
  Alcotest.(check bool) "old generation keeps its own staleness" true
    (Option.get (Generation.find g1 "opta")).Generation.stale;
  let after = expect_answers (Server.handle_line server (query ~synopsis:"wave" (many_ranges 70))) in
  check_floats "reused entry answers identically" before.estimates after.estimates;
  Alcotest.(check int) "answers cite the new generation" 2 after.generation;
  (* a different dataset never reuses an entry: its bound measures
     other data *)
  let g3 = Error.get (Generation.load ~previous:g2 ~gen_id:3 dir) in
  Alcotest.(check (pair int int)) "no dataset: nothing reused" (0, 3)
    (g3.Generation.reused, g3.Generation.decoded);
  Alcotest.(check bool) "no dataset, no bound" true
    ((Option.get (Generation.find g3 "opta")).Generation.rmse_bound = None)

let test_reload_never_reuses_flipped_bytes () =
  with_tmp_dir @@ fun dir ->
  let (_ : Store.t) = make_store dir in
  List.iter
    (fun name ->
      let pristine = read_entry dir name in
      List.iter
        (fun pos ->
          write_entry dir name pristine;
          with_server ~dataset:paper dir @@ fun server ->
          ignore (expect_answers (Server.handle_line server (query ~synopsis:name [ (1, n) ])));
          let b = Bytes.of_string pristine in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x01));
          write_entry dir name (Bytes.to_string b);
          let entries, quarantined, reused, decoded = reload_counts server in
          let what = Printf.sprintf "%s byte %d" name pos in
          Alcotest.(check int) (what ^ ": quarantined") 1 quarantined;
          Alcotest.(check (triple int int int)) (what ^ ": others reused")
            (2, 2, 0) (entries, reused, decoded);
          let r = expect_refusal (Server.handle_line server (query ~synopsis:name [ (1, n) ])) in
          Alcotest.(check bool) (what ^ ": never served") true
            (r.refusal = P.Unknown_synopsis);
          (* quarantine moved the file aside: put the pristine one back *)
          write_entry dir name pristine)
        [ 0; String.length pristine / 2; String.length pristine - 2 ])
    [ "opta"; "sap1"; "wave" ]

let test_reload_decodes_same_length_rewrite () =
  with_tmp_dir @@ fun dir ->
  let store = make_store dir in
  let wave coeffs =
    Synopsis.Wavelet
      (Rs_wavelet.Synopsis.of_coefficients ~name:"w" ~n Rs_wavelet.Synopsis.Prefix_sums
         coeffs)
  in
  let first = wave [| (1, 1.5); (3, -0.5); (9, 0.75) |]
  and second = wave [| (1, 2.5); (3, -0.5); (9, 0.75) |] in
  Store.put store ~name:"wave" first;
  let bytes1 = read_entry dir "wave" in
  with_server ~dataset:paper dir @@ fun server ->
  let ranges = many_ranges 70 in
  let expected syn = Array.of_list (List.map (fun (a, b) -> Synopsis.estimate syn ~a ~b) ranges) in
  check_floats "first synopsis served" (expected first)
    (expect_answers (Server.handle_line server (query ~synopsis:"wave" ranges))).estimates;
  Store.put store ~name:"wave" second;
  let bytes2 = read_entry dir "wave" in
  Alcotest.(check int) "same byte length" (String.length bytes1) (String.length bytes2);
  Alcotest.(check bool) "different bytes" false (String.equal bytes1 bytes2);
  let entries, quarantined, reused, decoded = reload_counts server in
  Alcotest.(check (list int)) "rewrite decoded, the rest reused" [ 3; 0; 2; 1 ]
    [ entries; quarantined; reused; decoded ];
  let a = expect_answers (Server.handle_line server (query ~synopsis:"wave" ranges)) in
  check_floats "the new synopsis answers" (expected second) a.estimates;
  Alcotest.(check int) "from the new generation" 2 a.generation

(* A CRC-valid entry whose values are not finite is corrupt: the reload
   quarantines it and keeps serving the rest. *)
let test_reload_quarantines_non_finite_entry () =
  with_tmp_dir @@ fun dir ->
  let (_ : Store.t) = make_store dir in
  with_server ~dataset:paper dir @@ fun server ->
  let before = expect_answers (Server.handle_line server (query ~synopsis:"opta" [ (1, n) ])) in
  let lines = String.split_on_char '\n' (read_entry dir "wave") in
  let lines =
    List.map
      (fun l ->
        match String.split_on_char ' ' l with
        | "coeffs" :: first :: rest ->
            let i = String.index first ':' in
            String.concat " " ("coeffs" :: (String.sub first 0 (i + 1) ^ "nan") :: rest)
        | _ -> l)
      lines
  in
  let body = String.concat "\n" (List.filteri (fun i _ -> i >= 2) lines) in
  write_entry dir "wave"
    (Printf.sprintf "range-synopsis 2\ncrc %s\n%s" (Rs_util.Crc32.digest body) body);
  let entries, quarantined, reused, decoded = reload_counts server in
  Alcotest.(check (list int)) "nan entry quarantined, others reused" [ 2; 1; 2; 0 ]
    [ entries; quarantined; reused; decoded ];
  Alcotest.(check bool) "reason names the value" true
    (List.exists
       (fun (name, reason) -> name = "wave" && contains reason "non-finite")
       (Server.generation server).Generation.quarantined);
  let r = expect_refusal (Server.handle_line server (query ~synopsis:"wave" [ (1, 2) ])) in
  Alcotest.(check bool) "never served" true (r.refusal = P.Unknown_synopsis);
  let after = expect_answers (Server.handle_line server (query ~synopsis:"opta" [ (1, n) ])) in
  check_floats "others keep serving" before.estimates after.estimates

(* The counters reach the metrics op, once per load, and the reloaded
   line on rs.serve names them. *)
let test_reload_observability () =
  with_tmp_dir @@ fun dir ->
  let (_ : Store.t) = make_store dir in
  let logged = Buffer.create 256 in
  let reporter =
    {
      Logs.report =
        (fun src _level ~over k msgf ->
          msgf (fun ?header:_ ?tags:_ fmt ->
              Format.kasprintf
                (fun line ->
                  if Logs.Src.name src = "rs.serve" then
                    Buffer.add_string logged (line ^ "\n");
                  over ();
                  k ())
                fmt));
    }
  in
  let old_reporter = Logs.reporter () and old_level = Logs.Src.level Server.log_src in
  Logs.set_reporter reporter;
  Logs.Src.set_level Server.log_src (Some Logs.Info);
  Fun.protect
    ~finally:(fun () ->
      Logs.set_reporter old_reporter;
      Logs.Src.set_level Server.log_src old_level)
  @@ fun () ->
  Rs_util.Metrics.with_enabled @@ fun () ->
  Rs_util.Metrics.reset ();
  with_server dir @@ fun server ->
  ignore (reload_counts server);
  for _ = 1 to 50 do
    ignore (expect_answers (Server.handle_line server (query ~synopsis:"opta" [ (1, 5) ])))
  done;
  let counter name =
    Option.value ~default:0
      (List.assoc_opt name (Rs_util.Metrics.report ()).Rs_util.Metrics.r_counters)
  in
  (* cold start decodes 3, the reload reuses 3; lookups add nothing *)
  Alcotest.(check int) "decoded" 3 (counter "generation.entries_decoded");
  Alcotest.(check int) "reused" 3 (counter "generation.entries_reused");
  (* the report is spliced into the reply as rs-metrics-v1 bytes *)
  let line = Server.handle_line server (P.encode_request P.Metrics) in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " in the metrics op") true (contains line key))
    [ "\"generation.entries_reused\": 3"; "\"generation.entries_decoded\": 3" ];
  Alcotest.(check bool) "reloaded line counts reuse" true
    (contains (Buffer.contents logged) "3 entries (3 reused, 0 decoded)")

let test_metrics_response_single_line () =
  with_tmp_dir @@ fun dir ->
  let (_ : Store.t) = make_store dir in
  with_server dir @@ fun server ->
  (* warm the counters, then fetch the live report *)
  ignore (expect_answers (Server.handle_line server (query ~synopsis:"opta" [ (1, 5) ])));
  let line = Server.handle_line server (P.encode_request P.Metrics) in
  (* the spliced rs-metrics-v1 report must not tear the line framing
     (Metrics.to_json ends with a newline: it is also a file format) *)
  Alcotest.(check bool) "response is a single line" false (String.contains line '\n');
  match decode line with
  | P.Metrics_report report ->
      Alcotest.(check bool)
        "report is a JSON object" true
        (String.length report > 0 && report.[0] = '{' && report.[String.length report - 1] = '}')
  | _ -> Alcotest.fail "expected a metrics report"

(* --- Fault seams ------------------------------------------------------- *)

let test_seams_refuse_typed () =
  with_tmp_dir @@ fun dir ->
  let (_ : Store.t) = make_store dir in
  with_server dir @@ fun server ->
  List.iter
    (fun seam ->
      Faults.arm ~count:1 seam;
      let r = expect_refusal (Server.handle_line server (query ~synopsis:"opta" [ (1, 5) ])) in
      Alcotest.(check bool) (seam ^ " injects typed refusal") true (r.refusal = P.Injected);
      (* one-shot: the next request is healthy *)
      let a = expect_answers (Server.handle_line server (query ~synopsis:"opta" [ (1, 5) ])) in
      Alcotest.(check bool) (seam ^ " disarms") true (a.rung = P.Exact))
    [ "serve.decode"; "serve.admit"; "serve.evaluate" ]

(* --- Parallel evaluation ----------------------------------------------- *)

let test_jobs_parity () =
  with_tmp_dir @@ fun dir ->
  let (_ : Store.t) = make_store dir in
  let lines =
    List.map
      (fun (name, _, _) -> query ~synopsis:name (many_ranges 150))
      fixture_methods
  in
  let seq = Chaos.probe (config ~jobs:1 ~dataset:paper dir) ~lines in
  let par = Chaos.probe (config ~jobs:3 ~dataset:paper dir) ~lines in
  List.iter2 (Alcotest.(check string) "jobs=1 vs jobs=3 bit-identical") seq par

(* --- Restart determinism ----------------------------------------------- *)

let probe_lines =
  [
    query ~id:"p1" ~synopsis:"opta" [ (1, 5); (3, 100); (100, 127) ];
    query ~id:"p2" ~synopsis:"sap1" [ (1, 127) ];
    query ~id:"p3" ~synopsis:"wave" [ (2, 64); (1, 1) ];
    query ~id:"p4" ~synopsis:"opta" ~poll_budget:3 (many_ranges 100);
  ]

let test_restart_identical_answers () =
  with_tmp_dir @@ fun dir ->
  let (_ : Store.t) = make_store dir in
  let first = Chaos.probe (config ~dataset:paper dir) ~lines:probe_lines in
  (* the first server is simply abandoned — no orderly shutdown — and a
     new one opens the same store *)
  let second = Chaos.probe (config ~dataset:paper dir) ~lines:probe_lines in
  List.iter2 (Alcotest.(check string) "restart serves identical bytes") first second

let test_batch_twin_identical_bytes () =
  (* The vectorized batch kernel, the per-range estimator loop, and
     both cache policies are contractually byte-identical on the wire. *)
  with_tmp_dir @@ fun dir ->
  let (_ : Store.t) = make_store dir in
  let lines =
    probe_lines
    @ [
        query ~id:"p5" ~synopsis:"wave" (many_ranges 80);
        query ~id:"p6" ~synopsis:"opta" (many_ranges 1);
        query ~id:"p7" ~synopsis:"sap1" ~poll_budget:5 (many_ranges 130);
      ]
  in
  let base = Chaos.probe (config ~dataset:paper dir) ~lines in
  let twin =
    Chaos.probe
      { (config ~dataset:paper dir) with Server.batch_eval = false }
      ~lines
  in
  List.iter2 (Alcotest.(check string) "batch on/off byte-identical") base twin;
  let fifo =
    Chaos.probe
      { (config ~dataset:paper dir) with Server.cache_policy = Cache.Fifo }
      ~lines
  in
  List.iter2 (Alcotest.(check string) "lru/fifo byte-identical") base fifo

let cookied_lines =
  (* three requests per connection over four connections, round-robin
     interleaved — the arrival order a daemon under concurrent clients
     produces *)
  List.concat_map
    (fun i ->
      List.init 4 (fun c ->
          let name, _, _ = List.nth fixture_methods (i mod 3) in
          ( c,
            query
              ~id:(Printf.sprintf "c%d-%d" c i)
              ~synopsis:name
              (many_ranges (5 + (7 * c) + i)) )))
    [ 0; 1; 2 ]

let test_interleaved_restart_determinism () =
  with_tmp_dir @@ fun dir ->
  let (_ : Store.t) = make_store dir in
  let run cfg = Chaos.probe_cookied cfg ~lines:cookied_lines in
  let first = run (config ~dataset:paper dir) in
  let second = run (config ~dataset:paper dir) in
  Alcotest.(check int)
    "every request answered" (List.length cookied_lines) (List.length first);
  List.iter2
    (fun (c1, l1) (c2, l2) ->
      Alcotest.(check int) "cookie order stable across restart" c1 c2;
      Alcotest.(check string) "interleaved restart serves identical bytes" l1 l2)
    first second;
  (* every response landed on the connection that asked *)
  List.iter
    (fun (c, l) ->
      match decode l with
      | P.Answers { id = Some id; _ } ->
          Alcotest.(check string)
            "id prefix matches the asking cookie"
            (Printf.sprintf "c%d-" c) (String.sub id 0 3)
      | _ -> Alcotest.failf "expected an answer on cookie %d, got %S" c l)
    first;
  (* the twin knobs change nothing on the wire, whatever the interleaving *)
  List.iter
    (fun (what, cfg) ->
      let other = run cfg in
      List.iter2
        (fun (c1, l1) (c2, l2) ->
          Alcotest.(check int) (what ^ " twin cookie order") c1 c2;
          Alcotest.(check string) (what ^ " twin bytes identical") l1 l2)
        first other)
    [
      ("batch-off", { (config ~dataset:paper dir) with Server.batch_eval = false });
      ("fifo", { (config ~dataset:paper dir) with Server.cache_policy = Cache.Fifo });
      ("jobs=3", config ~jobs:3 ~dataset:paper dir);
    ]

(* --- Request-cadence observability and the allocation gate ------------- *)

let test_request_observability () =
  with_tmp_dir @@ fun dir ->
  let (_ : Store.t) = make_store dir in
  with_server ~dataset:paper dir @@ fun server ->
  Rs_util.Metrics.with_enabled @@ fun () ->
  Rs_util.Metrics.reset ();
  (* one request per rung: exact primes the cache, bound degrades on a
     poll budget, and a 2-poll budget replays the cached exact answer *)
  ignore
    (expect_answers (Server.handle_line server (query ~synopsis:"opta" (many_ranges 70))));
  ignore
    (expect_answers
       (Server.handle_line server (query ~synopsis:"opta" ~poll_budget:3 (many_ranges 100))));
  ignore
    (expect_answers
       (Server.handle_line server (query ~synopsis:"opta" ~poll_budget:2 (many_ranges 70))));
  let rep = Rs_util.Metrics.report () in
  let open Rs_util.Metrics in
  let hist name =
    match List.assoc_opt name rep.r_histograms with
    | Some h -> h
    | None -> Alcotest.failf "histogram %S missing from the report" name
  in
  let exact = hist "serve.eval_ns.exact" in
  Alcotest.(check int) "one exact latency sample" 1 exact.h_count;
  Alcotest.(check bool) "exact latency positive (ns)" true (exact.h_sum > 0.);
  let bound = hist "serve.eval_ns.bound" in
  Alcotest.(check int) "one bound latency sample" 1 bound.h_count;
  let stale = hist "serve.eval_ns.stale" in
  Alcotest.(check int) "one stale latency sample" 1 stale.h_count;
  let alloc = hist "serve.request_alloc" in
  Alcotest.(check int) "one allocation sample per served query" 3 alloc.h_count;
  Alcotest.(check bool) "allocation histogram counts words" true (alloc.h_sum > 0.);
  (* the names are pinned into the rs-metrics-v1 report *)
  let json = to_json () in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " in rs-metrics-v1") true (contains json name))
    [
      "serve.eval_ns.exact"; "serve.eval_ns.bound"; "serve.eval_ns.stale";
      "serve.request_alloc";
    ]

let test_exact_request_allocation_gate () =
  (* The tentpole's allocation contract: a steady-state exact request —
     decode, admission, batch evaluation, encode — allocates O(k) minor
     words.  Never hardware-waived. *)
  with_tmp_dir @@ fun dir ->
  let (_ : Store.t) = make_store dir in
  with_server dir @@ fun server ->
  let k = 192 in
  let line = query ~synopsis:"opta" (many_ranges k) in
  (* prove the fixture answers exact before gating it *)
  (match decode (Server.handle_line server line) with
  | P.Answers { rung = P.Exact; _ } -> ()
  | _ -> Alcotest.fail "fixture request did not answer exact");
  let run () = ignore (Server.handle_line server line : string) in
  run ();
  run ();
  let before = Gc.minor_words () in
  run ();
  let delta = Gc.minor_words () -. before in
  let budget = 20_000. +. (200. *. float_of_int k) in
  if delta > budget then
    Alcotest.failf
      "steady-state exact request allocated %.0f minor words (O(k) budget %.0f, k = %d)"
      delta budget k

let test_exact_encode_allocates_nothing () =
  (* The encode layer alone: once the buffer has grown, writing a
     served exact 192-estimate reply allocates no minor words. *)
  with_tmp_dir @@ fun dir ->
  let (_ : Store.t) = make_store dir in
  with_server dir @@ fun server ->
  let reply =
    decode (Server.handle_line server (query ~synopsis:"opta" (many_ranges 192)))
  in
  (match reply with
  | P.Answers { rung = P.Exact; estimates; _ } ->
      Alcotest.(check int) "192 estimates" 192 (Array.length estimates)
  | _ -> Alcotest.fail "fixture request did not answer exact");
  let buf = Buffer.create 16 in
  let run () =
    Buffer.clear buf;
    P.encode_response_into buf reply
  in
  run ();
  run ();
  let before = Gc.minor_words () in
  run ();
  let delta = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words per warmed encode" 0. delta;
  Alcotest.(check string) "bytes unchanged" (P.encode_response reply) (Buffer.contents buf)

let test_decode_allocation_pin () =
  (* The decode layer alone: a warmed k = 192 query allocates its
     result (the ranges array and pairs, 4k + 1 words, and the synopsis
     string) and next to nothing else — no tree, no lists, no boxed
     numbers. *)
  let k = 192 in
  let line = query ~synopsis:"opta" (many_ranges k) in
  let run () =
    match P.decode_request line with
    | Ok (P.Query { ranges; _ }) -> Alcotest.(check int) "ranges" k (Array.length ranges)
    | _ -> Alcotest.fail "fixture query did not decode"
  in
  run ();
  run ();
  let before = Gc.minor_words () in
  let decoded = P.decode_request line in
  let delta = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity decoded);
  let budget = float_of_int ((5 * k) + 256) in
  if delta > budget then
    Alcotest.failf "warmed decode allocated %.0f minor words (budget %.0f, k = %d)" delta
      budget k

(* --- The daemon over a real socket, kill -9 included ------------------- *)

let served_exe =
  match Sys.getenv_opt "RS_SERVED" with
  | Some p -> p
  | None -> Filename.concat (Filename.dirname (Sys.getcwd ())) "bin/rs_served.exe"

let rec connect_retry path tries =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect sock (Unix.ADDR_UNIX path) with
  | () -> sock
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when tries > 0 ->
      Unix.close sock;
      Unix.sleepf 0.05;
      connect_retry path (tries - 1)

let read_lines sock wanted =
  let buf = Bytes.create 65536 in
  let acc = Buffer.create 256 in
  let count_newlines s = String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s in
  let deadline = Unix.gettimeofday () +. 10. in
  while
    count_newlines (Buffer.contents acc) < wanted
    && Unix.gettimeofday () < deadline
  do
    (* wait no longer than the deadline: a daemon that never answers
       fails the test instead of hanging it *)
    match Unix.select [ sock ] [] [] (Float.max 0. (deadline -. Unix.gettimeofday ())) with
    | [], _, _ -> ()
    | _ -> (
        match Unix.read sock buf 0 (Bytes.length buf) with
        | 0 -> Alcotest.fail "daemon closed the connection early"
        | k -> Buffer.add_subbytes acc buf 0 k)
  done;
  String.split_on_char '\n' (Buffer.contents acc)
  |> List.filter (fun s -> s <> "")

let send_and_read sock lines =
  let out = Buffer.create 256 in
  List.iter (fun l -> Buffer.add_string out (l ^ "\n")) lines;
  let payload = Buffer.contents out in
  let _ = Unix.write_substring sock payload 0 (String.length payload) in
  read_lines sock (List.length lines)

let spawn_daemon dir socket =
  Unix.create_process served_exe
    [| served_exe; "--store"; dir; "--data"; "paper"; "--socket"; socket |]
    Unix.stdin Unix.stdout Unix.stderr

let test_daemon_socket_kill_and_restart () =
  if not (Sys.file_exists served_exe) then
    Alcotest.skip ()
  else
    with_tmp_dir @@ fun dir ->
    let (_ : Store.t) = make_store dir in
    let socket = Filename.concat dir "serve.sock" in
    let pid = spawn_daemon dir socket in
    let answers1 =
      Fun.protect
        ~finally:(fun () -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
        (fun () ->
          let sock = connect_retry socket 100 in
          Fun.protect
            ~finally:(fun () -> Unix.close sock)
            (fun () -> send_and_read sock probe_lines))
    in
    (* kill -9: no shutdown handshake, no cleanup *)
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    (* restart against the same store: answers must be byte-identical *)
    let pid2 = spawn_daemon dir socket in
    let answers2 =
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid2 Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid2) with Unix.Unix_error _ -> ())
        (fun () ->
          let sock = connect_retry socket 100 in
          Fun.protect
            ~finally:(fun () -> Unix.close sock)
            (fun () ->
              let a = send_and_read sock probe_lines in
              let ack = send_and_read sock [ P.encode_request P.Shutdown ] in
              Alcotest.(check (list string))
                "clean shutdown ack" [ "{\"ok\":true,\"op\":\"shutdown\"}" ] ack;
              a))
    in
    Alcotest.(check int) "one answer per probe" (List.length probe_lines) (List.length answers1);
    List.iter2
      (Alcotest.(check string) "killed daemon restarts with identical answers")
      answers1 answers2

let test_daemon_multiclient () =
  if not (Sys.file_exists served_exe) then Alcotest.skip ()
  else
    with_tmp_dir @@ fun dir ->
    let (_ : Store.t) = make_store dir in
    let socket = Filename.concat dir "serve.sock" in
    let pid = spawn_daemon dir socket in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    @@ fun () ->
    let socks = Array.init 3 (fun _ -> connect_retry socket 100) in
    Fun.protect
      ~finally:(fun () ->
        Array.iter
          (fun s -> try Unix.close s with Unix.Unix_error _ -> ())
          socks)
    @@ fun () ->
    let per_client = 4 in
    let line c i =
      query
        ~id:(Printf.sprintf "c%d-%d" c i)
        ~synopsis:"opta"
        [ (1 + c + i, min n (30 + (5 * i) + c)) ]
    in
    (* round-robin interleave: request i of every client goes out
       before request i+1 of any *)
    for i = 0 to per_client - 1 do
      Array.iteri
        (fun c sock ->
          let l = line c i ^ "\n" in
          let (_ : int) = Unix.write_substring sock l 0 (String.length l) in
          ())
        socks
    done;
    (* each client reads exactly its own answers, in its own send
       order — never a response to another connection's query *)
    Array.iteri
      (fun c sock ->
        let replies = read_lines sock per_client in
        Alcotest.(check int)
          (Printf.sprintf "client %d: one response per request" c)
          per_client (List.length replies);
        List.iteri
          (fun i reply ->
            match decode reply with
            | P.Answers { id = Some id; rung = P.Exact; _ } ->
                Alcotest.(check string)
                  "routed to the asking connection"
                  (Printf.sprintf "c%d-%d" c i)
                  id
            | _ -> Alcotest.failf "client %d got %S" c reply)
          replies)
      socks;
    (* a shutdown through one connection still acks *)
    let ack = send_and_read socks.(0) [ P.encode_request P.Shutdown ] in
    Alcotest.(check (list string))
      "shutdown acked" [ "{\"ok\":true,\"op\":\"shutdown\"}" ] ack

(* --- Line framing ------------------------------------------------------ *)

let test_find_newline_twin () =
  (* The word-at-a-time newline scan against the plain byte loop: every
     offset and length up to 80, a hit at every position (or none), with
     0x0a, 0x0b, 0x8a and 0xff next to it, and a newline just past the
     window that must never be found. *)
  let plain b pos len =
    let i = ref pos in
    while !i < len && Bytes.get b !i <> '\n' do
      incr i
    done;
    !i
  in
  let size = 96 in
  let neighbours = [ '\n'; '\x0b'; '\x8a'; '\xff' ] in
  List.iter
    (fun fill ->
      List.iter
        (fun near ->
          for len = 0 to 80 do
            for pos = 0 to len do
              for hit = pos - 1 to len - 1 do
                let b = Bytes.make size fill in
                Bytes.set b len '\n';
                if hit >= pos then begin
                  if hit > 0 then Bytes.set b (hit - 1) near;
                  Bytes.set b hit '\n';
                  if hit + 1 < len then Bytes.set b (hit + 1) near
                end;
                let want = plain b pos len and got = Daemon.find_newline b pos len in
                if got <> want then
                  Alcotest.failf "fill %C, near %C, pos %d, len %d, hit %d: %d, byte loop %d"
                    fill near pos len hit got want
              done
            done
          done)
        neighbours)
    [ 'a'; '\x0b'; '\x8a'; '\xff' ];
  List.iter
    (fun (pos, len) ->
      match Daemon.find_newline (Bytes.make 8 'a') pos len with
      | exception Invalid_argument _ -> ()
      | i -> Alcotest.failf "pos %d, len %d: answered %d" pos len i)
    [ (-1, 4); (0, 9) ]

let test_daemon_split_reads () =
  (* Two k = 192 queries written in two pieces, split at every byte of
     a 64-byte window around the first line's newline: each reply must
     be byte-equal to the in-process answer. *)
  if not (Sys.file_exists served_exe) then Alcotest.skip ()
  else
    with_tmp_dir @@ fun dir ->
    let (_ : Store.t) = make_store dir in
    let lines =
      [
        query ~id:"w1" ~synopsis:"opta" (many_ranges 192);
        query ~id:"w2" ~synopsis:"wave" (List.rev (many_ranges 192));
      ]
    in
    let want =
      with_server ~dataset:paper dir @@ fun server ->
      List.map (Server.handle_line server) lines
    in
    let payload = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
    let nl = String.index payload '\n' in
    let socket = Filename.concat dir "serve.sock" in
    let pid = spawn_daemon dir socket in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    @@ fun () ->
    let sock = connect_retry socket 100 in
    Fun.protect ~finally:(fun () -> Unix.close sock) @@ fun () ->
    let write s =
      let off = ref 0 in
      while !off < String.length s do
        off := !off + Unix.write_substring sock s !off (String.length s - !off)
      done
    in
    for cut = nl - 31 to nl + 32 do
      write (String.sub payload 0 cut);
      (* let the daemon read the first piece on its own *)
      Unix.sleepf 0.002;
      write (String.sub payload cut (String.length payload - cut));
      let got = read_lines sock 2 in
      Alcotest.(check (list string)) (Printf.sprintf "split at %d" cut) want got
    done

let run_stdio_daemon dir input =
  (* rs_served --stdio with [input] as its whole stdin; its stdout *)
  let path name = Filename.concat dir name in
  let oc = open_out_bin (path "stdin") in
  output_string oc input;
  close_out oc;
  let fd_in = Unix.openfile (path "stdin") [ Unix.O_RDONLY ] 0 in
  let fd_out =
    Unix.openfile (path "stdout") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process served_exe
      [| served_exe; "--store"; dir; "--data"; "paper"; "--stdio" |]
      fd_in fd_out Unix.stderr
  in
  Unix.close fd_in;
  Unix.close fd_out;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "rs_served --stdio did not exit 0");
  let ic = open_in_bin (path "stdout") in
  let out = really_input_string ic (in_channel_length ic) in
  close_in ic;
  String.split_on_char '\n' out |> List.filter (fun l -> l <> "")

let test_stdio_line_bound () =
  (* stdio frames lines like a socket connection: normal lines are
     answered, a line past max_line is refused bad_request and ends the
     session, so the line after it goes unanswered. *)
  if not (Sys.file_exists served_exe) then Alcotest.skip ()
  else
    with_tmp_dir @@ fun dir ->
    let (_ : Store.t) = make_store dir in
    let ping = P.encode_request P.Ping in
    let q = query ~id:"s1" ~synopsis:"opta" (many_ranges 192) in
    let want_q = with_server ~dataset:paper dir @@ fun server -> Server.handle_line server q in
    let ack = "{\"ok\":true,\"op\":\"ping\"}" in
    let oversized = ping ^ String.make 100_000 ' ' in
    (match run_stdio_daemon dir (String.concat "\n" [ ping; q; oversized; ping ] ^ "\n") with
    | [ a; b; refused ] ->
        Alcotest.(check string) "ping answered" ack a;
        Alcotest.(check string) "query answered" want_q b;
        let r = expect_refusal refused in
        Alcotest.(check bool) "oversized -> bad_request" true (r.refusal = P.Bad_request);
        Alcotest.(check string) "message"
          (Printf.sprintf "line exceeds %d bytes" Daemon.max_line)
          r.message
    | got -> Alcotest.failf "expected 3 replies, got %d" (List.length got));
    (* an unterminated last line is served at end of input *)
    Alcotest.(check (list string))
      "last line without newline" [ ack; want_q ]
      (run_stdio_daemon dir (ping ^ "\n" ^ q))

(* --- The chaos soak ---------------------------------------------------- *)

let run_soak ~jobs ~seed =
  with_tmp_dir @@ fun dir ->
  let (_ : Store.t) = make_store dir in
  Chaos.soak ~requests:250 ~seed (config ~queue:4 ~cache:64 ~jobs ~dataset:paper dir)

let check_soak outcome =
  if outcome.Chaos.violations <> [] then
    Alcotest.failf "chaos soak violated invariants:\n%s"
      (String.concat "\n" outcome.Chaos.violations);
  Alcotest.(check bool) ">=250 requests" true (outcome.Chaos.requests >= 250);
  let nonzero what v = Alcotest.(check bool) (what ^ " exercised") true (v > 0) in
  nonzero "exact" outcome.Chaos.exact;
  nonzero "stale" outcome.Chaos.stale;
  nonzero "refusals" outcome.Chaos.refused;
  nonzero "shedding" outcome.Chaos.shed;
  nonzero "injection" outcome.Chaos.injected;
  nonzero "reloads" outcome.Chaos.reloads

let test_chaos_soak () = check_soak (run_soak ~jobs:1 ~seed:0xC4A05)

let test_chaos_soak_parallel () = check_soak (run_soak ~jobs:2 ~seed:0x5EED5)

let test_chaos_soak_multiclient () =
  with_tmp_dir @@ fun dir ->
  let (_ : Store.t) = make_store dir in
  check_soak
    (Chaos.soak ~requests:250 ~clients:3 ~seed:0xC4A05
       (config ~queue:4 ~cache:64 ~jobs:1 ~dataset:paper dir))

let test_chaos_bound_rung_reached () =
  (* at least one seed must exercise the bound rung too *)
  let o = run_soak ~jobs:1 ~seed:0xB0B0 in
  if o.Chaos.violations <> [] then
    Alcotest.failf "soak violations: %s" (String.concat "\n" o.Chaos.violations);
  Alcotest.(check bool) "bound rung exercised" true (o.Chaos.bound > 0)

let () =
  Alcotest.run "serve" ~and_exit:true
    [
      ( "protocol",
        [
          json_roundtrip;
          Alcotest.test_case "parser rejects malformed" `Quick test_json_parser_rejects;
          Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "request decode rejects" `Quick test_request_decode_rejects;
          Alcotest.test_case "response round-trip" `Quick test_response_roundtrip;
          Alcotest.test_case "float rendering pins" `Quick test_float_rendering_pins;
          Alcotest.test_case "number fast-path twin" `Quick
            test_number_fast_path_twin;
          Alcotest.test_case "direct encoder vs AST twin" `Quick
            test_encoder_direct_vs_ast;
          Alcotest.test_case "650 line mutants never crash" `Quick
            test_line_mutants_never_crash;
          Alcotest.test_case "float rendering twin at scale" `Quick
            test_float_rendering_twin_at_scale;
          Alcotest.test_case "add_int vs string_of_int" `Quick
            test_add_int_matches_string_of_int;
          Alcotest.test_case "request decoder vs AST oracle" `Quick
            test_decode_request_twin;
          Alcotest.test_case "long lines decode on a small stack" `Quick
            test_long_lines_decode_on_small_stack;
        ] );
      ( "cache",
        [
          Alcotest.test_case "eviction-order pins" `Quick test_cache_eviction_pins;
          Alcotest.test_case "lru/fifo vs reference models" `Quick
            test_cache_policy_twins;
        ] );
      ( "generation",
        [
          Alcotest.test_case "load and bounds" `Quick test_generation_load;
          Alcotest.test_case "quarantines corruption" `Quick
            test_generation_quarantines_corruption;
          Alcotest.test_case "empty store" `Quick test_generation_empty_dir;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "exact twin" `Quick test_exact_twin;
          Alcotest.test_case "budget routing exact/bound/stale" `Quick
            test_budget_routing;
          Alcotest.test_case "bound answers never feed the cache" `Quick
            test_bound_answers_never_cached;
          Alcotest.test_case "budget refusal renders polls" `Quick
            test_budget_refusal_renders_polls;
          Alcotest.test_case "no prefix falls to floor" `Quick
            test_no_prefix_falls_to_floor;
          Alcotest.test_case "wall-clock deadline" `Quick test_wall_clock_deadline;
          Alcotest.test_case "unknown synopsis, bad ranges" `Quick
            test_unknown_and_bad_ranges;
          Alcotest.test_case "stale floor keys on the whole request" `Quick
            test_stale_floor_keys;
        ] );
      ( "overload",
        [ Alcotest.test_case "queue sheds with backoff hints" `Quick test_queue_shedding ] );
      ( "shutdown",
        [ Alcotest.test_case "ack, drain, refuse" `Quick test_shutdown_drains ] );
      ( "reload",
        [
          Alcotest.test_case "picks up new entries" `Quick
            test_reload_picks_up_new_entries;
          Alcotest.test_case "quarantines and keeps serving" `Quick
            test_reload_quarantines_and_keeps_serving;
          Alcotest.test_case "failure keeps old generation" `Quick
            test_reload_failure_keeps_old_generation;
          Alcotest.test_case "reuses untouched entries" `Quick
            test_reload_reuses_untouched_entries;
          Alcotest.test_case "never reuses flipped bytes" `Quick
            test_reload_never_reuses_flipped_bytes;
          Alcotest.test_case "decodes a same-length rewrite" `Quick
            test_reload_decodes_same_length_rewrite;
          Alcotest.test_case "quarantines non-finite values" `Quick
            test_reload_quarantines_non_finite_entry;
          Alcotest.test_case "reuse counters and log line" `Quick
            test_reload_observability;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "live report keeps line framing" `Quick
            test_metrics_response_single_line;
          Alcotest.test_case "request-cadence latency and alloc histograms"
            `Quick test_request_observability;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "steady-state exact request is O(k) minor words"
            `Quick test_exact_request_allocation_gate;
          Alcotest.test_case "warmed exact encode allocates nothing" `Quick
            test_exact_encode_allocates_nothing;
          Alcotest.test_case "warmed query decode allocates only its result"
            `Quick test_decode_allocation_pin;
        ] );
      ( "seams",
        [ Alcotest.test_case "typed injected refusals" `Quick test_seams_refuse_typed ] );
      ( "parallel",
        [ Alcotest.test_case "jobs=1 vs jobs=3 parity" `Quick test_jobs_parity ] );
      ( "restart",
        [
          Alcotest.test_case "in-process restart determinism" `Quick
            test_restart_identical_answers;
          Alcotest.test_case "batch/cache twins byte-identical" `Quick
            test_batch_twin_identical_bytes;
          Alcotest.test_case "interleaved multi-connection determinism" `Quick
            test_interleaved_restart_determinism;
          Alcotest.test_case "socket daemon kill -9 and restart" `Quick
            test_daemon_socket_kill_and_restart;
          Alcotest.test_case "socket daemon, three interleaved clients" `Quick
            test_daemon_multiclient;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "soak (250 requests, jobs=1)" `Quick test_chaos_soak;
          Alcotest.test_case "soak (250 requests, jobs=2)" `Quick
            test_chaos_soak_parallel;
          Alcotest.test_case "soak (250 requests, 3 connections)" `Quick
            test_chaos_soak_multiclient;
          Alcotest.test_case "bound rung reached" `Quick
            test_chaos_bound_rung_reached;
        ] );
      ( "framing",
        [
          Alcotest.test_case "newline scan vs byte loop" `Quick test_find_newline_twin;
          Alcotest.test_case "socket reads split around a line end" `Quick
            test_daemon_split_reads;
          Alcotest.test_case "stdio bounds lines like a socket" `Quick
            test_stdio_line_bound;
        ] );
    ]
