(* Output checks.  Response lines are read with this small scanner, not
   with Protocol, and expected answers come from [Synopsis.estimate] on
   entries the benchmark decodes itself, so the check shares no code
   with the serving fast path (Batch plans, the response encoder). *)

let index_from s i sub =
  let n = String.length s and m = String.length sub in
  let rec matches i k = k = m || (s.[i + k] = sub.[k] && matches i (k + 1)) in
  let rec go i = if i + m > n then -1 else if matches i 0 then i else go (i + 1) in
  go i

(* The raw text of a top-level scalar field: from after ["key":] to the
   next ',' or '}'. *)
let raw_field line key =
  let k = "\"" ^ key ^ "\":" in
  match index_from line 0 k with
  | -1 -> None
  | i ->
      let start = i + String.length k in
      let j = ref start in
      while !j < String.length line && line.[!j] <> ',' && line.[!j] <> '}' do
        incr j
      done;
      Some (String.sub line start (!j - start))

let str_field line key =
  match raw_field line key with
  | Some v when String.length v >= 2 && v.[0] = '"' ->
      Some (String.sub v 1 (String.length v - 2))
  | _ -> None

let int_field line key = Option.bind (raw_field line key) int_of_string_opt

let estimates line =
  let k = "\"estimates\":[" in
  match index_from line 0 k with
  | -1 -> None
  | i -> (
      let start = i + String.length k in
      match String.index_from_opt line start ']' with
      | None -> None
      | Some j ->
          let body = String.sub line start (j - start) in
          if body = "" then Some [||]
          else
            let parts = String.split_on_char ',' body in
            let vals = List.map float_of_string_opt parts in
            if List.mem None vals then None
            else Some (Array.of_list (List.map Option.get vals)))

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* A query answer is correct when it is ok, echoes the id, comes from
   the expected generation on the exact rung, carries the stale flag
   exactly when expected, and every estimate is bit-equal to the
   reference. *)
let query_ok ?generation ?(stale = false) ~id ~expected line =
  raw_field line "ok" = Some "true"
  && str_field line "op" = Some "query"
  && str_field line "id" = Some id
  && str_field line "rung" = Some "exact"
  && (match generation with None -> true | Some g -> int_field line "generation" = Some g)
  && (raw_field line "stale" = Some "true") = stale
  &&
  match estimates line with
  | Some got ->
      Array.length got = Array.length expected
      && Array.for_all2 same_bits got expected
  | None -> false

let ingest_ok ~id ~applied line =
  raw_field line "ok" = Some "true"
  && str_field line "op" = Some "ingest"
  && str_field line "id" = Some id
  && int_field line "applied" = Some applied

let reload_ok ~generation line =
  raw_field line "ok" = Some "true"
  && str_field line "op" = Some "reload"
  && int_field line "generation" = Some generation

let expected syn ranges =
  Array.map (fun (a, b) -> Rs_core.Synopsis.estimate syn ~a ~b) ranges

(* {2 Request lines} — written by hand for the same reason. *)

let query_line ~id ~synopsis ranges =
  let b = Buffer.create (48 + (14 * Array.length ranges)) in
  Printf.bprintf b "{\"op\":\"query\",\"id\":\"%s\",\"synopsis\":\"%s\",\"ranges\":[" id
    synopsis;
  Array.iteri
    (fun i (lo, hi) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "[%d,%d]" lo hi)
    ranges;
  Buffer.add_string b "]}";
  Buffer.contents b

let ingest_line ~id ~synopsis deltas =
  let b = Buffer.create (48 + (14 * Array.length deltas)) in
  Printf.bprintf b "{\"op\":\"ingest\",\"id\":\"%s\",\"synopsis\":\"%s\",\"deltas\":[" id
    synopsis;
  Array.iteri
    (fun i (p, d) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "[%d,%.0f]" p d)
    deltas;
  Buffer.add_string b "]}";
  Buffer.contents b
