(* Wire protocol: line-delimited JSON.  The codec is hand-rolled — the
   repo carries no JSON dependency, and the protocol needs only the
   standard scalar types plus arrays and objects.  Decoding is total:
   any malformed line comes back as [Error msg], never an exception
   (the decode fuzzer in test_serve.ml pins this). *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(* --- encoding --- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | '"' -> Buffer.add_string buf "\\\""
    | '\\' -> Buffer.add_string buf "\\\\"
    | '\n' -> Buffer.add_string buf "\\n"
    | '\r' -> Buffer.add_string buf "\\r"
    | '\t' -> Buffer.add_string buf "\\t"
    | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
    | c -> Buffer.add_char buf c
  done;
  Buffer.add_char buf '"'

(* Number rendering.  The contract is the bytes [%.17g] prints (17
   significant digits, not the shortest round trip), with integral
   values below 1e15 printed as integers and [-0] keeping its sign.
   For [1e-10 <= |x| < 1e17] the digits are computed here in integer
   arithmetic; libc's snprintf cost ~0.7 us per float, most of a wide
   query's reply time.  A rendering is composed right to left in a
   per-domain scratch and appended with one blit, so nothing on the
   fast path allocates once [buf] has grown to fit.  Nothing between
   filling the scratch and the blit can render another number on the
   same domain. *)

let scratch = Domain.DLS.new_key (fun () -> Bytes.create 32)

let add_int buf n =
  let s = Domain.DLS.get scratch in
  (* digits of [v <= 0], so that [min_int] negates without overflow *)
  let v = ref (if n < 0 then n else -n) and pos = ref 32 in
  while
    decr pos;
    Bytes.unsafe_set s !pos (Char.unsafe_chr (48 - (!v mod 10)));
    v := !v / 10;
    !v <> 0
  do
    ()
  done;
  if n < 0 then begin
    decr pos;
    Bytes.unsafe_set s !pos '-'
  end;
  Buffer.add_subbytes buf s !pos (32 - !pos)

let e16 = 10_000_000_000_000_000
let e17 = 10 * e16

(* 5^p for p in [0, 26]; 5^26 < 2^61 still fits an OCaml int. *)
let pow5 =
  let t = Array.make 27 1 in
  for p = 1 to 26 do
    t.(p) <- 5 * t.(p - 1)
  done;
  t

(* The %g layout of [d * 10^(e10 - 16)], [d] a 17-digit integer:
   trailing zeros and a bare '.' dropped; fixed notation for
   [-4 <= e10 < 17], else [d.ddde±XX] with at least two exponent
   digits. *)
let add_g17 buf neg d e10 =
  let s = Domain.DLS.get scratch in
  let v = ref d and n = ref 17 in
  while !v mod 10 = 0 do
    v := !v / 10;
    decr n
  done;
  let pos = ref 32 in
  let fixed = e10 >= -4 && e10 < 17 in
  if not fixed then begin
    let a = ref (abs e10) in
    while !a > 0 || !pos > 30 do
      decr pos;
      Bytes.unsafe_set s !pos (Char.unsafe_chr (48 + (!a mod 10)));
      a := !a / 10
    done;
    decr pos;
    Bytes.unsafe_set s !pos (if e10 < 0 then '-' else '+');
    decr pos;
    Bytes.unsafe_set s !pos 'e'
  end;
  (* significand digits before the point *)
  let lead = if not fixed then 1 else if e10 >= 0 then e10 + 1 else 0 in
  for _ = !n to lead - 1 do
    decr pos;
    Bytes.unsafe_set s !pos '0'
  done;
  if !n > lead then begin
    for _ = lead to !n - 1 do
      decr pos;
      Bytes.unsafe_set s !pos (Char.unsafe_chr (48 + (!v mod 10)));
      v := !v / 10
    done;
    if lead = 0 then
      for _ = 2 to -e10 do
        decr pos;
        Bytes.unsafe_set s !pos '0'
      done;
    decr pos;
    Bytes.unsafe_set s !pos '.'
  end;
  if lead = 0 then begin
    decr pos;
    Bytes.unsafe_set s !pos '0'
  end
  else
    while !v > 0 do
      decr pos;
      Bytes.unsafe_set s !pos (Char.unsafe_chr (48 + (!v mod 10)));
      v := !v / 10
    done;
  if neg then begin
    decr pos;
    Bytes.unsafe_set s !pos '-'
  end;
  Buffer.add_subbytes buf s !pos (32 - !pos)

(* [|x| = m * 2^e] with [m] a 53-bit integer, [1e-10 <= |x| < 1e17] and
   [p = 16 - E] for a guess [E] of the decimal exponent that is never too
   high.  Writes [D = round_half_even (m * 5^p * 2^(e + p))], the 17
   significant digits of [|x|]; when the guess was one too low, [D]
   comes out at 10^17 or more and the call retries with [p - 1].
   [m * 5^p] (< 2^114) is taken as a product of 31-bit limbs and kept
   as [hi * 2^62 + lo]; with [D >= 10^16] the shift [s] stays below
   62. *)
let rec add_sig17 buf neg m e p =
  let f = Array.unsafe_get pow5 p in
  let s = -(e + p) in
  if s <= 0 then begin
    (* |x| >= 2^53: the product is an exact integer *)
    let d = (m * f) lsl (-s) in
    if d >= e17 then add_sig17 buf neg m e (p - 1) else add_g17 buf neg d (16 - p)
  end
  else begin
    let m0 = m land 0x7fff_ffff and m1 = m lsr 31 in
    let f0 = f land 0x7fff_ffff and f1 = f lsr 31 in
    let t0 = m0 * f0 in
    let t1 = (m0 * f1) + (m1 * f0) + (t0 lsr 31) in
    let lo = ((t1 land 0x7fff_ffff) lsl 31) lor (t0 land 0x7fff_ffff) in
    let hi = (m1 * f1) + (t1 lsr 31) in
    let q = (hi lsl (62 - s)) lor (lo lsr s) in
    if q >= e17 then add_sig17 buf neg m e (p - 1)
    else begin
      let half = (lo lsr (s - 1)) land 1 = 1 in
      let sticky = lo land ((1 lsl (s - 1)) - 1) <> 0 in
      let d = if half && (sticky || q land 1 = 1) then q + 1 else q in
      (* a carry into the next decade renormalises *)
      if d = e17 then add_g17 buf neg e16 (17 - p) else add_g17 buf neg d (16 - p)
    end
  end

(* [b]: the bits of a finite [x] with [1e-10 <= |x| < 1e17], modulo
   2^63 (the sign bit dropped).  Such an [x] is normal.  The first
   guess at the decimal exponent, floor (floor (log2 |x|) * log10 2),
   is at most one too low; it is clamped to -10 since |x| >= 1e-10. *)
let add_fast_float buf neg b =
  let m = (b land 0xf_ffff_ffff_ffff) lor 0x10_0000_0000_0000 in
  let e = ((b lsr 52) land 0x7ff) - 1075 in
  let guess = ((e + 52) * 78913) asr 18 in
  add_sig17 buf neg m e (16 - max guess (-10))

(* The libc formatter Printf.sprintf delegates to, kept for magnitudes
   outside the fast range (|x| < 1e-10, |x| >= 1e17), which are rare
   among served estimates. *)
external format_float : string -> float -> string = "caml_format_float"

(* Inlined so that a float read from a [float array] stays unboxed. *)
let[@inline] add_num buf x =
  let ax = Float.abs x in
  if not (Float.is_finite x) then Buffer.add_string buf "null"
  else if ax < 1e15 && Float.trunc x = x then
    if x = 0. && 1. /. x < 0. then
      (* %.0f renders negative zero with its sign; int_of_float drops
         it. *)
      Buffer.add_string buf "-0"
    else
      (* |x| < 1e15 < 2^53: int_of_float is exact and the integer
         digits are the ones %.0f would print. *)
      add_int buf (int_of_float x)
  else if ax >= 1e-10 && ax < 1e17 then
    add_fast_float buf (x < 0.) (Int64.to_int (Int64.bits_of_float x))
  else Buffer.add_string buf (format_float "%.17g" x)

let rec add_json buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x -> add_num buf x
  | Str s -> escape_string buf s
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          add_json buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          add_json buf v)
        fields;
      Buffer.add_char buf '}'

let json_to_string j =
  let buf = Buffer.create 128 in
  add_json buf j;
  Buffer.contents buf

(* --- parsing --- *)

exception Parse of string

let json_of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal lit value =
    let l = String.length lit in
    let matches =
      !pos + l <= n
      &&
      let ok = ref true in
      for i = 0 to l - 1 do
        if String.unsafe_get s (!pos + i) <> String.unsafe_get lit i then
          ok := false
      done;
      !ok
    in
    if matches then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" lit)
  in
  (* One scratch buffer shared by every string in the line; only
     strings that actually contain escapes touch it — the common case
     (field names, synopsis names, ids) is a single String.sub. *)
  let sbuf = Buffer.create 64 in
  let rec parse_string () =
    expect '"';
    let start = !pos in
    let rec scan i =
      if i >= n then begin
        pos := i;
        fail "unterminated string"
      end
      else
        match String.unsafe_get s i with
        | '"' ->
            pos := i + 1;
            String.sub s start (i - start)
        | '\\' ->
            Buffer.clear sbuf;
            Buffer.add_substring sbuf s start (i - start);
            pos := i;
            slow sbuf
        | c when Char.code c < 0x20 ->
            pos := i + 1;
            fail "raw control character in string"
        | _ -> scan (i + 1)
    in
    scan start
  and slow buf =
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          advance ();
          match e with
          | '"' | '\\' | '/' ->
              Buffer.add_char buf e;
              go ()
          | 'n' ->
              Buffer.add_char buf '\n';
              go ()
          | 'r' ->
              Buffer.add_char buf '\r';
              go ()
          | 't' ->
              Buffer.add_char buf '\t';
              go ()
          | 'b' ->
              Buffer.add_char buf '\b';
              go ()
          | 'f' ->
              Buffer.add_char buf '\012';
              go ()
          | 'u' ->
              if !pos + 4 > n then fail "truncated \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              let code =
                try int_of_string ("0x" ^ hex)
                with Failure _ -> fail "bad \\u escape"
              in
              (* The protocol is ASCII; anything beyond maps to '?'. *)
              Buffer.add_char buf (if code < 128 then Char.chr code else '?');
              go ()
          | _ -> fail "unknown escape")
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c ->
          Buffer.add_char buf c;
          go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    if !pos = start then fail "expected a number";
    let stop = !pos in
    (* float_of_string is laxer than JSON: no leading '+' or '.' *)
    (match s.[start] with
    | '+' | '.' -> fail (Printf.sprintf "bad number %S" (String.sub s start (stop - start)))
    | _ -> ());
    (* Fast path: a plain integer of <= 15 digits (range indices,
       budgets, counts — the overwhelming request mix) parses with a
       digit loop and zero allocation.  15 digits < 2^53, so
       float_of_int is exact and bit-identical to float_of_string;
       [-. float_of_int] keeps "-0" decoding to negative zero. *)
    let neg = s.[start] = '-' in
    let d0 = if neg then start + 1 else start in
    let digits = stop - d0 in
    let all_digits =
      let ok = ref (digits > 0) in
      for i = d0 to stop - 1 do
        match s.[i] with '0' .. '9' -> () | _ -> ok := false
      done;
      !ok
    in
    if all_digits && digits <= 15 then begin
      let v = ref 0 in
      for i = d0 to stop - 1 do
        v := (!v * 10) + (Char.code s.[i] - Char.code '0')
      done;
      if neg then -.float_of_int !v else float_of_int !v
    end
    else
      let span = String.sub s start (stop - start) in
      match float_of_string_opt span with
      | Some x when Float.is_finite x -> x
      | _ -> fail (Printf.sprintf "bad number %S" span)
  in
  let rec parse_value depth =
    if depth > 32 then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value (depth + 1) in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          Arr (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse msg -> Error msg

(* --- field helpers --- *)

let field name = function Obj fields -> List.assoc_opt name fields | _ -> None

let str_field name obj =
  match field name obj with
  | Some (Str s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)
  | None -> Ok None

let num_field name obj =
  match field name obj with
  | Some (Num x) -> Ok (Some x)
  | Some _ -> Error (Printf.sprintf "field %S must be a number" name)
  | None -> Ok None

let int_field name obj =
  match num_field name obj with
  | Error _ as e -> e
  | Ok None -> Ok None
  | Ok (Some x) ->
      if Float.is_integer x && Float.abs x <= 1e9 then Ok (Some (int_of_float x))
      else Error (Printf.sprintf "field %S must be an integer" name)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* --- requests --- *)

type request =
  | Query of {
      id : string option;
      synopsis : string;
      ranges : (int * int) array;
      deadline_ms : float option;
      poll_budget : int option;
      attempt : int;
    }
  | Ingest of {
      id : string option;
      synopsis : string;
      deltas : (int * float) array;
    }
  | Ping
  | Metrics
  | Reload
  | Shutdown

let encode_request = function
  | Ping -> json_to_string (Obj [ ("op", Str "ping") ])
  | Metrics -> json_to_string (Obj [ ("op", Str "metrics") ])
  | Reload -> json_to_string (Obj [ ("op", Str "reload") ])
  | Shutdown -> json_to_string (Obj [ ("op", Str "shutdown") ])
  | Query { id; synopsis; ranges; deadline_ms; poll_budget; attempt } ->
      let fields =
        [ ("op", Str "query") ]
        @ (match id with Some id -> [ ("id", Str id) ] | None -> [])
        @ [
            ("synopsis", Str synopsis);
            ( "ranges",
              Arr
                (Array.to_list
                   (Array.map
                      (fun (a, b) ->
                        Arr [ Num (float_of_int a); Num (float_of_int b) ])
                      ranges)) );
          ]
        @ (match deadline_ms with
          | Some d -> [ ("deadline_ms", Num d) ]
          | None -> [])
        @ (match poll_budget with
          | Some b -> [ ("poll_budget", Num (float_of_int b)) ]
          | None -> [])
        @ if attempt <> 1 then [ ("attempt", Num (float_of_int attempt)) ] else []
      in
      json_to_string (Obj fields)
  | Ingest { id; synopsis; deltas } ->
      let fields =
        [ ("op", Str "ingest") ]
        @ (match id with Some id -> [ ("id", Str id) ] | None -> [])
        @ [
            ("synopsis", Str synopsis);
            ( "deltas",
              Arr
                (Array.to_list
                   (Array.map
                      (fun (i, d) -> Arr [ Num (float_of_int i); Num d ])
                      deltas)) );
          ]
      in
      json_to_string (Obj fields)

let decode_ranges obj =
  match field "ranges" obj with
  | None -> Error "query needs a \"ranges\" array"
  | Some (Arr items) ->
      (* Build the array in place (no reversed intermediate list): the
         ranges array is the bulk of a query's decode allocation. *)
      let k = List.length items in
      let out = Array.make k (0, 0) in
      let rec go i = function
        | [] -> Ok out
        | Arr [ Num a; Num b ] :: rest
          when Float.is_integer a && Float.is_integer b
               && Float.abs a <= 1e9 && Float.abs b <= 1e9 ->
            out.(i) <- (int_of_float a, int_of_float b);
            go (i + 1) rest
        | _ -> Error "each range must be a pair [a,b] of integers"
      in
      go 0 items
  | Some _ -> Error "field \"ranges\" must be an array"

let decode_request line =
  let* v = json_of_string line in
  let* op = str_field "op" v in
  match op with
  | None -> Error "missing \"op\" field"
  | Some "ping" -> Ok Ping
  | Some "metrics" -> Ok Metrics
  | Some "reload" -> Ok Reload
  | Some "shutdown" -> Ok Shutdown
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
          Ok (Query { id; synopsis; ranges; deadline_ms; poll_budget; attempt }))
  | Some "ingest" -> (
      let* id = str_field "id" v in
      let* synopsis = str_field "synopsis" v in
      let* deltas =
        match field "deltas" v with
        | None -> Error "ingest needs a \"deltas\" array"
        | Some (Arr items) ->
            let k = List.length items in
            let out = Array.make k (0, 0.) in
            let rec go i = function
              | [] -> Ok out
              | Arr [ Num p; Num d ] :: rest
                when Float.is_integer p
                     && Float.abs p <= 1e9
                     && Float.is_finite d ->
                  out.(i) <- (int_of_float p, d);
                  go (i + 1) rest
              | _ ->
                  Error
                    "each delta must be a pair [i,d] of an integer position \
                     and a finite value"
            in
            go 0 items
        | Some _ -> Error "field \"deltas\" must be an array"
      in
      match synopsis with
      | None -> Error "ingest needs a \"synopsis\" name"
      | Some synopsis -> Ok (Ingest { id; synopsis; deltas }))
  | Some other -> Error (Printf.sprintf "unknown op %S" other)

(* --- responses --- *)

type rung = Exact | Bound | Stale

let rung_to_string = function
  | Exact -> "exact"
  | Bound -> "bound"
  | Stale -> "stale"

let rung_of_string = function
  | "exact" -> Some Exact
  | "bound" -> Some Bound
  | "stale" -> Some Stale
  | _ -> None

type refusal =
  | Bad_request
  | Unknown_synopsis
  | Overloaded
  | Deadline
  | Corrupt_store
  | Shutting_down
  | Injected

let refusal_to_string = function
  | Bad_request -> "bad_request"
  | Unknown_synopsis -> "unknown_synopsis"
  | Overloaded -> "overloaded"
  | Deadline -> "deadline"
  | Corrupt_store -> "corrupt_store"
  | Shutting_down -> "shutting_down"
  | Injected -> "injected"

let refusal_of_string = function
  | "bad_request" -> Some Bad_request
  | "unknown_synopsis" -> Some Unknown_synopsis
  | "overloaded" -> Some Overloaded
  | "deadline" -> Some Deadline
  | "corrupt_store" -> Some Corrupt_store
  | "shutting_down" -> Some Shutting_down
  | "injected" -> Some Injected
  | _ -> None

type response =
  | Answers of {
      id : string option;
      generation : int;
      rung : rung;
      estimates : float array;
      rmse_bound : float option;
      stale : bool;
    }
  | Ingested of {
      id : string option;
      synopsis : string;
      applied : int;
      dirty : float;
      stale : bool;
    }
  | Refused of {
      id : string option;
      refusal : refusal;
      message : string;
      retry_after_ms : float option;
    }
  | Pong
  | Metrics_report of string
  | Reloaded of { generation : int; entries : int; quarantined : int }
  | Shutdown_ack

(* The AST rendering of a response — [None] for [Metrics_report], whose
   report is spliced in verbatim rather than re-encoded.  This is the
   determinism twin for [encode_response_into]: the fuzzers check the
   direct writer's bytes equal [json_to_string (response_json r)]. *)
let response_json = function
  | Pong -> Some (Obj [ ("ok", Bool true); ("op", Str "ping") ])
  | Shutdown_ack -> Some (Obj [ ("ok", Bool true); ("op", Str "shutdown") ])
  | Metrics_report _ -> None
  | Reloaded { generation; entries; quarantined } ->
      Some
        (Obj
           [
             ("ok", Bool true);
             ("op", Str "reload");
             ("generation", Num (float_of_int generation));
             ("entries", Num (float_of_int entries));
             ("quarantined", Num (float_of_int quarantined));
           ])
  | Answers { id; generation; rung; estimates; rmse_bound; stale } ->
      let fields =
        [ ("ok", Bool true); ("op", Str "query") ]
        @ (match id with Some id -> [ ("id", Str id) ] | None -> [])
        @ [
            ("generation", Num (float_of_int generation));
            ("rung", Str (rung_to_string rung));
            ( "estimates",
              Arr (Array.to_list (Array.map (fun x -> Num x) estimates)) );
          ]
        @ (match rmse_bound with
          | Some b -> [ ("rmse_bound", Num b) ]
          | None -> [])
        @ if stale then [ ("stale", Bool true) ] else []
      in
      Some (Obj fields)
  | Ingested { id; synopsis; applied; dirty; stale } ->
      let fields =
        [ ("ok", Bool true); ("op", Str "ingest") ]
        @ (match id with Some id -> [ ("id", Str id) ] | None -> [])
        @ [
            ("synopsis", Str synopsis);
            ("applied", Num (float_of_int applied));
            ("dirty", Num dirty);
            ("stale", Bool stale);
          ]
      in
      Some (Obj fields)
  | Refused { id; refusal; message; retry_after_ms } ->
      let fields =
        [ ("ok", Bool false) ]
        @ (match id with Some id -> [ ("id", Str id) ] | None -> [])
        @ [
            ("error", Str (refusal_to_string refusal)); ("message", Str message);
          ]
        @
        match retry_after_ms with
        | Some ms -> [ ("retry_after_ms", Num ms) ]
        | None -> []
      in
      Some (Obj fields)

(* Direct writer: emits the exact bytes [json_to_string (response_json r)]
   would, without building the AST — once [buf] has grown to fit, the
   steady-state encode path allocates nothing.  Field order and float encoding
   are contractual (restart/jobs-parity tests compare whole response
   lines), so every branch here mirrors [response_json] field for
   field. *)
let encode_response_into buf = function
  | Pong -> Buffer.add_string buf "{\"ok\":true,\"op\":\"ping\"}"
  | Shutdown_ack -> Buffer.add_string buf "{\"ok\":true,\"op\":\"shutdown\"}"
  | Metrics_report report ->
      (* The report is already a JSON object (rs-metrics-v1); splice it
         in verbatim rather than re-encoding. *)
      Buffer.add_string buf "{\"ok\":true,\"op\":\"metrics\",\"report\":";
      Buffer.add_string buf report;
      Buffer.add_char buf '}'
  | Reloaded { generation; entries; quarantined } ->
      Buffer.add_string buf "{\"ok\":true,\"op\":\"reload\",\"generation\":";
      add_num buf (float_of_int generation);
      Buffer.add_string buf ",\"entries\":";
      add_num buf (float_of_int entries);
      Buffer.add_string buf ",\"quarantined\":";
      add_num buf (float_of_int quarantined);
      Buffer.add_char buf '}'
  | Answers { id; generation; rung; estimates; rmse_bound; stale } ->
      Buffer.add_string buf "{\"ok\":true,\"op\":\"query\"";
      (match id with
      | Some id ->
          Buffer.add_string buf ",\"id\":";
          escape_string buf id
      | None -> ());
      Buffer.add_string buf ",\"generation\":";
      add_num buf (float_of_int generation);
      Buffer.add_string buf ",\"rung\":";
      escape_string buf (rung_to_string rung);
      Buffer.add_string buf ",\"estimates\":[";
      for i = 0 to Array.length estimates - 1 do
        if i > 0 then Buffer.add_char buf ',';
        add_num buf (Array.unsafe_get estimates i)
      done;
      Buffer.add_char buf ']';
      (match rmse_bound with
      | Some b ->
          Buffer.add_string buf ",\"rmse_bound\":";
          add_num buf b
      | None -> ());
      if stale then Buffer.add_string buf ",\"stale\":true";
      Buffer.add_char buf '}'
  | Ingested { id; synopsis; applied; dirty; stale } ->
      Buffer.add_string buf "{\"ok\":true,\"op\":\"ingest\"";
      (match id with
      | Some id ->
          Buffer.add_string buf ",\"id\":";
          escape_string buf id
      | None -> ());
      Buffer.add_string buf ",\"synopsis\":";
      escape_string buf synopsis;
      Buffer.add_string buf ",\"applied\":";
      add_num buf (float_of_int applied);
      Buffer.add_string buf ",\"dirty\":";
      add_num buf dirty;
      Buffer.add_string buf
        (if stale then ",\"stale\":true}" else ",\"stale\":false}")
  | Refused { id; refusal; message; retry_after_ms } ->
      Buffer.add_string buf "{\"ok\":false";
      (match id with
      | Some id ->
          Buffer.add_string buf ",\"id\":";
          escape_string buf id
      | None -> ());
      Buffer.add_string buf ",\"error\":";
      escape_string buf (refusal_to_string refusal);
      Buffer.add_string buf ",\"message\":";
      escape_string buf message;
      (match retry_after_ms with
      | Some ms ->
          Buffer.add_string buf ",\"retry_after_ms\":";
          add_num buf ms
      | None -> ());
      Buffer.add_char buf '}'

let encode_response r =
  let buf = Buffer.create 128 in
  encode_response_into buf r;
  Buffer.contents buf

let decode_response line =
  let* v = json_of_string line in
  match field "ok" v with
  | Some (Bool false) ->
      let* id = str_field "id" v in
      let* err = str_field "error" v in
      let* message = str_field "message" v in
      let* retry_after_ms = num_field "retry_after_ms" v in
      (match Option.bind err refusal_of_string with
      | None -> Error "refusal with unknown \"error\" code"
      | Some refusal ->
          Ok
            (Refused
               {
                 id;
                 refusal;
                 message = Option.value message ~default:"";
                 retry_after_ms;
               }))
  | Some (Bool true) -> (
      let* op = str_field "op" v in
      match op with
      | Some "ping" -> Ok Pong
      | Some "shutdown" -> Ok Shutdown_ack
      | Some "reload" ->
          let* generation = int_field "generation" v in
          let* entries = int_field "entries" v in
          let* quarantined = int_field "quarantined" v in
          Ok
            (Reloaded
               {
                 generation = Option.value generation ~default:0;
                 entries = Option.value entries ~default:0;
                 quarantined = Option.value quarantined ~default:0;
               })
      | Some "metrics" -> (
          match field "report" v with
          | Some report -> Ok (Metrics_report (json_to_string report))
          | None -> Error "metrics response without a report")
      | Some "query" -> (
          let* id = str_field "id" v in
          let* generation = int_field "generation" v in
          let* rung_s = str_field "rung" v in
          let* rmse_bound = num_field "rmse_bound" v in
          let* estimates =
            match field "estimates" v with
            | Some (Arr items) ->
                let rec go acc = function
                  | [] -> Ok (Array.of_list (List.rev acc))
                  | Num x :: rest -> go (x :: acc) rest
                  | Null :: rest -> go (Float.nan :: acc) rest
                  | _ -> Error "estimates must be numbers"
                in
                go [] items
            | _ -> Error "query response needs an \"estimates\" array"
          in
          match Option.bind rung_s rung_of_string with
          | None -> Error "query response with unknown rung"
          | Some rung ->
              let stale =
                match field "stale" v with Some (Bool b) -> b | _ -> false
              in
              Ok
                (Answers
                   {
                     id;
                     generation = Option.value generation ~default:0;
                     rung;
                     estimates;
                     rmse_bound;
                     stale;
                   }))
      | Some "ingest" -> (
          let* id = str_field "id" v in
          let* synopsis = str_field "synopsis" v in
          let* applied = int_field "applied" v in
          let* dirty = num_field "dirty" v in
          let stale =
            match field "stale" v with Some (Bool b) -> b | _ -> false
          in
          match synopsis with
          | None -> Error "ingest response needs a \"synopsis\" name"
          | Some synopsis ->
              Ok
                (Ingested
                   {
                     id;
                     synopsis;
                     applied = Option.value applied ~default:0;
                     dirty = Option.value dirty ~default:0.;
                     stale;
                   }))
      | _ -> Error "response with unknown op")
  | _ -> Error "response without a boolean \"ok\" field"
