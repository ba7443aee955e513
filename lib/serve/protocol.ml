(* Wire protocol: line-delimited JSON.  The codec is hand-rolled — the
   repo carries no JSON dependency, and the protocol needs only the
   standard scalar types plus arrays and objects.  Decoding is total:
   any malformed line comes back as [Error msg], never an exception
   (the decode fuzzer in test_serve.ml pins this).  Responses are
   written straight into a buffer and requests read straight from the
   line; the [json] tree serves tests, clients and [decode_response],
   and both readers share one lexer. *)

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

(* One lexer serves both readers: [json_of_string] below builds a tree
   (responses, tests, clients) and [decode_request] reads request fields
   straight into a [request].  The primitives advance a cursor over the
   line and fail at its offset, so the two readers accept the same bytes
   and report the same errors. *)

exception Parse of string

type cursor = { s : string; mutable pos : int }

let fail c msg = raise (Parse (Printf.sprintf "%s at offset %d" msg c.pos))
let[@inline] at c ch = c.pos < String.length c.s && String.unsafe_get c.s c.pos = ch

let[@inline] skip_ws c =
  let s = c.s in
  let i = ref c.pos in
  while
    !i < String.length s
    && match String.unsafe_get s !i with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    incr i
  done;
  c.pos <- !i

let expect c ch =
  if at c ch then c.pos <- c.pos + 1 else fail c (Printf.sprintf "expected %C" ch)

let literal c lit =
  let p = c.pos and l = String.length lit in
  let ok = ref (p + l <= String.length c.s) and i = ref 0 in
  while !ok && !i < l do
    if String.unsafe_get c.s (p + !i) <> String.unsafe_get lit !i then ok := false;
    incr i
  done;
  if !ok then c.pos <- p + l else fail c ("expected " ^ lit)

(* The index of the first '"' or '\\' at or after [i] in a string body. *)
let rec string_stop c i =
  if i >= String.length c.s then begin
    c.pos <- i;
    fail c "unterminated string"
  end
  else
    match String.unsafe_get c.s i with
    | '"' | '\\' -> i
    | ch when Char.code ch < 0x20 ->
        c.pos <- i + 1;
        fail c "raw control character in string"
    | _ -> string_stop c (i + 1)

let hex_digit = function
  | '0' .. '9' as h -> Char.code h - 48
  | 'a' .. 'f' as h -> Char.code h - 87
  | 'A' .. 'F' as h -> Char.code h - 55
  | _ -> -1

(* The rest of a string body from [c.pos], escapes included, decoded
   into [buf] up to and past its closing quote. *)
let rec escaped_rest c buf =
  let s = c.s in
  if c.pos >= String.length s then fail c "unterminated string";
  let ch = String.unsafe_get s c.pos in
  c.pos <- c.pos + 1;
  match ch with
  | '"' -> ()
  | '\\' ->
      if c.pos >= String.length s then fail c "unterminated escape";
      let e = String.unsafe_get s c.pos in
      c.pos <- c.pos + 1;
      let d =
        match e with
        | '"' | '\\' | '/' -> e
        | 'n' -> '\n'
        | 'r' -> '\r'
        | 't' -> '\t'
        | 'b' -> '\b'
        | 'f' -> '\012'
        | 'u' ->
            if c.pos + 4 > String.length s then fail c "truncated \\u escape";
            let p = c.pos in
            c.pos <- p + 4;
            let code = ref 0 in
            for i = p to p + 3 do
              let h = hex_digit (String.unsafe_get s i) in
              if h < 0 then fail c "bad \\u escape";
              code := (!code lsl 4) lor h
            done;
            (* The protocol is ASCII; anything beyond maps to '?'. *)
            if !code < 128 then Char.unsafe_chr !code else '?'
        | _ -> fail c "unknown escape"
      in
      Buffer.add_char buf d;
      escaped_rest c buf
  | ch when Char.code ch < 0x20 -> fail c "raw control character in string"
  | ch ->
      Buffer.add_char buf ch;
      escaped_rest c buf

(* A string without escapes — field names, synopsis names, ids — costs
   one String.sub; only one with escapes goes through a buffer. *)
let parse_string c =
  expect c '"';
  let start = c.pos in
  let stop = string_stop c start in
  if String.unsafe_get c.s stop = '"' then begin
    c.pos <- stop + 1;
    String.sub c.s start (stop - start)
  end
  else begin
    let buf = Buffer.create (stop - start + 16) in
    Buffer.add_substring buf c.s start (stop - start);
    c.pos <- stop;
    escaped_rest c buf;
    Buffer.contents buf
  end

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let rec number_end s i =
  if i < String.length s && is_num_char (String.unsafe_get s i) then number_end s (i + 1)
  else i

let no_int = min_int

(* The plain integer token [-?[0-9]{1,15}] at [c.pos], consumed; [no_int]
   (nothing consumed) when the token there is any other.  Range indices,
   budgets and counts — the overwhelming request mix — are plain
   integers, read by this digit loop without allocating. *)
let plain_int c =
  let s = c.s and start = c.pos in
  let n = String.length s in
  let neg = start < n && String.unsafe_get s start = '-' in
  let d0 = if neg then start + 1 else start in
  let i = ref d0 and v = ref 0 in
  while
    !i < n
    &&
    let ch = String.unsafe_get s !i in
    ch >= '0' && ch <= '9'
  do
    v := (!v * 10) + (Char.code (String.unsafe_get s !i) - 48);
    incr i
  done;
  if !i = d0 || !i - d0 > 15 || (!i < n && is_num_char (String.unsafe_get s !i)) then
    no_int
  else begin
    c.pos <- !i;
    if neg then - !v else !v
  end

let bad_number c start stop =
  fail c (Printf.sprintf "bad number %S" (String.sub c.s start (stop - start)))

(* 15 digits < 2^53, so [float_of_int] of a plain integer is exact and
   bit-identical to [float_of_string]; "-0" keeps its sign. *)
let parse_number c =
  let s = c.s and start = c.pos in
  let v = plain_int c in
  if v <> no_int then
    if v = 0 && String.unsafe_get s start = '-' then -0. else float_of_int v
  else begin
    let stop = number_end s start in
    c.pos <- stop;
    if stop = start then fail c "expected a number";
    (* float_of_string is laxer than JSON: no leading '+' or '.', and no
       '.' right after the sign either *)
    (match String.unsafe_get s start with
    | '+' | '.' -> bad_number c start stop
    | '-' when start + 1 < stop && String.unsafe_get s (start + 1) = '.' ->
        bad_number c start stop
    | _ -> ());
    match float_of_string_opt (String.sub s start (stop - start)) with
    | Some x when Float.is_finite x -> x
    | _ -> bad_number c start stop
  end

(* Whether the byte at [c.pos] starts what [parse_value] reads as a
   number: any byte that opens no other kind of value.  The number
   parser then accepts it or reports the error. *)
let[@inline] at_number c =
  c.pos < String.length c.s
  &&
  match String.unsafe_get c.s c.pos with
  | '{' | '[' | '"' | 't' | 'f' | 'n' -> false
  | _ -> true

let rec parse_value c depth =
  if depth > 32 then fail c "nesting too deep";
  skip_ws c;
  if c.pos >= String.length c.s then fail c "unexpected end of input";
  match String.unsafe_get c.s c.pos with
  | '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if at c '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else Obj (List.rev (parse_members c depth []))
  | '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if at c ']' then begin
        c.pos <- c.pos + 1;
        Arr []
      end
      else Arr (List.rev (parse_elements c depth []))
  | '"' -> Str (parse_string c)
  | 't' ->
      literal c "true";
      Bool true
  | 'f' ->
      literal c "false";
      Bool false
  | 'n' ->
      literal c "null";
      Null
  | _ -> Num (parse_number c)

and parse_members c depth acc =
  skip_ws c;
  let k = parse_string c in
  skip_ws c;
  expect c ':';
  let acc = (k, parse_value c (depth + 1)) :: acc in
  skip_ws c;
  if at c ',' then begin
    c.pos <- c.pos + 1;
    parse_members c depth acc
  end
  else if at c '}' then begin
    c.pos <- c.pos + 1;
    acc
  end
  else fail c "expected ',' or '}'"

and parse_elements c depth acc =
  let acc = parse_value c (depth + 1) :: acc in
  skip_ws c;
  if at c ',' then begin
    c.pos <- c.pos + 1;
    parse_elements c depth acc
  end
  else if at c ']' then begin
    c.pos <- c.pos + 1;
    acc
  end
  else fail c "expected ',' or ']'"

let finish c =
  skip_ws c;
  if c.pos <> String.length c.s then fail c "trailing garbage"

let json_of_string s =
  let c = { s; pos = 0 } in
  match
    let v = parse_value c 0 in
    finish c;
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

(* Request decoding reads the line once and writes the fields straight
   into the [request]; no [json] tree is built.  Its contract is the AST
   reading — [json_of_string], then the first occurrence of each field
   (what [List.assoc_opt] finds), then the field checks — and it returns
   the same [Ok] request and the same [Error] string, offset included
   (test_serve.ml keeps that AST decoder as the oracle).  So:
   - a known key is decoded into its slot at its first occurrence; an
     unknown key, a later duplicate and a known key whose value has the
     wrong shape are read by [parse_value] from the start of the value,
     which keeps syntax errors at the AST reader's offsets;
   - the field checks run only once the whole line has parsed, in the
     AST decoder's order.
   On a line of known keys whose numbers are plain integers only the
   result is allocated, plus the cursor: the ranges or deltas array and
   its pairs, the id and synopsis strings.  Other number tokens also
   allocate their span for [float_of_string], and a value read by
   [parse_value] its tree. *)

exception Wrong_shape

type slot = Absent | Present | Mistyped | Malformed

let keys =
  [|
    "op"; "id"; "synopsis"; "ranges"; "deltas"; "deadline_ms"; "poll_budget"; "attempt";
  |]

let ops = [| "ping"; "metrics"; "reload"; "shutdown"; "query"; "ingest" |]

let slice_equal s off len t =
  String.length t = len
  &&
  let i = ref 0 in
  while !i < len && String.unsafe_get s (off + !i) = String.unsafe_get t !i do
    incr i
  done;
  !i = len

let rec find_slice s off len table k =
  if k = Array.length table then -1
  else if slice_equal s off len (Array.unsafe_get table k) then k
  else find_slice s off len table (k + 1)

(* Reads a string and returns its index in [table], or -1.  A string
   without escapes is compared in place. *)
let string_code c table =
  let quote = c.pos in
  expect c '"';
  let start = c.pos in
  let stop = string_stop c start in
  if String.unsafe_get c.s stop = '"' then begin
    c.pos <- stop + 1;
    find_slice c.s start (stop - start) table 0
  end
  else begin
    c.pos <- quote;
    let str = parse_string c in
    find_slice str 0 (String.length str) table 0
  end

(* An integer field or range end: the number at [c.pos] (after
   whitespace) when it is integral and at most 1e9 in magnitude. *)
let int_item c =
  skip_ws c;
  if not (at_number c) then raise_notrace Wrong_shape;
  let v = plain_int c in
  if v = no_int then begin
    let x = parse_number c in
    if not (Float.is_integer x && Float.abs x <= 1e9) then raise_notrace Wrong_shape;
    int_of_float x
  end
  else if abs v > 1_000_000_000 then raise_notrace Wrong_shape
  else v

(* The start of a pair after its '[': the first item, then the comma. *)
let pair_head c =
  skip_ws c;
  if at c ']' then raise_notrace Wrong_shape;
  let a = int_item c in
  skip_ws c;
  if not (at c ',') then raise_notrace Wrong_shape;
  c.pos <- c.pos + 1;
  a

let range_pair c =
  let a = pair_head c in
  (a, int_item c)

let delta_pair c =
  let i = pair_head c in
  skip_ws c;
  if not (at_number c) then raise_notrace Wrong_shape;
  (i, parse_number c)

(* The number of '[' one level inside the array from [i] on: from a
   ',' between pairs, the number of pairs left.  A byte count, not a
   parse: on any other value the count may be wrong, and [fill_pairs]
   refuses the shape. *)
let rec count_pairs s i depth n =
  if i >= String.length s then n
  else
    match String.unsafe_get s i with
    | '[' -> count_pairs s (i + 1) (depth + 1) (if depth = 0 then n + 1 else n)
    | ']' -> if depth = 0 then n else count_pairs s (i + 1) (depth - 1) n
    | _ -> count_pairs s (i + 1) depth n

(* Reads a ',' and a pair into each of [out]'s slots from [i] on, then
   the array's closing ']'. *)
let fill_pairs c pair out i =
  for j = i to Array.length out - 1 do
    skip_ws c;
    if not (at c ',') then raise_notrace Wrong_shape;
    c.pos <- c.pos + 1;
    skip_ws c;
    if not (at c '[') then raise_notrace Wrong_shape;
    c.pos <- c.pos + 1;
    Array.unsafe_set out j (pair c);
    skip_ws c;
    if not (at c ']') then raise_notrace Wrong_shape;
    c.pos <- c.pos + 1
  done;
  skip_ws c;
  if not (at c ']') then raise_notrace Wrong_shape;
  c.pos <- c.pos + 1

(* Pairs past this many are counted and read by [fill_pairs], so the
   stack stays bounded whatever the line. *)
let max_pair_depth = 1024

(* The pairs from the [i]th on, up to the array's closing ']': each
   level keeps its pair while the deeper ones read the rest, so the
   result is allocated once, when its length is known.  This is faster
   than counting the pairs first, which only arrays longer than
   [max_pair_depth] pay. *)
let rec pairs_from c pair dummy i =
  skip_ws c;
  if not (at c '[') then raise_notrace Wrong_shape;
  c.pos <- c.pos + 1;
  let p = pair c in
  skip_ws c;
  if not (at c ']') then raise_notrace Wrong_shape;
  c.pos <- c.pos + 1;
  skip_ws c;
  let out =
    if at c ',' then
      if i < max_pair_depth then begin
        c.pos <- c.pos + 1;
        pairs_from c pair dummy (i + 1)
      end
      else begin
        let out = Array.make (i + 1 + count_pairs c.s c.pos 0 0) dummy in
        fill_pairs c pair out (i + 1);
        out
      end
    else if at c ']' then begin
      c.pos <- c.pos + 1;
      Array.make (i + 1) dummy
    end
    else raise_notrace Wrong_shape
  in
  Array.unsafe_set out i p;
  out

(* The array at [c.pos] (on its '[') of pairs read by [pair].  Raises
   [Wrong_shape] on any other shape, leaving the cursor anywhere inside
   the value. *)
let decode_pairs c pair dummy =
  c.pos <- c.pos + 1;
  skip_ws c;
  if at c ']' then begin
    c.pos <- c.pos + 1;
    [||]
  end
  else pairs_from c pair dummy 0

let must_be name what = Error (Printf.sprintf "field %S must be %s" name what)

let int_error name = function
  | Mistyped -> must_be name "a number"
  | _ -> must_be name "an integer"

let decode_request line =
  let c = { s = line; pos = 0 } in
  let seen = ref 0 in
  let op = ref (-1) and op_slot = ref Absent and op_at = ref 0 in
  let id = ref "" and id_slot = ref Absent in
  let synopsis = ref "" and synopsis_slot = ref Absent in
  let ranges = ref [||] and ranges_slot = ref Absent in
  let deltas = ref [||] and deltas_slot = ref Absent in
  let deadline = ref 0. and deadline_slot = ref Absent in
  let poll = ref 0 and poll_slot = ref Absent in
  let attempt = ref 1 and attempt_slot = ref Absent in
  match
    skip_ws c;
    if not (at c '{') then ignore (parse_value c 0 : json)
    else begin
      c.pos <- c.pos + 1;
      skip_ws c;
      if at c '}' then c.pos <- c.pos + 1
      else begin
        let more = ref true in
        while !more do
          skip_ws c;
          let key = string_code c keys in
          skip_ws c;
          expect c ':';
          let v = c.pos in
          if key < 0 || !seen land (1 lsl key) <> 0 then ignore (parse_value c 1 : json)
          else begin
            seen := !seen lor (1 lsl key);
            skip_ws c;
            (* the value's shape decides the slot; a [Mistyped] or
               [Malformed] value is re-read by [parse_value] *)
            let slot =
              match key with
              | 0 ->
                  if not (at c '"') then Mistyped
                  else begin
                    op_at := c.pos;
                    op := string_code c ops;
                    Present
                  end
              | 1 | 2 ->
                  if not (at c '"') then Mistyped
                  else begin
                    if key = 1 then id := parse_string c else synopsis := parse_string c;
                    Present
                  end
              | 3 | 4 -> (
                  if not (at c '[') then Mistyped
                  else
                    match
                      if key = 3 then ranges := decode_pairs c range_pair (0, 0)
                      else deltas := decode_pairs c delta_pair (0, 0.)
                    with
                    | () -> Present
                    | exception Wrong_shape -> Malformed)
              | 5 ->
                  if not (at_number c) then Mistyped
                  else begin
                    deadline := parse_number c;
                    Present
                  end
              | _ -> (
                  if not (at_number c) then Mistyped
                  else
                    match int_item c with
                    | x ->
                        if key = 6 then poll := x else attempt := x;
                        Present
                    | exception Wrong_shape -> Malformed)
            in
            (match slot with
            | Mistyped | Malformed ->
                c.pos <- v;
                ignore (parse_value c 1 : json)
            | Absent | Present -> ());
            match key with
            | 0 -> op_slot := slot
            | 1 -> id_slot := slot
            | 2 -> synopsis_slot := slot
            | 3 -> ranges_slot := slot
            | 4 -> deltas_slot := slot
            | 5 -> deadline_slot := slot
            | 6 -> poll_slot := slot
            | _ -> attempt_slot := slot
          end;
          skip_ws c;
          if at c ',' then c.pos <- c.pos + 1
          else if at c '}' then begin
            c.pos <- c.pos + 1;
            more := false
          end
          else fail c "expected ',' or '}'"
        done
      end
    end;
    finish c
  with
  | exception Parse msg -> Error msg
  | () -> (
      match (!op_slot, !op) with
      | Absent, _ -> Error "missing \"op\" field"
      | (Mistyped | Malformed), _ -> must_be "op" "a string"
      | Present, 0 -> Ok Ping
      | Present, 1 -> Ok Metrics
      | Present, 2 -> Ok Reload
      | Present, 3 -> Ok Shutdown
      | Present, 4 ->
          if !id_slot = Mistyped then must_be "id" "a string"
          else if !synopsis_slot = Mistyped then must_be "synopsis" "a string"
          else if !ranges_slot = Absent then Error "query needs a \"ranges\" array"
          else if !ranges_slot = Mistyped then must_be "ranges" "an array"
          else if !ranges_slot = Malformed then
            Error "each range must be a pair [a,b] of integers"
          else if !deadline_slot = Mistyped then must_be "deadline_ms" "a number"
          else if !deadline_slot = Present && !deadline <= 0. then
            Error "\"deadline_ms\" must be positive"
          else if !poll_slot = Mistyped || !poll_slot = Malformed then
            int_error "poll_budget" !poll_slot
          else if !poll_slot = Present && !poll < 1 then
            Error "\"poll_budget\" must be >= 1"
          else if !attempt_slot = Mistyped || !attempt_slot = Malformed then
            int_error "attempt" !attempt_slot
          else if !attempt < 1 then Error "\"attempt\" must be >= 1"
          else if !synopsis_slot = Absent then Error "query needs a \"synopsis\" name"
          else
            Ok
              (Query
                 {
                   id = (if !id_slot = Present then Some !id else None);
                   synopsis = !synopsis;
                   ranges = !ranges;
                   deadline_ms =
                     (if !deadline_slot = Present then Some !deadline else None);
                   poll_budget = (if !poll_slot = Present then Some !poll else None);
                   attempt = !attempt;
                 })
      | Present, 5 ->
          if !id_slot = Mistyped then must_be "id" "a string"
          else if !synopsis_slot = Mistyped then must_be "synopsis" "a string"
          else if !deltas_slot = Absent then Error "ingest needs a \"deltas\" array"
          else if !deltas_slot = Mistyped then must_be "deltas" "an array"
          else if !deltas_slot = Malformed then
            Error
              "each delta must be a pair [i,d] of an integer position and a \
               finite value"
          else if !synopsis_slot = Absent then Error "ingest needs a \"synopsis\" name"
          else
            Ok
              (Ingest
                 {
                   id = (if !id_slot = Present then Some !id else None);
                   synopsis = !synopsis;
                   deltas = !deltas;
                 })
      | Present, _ ->
          c.pos <- !op_at;
          Error (Printf.sprintf "unknown op %S" (parse_string c)))

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

(* Direct writer: emits the exact bytes that rendering the response as
   a [json] tree with [json_to_string] would, without building the tree
   — once [buf] has grown to fit, the steady-state encode path allocates
   nothing.  Field order and float encoding are contractual (restart
   determinism tests compare whole response lines); test_serve.ml
   checks every branch here, field for field, against an oracle that
   renders the response's AST. *)
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
