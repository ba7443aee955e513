module H = Rs_histogram.Histogram
module Bucket = Rs_histogram.Bucket
module W = Rs_wavelet.Synopsis
module Regression = Rs_linalg.Regression

module Error = Rs_util.Error
module Crc32 = Rs_util.Crc32
module Faults = Rs_util.Faults

let version = 2
let float_str v = Printf.sprintf "%h" v

let floats_line key vs =
  key ^ " " ^ String.concat " " (Array.to_list (Array.map float_str vs))

let ints_line key vs =
  key ^ " " ^ String.concat " " (Array.to_list (Array.map string_of_int vs))

let coeffs_line key cs =
  key ^ " "
  ^ String.concat " "
      (Array.to_list (Array.map (fun (i, v) -> Printf.sprintf "%d:%s" i (float_str v)) cs))

let histogram_lines h =
  let bucketing = H.bucketing h in
  let repr_lines =
    match H.repr h with
    | H.Avg values -> [ "repr avg"; floats_line "values" values ]
    | H.Sap0 { suff; pref } ->
        [ "repr sap0"; floats_line "suff" suff; floats_line "pref" pref ]
    | H.Sap0_explicit { avg; suff; pref } ->
        [
          "repr sap0x";
          floats_line "avg" avg;
          floats_line "suff" suff;
          floats_line "pref" pref;
        ]
    | H.Sap1 { suff; pref } ->
        let field f fits = Array.map f fits in
        [
          "repr sap1";
          floats_line "suff_slope" (field (fun r -> r.Regression.slope) suff);
          floats_line "suff_icept" (field (fun r -> r.Regression.intercept) suff);
          floats_line "suff_rss" (field (fun r -> r.Regression.rss) suff);
          floats_line "pref_slope" (field (fun r -> r.Regression.slope) pref);
          floats_line "pref_icept" (field (fun r -> r.Regression.intercept) pref);
          floats_line "pref_rss" (field (fun r -> r.Regression.rss) pref);
        ]
  in
  [
    "kind histogram";
    "name " ^ H.name h;
    Printf.sprintf "n %d" (Bucket.n bucketing);
    Printf.sprintf "rounded %b" (H.rounded h);
    ints_line "rights" (Bucket.rights bucketing);
  ]
  @ repr_lines

let wavelet_lines w =
  let right, left = W.sides w in
  let domain_line =
    match (W.domain w, left) with
    | W.Data, _ -> "domain data"
    | W.Prefix_sums, None -> "domain prefix"
    | W.Prefix_sums, Some _ -> "domain two-sided"
  in
  [
    "kind wavelet";
    "name " ^ W.name w;
    Printf.sprintf "n %d" (W.n w);
    domain_line;
    coeffs_line "coeffs" right;
  ]
  @ (match left with Some l -> [ coeffs_line "left" l ] | None -> [])

let to_string ?(version = version) s =
  let body =
    match s with
    | Synopsis.Histogram h -> histogram_lines h
    | Synopsis.Wavelet w -> wavelet_lines w
  in
  let body_str = String.concat "\n" body ^ "\n" in
  match version with
  | 1 -> Printf.sprintf "range-synopsis 1\n%s" body_str
  | 2 ->
      (* The CRC line covers every byte after itself (the body,
         CR-normalized), so any bit flip, truncation, or duplicated line
         below it is detected before parsing begins. *)
      Printf.sprintf "range-synopsis 2\ncrc %s\n%s" (Crc32.digest body_str)
        body_str
  | v -> invalid_arg (Printf.sprintf "Codec.to_string: unsupported version %d" v)

(* --- parsing --- *)

(* Internal only: [decode_result] is the boundary that turns this into a
   typed [Corrupt_synopsis]. *)
exception Parse_error of { line : int; reason : string }

type cursor = { mutable lines : (int * string) list }

let fail lineno fmt =
  Printf.ksprintf
    (fun reason -> raise (Parse_error { line = lineno; reason }))
    fmt

let next cur =
  match cur.lines with
  | [] -> raise (Parse_error { line = 0; reason = "unexpected end of input" })
  | (no, l) :: rest ->
      cur.lines <- rest;
      (no, l)

let split_kv lineno line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
      ignore lineno;
      (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))

let expect cur key =
  let no, line = next cur in
  let k, v = split_kv no line in
  if k <> key then fail no "expected %S, got %S" key k;
  (no, v)

(* Every float in a synopsis file is an answering value (averages,
   suffix/prefix sums, fits, coefficients): a NaN or infinity would
   turn estimates into NaN, so it is corruption even under a valid CRC. *)
let parse_float no s =
  match float_of_string_opt s with
  | Some v when Float.is_finite v -> v
  | Some _ -> fail no "non-finite value: %S" s
  | None -> fail no "not a float: %S" s

let parse_int no s =
  match int_of_string_opt s with Some v -> v | None -> fail no "not an int: %S" s

let words s =
  List.filter (fun w -> w <> "") (String.split_on_char ' ' s)

let parse_floats no s = Array.of_list (List.map (parse_float no) (words s))
let parse_ints no s = Array.of_list (List.map (parse_int no) (words s))

let parse_coeffs no s =
  Array.of_list
    (List.map
       (fun w ->
         match String.index_opt w ':' with
         | None -> fail no "expected index:value, got %S" w
         | Some i ->
             ( parse_int no (String.sub w 0 i),
               parse_float no (String.sub w (i + 1) (String.length w - i - 1)) ))
       (words s))

let expect_floats cur key =
  let no, v = expect cur key in
  parse_floats no v

let parse_histogram cur =
  let no_name, name = expect cur "name" in
  ignore no_name;
  let no_n, n_str = expect cur "n" in
  let n = parse_int no_n n_str in
  let no_r, rounded_str = expect cur "rounded" in
  let rounded =
    match bool_of_string_opt rounded_str with
    | Some b -> b
    | None -> fail no_r "not a bool: %S" rounded_str
  in
  let no_rights, rights_str = expect cur "rights" in
  let rights = parse_ints no_rights rights_str in
  let bucketing = Bucket.of_rights ~n rights in
  let no_repr, repr_kind = expect cur "repr" in
  let repr =
    match repr_kind with
    | "avg" -> H.Avg (expect_floats cur "values")
    | "sap0" ->
        let suff = expect_floats cur "suff" in
        let pref = expect_floats cur "pref" in
        H.Sap0 { suff; pref }
    | "sap0x" ->
        let avg = expect_floats cur "avg" in
        let suff = expect_floats cur "suff" in
        let pref = expect_floats cur "pref" in
        H.Sap0_explicit { avg; suff; pref }
    | "sap1" ->
        let ss = expect_floats cur "suff_slope" in
        let si = expect_floats cur "suff_icept" in
        let sr = expect_floats cur "suff_rss" in
        let ps = expect_floats cur "pref_slope" in
        let pi = expect_floats cur "pref_icept" in
        let pr = expect_floats cur "pref_rss" in
        let fits slope icept rss =
          Rs_util.Checks.check
            (Array.length slope = Array.length icept
            && Array.length slope = Array.length rss)
            "Codec: sap1 arrays disagree in length";
          Array.init (Array.length slope) (fun k ->
              {
                Regression.slope = slope.(k);
                intercept = icept.(k);
                rss = rss.(k);
              })
        in
        H.Sap1 { suff = fits ss si sr; pref = fits ps pi pr }
    | other -> fail no_repr "unknown histogram repr %S" other
  in
  Synopsis.Histogram (H.make ~rounded ~name bucketing repr)

let parse_wavelet cur =
  let _, name = expect cur "name" in
  let no_n, n_str = expect cur "n" in
  let n = parse_int no_n n_str in
  let no_d, domain = expect cur "domain" in
  let no_c, coeffs_str = expect cur "coeffs" in
  let coeffs = parse_coeffs no_c coeffs_str in
  match domain with
  | "data" -> Synopsis.Wavelet (W.of_coefficients ~name ~n W.Data coeffs)
  | "prefix" -> Synopsis.Wavelet (W.of_coefficients ~name ~n W.Prefix_sums coeffs)
  | "two-sided" ->
      let no_l, left_str = expect cur "left" in
      let left = parse_coeffs no_l left_str in
      Synopsis.Wavelet (W.of_two_sided ~name ~n coeffs left)
  | other -> fail no_d "unknown wavelet domain %S" other

let parse_body ~first_line body =
  let lines =
    List.filteri
      (fun _ (_, l) -> String.trim l <> "")
      (List.mapi
         (fun i l -> (i + first_line, String.trim l))
         (String.split_on_char '\n' body))
  in
  let cur = { lines } in
  let no_k, kind = expect cur "kind" in
  match kind with
  | "histogram" -> parse_histogram cur
  | "wavelet" -> parse_wavelet cur
  | other -> fail no_k "unknown kind %S" other

let split_first_line s =
  match String.index_opt s '\n' with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

(* CRLF-tolerant: CR bytes are stripped before anything (including the
   CRC) looks at the content, so both line conventions verify and parse
   identically. *)
let normalize s =
  if String.contains s '\r' then
    String.concat "" (String.split_on_char '\r' s)
  else s

let decode s =
  Faults.trip "codec.decode";
  let s = normalize s in
  let header, rest = split_first_line s in
  match words (String.trim header) with
  | [ "range-synopsis"; "1" ] -> parse_body ~first_line:2 rest
  | [ "range-synopsis"; "2" ] -> (
      let crc_line, body = split_first_line rest in
      match words (String.trim crc_line) with
      | [ "crc"; hex ] -> (
          match Crc32.of_hex hex with
          | None -> fail 2 "malformed crc %S" hex
          | Some expected ->
              let actual = Crc32.string body in
              if actual <> expected then
                fail 2 "CRC mismatch: stored %s, computed %s" hex
                  (Crc32.to_hex actual);
              parse_body ~first_line:3 body)
      | _ -> fail 2 "expected a crc line, got %S" crc_line)
  | [ "range-synopsis"; v ] -> fail 1 "unsupported version %s" v
  | _ -> fail 1 "not a range-synopsis file"

let decode_result s =
  match decode s with
  | v -> Ok v
  | exception Parse_error { line; reason } ->
      Error.fail (Error.Corrupt_synopsis { line; reason })
  | exception Invalid_argument reason ->
      (* Structural constraints (bucket bounds, array lengths) enforced
         by the constructors downstream of parsing. *)
      Error.fail (Error.Corrupt_synopsis { line = 0; reason })
  | exception Faults.Injected { site; reason } ->
      Error.fail
        (Error.Corrupt_synopsis
           { line = 0; reason = Printf.sprintf "%s: %s" site reason })

let of_string s =
  match decode_result s with
  | Ok v -> v
  | Error (Error.Corrupt_synopsis { line; reason }) ->
      invalid_arg (Printf.sprintf "Codec: line %d: %s" line reason)
  | Error e -> invalid_arg ("Codec: " ^ Error.to_string e)

(* Crash-safe: encode fully in memory, then temp file + fsync + atomic
   rename via {!Rs_util.Checkpoint} — a crash mid-save leaves the old
   file intact, never a torn one, and the fd is closed on every error
   path. *)
let save s path =
  Faults.trip "codec.save";
  Rs_util.Checkpoint.write_atomic ~path (to_string s)

let save_result s path =
  match save s path with
  | () -> Ok ()
  | exception Error.Rs_error e -> Error e
  | exception Faults.Injected { reason; site = _ } ->
      Error.fail (Error.Io_failure { path; reason })

let load_result path =
  match
    Faults.trip "codec.load";
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error reason -> Error.fail (Error.Io_failure { path; reason })
  | exception Faults.Injected { reason; _ } ->
      Error.fail (Error.Io_failure { path; reason })
  | content -> decode_result content

let load path =
  match load_result path with
  | Ok s -> s
  | Error e -> invalid_arg ("Codec: " ^ Error.to_string e)
