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

module Cursor = Rs_util.Checkpoint.Cursor

(* Scalar fields take the rest of their line as it is ("n  5" is not an
   int); arrays take its words. *)
let rest_int cur = Cursor.int_of cur (Cursor.rest cur)

let field_floats cur key =
  Cursor.expect cur key;
  Cursor.floats cur

(* Every float in a synopsis file is an answering value (averages,
   suffix/prefix sums, fits, coefficients): a NaN or infinity would
   turn estimates into NaN, so {!Cursor.float} refuses it as corruption
   even under a valid CRC. *)
let read_coeffs cur =
  Array.of_list
    (List.map
       (fun w ->
         match String.index_opt w ':' with
         | None -> Cursor.fail cur "expected index:value, got %S" w
         | Some i ->
             ( Cursor.int_of cur (String.sub w 0 i),
               Cursor.float_of cur
                 (String.sub w (i + 1) (String.length w - i - 1)) ))
       (Cursor.words cur))

let parse_histogram cur =
  Cursor.expect cur "name";
  let name = Cursor.rest cur in
  Cursor.expect cur "n";
  let n = rest_int cur in
  Cursor.expect cur "rounded";
  let rounded =
    match bool_of_string_opt (Cursor.rest cur) with
    | Some b -> b
    | None -> Cursor.fail cur "not a bool: %S" (Cursor.rest cur)
  in
  Cursor.expect cur "rights";
  let bucketing = Bucket.of_rights ~n (Cursor.ints cur) in
  Cursor.expect cur "repr";
  let repr =
    match Cursor.rest cur with
    | "avg" -> H.Avg (field_floats cur "values")
    | "sap0" ->
        let suff = field_floats cur "suff" in
        let pref = field_floats cur "pref" in
        H.Sap0 { suff; pref }
    | "sap0x" ->
        let avg = field_floats cur "avg" in
        let suff = field_floats cur "suff" in
        let pref = field_floats cur "pref" in
        H.Sap0_explicit { avg; suff; pref }
    | "sap1" ->
        let ss = field_floats cur "suff_slope" in
        let si = field_floats cur "suff_icept" in
        let sr = field_floats cur "suff_rss" in
        let ps = field_floats cur "pref_slope" in
        let pi = field_floats cur "pref_icept" in
        let pr = field_floats cur "pref_rss" in
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
    | other -> Cursor.fail cur "unknown histogram repr %S" other
  in
  Synopsis.Histogram (H.make ~rounded ~name bucketing repr)

let parse_wavelet cur =
  Cursor.expect cur "name";
  let name = Cursor.rest cur in
  Cursor.expect cur "n";
  let n = rest_int cur in
  Cursor.expect cur "domain";
  let domain = Cursor.rest cur and domain_line = Cursor.line cur in
  Cursor.expect cur "coeffs";
  let coeffs = read_coeffs cur in
  match domain with
  | "data" -> Synopsis.Wavelet (W.of_coefficients ~name ~n W.Data coeffs)
  | "prefix" -> Synopsis.Wavelet (W.of_coefficients ~name ~n W.Prefix_sums coeffs)
  | "two-sided" ->
      Cursor.expect cur "left";
      let left = read_coeffs cur in
      Synopsis.Wavelet (W.of_two_sided ~name ~n coeffs left)
  | other ->
      let reason = Printf.sprintf "unknown wavelet domain %S" other in
      Error.raise_error (Error.Corrupt_synopsis { line = domain_line; reason })

(* CRLF-tolerant: CR bytes are stripped before anything (including the
   CRC) looks at the content, so both line conventions verify and parse
   identically. *)
let normalize s =
  if String.contains s '\r' then
    String.concat "" (String.split_on_char '\r' s)
  else s

let error ~line reason = Error.Corrupt_synopsis { line; reason }

let decode s =
  Faults.trip "codec.decode";
  let kind, cur =
    Rs_util.Checkpoint.unframe ~legacy:1 ~magic:"range-synopsis" ~version
      ~error (normalize s)
  in
  match kind with
  | "histogram" -> parse_histogram cur
  | "wavelet" -> parse_wavelet cur
  | other -> Cursor.fail cur "unknown kind %S" other

let decode_result s =
  match decode s with
  | v -> Ok v
  | exception Error.Rs_error (Error.Corrupt_synopsis _ as e) -> Error e
  | exception Invalid_argument reason ->
      (* Structural constraints (bucket bounds, array lengths) enforced
         by the constructors downstream of parsing. *)
      Error.fail (Error.Corrupt_synopsis { line = 0; reason })
  | exception Faults.Injected { site; reason } ->
      Error.fail
        (Error.Corrupt_synopsis
           { line = 0; reason = Printf.sprintf "%s: %s" site reason })

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
  Result.bind (Rs_util.Checkpoint.read_file ~seam:"codec.load" path)
    decode_result
