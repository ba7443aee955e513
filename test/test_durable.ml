(* Differential suite for the durable-record readers.

   Every body parser behind a valid CRC — the codec (v1 and v2), the
   OPT-A row snapshot, the store MANIFEST, the STREAM and BUILD
   manifests and the WAL record line — is run against the line-list
   parser it replaced, copied below as an oracle ([Old]).  The existing
   fuzzers mostly trip a CRC, so they never reach a parser; here every
   mutant is made at the body level (dropped, duplicated or swapped
   lines, words replaced by non-numbers, words added or removed, blank
   lines, CRLF, padding) and re-framed with a correct CRC.  Each must
   give the same [Ok] value ([%h]-exact) or the same error constructor
   — for the codec, on the same line.

   The divergences allowed, each checked in the direction it goes:
   - a non-finite or negative staleness mass ([dirty]) or a non-finite
     [stale_threshold] in a STREAM manifest, and a non-finite partial
     cost in an OPT-A snapshot slot, were accepted and are now
     [Corrupt_checkpoint];
   - a BUILD line made only of whitespace that is not all spaces (a tab,
     a CR) was refused and is now skipped as blank, as every other
     durable reader already did;
   - the checkpoint container's frame lines now read as the codec's
     always did: a run of spaces between the words of the header or
     the crc line, and blank lines before the kind line, were refused
     and are now accepted with the same body.

   The frames themselves (header, crc and kind lines, both magics) get
   their own mutants, compared against the two verifiers the one
   [Checkpoint.unframe] replaced. *)

module Error = Rs_util.Error
module Crc32 = Rs_util.Crc32
module Checkpoint = Rs_util.Checkpoint
module Prefix = Rs_util.Prefix
module Governor = Rs_util.Governor
module Rng = Rs_dist.Rng
module Dataset = Rs_core.Dataset
module Builder = Rs_core.Builder
module Codec = Rs_core.Codec
module Store = Rs_core.Store
module Stream = Rs_core.Stream
module Supervisor = Rs_core.Supervisor
module Synopsis = Rs_core.Synopsis
module Opt_a = Rs_histogram.Opt_a
module Ktbl = Rs_histogram.Ktbl
module Bucket = Rs_histogram.Bucket
module Histogram = Rs_histogram.Histogram
module W = Rs_wavelet.Synopsis

(* --- the line-list parsers the shared cursor replaced, as oracles --- *)

module Old = struct
  module Codec = struct
    module H = Rs_histogram.Histogram
    module Bucket = Rs_histogram.Bucket
    module W = Rs_wavelet.Synopsis
    module Regression = Rs_linalg.Regression
    module Synopsis = Rs_core.Synopsis

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
  end

  module Snapshot_io = struct
    type cursor = { path : string; mutable lines : string list; mutable line_no : int }

    let corrupt_at path line_no fmt =
      Printf.ksprintf
        (fun reason ->
          Error.raise_error
            (Error.Corrupt_checkpoint
               { path; reason = Printf.sprintf "body line %d: %s" line_no reason }))
        fmt

    let corrupt cur fmt = corrupt_at cur.path cur.line_no fmt

    let of_body ~path body =
      {
        path;
        lines =
          List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' body);
        line_no = 0;
      }

    let at_end cur = cur.lines = []

    let words s = List.filter (fun w -> w <> "") (String.split_on_char ' ' s)

    let next_words cur =
      match cur.lines with
      | [] -> corrupt cur "unexpected end of snapshot"
      | l :: rest ->
          cur.lines <- rest;
          cur.line_no <- cur.line_no + 1;
          words l

    (* [expect cur key] reads the next line, checks its first word, and
       returns the remaining words. *)
    let expect cur key =
      match next_words cur with
      | k :: rest when k = key -> rest
      | k :: _ -> corrupt cur "expected %S, got %S" key k
      | [] -> corrupt cur "expected %S, got an empty line" key

    let int_of cur s =
      match int_of_string_opt s with
      | Some v -> v
      | None -> corrupt cur "not an int: %S" s

    let float_of cur s =
      match float_of_string_opt s with
      | Some v -> v
      | None -> corrupt cur "not a float: %S" s

    let expect_int cur key =
      match expect cur key with
      | [ v ] -> int_of cur v
      | _ -> corrupt cur "expected a single %s value" key

    let expect_string cur key =
      match expect cur key with
      | [ v ] -> v
      | vs -> String.concat " " vs

    (* [check_field cur key expected actual] enforces an identity field of a
       snapshot: resuming against the wrong dataset, stage, or shape must be
       refused as corruption, never silently computed. *)
    let check_int cur key expected actual =
      if expected <> actual then
        corrupt cur "%s mismatch: snapshot has %d, caller has %d" key actual
          expected

    let check_string cur key expected actual =
      if not (String.equal expected actual) then
        corrupt cur "%s mismatch: snapshot has %S, caller has %S" key actual
          expected
  end

  module Snapshot = struct
    module Ktbl = Rs_histogram.Ktbl
    type resume_state = {
      r_key_cap : int;
      r_total : int;
      r_next_k : int;
      r_next_i : int;
      r_cells : (int * int * Ktbl.t) list;
    }

    let load_snapshot ~path ~stage ~fingerprint ~n ~b ~key_cap ~beam body =
      match () with
      | () ->
          let cur = Snapshot_io.of_body ~path body in
          Snapshot_io.check_string cur "engine" "opt-a"
            (Snapshot_io.expect_string cur "engine");
          Snapshot_io.check_string cur "stage" stage
            (Snapshot_io.expect_string cur "stage");
          Snapshot_io.check_string cur "fingerprint" fingerprint
            (Snapshot_io.expect_string cur "fingerprint");
          Snapshot_io.check_int cur "n" n (Snapshot_io.expect_int cur "n");
          Snapshot_io.check_int cur "buckets" b (Snapshot_io.expect_int cur "buckets");
          let snap_cap = Snapshot_io.expect_int cur "key_cap" in
          (match key_cap with
          | Some c -> Snapshot_io.check_int cur "key_cap" c snap_cap
          | None -> ());
          if snap_cap <= 0 then Snapshot_io.corrupt cur "key_cap must be positive";
          Snapshot_io.check_int cur "beam"
            (match beam with Some x -> x | None -> 0)
            (Snapshot_io.expect_int cur "beam");
          let total = Snapshot_io.expect_int cur "states" in
          if total < 1 then Snapshot_io.corrupt cur "state count must be >= 1";
          let next_k, next_i =
            match Snapshot_io.expect cur "next" with
            | [ k; i ] -> (Snapshot_io.int_of cur k, Snapshot_io.int_of cur i)
            | _ -> Snapshot_io.corrupt cur "expected \"next <k> <i>\""
          in
          if next_k < 1 || next_k > b || next_i < next_k || next_i > n then
            Snapshot_io.corrupt cur "resume position (%d, %d) out of range" next_k
              next_i;
          let cells = ref [] in
          while not (Snapshot_io.at_end cur) do
            match Snapshot_io.expect cur "cell" with
            | [ k; i; cap; cnt ] ->
                let k = Snapshot_io.int_of cur k
                and i = Snapshot_io.int_of cur i
                and cap = Snapshot_io.int_of cur cap
                and cnt = Snapshot_io.int_of cur cnt in
                if k < 0 || k > b || i < 0 || i > n then
                  Snapshot_io.corrupt cur "cell (%d, %d) out of range" k i;
                if cnt < 0 || cnt > cap then
                  Snapshot_io.corrupt cur "cell (%d, %d): bad slot count %d" k i cnt;
                let slots =
                  Array.init cnt (fun _ ->
                      match Snapshot_io.expect cur "s" with
                      | [ slot; key; f; pj; pk ] ->
                          ( Snapshot_io.int_of cur slot,
                            Snapshot_io.int_of cur key,
                            Snapshot_io.float_of cur f,
                            Snapshot_io.int_of cur pj,
                            Snapshot_io.int_of cur pk )
                      | _ -> Snapshot_io.corrupt cur "expected \"s <slot> <key> <f> <pj> <pk>\"")
                in
                let tbl =
                  match Ktbl.import { Ktbl.capacity = cap; slots } with
                  | tbl -> tbl
                  | exception Invalid_argument reason ->
                      Snapshot_io.corrupt cur "cell (%d, %d): %s" k i reason
                in
                cells := (k, i, tbl) :: !cells
            | _ -> Snapshot_io.corrupt cur "expected \"cell <k> <i> <cap> <count>\""
          done;
          {
            r_key_cap = snap_cap;
            r_total = total;
            r_next_k = next_k;
            r_next_i = next_i;
            r_cells = !cells;
          }

  end

  module Checkpoint = struct
    let magic = "rs-checkpoint"
    let version = 1

    let corrupt path reason = Error.fail (Error.Corrupt_checkpoint { path; reason })

    let split_first_line s =
      match String.index_opt s '\n' with
      | None -> (s, "")
      | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

    let load ~path ~kind content =
      match Ok content with
      | Error _ as e -> e
      | Ok content -> (
          let header, rest = split_first_line content in
          match String.split_on_char ' ' (String.trim header) with
          | [ m; v ] when m = magic && v = string_of_int version -> (
              let crc_line, covered = split_first_line rest in
              match String.split_on_char ' ' (String.trim crc_line) with
              | [ "crc"; hex ] -> (
                  match Crc32.of_hex hex with
                  | None -> corrupt path (Printf.sprintf "malformed crc %S" hex)
                  | Some expected ->
                      let actual = Crc32.string covered in
                      if actual <> expected then
                        corrupt path
                          (Printf.sprintf "CRC mismatch: stored %s, computed %s"
                             hex (Crc32.to_hex actual))
                      else
                        let kind_line, body = split_first_line covered in
                        let found =
                          match
                            String.split_on_char ' ' (String.trim kind_line)
                          with
                          | "kind" :: k -> String.concat " " k
                          | _ -> ""
                        in
                        if found <> kind then
                          corrupt path
                            (Printf.sprintf "kind mismatch: expected %S, got %S"
                               kind found)
                        else Ok body)
              | _ -> corrupt path "expected a crc line")
          | [ m; v ] when m = magic -> corrupt path ("unsupported version " ^ v)
          | _ -> corrupt path "not an rs-checkpoint file")
  end

  module Store = struct
    let valid_name name =
      name <> ""
      && name <> "MANIFEST"
      && name <> "BUILD"
      && name <> "STREAM"
      && name <> "WAL"
      && String.for_all
           (function
             | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true
             | _ -> false)
           name
      && name.[0] <> '.'

    let parse_manifest ~path body =
      let lines =
        List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' body)
      in
      List.map
        (fun line ->
          match
            List.filter (fun w -> w <> "") (String.split_on_char ' ' line)
          with
          | [ "entry"; name; crc ] when valid_name name && Crc32.of_hex crc <> None
            ->
              (name, crc)
          | _ ->
              Error.raise_error
                (Error.Corrupt_checkpoint
                   { path; reason = Printf.sprintf "bad manifest line %S" line }))
        lines


    type wal_record = { seq : int; name : string; deltas : (int * float) array }

    let parse_wal_line line =
      match String.index_opt line ' ' with
      | None -> None
      | Some sp -> (
          if String.sub line 0 sp <> "d" then None
          else
            match String.index_from_opt line (sp + 1) ' ' with
            | None -> None
            | Some sp2 -> (
                let crc = String.sub line (sp + 1) (sp2 - sp - 1) in
                let body =
                  String.sub line (sp2 + 1) (String.length line - sp2 - 1)
                in
                if Crc32.of_hex crc = None || Crc32.digest body <> crc then None
                else
                  match
                    List.filter
                      (fun w -> w <> "")
                      (String.split_on_char ' ' body)
                  with
                  | seq :: name :: k :: rest -> (
                      match (int_of_string_opt seq, int_of_string_opt k) with
                      | Some seq, Some k
                        when valid_name name && k >= 0 && List.length rest = 2 * k
                        -> (
                          let rest = Array.of_list rest in
                          let ok = ref true in
                          let deltas =
                            Array.init k (fun j ->
                                match
                                  ( int_of_string_opt rest.(2 * j),
                                    float_of_string_opt rest.((2 * j) + 1) )
                                with
                                | Some i, Some d when Float.is_finite d -> (i, d)
                                | _ ->
                                    ok := false;
                                    (0, 0.))
                          in
                          match !ok with
                          | true -> Some { seq; name; deltas }
                          | false -> None)
                      | _ -> None)
                  | _ -> None))

  end

  module Stream = struct
    let parse_manifest ~path body =
      let fail reason =
        Error.raise_error (Error.Corrupt_checkpoint { path; reason })
      in
      let lines =
        List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' body)
      in
      let words l = List.filter (fun w -> w <> "") (String.split_on_char ' ' l) in
      match lines with
      | [] -> fail "empty stream manifest"
      | header :: rest -> (
          match words header with
          | [ "stream"; n; segments; method_name; budget; threshold; prefix ] -> (
              match
                ( int_of_string_opt n,
                  int_of_string_opt segments,
                  int_of_string_opt budget,
                  float_of_string_opt threshold )
              with
              | Some n, Some segments, Some budget, Some threshold ->
                  if List.length rest <> segments then
                    fail "stream manifest segment count mismatch";
                  let segs =
                    List.map
                      (fun line ->
                        match words line with
                        | "seg" :: lo :: hi :: grant :: applied :: dirty :: vals
                          -> (
                            match
                              ( int_of_string_opt lo,
                                int_of_string_opt hi,
                                int_of_string_opt grant,
                                int_of_string_opt applied,
                                float_of_string_opt dirty )
                            with
                            | Some lo, Some hi, Some grant, Some applied, Some dirty
                              ->
                                let vals =
                                  List.map
                                    (fun v ->
                                      match float_of_string_opt v with
                                      | Some f when Float.is_finite f -> f
                                      | _ -> fail "bad stream manifest value")
                                    vals
                                in
                                if List.length vals <> hi - lo + 1 then
                                  fail "stream manifest width mismatch";
                                (lo, hi, grant, applied, dirty,
                                 Array.of_list vals)
                            | _ -> fail "bad stream manifest segment line")
                        | _ -> fail "bad stream manifest segment line")
                      rest
                  in
                  (n, method_name, budget, threshold, prefix, segs)
              | _ -> fail "bad stream manifest header")
          | _ -> fail "bad stream manifest header")

  end

  module Supervisor = struct
    type manifest = {
      m_fingerprint : string;
      m_grants : int array;
      m_status : (string * int) option array;
    }

    let parse_manifest ~path body =
      let bad reason =
        Error.raise_error (Error.Corrupt_checkpoint { path; reason })
      in
      let int_in line v =
        match int_of_string_opt v with
        | Some i -> i
        | None -> bad (Printf.sprintf "bad integer in build-manifest line %S" line)
      in
      let fp = ref None
      and segs = ref None
      and grants = ref None
      and status = ref [] in
      List.iter
        (fun line ->
          match
            List.filter (fun w -> w <> "") (String.split_on_char ' ' line)
          with
          | [] -> ()
          | [ "method"; _ ] | [ "planner"; _ ] | [ "n"; _ ] ->
              (* identity lives in the fingerprint; these are for humans *)
              ()
          | [ "segments"; v ] -> segs := Some (int_in line v)
          | [ "budget-fp"; v ] -> fp := Some v
          | "grant" :: gs ->
              grants :=
                Some (Array.of_list (List.map (fun g -> int_in line g) gs))
          | [ "seg"; i; "pending" ] -> status := (int_in line i, None) :: !status
          | [ "seg"; i; "done"; delivered; retries ] ->
              status :=
                (int_in line i, Some (delivered, int_in line retries)) :: !status
          | _ -> bad (Printf.sprintf "bad build-manifest line %S" line))
        (String.split_on_char '\n' body);
      let req name = function
        | Some v -> v
        | None -> bad (Printf.sprintf "build manifest is missing its %s line" name)
      in
      let s = req "segments" !segs in
      if s < 1 then bad "build manifest has a non-positive segment count";
      let m_grants = req "grant" !grants in
      if Array.length m_grants <> s then
        bad "build manifest grant vector does not match its segment count";
      let m_status = Array.make s None in
      let seen = Array.make s false in
      List.iter
        (fun (i, st) ->
          if i < 0 || i >= s then
            bad (Printf.sprintf "build manifest has out-of-range segment %d" i)
          else if seen.(i) then
            bad (Printf.sprintf "build manifest repeats segment %d" i)
          else begin
            seen.(i) <- true;
            m_status.(i) <- st
          end)
        !status;
      if not (Array.for_all Fun.id seen) then
        bad "build manifest is missing a segment status line";
      { m_fingerprint = req "budget-fp" !fp; m_grants; m_status }

  end

  (* Store.wal_load's line walk over the file contents. *)
  let wal_load content =
    let lines =
      List.filter (fun l -> l <> "") (String.split_on_char '\n' content)
    in
    let rec go acc last_seq = function
      | [] -> (List.rev acc, 0)
      | line :: rest -> (
          match Store.parse_wal_line line with
          | Some r when r.Store.seq > last_seq -> go (r :: acc) r.Store.seq rest
          | Some _ | None -> (List.rev acc, 1 + List.length rest))
    in
    go [] min_int lines
end

(* --- files --- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_tmp_dir f =
  let dir = Filename.temp_file "rs_durable" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path =
  match Checkpoint.read_file path with
  | Ok s -> s
  | Error e -> Alcotest.fail (Error.to_string e)

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

(* --- body-level mutants --- *)

let junk =
  [| "x"; "nan"; "inf"; "-inf"; "infinity"; "1e400"; "-5"; "0"; "-0"; "1";
     "0x1p-3"; "1_0"; "+3"; "7.5"; "2:nan"; "3:0x1p+1"; "zz"; "-1" |]

let blanks = [| ""; " "; "   "; "\t"; " \t "; "\r" |]

let pick rng a = a.(Rng.int rng (Array.length a))

let words l = String.split_on_char ' ' l

let rec mutate_lines rng lines =
  let n = List.length lines in
  let i = Rng.int rng (max 1 n) in
  let at_line f = List.mapi (fun k l -> if k = i then f l else l) lines in
  let at_word f =
    at_line (fun l ->
        let ws = Array.of_list (words l) in
        let w = Rng.int rng (Array.length ws) in
        String.concat " " (List.concat (List.mapi (fun k x -> if k = w then f x else [ x ]) (Array.to_list ws))))
  in
  match Rng.int rng 11 with
  | 0 -> List.filteri (fun k _ -> k <> i) lines
  | 1 -> List.concat (List.mapi (fun k l -> if k = i then [ l; l ] else [ l ]) lines)
  | 2 ->
      let j = Rng.int rng (max 1 n) in
      let a = Array.of_list lines in
      if n > 0 then begin
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t
      end;
      Array.to_list a
  | 3 | 4 -> at_word (fun _ -> [ pick rng junk ])
  | 5 -> at_word (fun _ -> [])
  | 6 -> at_word (fun x -> if Rng.int rng 2 = 0 then [ x; x ] else [ x; pick rng junk ])
  | 7 ->
      let b = pick rng blanks in
      List.concat (List.mapi (fun k l -> if k = i then [ b; l ] else [ l ]) lines)
  | 8 ->
      if Rng.int rng 2 = 0 then List.map (fun l -> l ^ "\r") lines
      else at_line (fun l -> l ^ "\r")
  | 9 ->
      at_line (fun l ->
          match Rng.int rng 4 with
          | 0 -> "  " ^ l
          | 1 -> l ^ "  "
          | 2 -> String.concat "  " (words l)
          | _ -> l ^ "\t")
  | _ -> mutate_lines rng (mutate_lines rng lines)

(* A mutant body: the lines of [body] (its final newline kept), mutated. *)
let mutate rng body = String.concat "\n" (mutate_lines rng (String.split_on_char '\n' body))

let v2_file body =
  let covered = String.concat "" (String.split_on_char '\r' body) in
  Printf.sprintf "range-synopsis 2\ncrc %s\n%s" (Crc32.digest covered) body

let ckpt_body_of file ~kind =
  let prefix = Printf.sprintf "kind %s\n" kind in
  let covered =
    (* drop "<magic> <version>\ncrc <hex>\n" *)
    let i = String.index file '\n' in
    let j = String.index_from file (i + 1) '\n' in
    String.sub file (j + 1) (String.length file - j - 1)
  in
  assert (String.starts_with ~prefix covered);
  String.sub covered (String.length prefix) (String.length covered - String.length prefix)

(* --- comparison --- *)

let tag = function
  | Error.Bad_dataset _ -> "Bad_dataset"
  | Unknown_method _ -> "Unknown_method"
  | Corrupt_synopsis _ -> "Corrupt_synopsis"
  | Corrupt_checkpoint _ -> "Corrupt_checkpoint"
  | Budget_exhausted _ -> "Budget_exhausted"
  | Timeout _ -> "Timeout"
  | Interrupted _ -> "Interrupted"
  | Io_failure _ -> "Io_failure"
  | Invalid_input _ -> "Invalid_input"

(* Run a parser that raises [Rs_error]; any other exception is a
   finding. *)
let run f = match f () with v -> Ok v | exception Error.Rs_error e -> Error e

type tally = { mutable same_ok : int; mutable same_err : int; mutable allowed : int }

let tally () = { same_ok = 0; same_err = 0; allowed = 0 }

let report name t ~mutants =
  Alcotest.(check int) (name ^ ": every mutant compared") mutants
    (t.same_ok + t.same_err + t.allowed);
  (* a suite whose mutants never parse, or never fail, shows nothing *)
  if t.same_ok = 0 || t.same_err = 0 then
    Alcotest.failf "%s: %d accepted, %d refused — the mutants do not reach both outcomes"
      name t.same_ok t.same_err

let diverged name i body ~old ~now =
  Alcotest.failf "%s mutant %d: oracle %s, reader %s\n--- body ---\n%S" name i old now body

let bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let floats_eq a b = Array.length a = Array.length b && Array.for_all2 bits_eq a b

(* --- the codec, v1 and v2 --- *)

let codec_subjects () =
  let data = [| 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6.; 5.; 3.; 5.; 8. |] in
  let ds = Dataset.of_floats data in
  let build m b = Builder.build ds ~method_name:m ~budget_words:b in
  [
    build "equi-width" 8;
    build "point-opt" 9;
    build "sap0" 12;
    build "sap1" 14;
    build "opt-a-rounded" 8;
    Synopsis.Wavelet (W.top_b_data data ~b:3);
    Synopsis.Wavelet (W.range_optimal data ~b:3);
    Synopsis.Wavelet (W.aa_2d data ~b:4);
  ]

let codec_outcome r =
  match r with
  | Ok s -> "Ok " ^ Codec.to_string s
  | Error (Error.Corrupt_synopsis { line; _ }) -> Printf.sprintf "Corrupt_synopsis line %d" line
  | Error e -> tag e

let test_codec () =
  let rng = Rng.create 0xD1FF in
  let t = tally () and mutants = ref 0 in
  List.iter
    (fun s ->
      let v2 = Codec.to_string s in
      let body = String.concat "\n" (List.tl (List.tl (String.split_on_char '\n' v2))) in
      for _ = 1 to 80 do
        incr mutants;
        let b = mutate rng body in
        let file = if Rng.int rng 4 = 0 then "range-synopsis 1\n" ^ b else v2_file b in
        let old = codec_outcome (Old.Codec.decode_result file)
        and now = codec_outcome (Codec.decode_result file) in
        if old <> now then diverged "codec" !mutants file ~old ~now
        else if String.starts_with ~prefix:"Ok" old then t.same_ok <- t.same_ok + 1
        else t.same_err <- t.same_err + 1
      done)
    (codec_subjects ());
  report "codec" t ~mutants:!mutants

(* --- the frame lines, both magics --- *)

(* A frame line [words] joined in one of several ways; [relaxed] is set
   when the join puts a run of spaces between two words. *)
let frame_line rng ~relaxed words =
  match Rng.int rng 9 with
  | 0 ->
      relaxed := !relaxed || List.length words > 1;
      String.concat "  " words
  | 1 -> " " ^ String.concat " " words
  | 2 -> String.concat " " words ^ " "
  | 3 -> String.concat "\t" words
  | 4 -> String.concat " " words ^ "\r"
  | 5 -> String.concat " " (words @ [ "x" ])
  | 6 -> String.concat " " (List.tl words)
  | _ -> String.concat " " words

(* A file of [magic] framing [kind] over [body], each frame line
   mutated, the crc line (absent for the codec's v1) still the CRC of
   what follows unless it is mutated itself.  [strip_cr] is the codec's
   CR normalisation, applied before its CRC. *)
let frame_mutant rng ~magic ~version ~legacy ~strip_cr ~kind body =
  let relaxed = ref false in
  let pick_version () =
    match Rng.int rng 8 with
    | 0 -> "9"
    | 1 when legacy -> "1"
    | _ -> version
  in
  let v = pick_version () in
  let header = frame_line rng ~relaxed [ pick rng [| magic; magic; magic; "rs-other" |]; v ] in
  let kind_word = if Rng.int rng 8 = 0 then "other" else kind in
  let blanks_before = if Rng.int rng 4 = 0 then pick rng blanks ^ "\n" else "" in
  if blanks_before <> "" then relaxed := true;
  let kind_line = frame_line rng ~relaxed:(ref false) [ pick rng [| "kind"; "kind"; "Kind" |]; kind_word ] in
  let covered =
    if Rng.int rng 5 = 0 then blanks_before ^ kind_line
    else blanks_before ^ kind_line ^ "\n" ^ body
  in
  let crc =
    let c = if strip_cr then String.concat "" (String.split_on_char '\r' covered) else covered in
    match Rng.int rng 10 with
    | 0 -> "00000000"
    | 1 -> "zz"
    | 2 -> String.uppercase_ascii (Crc32.digest c)
    | _ -> Crc32.digest c
  in
  let crc_line = frame_line rng ~relaxed [ pick rng [| "crc"; "crc"; "CRC" |]; crc ] in
  let file =
    if legacy && v = "1" && Rng.int rng 4 > 0 then header ^ "\n" ^ covered
    else header ^ "\n" ^ crc_line ^ "\n" ^ covered
  in
  (file, !relaxed)

let test_frame () =
  with_tmp_dir @@ fun dir ->
  let rng = Rng.create 0xF4A and t = tally () in
  let path = Filename.concat dir "framed" in
  let kind = "rs-store-manifest-v1" and body = "entry a 0123abcd\n" in
  for i = 1 to 300 do
    let file, relaxed =
      frame_mutant rng ~magic:"rs-checkpoint" ~version:"1" ~legacy:false ~strip_cr:false ~kind body
    in
    write_file path file;
    match (Old.Checkpoint.load ~path ~kind file, Checkpoint.load ~path ~kind) with
    | Ok a, Ok b when a = b -> t.same_ok <- t.same_ok + 1
    | Error a, Error b when tag a = tag b -> t.same_err <- t.same_err + 1
    | Error (Error.Corrupt_checkpoint _), Ok b when relaxed && (b = body || b = "") ->
        t.allowed <- t.allowed + 1
    | old, now ->
        let show = function Ok b -> "Ok " ^ String.escaped b | Error e -> Error.to_string e in
        diverged "checkpoint frame" i file ~old:(show old) ~now:(show now)
  done;
  report "checkpoint frame" t ~mutants:300;
  let t = tally () in
  let v2 = Codec.to_string (List.hd (codec_subjects ())) in
  let body =
    (* below the kind line *)
    let lines = String.split_on_char '\n' v2 in
    String.concat "\n" (List.tl (List.tl (List.tl lines)))
  in
  for i = 1 to 300 do
    let file, _ =
      frame_mutant rng ~magic:"range-synopsis" ~version:"2" ~legacy:true ~strip_cr:true
        ~kind:"histogram" body
    in
    let old = codec_outcome (Old.Codec.decode_result file)
    and now = codec_outcome (Codec.decode_result file) in
    if old <> now then diverged "codec frame" i file ~old ~now
    else if String.starts_with ~prefix:"Ok" old then t.same_ok <- t.same_ok + 1
    else t.same_err <- t.same_err + 1
  done;
  report "codec frame" t ~mutants:300

(* --- checkpoint-framed bodies: the frame, then the body parser --- *)

(* Frame [body] under [kind], write it, and read it back through the
   old and the new container reader: the bodies must agree before any
   parser sees them. *)
let framed_body name i dir ~kind body =
  let path = Filename.concat dir "framed" in
  let file = Checkpoint.frame ~kind body in
  write_file path file;
  match (Old.Checkpoint.load ~path ~kind file, Checkpoint.load ~path ~kind) with
  | Ok old, Ok now when old = now -> now
  | old, now ->
      let show = function Ok b -> "Ok " ^ String.escaped b | Error e -> tag e in
      diverged name i body ~old:(show old) ~now:(show now)

(* Compare one body parser against its oracle over [count] mutants of
   [pristine].  [same] decides equality of two accepted values;
   [allowed old_value body] names an accepted-then-refused divergence,
   [allowed_now body] a refused-then-accepted one. *)
let differential name ~count ~seed ~kind pristine ~old ~now ~same
    ?(allowed = fun _ _ -> false) ?(allowed_now = fun _ -> false) () =
  with_tmp_dir @@ fun dir ->
  let rng = Rng.create seed in
  let t = tally () in
  for i = 1 to count do
    let body = framed_body name i dir ~kind (mutate rng pristine) in
    match (run (fun () -> old body), run (fun () -> now body)) with
    | Ok a, Ok b when same a b -> t.same_ok <- t.same_ok + 1
    | Error a, Error b when tag a = tag b -> t.same_err <- t.same_err + 1
    | Ok a, Error (Error.Corrupt_checkpoint _) when allowed a body ->
        t.allowed <- t.allowed + 1
    | Error (Error.Corrupt_checkpoint _), Ok _ when allowed_now body ->
        t.allowed <- t.allowed + 1
    | a, b ->
        let show = function Ok _ -> "Ok" | Error e -> Error.to_string e in
        diverged name i body ~old:(show a) ~now:(show b)
  done;
  report name t ~mutants:count

(* --- the store MANIFEST --- *)

let test_manifest () =
  with_tmp_dir @@ fun dir ->
  let store = Store.open_dir dir in
  List.iteri
    (fun i name ->
      Store.put store ~name
        (Builder.build (Dataset.of_floats [| 1.; 2.; float_of_int i; 4. |])
           ~method_name:"a0" ~budget_words:4))
    [ "alpha"; "b.2"; "seg-1"; "z_last" ];
  let kind = "rs-store-manifest-v1" in
  let pristine = ckpt_body_of (read_file (Filename.concat dir "MANIFEST")) ~kind in
  differential "MANIFEST" ~count:300 ~seed:0x3A1 ~kind pristine
    ~old:(Old.Store.parse_manifest ~path:"m")
    ~now:(Store.parse_manifest ~path:"m")
    ~same:( = ) ()

(* --- the STREAM manifest --- *)

let stream_pristine () =
  with_tmp_dir @@ fun dir ->
  let store = Store.open_dir dir in
  let config =
    { Stream.default_config with
      Stream.method_name = "a0";
      budget_words = 32;
      segments = 4;
      stale_threshold = 1e6 }
  in
  let t = Stream.create ~config ~store (Dataset.generate "zipf-32") in
  ignore (Stream.ingest t [| (2, 1.5); (9, 0.25); (30, 2.) |]);
  ignore (Stream.refresh t);
  match Store.load_manifest store Store.Stream with
  | Ok (Some body) -> body
  | _ -> Alcotest.fail "no STREAM manifest"

let test_stream () =
  let same (n, meth, budget, th, prefix, segs) (m : Stream.manifest) =
    let c = m.Stream.m_config in
    n = m.Stream.m_n
    && meth = c.Stream.method_name
    && budget = c.Stream.budget_words
    && bits_eq th c.Stream.stale_threshold
    && prefix = c.Stream.entry_prefix
    && List.length segs = Array.length m.Stream.m_segs
    && c.Stream.segments = List.length segs
    && List.for_all2
         (fun (lo, hi, grant, applied, dirty, vals) (s : Stream.manifest_seg) ->
           lo = s.m_lo && hi = s.m_hi && grant = s.m_grant
           && applied = s.m_applied && bits_eq dirty s.m_dirty
           && floats_eq vals s.m_values)
         segs (Array.to_list m.Stream.m_segs)
  in
  (* the accept-set change: a poisoned mass or threshold is corruption *)
  let allowed (_, _, _, th, _, segs) _ =
    (not (Float.is_finite th))
    || List.exists
         (fun (_, _, _, _, d, _) -> not (Float.is_finite d && d >= 0.))
         segs
  in
  differential "STREAM" ~count:300 ~seed:0x57E ~kind:"rs-stream-state-v1"
    (stream_pristine ())
    ~old:(Old.Stream.parse_manifest ~path:"s")
    ~now:(Stream.parse_manifest ~path:"s")
    ~same ~allowed ()

(* --- the BUILD manifest --- *)

let build_pristine =
  "method opt-a\nplanner greedy\nn 64\nsegments 4\nbudget-fp 1a2b3c4d\n\
   grant 10 12 9 13\nseg 0 done opt-a 0\nseg 1 done a0 2\nseg 2 pending\n\
   seg 3 pending\n"

let test_build () =
  let same (a : Old.Supervisor.manifest) (b : Supervisor.manifest) =
    a.m_fingerprint = b.m_fingerprint
    && a.m_grants = b.m_grants
    && a.m_status = b.m_status
  in
  (* a whitespace-only line that is not all spaces was a "bad line";
     it is blank now, and what is left must read as before *)
  let odd_blank l = String.trim l = "" && String.exists (fun c -> c <> ' ') l in
  let allowed_now body =
    List.exists odd_blank (String.split_on_char '\n' body)
    &&
    let rest =
      String.concat "\n"
        (List.filter (fun l -> not (odd_blank l)) (String.split_on_char '\n' body))
    in
    match
      ( run (fun () -> Old.Supervisor.parse_manifest ~path:"b" rest),
        run (fun () -> Supervisor.parse_manifest ~path:"b" body) )
    with
    | Ok a, Ok b -> same a b
    | _ -> false
  in
  differential "BUILD" ~count:300 ~seed:0xB01 ~kind:"rs-build-manifest-v1"
    build_pristine
    ~old:(Old.Supervisor.parse_manifest ~path:"b")
    ~now:(Supervisor.parse_manifest ~path:"b")
    ~same ~allowed_now ()

(* --- the OPT-A row snapshot --- *)

let opt_a_data = [| 1.; 3.; 5.; 11.; 12.; 13.; 2.; 8.; 4.; 6. |]
let key_cap = 100_000
let buckets = 4
let snapshot_kind = "opt-a-row-v1"

let first_lines k s =
  String.concat "" (List.filteri (fun i _ -> i < k) (List.map (fun l -> l ^ "\n") (String.split_on_char '\n' s)))

(* An accepted oracle state, written back the way the snapshot writer
   writes one: resuming from it is resuming from that state. *)
let render ~identity (st : Old.Snapshot.resume_state) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf identity;
  Printf.bprintf buf "states %d\nnext %d %d\n" st.r_total st.r_next_k st.r_next_i;
  List.iter
    (fun (k, i, tbl) ->
      let w = Ktbl.export tbl in
      Printf.bprintf buf "cell %d %d %d %d\n" k i w.Ktbl.capacity (Array.length w.Ktbl.slots);
      Array.iter
        (fun (slot, key, f, pj, pk) -> Printf.bprintf buf "s %d %d %h %d %d\n" slot key f pj pk)
        w.Ktbl.slots)
    (List.rev st.r_cells);
  Buffer.contents buf

let test_snapshot () =
  let p = Prefix.create opt_a_data in
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "ckpt" and canon = Filename.concat dir "canon" in
  (match
     Opt_a.build_exact ~key_cap
       ~governor:(Governor.create ~deadline_mode:Governor.Snapshot ~poll_budget:9 ())
       ~checkpoint_path:path p ~buckets
   with
  | _ -> Alcotest.fail "should interrupt"
  | exception Governor.Interrupted _ -> ());
  let pristine = ckpt_body_of (read_file path) ~kind:snapshot_kind in
  (* engine, stage, fingerprint, n, buckets, key_cap, beam *)
  let identity = first_lines 7 pristine in
  let fingerprint =
    match String.split_on_char ' ' (List.nth (String.split_on_char '\n' pristine) 2) with
    | [ "fingerprint"; fp ] -> fp
    | _ -> Alcotest.fail "no fingerprint line"
  in
  let old body =
    Old.Snapshot.load_snapshot ~path ~stage:"opt-a" ~fingerprint ~n:10 ~b:buckets
      ~key_cap:(Some key_cap) ~beam:None body
  in
  let resume from =
    match Opt_a.build_exact ~key_cap ~resume_from:from p ~buckets with
    | r ->
        Ok
          (Printf.sprintf "%h %s %d" r.Opt_a.sse
             (String.concat "," (Array.to_list (Array.map string_of_int (Bucket.rights (Histogram.bucketing r.Opt_a.histogram)))))
             r.Opt_a.states)
    | exception Error.Rs_error e -> Error e
    | exception e -> Ok ("raised " ^ Printexc.to_string e)
  in
  let rng = Rng.create 0x5A9 in
  let t = tally () and count = 350 in
  for i = 1 to count do
    let body = framed_body "snapshot" i dir ~kind:snapshot_kind (mutate rng pristine) in
    write_file path (Checkpoint.frame ~kind:snapshot_kind body);
    match (run (fun () -> old body), resume path) with
    | Ok st, Ok got ->
        write_file canon (Checkpoint.frame ~kind:snapshot_kind (render ~identity st));
        (match resume canon with
        | Ok want when want = got -> t.same_ok <- t.same_ok + 1
        | want ->
            let show = function Ok s -> s | Error e -> Error.to_string e in
            diverged "snapshot" i body ~old:(show want) ~now:got)
    | Error (Error.Corrupt_checkpoint _), Error (Error.Corrupt_checkpoint _) ->
        t.same_err <- t.same_err + 1
    | Ok st, Error (Error.Corrupt_checkpoint _)
      when List.exists
             (fun (_, _, tbl) ->
               Array.exists (fun (_, _, f, _, _) -> not (Float.is_finite f)) (Ktbl.export tbl).Ktbl.slots)
             st.r_cells ->
        (* the accept-set change: a NaN/infinite partial cost *)
        t.allowed <- t.allowed + 1
    | a, b ->
        let show = function Ok _ -> "Ok" | Error e -> Error.to_string e in
        diverged "snapshot" i body ~old:(show a) ~now:(show b)
  done;
  report "snapshot" t ~mutants:count

(* --- the WAL --- *)

let wal_line body = Printf.sprintf "d %s %s" (Crc32.digest body) body

let wal_body line =
  match String.split_on_char ' ' line with
  | "d" :: _ :: rest -> String.concat " " rest
  | _ -> line

let wal_mutant rng content =
  let lines = String.split_on_char '\n' content in
  match Rng.int rng 3 with
  | 0 ->
      (* one record's body, mutated and given a fresh CRC per line *)
      let records = List.length lines - 1 in
      let i = Rng.int rng records in
      String.concat "\n"
        (List.concat
           (List.mapi
              (fun k l ->
                if k <> i then [ l ]
                else List.map wal_line (mutate_lines rng [ wal_body l ]))
              lines))
  | 1 -> String.concat "\n" (mutate_lines rng lines)
  | _ -> String.sub content 0 (Rng.int rng (String.length content))

let test_wal () =
  with_tmp_dir @@ fun dir ->
  let store = Store.open_dir dir in
  let t =
    Stream.create
      ~config:{ Stream.default_config with Stream.method_name = "a0"; budget_words = 32; segments = 4 }
      ~store (Dataset.generate "zipf-32")
  in
  List.iter
    (fun batch -> ignore (Stream.ingest t batch))
    [
      [| (2, 1.5); (20, 2.) |];
      [| (3, 0.125) |];
      [| (9, 4.); (10, 0.5); (31, 1e-3) |];
      [| (32, 7.) |];
      [| (1, 0.75); (17, 2.5) |];
    ];
  let wal = Store.wal_path store in
  let pristine = read_file wal in
  let show (records, dropped) =
    String.concat ";"
      (List.map
         (fun r ->
           Printf.sprintf "%d %s %s" r.Store.seq r.Store.name
             (String.concat " "
                (Array.to_list (Array.map (fun (i, d) -> Printf.sprintf "%d:%h" i d) r.Store.deltas))))
         records)
    ^ Printf.sprintf " dropped %d" dropped
  in
  let show_old (records, dropped) =
    show
      ( List.map
          (fun (r : Old.Store.wal_record) ->
            { Store.seq = r.seq; name = r.name; deltas = r.deltas })
          records,
        dropped )
  in
  let rng = Rng.create 0x3A7 in
  let torn = ref 0 and whole = ref 0 in
  for i = 1 to 300 do
    let content = wal_mutant rng pristine in
    write_file wal content;
    let old = show_old (Old.wal_load content) in
    match Store.wal_load (Store.open_dir dir) with
    | Ok now when show now = old ->
        if snd now > 0 then incr torn else incr whole
    | Ok now -> diverged "WAL" i content ~old ~now:(show now)
    | Error e -> diverged "WAL" i content ~old ~now:(Error.to_string e)
  done;
  if !torn = 0 || !whole = 0 then
    Alcotest.failf "WAL: %d whole, %d torn — the mutants do not reach both outcomes" !whole !torn

let () =
  Alcotest.run "durable"
    [
      ( "differential",
        [
          Alcotest.test_case "codec v1/v2 (640 mutants)" `Quick test_codec;
          Alcotest.test_case "frame lines (600 mutants)" `Quick test_frame;
          Alcotest.test_case "opt-a snapshot (350 mutants)" `Quick test_snapshot;
          Alcotest.test_case "MANIFEST (300 mutants)" `Quick test_manifest;
          Alcotest.test_case "STREAM (300 mutants)" `Quick test_stream;
          Alcotest.test_case "BUILD (300 mutants)" `Quick test_build;
          Alcotest.test_case "WAL (300 mutants)" `Quick test_wal;
        ] );
    ]
