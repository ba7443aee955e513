(* Cold-start load twins and allocation pins.

   - Dataset.load_result against the line-list reader it replaced (kept
     below as the oracle): generated files must give the same value
     bits, or the same typed error with the same line and reason.
   - Prefix.create against a Cum.of_fun composition: every prefix and
     moment cell bit-identical, and the same Invalid_argument message
     when a moment overflows.
   - Allocation: Prefix.create allocates O(1) minor words whatever n,
     and Dataset.load_result a small constant of words per value.
   - Memory: a decoded histogram over n = 262,144 is O(B) heap words,
     and a served entry built for it without a dataset reaches no heap
     array as wide as the domain (its plan's tables are Bigarrays,
     outside the OCaml heap). *)

module Error = Rs_util.Error
module Prefix = Rs_util.Prefix
module Cum = Rs_util.Cum
module Tab = Rs_util.Tab
module Rng = Rs_dist.Rng
module Dataset = Rs_core.Dataset

let bits = Int64.bits_of_float

(* --- the reference reader -------------------------------------------- *)

(* The list-based reader: [input_line] per line, one trailing '\r'
   dropped, [String.trim], blank and '#' lines skipped,
   [float_of_string_opt] per line, then the values through
   [Dataset.of_floats_result] under the file's basename. *)
let chomp_cr line =
  let len = String.length line in
  if len > 0 && line.[len - 1] = '\r' then String.sub line 0 (len - 1) else line

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lines = ref [] in
      (try
         while true do
           lines := chomp_cr (input_line ic) :: !lines
         done
       with End_of_file -> ());
      List.rev !lines)

let reference_load ~policy path =
  match read_lines path with
  | exception Sys_error reason -> Error.fail (Error.Io_failure { path; reason })
  | lines -> (
      let parsed = ref (Ok []) in
      List.iteri
        (fun i line ->
          match !parsed with
          | Error _ -> ()
          | Ok acc -> (
              let line = String.trim line in
              if line <> "" && line.[0] <> '#' then
                match float_of_string_opt line with
                | Some v -> parsed := Ok (v :: acc)
                | None ->
                    parsed :=
                      Error.fail
                        (Error.Bad_dataset
                           {
                             source = path;
                             line = Some (i + 1);
                             reason = Printf.sprintf "not a number: %S" line;
                           })))
        lines;
      match !parsed with
      | Error _ as e -> e
      | Ok [] ->
          Error.fail
            (Error.Bad_dataset
               { source = path; line = None; reason = "contains no values" })
      | Ok acc ->
          let data = Array.of_list (List.rev acc) in
          let name = Filename.remove_extension (Filename.basename path) in
          Dataset.of_floats_result ~name ~policy data)

(* --- loader twins ----------------------------------------------------- *)

let policy_name = function
  | Dataset.Reject -> "reject"
  | Dataset.Clamp -> "clamp"
  | Dataset.Repair -> "repair"

let with_file contents f =
  let path = Filename.temp_file "rs_load" ".data" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      f path)

let check_same_load label contents =
  with_file contents @@ fun path ->
  List.iter
    (fun policy ->
      let what = Printf.sprintf "%s [%s] %S" label (policy_name policy) contents in
      match (reference_load ~policy path, Dataset.load_result ~policy path) with
      | Ok want, Ok got ->
          Alcotest.(check string) (what ^ ": name") (Dataset.name want) (Dataset.name got);
          let want = Dataset.values want and got = Dataset.values got in
          Alcotest.(check int) (what ^ ": n") (Array.length want) (Array.length got);
          Array.iteri
            (fun i w ->
              if bits w <> bits got.(i) then
                Alcotest.failf "%s: value %d: reference %h, loader %h" what (i + 1) w got.(i))
            want
      | Error want, Error got ->
          if want <> got then
            Alcotest.failf "%s: reference error %s, loader error %s" what
              (Error.to_string want) (Error.to_string got)
      | Ok _, Error e -> Alcotest.failf "%s: reference Ok, loader %s" what (Error.to_string e)
      | Error e, Ok _ -> Alcotest.failf "%s: reference %s, loader Ok" what (Error.to_string e))
    [ Dataset.Reject; Dataset.Clamp; Dataset.Repair ]

(* Named shapes, each a whole file. *)
let test_fixed_cases () =
  List.iter
    (fun (label, contents) -> check_same_load label contents)
    [
      ("plain", "1\n2\n3\n");
      ("crlf", "1\r\n2\r\n3\r\n");
      ("mixed endings and padding", "  1\t\r\n\n2 \n\t# note\r\n \x0c3\r\r\n");
      ("no final newline", "4\n5\n6");
      ("crlf, no final newline", "4\r\n5");
      ("comments and blanks only", "# a\n\n   \n#\n");
      ("empty file", "");
      ("15 digits", "999999999999999\n000000000000001\n123456789012345\n");
      ( "16+ digits",
        "9007199254740993\n12345678901234567\n00000000000000012\n99999999999999999999\n\
         123456789012345678901234567890\n" );
      ("leading zeros", "007\n0\n000\n");
      ("signs", "+5\n-0\n+0\n0.0\n");
      ("negative", "3\n-2\n4\n");
      ("decimals and exponents", "3.25\n.5\n5.\n1e3\n1E-2\n2.5e+10\n");
      ("hex floats", "0x1p3\n0x1.8p1\n0xff\n");
      ("underscores", "1_000\n2__0\n");
      ("nan and inf", "1\nnan\n3\ninf\n-inf\n5\n");
      ("infinity spellings", "infinity\n-infinity\nNaN\n");
      ("overflowing literal", "1e400\n2\n");
      ("all invalid", "nan\nnan\n");
      ("bad word", "1\n2\nabc\n4\n");
      ("two numbers on a line", "1 2\n");
      ("bad after comment", "# x\n\nx1\n");
      ("double dot", "1.2.3\n");
    ]

let digits rng k = String.init k (fun _ -> Char.chr (48 + Rng.int rng 10))

(* One generated value line, before padding. *)
let value_token rng =
  match Rng.int rng 12 with
  | 0 | 1 | 2 -> digits rng (1 + Rng.int rng 6)
  | 3 -> digits rng (14 + Rng.int rng 8) (* both sides of 15 digits, past max_int *)
  | 4 -> "0" ^ digits rng (1 + Rng.int rng 16)
  | 5 -> (if Rng.bool rng then "+" else "-") ^ digits rng (1 + Rng.int rng 4)
  | 6 -> Printf.sprintf "%d.%s" (Rng.int rng 1000) (digits rng (1 + Rng.int rng 4))
  | 7 -> Printf.sprintf "%de%d" (1 + Rng.int rng 9) (Rng.int rng 20 - 5)
  | 8 -> Printf.sprintf "%h" (Rng.float rng *. 100.)
  | 9 -> Printf.sprintf "%d_%03d" (1 + Rng.int rng 9) (Rng.int rng 1000)
  | 10 -> [| "-0"; "0"; "0.0"; "1e400"; "4.9e-324" |].(Rng.int rng 5)
  | _ -> [| "nan"; "inf"; "-inf"; "infinity"; "-nan" |].(Rng.int rng 5)

let bad_token rng = [| "abc"; "1.2.3"; "1 2"; "--1"; "0x"; "e5"; "1e"; "12a" |].(Rng.int rng 8)

let pad rng =
  let pads = [| ""; ""; ""; " "; "\t"; "  "; "\x0c"; " \t" |] in
  pads.(Rng.int rng (Array.length pads))

let generated_file rng =
  let lines =
    Array.init (Rng.int rng 40) (fun _ ->
        match Rng.int rng 10 with
        | 0 -> ""
        | 1 -> pad rng
        | 2 -> pad rng ^ "# " ^ digits rng 3
        | _ -> pad rng ^ value_token rng ^ pad rng)
  in
  let n = Array.length lines in
  if n > 0 && Rng.int rng 3 = 0 then lines.(Rng.int rng n) <- pad rng ^ bad_token rng;
  let eol () = if Rng.int rng 3 = 0 then "\r\n" else "\n" in
  let body = String.concat "" (Array.to_list (Array.map (fun l -> l ^ eol ()) lines)) in
  if n > 0 && Rng.bool rng then String.sub body 0 (String.length body - 1) (* drop the final '\n' *)
  else body

let test_generated_files () =
  let rng = Rng.create 0x10AD in
  for i = 1 to 400 do
    check_same_load (Printf.sprintf "generated #%d" i) (generated_file rng)
  done

(* --- prefix twins ------------------------------------------------------- *)

(* The tables as the per-moment Cum.of_fun builds made them, built in
   the order those builds ran: they were the fields of one record
   literal, evaluated right to left, so A² first and P last.  The order
   decides which overflow is reported first. *)
let reference_tables a =
  let n = Array.length a in
  let p = Array.make (n + 1) 0. in
  for i = 1 to n do
    p.(i) <- p.(i - 1) +. a.(i - 1)
  done;
  let ca2 = Cum.of_fun ~m:n (fun i -> a.(i) *. a.(i)) in
  let ctp = Cum.of_fun ~m:(n + 1) (fun t -> float_of_int t *. p.(t)) in
  let cp2 = Cum.of_fun ~m:(n + 1) (fun t -> p.(t) *. p.(t)) in
  let cp = Cum.of_fun ~m:(n + 1) (fun t -> p.(t)) in
  (p, [ ("P", cp); ("P^2", cp2); ("tP", ctp); ("A^2", ca2) ])

let check_prefix_twin label a =
  let p_want, cums_want = reference_tables a in
  let t = Prefix.create a in
  let p_got = Prefix.table t in
  Alcotest.(check int) (label ^ ": P length") (Array.length p_want) (Tab.f1_len p_got);
  Array.iteri
    (fun i w ->
      if bits w <> bits (Tab.f1_get p_got i) then
        Alcotest.failf "%s: P[%d]: reference %h, create %h" label i w (Tab.f1_get p_got i))
    p_want;
  List.iter2
    (fun (what, want) got ->
      let want = Cum.table want and got = Cum.table got in
      Alcotest.(check int) (label ^ ": " ^ what ^ " length") (Tab.f1_len want) (Tab.f1_len got);
      for i = 0 to Tab.f1_len want - 1 do
        if bits (Tab.f1_get want i) <> bits (Tab.f1_get got i) then
          Alcotest.failf "%s: %s cell %d: reference %h, create %h" label what i
            (Tab.f1_get want i) (Tab.f1_get got i)
      done)
    cums_want
    [ Prefix.moment_p t; Prefix.moment_p2 t; Prefix.moment_tp t; Prefix.moment_a2 t ];
  let data = Prefix.data t in
  Array.iteri
    (fun i v -> if bits v <> bits data.(i) then Alcotest.failf "%s: data %d" label i)
    a

let test_prefix_twins () =
  let rng = Rng.create 0x9F1 in
  List.iter
    (fun n ->
      check_prefix_twin (Printf.sprintf "ints n=%d" n)
        (Array.init n (fun _ -> float_of_int (Rng.int rng 1000)));
      check_prefix_twin (Printf.sprintf "signed floats n=%d" n)
        (Array.init n (fun _ -> (Rng.float rng -. 0.5) *. 1e3));
      check_prefix_twin (Printf.sprintf "large magnitude n=%d" n)
        (Array.init n (fun _ -> ldexp (Rng.float rng -. 0.5) (Rng.int rng 200)));
      check_prefix_twin (Printf.sprintf "offset n=%d" n)
        (Array.init n (fun i -> 1e12 +. float_of_int (i mod 3))))
    [ 1; 2; 7; 100; 1000; 4097 ]

(* Overflowing moments: [create] must raise what the per-moment builds
   raised — the first non-finite value of the chain that ran first.
   [-1e308; -1e308] tells the orders apart: A² reports +inf, P −inf. *)
let test_prefix_overflow_messages () =
  let message f = match f () with _ -> "no exception" | exception Invalid_argument m -> m in
  List.iter
    (fun (label, a) ->
      let want = message (fun () -> reference_tables a) in
      let got = message (fun () -> Prefix.create a) in
      Alcotest.(check string) label want got;
      Alcotest.(check bool) (label ^ ": raises") true (want <> "no exception"))
    [
      ("P overflows to +inf", [| 1e308; 1e308; 1. |]);
      ("P overflows to -inf", [| -1e308; -1e308 |]);
      ("P^2 overflows", [| 1e200; 1. |]);
      ("P^2 overflows late", [| 1.; 2.; 1e160 |]);
      ("A^2 overflows alone", [| -0.75e154; 1.5e154 |]);
    ]

(* --- allocation pins ---------------------------------------------------- *)

let test_prefix_create_alloc () =
  let words n =
    let a = Array.init n (fun i -> float_of_int (i mod 17)) in
    ignore (Prefix.create a);
    let m0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Prefix.create a));
    Gc.minor_words () -. m0
  in
  let small = words 4096 and large = words 262_144 in
  if small > 64. || large > 64. then
    Alcotest.failf "Prefix.create minor words: %.0f at n=4096, %.0f at n=262144" small large

let total_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let test_load_alloc () =
  let n = 262_144 in
  let rng = Rng.create 0x5CA4 in
  let text = Buffer.create (n * 6) in
  for _ = 1 to n do
    Buffer.add_string text (string_of_int (Rng.int rng 50_000));
    Buffer.add_char text '\n'
  done;
  with_file (Buffer.contents text) @@ fun path ->
  let w0 = total_words () in
  let ds = Error.get (Dataset.load_result path) in
  let per_value = (total_words () -. w0) /. float_of_int n in
  Alcotest.(check int) "n" n (Dataset.n ds);
  if per_value > 3. then
    Alcotest.failf "Dataset.load_result: %.2f words per value (at most 3)" per_value

(* --- memory pins ---------------------------------------------------------- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* The query-scan shape: an equi-width-reopt histogram over n = 262,144
   at 256 words (128 buckets), stored, then decoded and served. *)
let test_decoded_entry_words () =
  let n = 262_144 in
  let rng = Rng.create 0x5CA5 in
  let ds =
    Dataset.of_floats ~name:"scan" (Array.init n (fun _ -> float_of_int (Rng.int rng 1000)))
  in
  let syn = Rs_core.Builder.build ds ~method_name:"equi-width-reopt" ~budget_words:256 in
  let dir = Filename.temp_file "rs_mem" ".store" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) @@ fun () ->
  Rs_core.Store.put (Rs_core.Store.open_dir dir) ~name:"scan.ew256" syn;
  let gen = Error.get (Rs_serve.Generation.load ~gen_id:1 dir) in
  let entry = Option.get (Rs_serve.Generation.find gen "scan.ew256") in
  let b =
    match entry.Rs_serve.Generation.syn with
    | Rs_core.Synopsis.Histogram h ->
        Rs_histogram.Bucket.count (Rs_histogram.Histogram.bucketing h)
    | Rs_core.Synopsis.Wavelet _ -> Alcotest.fail "expected a histogram"
  in
  Alcotest.(check int) "128 buckets" 128 b;
  let cap = (64 * b) + 1024 in
  let decoded = Error.get (Rs_core.Codec.decode_result entry.Rs_serve.Generation.bytes) in
  List.iter
    (fun (what, syn) ->
      let words = Obj.reachable_words (Obj.repr syn) in
      if words > cap then
        Alcotest.failf "%s: %d reachable words (at most 64·B + 1024 = %d)" what words cap)
    [ ("Codec.decode_result", decoded); ("the entry's synopsis", entry.Rs_serve.Generation.syn) ];
  (* Any heap array of length >= n would alone be n words. *)
  let words = Obj.reachable_words (Obj.repr entry) in
  if words >= n then
    Alcotest.failf "the served entry reaches %d heap words (an array as wide as n = %d?)"
      words n

let () =
  Alcotest.run "load"
    [
      ( "loader",
        [
          Alcotest.test_case "named files match the line reader" `Quick test_fixed_cases;
          Alcotest.test_case "generated files match the line reader" `Quick
            test_generated_files;
        ] );
      ( "prefix",
        [
          Alcotest.test_case "create = Cum.of_fun composition" `Quick test_prefix_twins;
          Alcotest.test_case "same overflow message" `Quick test_prefix_overflow_messages;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "Prefix.create O(1) minor words" `Quick test_prefix_create_alloc;
          Alcotest.test_case "load_result words per value" `Quick test_load_alloc;
        ] );
      ( "memory",
        [
          Alcotest.test_case "decoded histogram and served entry are O(B)" `Quick
            test_decoded_entry_words;
        ] );
    ]
