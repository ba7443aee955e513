module Prefix = Rs_util.Prefix
module Checks = Rs_util.Checks
module Error = Rs_util.Error

type t = { name : string; data : float array; prefix : Prefix.t }

type policy = Reject | Clamp | Repair

let[@inline] invalid v = Float.is_nan v || not (Float.is_finite v) || v < 0.

(* Largest finite value present — the Clamp ceiling for +∞ entries. *)
let finite_max data =
  Array.fold_left
    (fun acc v -> if Float.is_finite v && v > acc then v else acc)
    0. data

(* Mean of the nearest valid neighbours on each side (either one if the
   other side has none, 0. if the whole array is invalid). *)
let repair_value data i =
  let n = Array.length data in
  let rec scan j step =
    if j < 0 || j >= n then None
    else if invalid data.(j) then scan (j + step) step
    else Some data.(j)
  in
  match (scan (i - 1) (-1), scan (i + 1) 1) with
  | Some l, Some r -> 0.5 *. (l +. r)
  | Some v, None | None, Some v -> v
  | None, None -> 0.

(* [sanitize] may reuse [data]: it is returned as is when every value is
   valid, and patched in place under [Clamp] (each value independently,
   against a ceiling taken before any write).  [Repair] reads the
   original neighbours, so it writes a fresh array. *)
let sanitize ~source ~policy data =
  let n = Array.length data in
  let rec first_invalid i = if i = n || invalid data.(i) then i else first_invalid (i + 1) in
  let first = first_invalid 0 in
  if first = n then Ok (data, 0)
  else
    match policy with
    | Reject ->
        Error.fail
          (Error.Bad_dataset
             {
               source;
               line = Some (first + 1);
               reason =
                 Printf.sprintf
                   "invalid frequency %h (must be finite and non-negative)"
                   data.(first);
             })
    | Clamp ->
        let ceiling = finite_max data in
        let modified = ref 0 in
        for i = first to n - 1 do
          let v = data.(i) in
          if invalid v then begin
            incr modified;
            data.(i) <-
              (if Float.is_nan v then 0.
               else if v = Float.infinity then ceiling
               else 0. (* negative, including -∞ *))
          end
        done;
        Ok (data, !modified)
    | Repair ->
        let modified = ref 0 in
        let fixed =
          Array.mapi
            (fun i v ->
              if invalid v then begin
                incr modified;
                repair_value data i
              end
              else v)
            data
        in
        Ok (fixed, !modified)

let validate ?(source = "dataset") ~policy data =
  sanitize ~source ~policy (Array.copy data)

let of_floats ?(name = "dataset") data =
  Array.iter
    (fun v ->
      ignore (Checks.finite ~name:"Dataset.of_floats" v);
      Checks.check (v >= 0.) "Dataset.of_floats: frequencies must be non-negative")
    data;
  let data = Array.copy data in
  { name; data; prefix = Prefix.of_owned data }

(* [data] is owned: the one copy shared by [t.data] and the prefix. *)
let of_owned_result ~name ~policy data =
  match sanitize ~source:name ~policy data with
  | Error _ as e -> e
  | Ok (data, _) ->
      Ok
        {
          name;
          data;
          prefix = Rs_util.Trace.with_span "prefix.create" (fun () -> Prefix.of_owned data);
        }

let of_floats_result ?(name = "dataset") ?(policy = Reject) data =
  of_owned_result ~name ~policy (Array.copy data)

let of_ints ?name data = of_floats ?name (Array.map float_of_int data)

let generate gen_name =
  of_ints ~name:gen_name (Rs_dist.Datasets.by_name gen_name)

let paper () = generate "paper"
let name t = t.name
let n t = Prefix.n t.prefix
let total t = Prefix.total t.prefix
let values t = Array.copy t.data
let prefix t = t.prefix
let is_integral t = Array.for_all Float.is_integer t.data

(* The dataset text format, parsed in one pass over the whole file held
   in one string: lines split at '\n', each trimmed of the characters
   [String.trim] strips (so CRLF parses like LF), blank and '#' lines
   skipped, every value written straight into one float array.  A
   digits-only line of at most 15 characters is below 2^53, so its
   integer value converts exactly — the bits [float_of_string] gives;
   every other line goes to [float_of_string]. *)

exception Not_a_number of int * string

let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let count_lines s =
  let len = String.length s in
  let lines = ref 0 in
  for i = 0 to len - 1 do
    if String.unsafe_get s i = '\n' then incr lines
  done;
  if len > 0 && s.[len - 1] <> '\n' then !lines + 1 else !lines

(* Write the value of the trimmed line [s.[lo..hi)] into [values.(i)],
   or raise [Not_a_number]. *)
let parse_into values i s ~lineno ~lo ~hi =
  let acc = ref 0 and j = ref lo in
  while !j < hi && s.[!j] >= '0' && s.[!j] <= '9' do
    acc := (!acc * 10) + (Char.code s.[!j] - 48);
    incr j
  done;
  if !j = hi && hi - lo <= 15 then values.(i) <- float_of_int !acc
  else
    let line = String.sub s lo (hi - lo) in
    match float_of_string line with
    | v -> values.(i) <- v
    | exception Failure _ -> raise (Not_a_number (lineno, line))

(* The values of [s] in file order, or [Not_a_number] for the first bad
   line. *)
let parse_values s =
  let len = String.length s in
  let values = Array.create_float (count_lines s) in
  let count = ref 0 and pos = ref 0 and lineno = ref 0 in
  while !pos < len do
    incr lineno;
    let eol = match String.index_from s !pos '\n' with i -> i | exception Not_found -> len in
    let lo = ref !pos and hi = ref eol in
    while !lo < !hi && is_space s.[!lo] do
      incr lo
    done;
    while !hi > !lo && is_space s.[!hi - 1] do
      decr hi
    done;
    if !lo < !hi && s.[!lo] <> '#' then begin
      parse_into values !count s ~lineno:!lineno ~lo:!lo ~hi:!hi;
      incr count
    end;
    pos := eol + 1
  done;
  if !count = Array.length values then values else Array.sub values 0 !count

let load_result ?(policy = Reject) path =
  Rs_util.Trace.with_span "dataset.load" @@ fun () ->
  match Rs_util.Checkpoint.read_file ~seam:"dataset.load" path with
  | Error _ as e -> e
  | Ok text -> (
      match parse_values text with
      | exception Not_a_number (line, text) ->
          Error.fail
            (Error.Bad_dataset
               {
                 source = path;
                 line = Some line;
                 reason = Printf.sprintf "not a number: %S" text;
               })
      | [||] ->
          Error.fail
            (Error.Bad_dataset
               { source = path; line = None; reason = "contains no values" })
      | data ->
          let name = Filename.remove_extension (Filename.basename path) in
          of_owned_result ~name ~policy data)

let load path =
  match load_result path with
  | Ok ds -> ds
  | Error e -> invalid_arg ("Dataset.load: " ^ Error.to_string e)

let save t path =
  let oc = open_out path in
  (try
     Array.iter
       (fun v ->
         if Float.is_integer v then Printf.fprintf oc "%.0f\n" v
         else Printf.fprintf oc "%.17g\n" v)
       t.data
   with e ->
     close_out oc;
     raise e);
  close_out oc
