let magic = "rs-checkpoint"
let version = 1

let log_src = Logs.Src.create "rs.checkpoint" ~doc:"Crash-safe DP snapshots"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* One registry touch per snapshot written/read — snapshots are already
   rare (per checkpoint cadence), so this is far off the DP hot path. *)
let m_saves = Metrics.counter "checkpoint.saves"
let m_save_bytes = Metrics.counter "checkpoint.bytes"
let m_loads = Metrics.counter "checkpoint.loads"

(* --- crash-safe file replacement --- *)

let io_fail path reason = Error.raise_error (Error.Io_failure { path; reason })

let fsync_dir dir =
  (* Persist the rename itself.  Best effort: some filesystems refuse
     O_RDONLY fsync on directories, and losing the *rename* (not the
     data) on power failure is the acceptable residual risk. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())

let write_atomic ~path content =
  Faults.trip "atomic.write";
  let tmp = path ^ ".tmp" in
  match
    let fd = Unix.openfile tmp [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        (* Torn-write seam: persist a prefix, then die before the
           rename — the destination must remain untouched. *)
        if Faults.armed "atomic.torn" then begin
          let half = String.length content / 2 in
          ignore (Unix.write_substring fd content 0 half);
          Faults.trip "atomic.torn"
        end;
        let len = String.length content in
        let written = ref 0 in
        while !written < len do
          written :=
            !written + Unix.write_substring fd content !written (len - !written)
        done;
        Unix.fsync fd);
    Faults.trip "atomic.rename";
    Unix.rename tmp path;
    fsync_dir (Filename.dirname path)
  with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) -> io_fail path (Unix.error_message e)
  | exception Sys_error reason -> io_fail path reason

(* --- versioned, checksummed framing --- *)

let frame ~kind body =
  let covered = Printf.sprintf "kind %s\n%s" kind body in
  Printf.sprintf "%s %d\ncrc %s\n%s" magic version (Crc32.digest covered)
    covered

let save ~path ~kind body =
  Faults.trip "checkpoint.save";
  Trace.with_span "checkpoint.save" @@ fun () ->
  let framed = frame ~kind body in
  write_atomic ~path framed;
  Metrics.incr m_saves;
  Metrics.add m_save_bytes (String.length framed);
  Log.debug (fun m ->
      m "snapshot %s: %d bytes (kind %s)" path (String.length framed) kind)

(* --- the one read side ---

   Every durable record (codec files, DP snapshots, store manifests,
   the WAL) is read through what follows: one whole-file read, one
   line/word cursor, and one frame verifier.  The accept/refuse rules
   for outside bytes live here and nowhere else. *)

let read_file ?seam path =
  match
    Option.iter Faults.trip seam;
    In_channel.with_open_bin path In_channel.input_all
  with
  | content -> Ok content
  | exception Sys_error reason -> Error.fail (Error.Io_failure { path; reason })
  | exception Faults.Injected { reason; _ } ->
      Error.fail (Error.Io_failure { path; reason })

module Cursor = struct
  type t = {
    s : string;
    trim : bool;
    error : line:int -> string -> Error.t;
    mutable next : int;  (* offset of the first unread line *)
    mutable next_no : int;  (* its line number *)
    mutable ahead : int;  (* its end once [skip_blank] found it non-blank *)
    mutable line : int;  (* number of the current line; 0 before any *)
    mutable pos : int;  (* word scan position inside the current line *)
    mutable eol : int;  (* end of the current line *)
  }

  let create ?(trim = false) ?(line = 1) ?(pos = 0) ~error s =
    if pos < 0 || pos > String.length s then
      invalid_arg "Checkpoint.Cursor.create";
    let next_no = line and line = 0 and eol = pos in
    { s; trim; error; next = pos; next_no; ahead = -1; line; pos; eol }

  let of_body ~path body =
    create body ~error:(fun ~line reason ->
        let reason =
          if line = 0 then reason else Printf.sprintf "body line %d: %s" line reason
        in
        Error.Corrupt_checkpoint { path; reason })

  let raise_at t line reason = Error.raise_error (t.error ~line reason)
  let fail t fmt = Printf.ksprintf (raise_at t t.line) fmt
  let line t = t.line

  (* [String.trim]'s whitespace: a line made only of these is blank. *)
  let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

  (* The scans below keep their position in a local, not in [t]: a
     synopsis line can hold a million characters. *)

  (* Step [next] over blank lines; true when a non-blank line remains. *)
  let rec skip_blank t =
    t.ahead >= 0
    || t.next < String.length t.s
       &&
       let e =
         Option.value (String.index_from_opt t.s t.next '\n')
           ~default:(String.length t.s)
       in
       let i = ref t.next in
       while !i < e && is_space (String.unsafe_get t.s !i) do
         incr i
       done;
       if !i < e then begin
         t.ahead <- e;
         true
       end
       else begin
         t.next <- e + 1;
         t.next_no <- t.next_no + 1;
         skip_blank t
       end

  let at_end t = not (skip_blank t)

  let skip t ~space =
    let s = t.s and eol = t.eol and p = ref t.pos in
    while !p < eol && String.unsafe_get s !p = ' ' = space do
      incr p
    done;
    t.pos <- !p

  let at_eol t =
    skip t ~space:true;
    t.pos >= t.eol

  let word t =
    if at_eol t then fail t "missing value";
    let start = t.pos in
    skip t ~space:false;
    String.sub t.s start (t.pos - start)

  let next t =
    if not (skip_blank t) then raise_at t 0 "unexpected end of input";
    let e = t.ahead in
    t.ahead <- -1;
    t.pos <- t.next;
    t.eol <- e;
    if t.trim then begin
      while is_space t.s.[t.pos] do
        t.pos <- t.pos + 1
      done;
      while is_space t.s.[t.eol - 1] do
        t.eol <- t.eol - 1
      done
    end;
    t.line <- t.next_no;
    t.next <- e + 1;
    t.next_no <- t.next_no + 1;
    word t

  let expect t key =
    let k = next t in
    if k <> key then fail t "expected %S, got %S" key k

  let rest t =
    if t.pos >= t.eol then "" else String.sub t.s (t.pos + 1) (t.eol - t.pos - 1)

  let finish t = if not (at_eol t) then fail t "trailing words"

  let words t =
    let rec go acc = if at_eol t then List.rev acc else go (word t :: acc) in
    go []

  let int_of t w =
    match int_of_string_opt w with Some v -> v | None -> fail t "not an int: %S" w

  let float_of t w =
    match float_of_string_opt w with
    | Some v when Float.is_finite v -> v
    | Some _ -> fail t "non-finite value: %S" w
    | None -> fail t "not a float: %S" w

  let int t = int_of t (word t)
  let float t = float_of t (word t)

  (* Arrays are sized by a counting pass, then filled in one more. *)
  let count_words t =
    let s = t.s and eol = t.eol and n = ref 0 and p = ref t.pos in
    while !p < eol do
      if String.unsafe_get s !p = ' ' then incr p
      else begin
        incr n;
        while !p < eol && String.unsafe_get s !p <> ' ' do
          incr p
        done
      end
    done;
    !n

  let ints t = Array.init (count_words t) (fun _ -> int t)
  let floats t = Array.init (count_words t) (fun _ -> float t)

  (* [next] is one past the end once the last line had no newline. *)
  let remainder t =
    let len = String.length t.s in
    String.sub t.s (min t.next len) (max 0 (len - t.next))
end

let unframe ?legacy ~magic ~version ~error s =
  let fail line fmt =
    Printf.ksprintf (fun r -> Error.raise_error (error ~line r)) fmt
  in
  (* the line starting at [from], and where the next one starts *)
  let line from =
    let len = String.length s in
    let e = Option.value (String.index_from_opt s from '\n') ~default:len in
    (String.sub s from (e - from), min (e + 1) len)
  in
  let words l =
    List.filter (fun w -> w <> "") (String.split_on_char ' ' (String.trim l))
  in
  let header, at2 = line 0 in
  let body_at, first_line =
    match words header with
    | [ m; v ] when m = magic && v = string_of_int version -> (
        let crc_line, at3 = line at2 in
        match words crc_line with
        | [ "crc"; hex ] -> (
            match Crc32.of_hex hex with
            | None -> fail 2 "malformed crc %S" hex
            | Some stored ->
                let actual = Crc32.sub s ~pos:at3 ~len:(String.length s - at3) in
                if actual <> stored then
                  fail 2 "CRC mismatch: stored %s, computed %s" hex
                    (Crc32.to_hex actual);
                (at3, 3))
        | _ -> fail 2 "expected a crc line, got %S" crc_line)
    | [ m; v ] when m = magic && Some v = Option.map string_of_int legacy ->
        (at2, 2)
    | [ m; v ] when m = magic -> fail 1 "unsupported version %s" v
    | _ -> fail 1 "not a %s file" magic
  in
  let cur = Cursor.create ~trim:true ~line:first_line ~pos:body_at ~error s in
  Cursor.expect cur "kind";
  (Cursor.rest cur, cur)

let load ~path ~kind =
  Metrics.incr m_loads;
  Log.debug (fun m -> m "loading snapshot %s (kind %s)" path kind);
  let error ~line reason =
    Error.Corrupt_checkpoint
      { path; reason = Printf.sprintf "line %d: %s" line reason }
  in
  match read_file ~seam:"checkpoint.load" path with
  | Error _ as e -> e
  | Ok content -> (
      match unframe ~magic ~version ~error content with
      | exception Error.Rs_error e -> Error e
      | found, cur when found = kind -> Ok (Cursor.remainder cur)
      | found, cur ->
          Error
            (error ~line:(Cursor.line cur)
               (Printf.sprintf "kind mismatch: expected %S, got %S" kind found)))
