module Error = Rs_util.Error
module Faults = Rs_util.Faults
module P = Protocol

module Log = (val Logs.src_log Server.log_src : Logs.LOG)

let max_line = 1 lsl 16

type client = {
  id : Server.cookie;
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable alive : bool;
}

let write_line fd line =
  let line = line ^ "\n" in
  let len = String.length line in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd line !off (len - !off)
  done

(* A dead peer (EPIPE/ECONNRESET on write) is the client's problem, not
   the daemon's: drop the connection, keep serving everyone else. *)
let try_write client line =
  if client.alive then
    try write_line client.fd line
    with Unix.Unix_error _ | Sys_error _ -> client.alive <- false

let close_client ?by_fd clients client =
  if client.alive then client.alive <- false;
  (try Unix.close client.fd with Unix.Unix_error _ -> ());
  Hashtbl.remove clients client.id;
  Option.iter (fun t -> Hashtbl.remove t client.fd) by_fd

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* Read chunk size: a client's window of ~3 KB query lines arrives in
   one read. *)
let read_size = 1 lsl 16

(* The index of the first '\n' in [bytes] between [i] and [len], or
   [len].  Eight bytes at a time: [x = w xor 0x0a..0a] has a zero byte
   exactly where [w] has a newline, and [(x - 0x01..01) land (lnot x)
   land 0x80..80] is nonzero exactly when [x] has a zero byte; the word
   that hits is then scanned byte by byte. *)
let rec newline_bytewise bytes i len =
  if i < len && Bytes.unsafe_get bytes i <> '\n' then
    newline_bytewise bytes (i + 1) len
  else i

let rec newline_wordwise bytes i len =
  if i + 8 > len then newline_bytewise bytes i len
  else
    let x = Int64.logxor (get64u bytes i) 0x0a0a_0a0a_0a0a_0a0aL in
    if
      Int64.logand
        (Int64.logand (Int64.sub x 0x0101_0101_0101_0101L) (Int64.lognot x))
        0x8080_8080_8080_8080L
      = 0L
    then newline_wordwise bytes (i + 8) len
    else newline_bytewise bytes i len

let find_newline bytes pos len =
  if pos < 0 || len > Bytes.length bytes then invalid_arg "Daemon.find_newline";
  newline_wordwise bytes pos len

let oversized_reply () =
  P.encode_response
    (P.Refused
       {
         id = None;
         refusal = P.Bad_request;
         message = Printf.sprintf "line exceeds %d bytes" max_line;
         retry_after_ms = None;
       })

(* Feed freshly read bytes into a connection's line buffer [pending] and
   serve every complete line; [deliver cookie reply] routes each reply to
   the connection whose [cookie] asked.  Returns [false] when the
   connection should close (an over-long line, refused first, or a
   shutdown that has drained).

   Bulk scan: complete lines that arrive in one read are served from a
   single [Bytes.sub_string] each; only a line fragment left dangling at
   the end of the read is copied into [pending] (as one
   [add_subbytes]). *)
let feed server ~cookie ~pending ~deliver bytes len =
  let keep = ref true in
  let pos = ref 0 in
  while !keep && !pos < len do
    let nl = find_newline bytes !pos len in
    if nl < len then begin
      (* A complete line ends at nl. *)
      let seg = Bytes.sub_string bytes !pos (nl - !pos) in
      let line =
        if Buffer.length pending = 0 then seg
        else begin
          Buffer.add_string pending seg;
          let l = Buffer.contents pending in
          Buffer.clear pending;
          l
        end
      in
      pos := nl + 1;
      if String.length line > max_line then begin
        deliver cookie (oversized_reply ());
        keep := false
      end
      else begin
        (match Server.push server ~cookie line with
        | `Reply r -> deliver cookie r
        | `Queued -> ());
        (* Drain everything evaluable now — queued work from any
           connection, each response routed to the one that asked. *)
        let rec drain () =
          match Server.step server with
          | None -> ()
          | Some (c, r) ->
              deliver c r;
              drain ()
        in
        drain ();
        if Server.draining server && Server.pending server = 0 then
          keep := false
      end
    end
    else begin
      (* No newline in the remainder: stash the fragment. *)
      let rest = len - !pos in
      if Buffer.length pending + rest > max_line then begin
        deliver cookie (oversized_reply ());
        keep := false
      end
      else Buffer.add_subbytes pending bytes !pos rest;
      pos := len
    end
  done;
  !keep

let run server ~socket =
  (* A peer can vanish between select and write; EPIPE must be a
     per-client event, never a process signal. *)
  let previous_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  let sock =
    try
      if Sys.file_exists socket then Sys.remove socket;
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind sock (Unix.ADDR_UNIX socket);
      Unix.listen sock 16;
      sock
    with Unix.Unix_error (err, _, _) ->
      Error.raise_error
        (Error.Io_failure
           { path = socket; reason = Unix.error_message err })
  in
  Log.info (fun m -> m "listening on %s" socket);
  let clients : (Server.cookie, client) Hashtbl.t = Hashtbl.create 16 in
  (* fd-indexed view of [clients]: the select loop resolves each
     readable descriptor in O(1) instead of scanning every connection
     per event — the multi-client accept loop stays O(ready), not
     O(ready × connections). *)
  let by_fd : (Unix.file_descr, client) Hashtbl.t = Hashtbl.create 16 in
  let next_id = ref 1 in
  let deliver cookie reply =
    match Hashtbl.find_opt clients cookie with
    | Some c -> try_write c reply
    | None -> () (* asker disconnected; answer drops *)
  in
  let bytes = Bytes.create read_size in
  let finished () = Server.draining server && Server.pending server = 0 in
  (try
     while not (finished ()) do
       let fds =
         sock :: Hashtbl.fold (fun fd _ acc -> fd :: acc) by_fd []
       in
       let readable, _, _ = Unix.select fds [] [] 0.5 in
       List.iter
         (fun fd ->
           if fd = sock then begin
             match
               Error.guard (fun () ->
                   Faults.trip "serve.accept";
                   fst (Unix.accept sock))
             with
             | Ok cfd ->
                 let id = !next_id in
                 incr next_id;
                 let client =
                   { id; fd = cfd; buf = Buffer.create 256; alive = true }
                 in
                 Hashtbl.replace clients id client;
                 Hashtbl.replace by_fd cfd client
             | Error e ->
                 (* Accept failed (injected or transient OS error): the
                    would-be client is on its own; the daemon serves on. *)
                 Log.warn (fun m -> m "accept refused: %s" (Error.to_string e))
           end
           else
             match Hashtbl.find_opt by_fd fd with
             | None -> ()
             | Some client -> (
                 match Unix.read fd bytes 0 (Bytes.length bytes) with
                 | 0 -> close_client ~by_fd clients client
                 | n ->
                     if
                       not
                         (feed server ~cookie:client.id ~pending:client.buf
                            ~deliver bytes n)
                     then close_client ~by_fd clients client
                 | exception Unix.Unix_error _ ->
                     close_client ~by_fd clients client))
         readable
     done
   with e ->
     (* Leave no socket file behind even on an unexpected exit. *)
     Hashtbl.iter
       (fun _ c -> close_client ~by_fd clients c)
       (Hashtbl.copy clients);
     (try Unix.close sock with Unix.Unix_error _ -> ());
     (try Sys.remove socket with Sys_error _ -> ());
     Option.iter (fun h -> ignore (Sys.signal Sys.sigpipe h)) previous_sigpipe;
     raise e);
  Hashtbl.iter
    (fun _ c -> close_client ~by_fd clients c)
    (Hashtbl.copy clients);
  (try Unix.close sock with Unix.Unix_error _ -> ());
  (try Sys.remove socket with Sys_error _ -> ());
  Option.iter (fun h -> ignore (Sys.signal Sys.sigpipe h)) previous_sigpipe;
  Log.info (fun m -> m "shutdown complete")

let run_stdio server =
  let bytes = Bytes.create read_size in
  let pending = Buffer.create 256 in
  let deliver _ reply =
    print_string reply;
    print_char '\n'
  in
  let rec loop () =
    match Unix.read Unix.stdin bytes 0 read_size with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | 0 ->
        (* End of input ends a last unterminated line, as [input_line]
           would. *)
        if Buffer.length pending > 0 then
          ignore (feed server ~cookie:0 ~pending ~deliver (Bytes.make 1 '\n') 1 : bool)
    | n ->
        let keep = feed server ~cookie:0 ~pending ~deliver bytes n in
        flush stdout;
        if keep then loop ()
  in
  loop ();
  flush stdout
