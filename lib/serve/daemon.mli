(** Transports for {!Server}: a Unix-domain-socket select loop and a
    stdio loop (one request line in, one response line out).

    The daemon is crash-only: every client failure — disconnect
    mid-line, oversized line, write to a vanished peer, an injected
    ["serve.accept"] fault — is contained to that client's connection;
    the loop and every other connection keep serving.  Both loops exit
    only after a [shutdown] request has been acknowledged {e and} the
    queued work has drained, so an acknowledged shutdown is never
    lost. *)

val max_line : int
(** Per-connection line-length bound (bytes), on both transports.  A
    client exceeding it gets a [Bad_request] refusal and its connection
    closed (stdio: the loop stops) — backpressure against a peer that
    never sends a newline. *)

val find_newline : Bytes.t -> int -> int -> int
(** [find_newline bytes pos len] is the index of the first ['\n'] in
    [bytes] from [pos] up to [len] (exclusive), or [len] if none — the
    line framer's scan, exposed for its byte-loop twin test.  Raises
    [Invalid_argument] unless [0 <= pos] and [len <= Bytes.length
    bytes]. *)

val run : Server.t -> socket:string -> unit
(** Bind [socket] (unlinking a stale file first), accept and serve until
    shutdown, then close every connection and unlink the socket.
    Raises [Rs_error (Io_failure _)] only when the OS refuses the bind
    itself. *)

val run_stdio : Server.t -> unit
(** Serve stdin → stdout until EOF, shutdown or an over-long line.  The
    scripting/test transport — same pipeline and the same line framer
    as a socket connection, reading stdin in chunks; at EOF a last
    unterminated line is served as if it ended in a newline. *)
