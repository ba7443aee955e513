(** Crash-safe durable files: the write primitive under every durable
    byte (DP snapshots, codec files, store manifests, the WAL) and the
    one read path they all share.

    Three layers:

    - {!write_atomic} — replace a file's contents via temp file +
      [fsync] + atomic [rename] (+ best-effort directory [fsync]).  A
      crash at any point leaves either the old contents or the new,
      never a torn mix; at worst a stray [*.tmp] file survives (which
      store fsck removes).
    - {!save}/{!load} — a versioned container around a payload: header
      line, CRC-32 line covering everything below it, and a [kind] tag
      so a DP snapshot can never be mistaken for a store manifest.
      Corruption (bit flips, truncation, wrong kind, bad version) is
      always detected before the payload reaches a parser.
    - the read side — {!read_file}, the line/word {!Cursor} and the
      frame verifier {!unframe}: every parser of outside bytes reads
      through these, so the accept/refuse rules live in one module.

    Fault seams ({!Faults}): ["atomic.write"] (fail before writing),
    ["atomic.torn"] (persist half the temp file, then die before the
    rename), ["atomic.rename"] (die after the temp file is durable but
    before it replaces the destination), ["checkpoint.save"],
    ["checkpoint.load"]. *)

val write_atomic : path:string -> string -> unit
(** Atomically replace [path] with [content].  The temp file is
    [path ^ ".tmp"] in the same directory (same filesystem, so the
    rename is atomic).  Raises [Error.Rs_error (Io_failure _)] — with
    the destination path — on any OS failure. *)

val frame : kind:string -> string -> string
(** The serialized container ([save] = [write_atomic] of [frame]) —
    exposed for tests that corrupt it. *)

val save : path:string -> kind:string -> string -> unit
(** Frame [body] under [kind] and {!write_atomic} it.  Raises like
    {!write_atomic}. *)

val load : path:string -> kind:string -> (string, Error.t) result
(** Read ({!read_file} under the ["checkpoint.load"] seam) and verify
    ({!unframe}) a container: [Io_failure] when the OS refuses the
    read, [Corrupt_checkpoint] on any framing/CRC/kind violation;
    [Ok body] — the bytes after the kind line — only when every check
    passes. *)

(** {2 The read side} *)

val read_file : ?seam:string -> string -> (string, Error.t) result
(** The whole file.  [Io_failure] (with [path]) when the OS refuses the
    read or when the fault [seam], tripped first, fires. *)

(** A line/word cursor over a string, scanned by index.  Lines
    are ['\n']-separated; a line made only of whitespace
    ([String.trim]'s set) is blank and skipped.  Words are maximal runs
    of non-[' '] characters.  Line numbers count blank lines too.  Every
    failure raises [Error.Rs_error (error ~line reason)], with [error]
    the caller's constructor and [line] the current line — 0 when the
    input ended early. *)
module Cursor : sig
  type t

  val create :
    ?trim:bool ->
    ?line:int ->
    ?pos:int ->
    error:(line:int -> string -> Error.t) ->
    string ->
    t
  (** Read [s] from offset [pos] (default 0), the start of line number
      [line] (default 1), to its end.  With [trim] (default false) each
      line's leading and trailing whitespace is dropped before any word
      is read. *)

  val of_body : path:string -> string -> t
  (** Over a {!load} body; failures are [Corrupt_checkpoint { path; _ }]. *)

  val at_end : t -> bool
  (** Only blank lines remain. *)

  val line : t -> int

  val next : t -> string
  (** Move to the next non-blank line and return its first word. *)

  val expect : t -> string -> unit
  (** [next], requiring the first word to be [key]. *)

  val word : t -> string
  val int : t -> int
  val float : t -> float
  (** The next word of the current line, as it is, as an [int]
      ([int_of_string]), or as a {e finite} float ([float_of_string]);
      NaN and infinities are refused. *)

  val ints : t -> int array
  val floats : t -> float array
  val words : t -> string list
  (** Every remaining word of the current line. *)

  val rest : t -> string
  (** The rest of the current line after the character that ended the
      last word read, spaces kept. *)

  val finish : t -> unit
  (** Fails unless no word remains on the current line. *)

  val int_of : t -> string -> int
  val float_of : t -> string -> float
  val fail : t -> ('a, unit, string, 'b) format4 -> 'a
  (** Conversions and failures at the current line. *)
end

val unframe :
  ?legacy:int ->
  magic:string ->
  version:int ->
  error:(line:int -> string -> Error.t) ->
  string ->
  string * Cursor.t
(** The one frame verifier.  Line 1 must be [magic version], line 2
    [crc <8 hex digits>] — the CRC-32 of every byte after line 2 — and
    the first non-blank line below it [kind <k>].  Returns [k] and a
    trimming cursor positioned after the kind line, with file-relative
    line numbers.  A header naming version [legacy] has no CRC line:
    its body starts on line 2 (the codec's v1 files).  Raises
    [Error.Rs_error (error ~line reason)]: line 1 for a wrong magic or
    version, line 2 for a missing, malformed or mismatched CRC. *)
