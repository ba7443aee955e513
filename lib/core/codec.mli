(** Persistence for synopses — what a database catalog would store.

    The format is a versioned, line-oriented text format.  Floats are
    written as OCaml hexadecimal literals ([%h]) so a save/load
    round-trip reproduces every estimate bit-for-bit.  Format v2 adds a
    CRC-32 line immediately after the header, covering every byte below
    it, so bit flips, truncation, and duplicated lines are detected
    before parsing; v1 files (no CRC) remain decodable.

    Example (an OPT-A histogram over a 6-value domain):

    {v
    range-synopsis 2
    crc 7b0883a1
    kind histogram
    name opt-a
    n 6
    rounded false
    rights 2 4 6
    repr avg
    values 0x1p+1 0x1p+3 0x1.9p+3
    v}

    The frame is {!Rs_util.Checkpoint.unframe}'s (the checkpoint
    container's shape under the magic [range-synopsis]) and the body is
    read with its {!Rs_util.Checkpoint.Cursor}, trimming each line.
    CR bytes are stripped before checksumming and parsing, so CRLF and
    LF files are equivalent.  {!decode_result} returns every failure —
    unknown versions or kinds, malformed bodies, checksum mismatches —
    as a typed [Corrupt_synopsis] with a 1-based line number (0 when no
    single line is to blame); it never raises. *)

val to_string : ?version:int -> Synopsis.t -> string
(** Encode; [version] is 2 (default, checksummed) or 1 (legacy).
    Raises [Invalid_argument] on any other version. *)

val decode_result : string -> (Synopsis.t, Rs_util.Error.t) result
(** Parse either format version.  All failures are
    [Error (Corrupt_synopsis _)]. *)

val save : Synopsis.t -> string -> unit
(** Write (always v2), atomically: temp file + [fsync] + [rename]
    ({!Rs_util.Checkpoint.write_atomic}), so a crash mid-save leaves
    the previous contents intact and the channel is closed on every
    error path.  Raises [Rs_error (Io_failure _)] — with the
    destination path — on OS failure. *)

val save_result : Synopsis.t -> string -> (unit, Rs_util.Error.t) result
(** {!save} with every failure (including an injected ["codec.save"]
    fault) returned as [Error (Io_failure _)]. *)

val load_result : string -> (Synopsis.t, Rs_util.Error.t) result
(** Read ({!Rs_util.Checkpoint.read_file}, fault seam ["codec.load"])
    and decode a file: [Io_failure] when the OS refuses the read,
    [Corrupt_synopsis] on malformed content. *)
