(** CRC-32 (the zlib/PNG polynomial), for corruption detection in the
    synopsis codec's v2 format.  Pure OCaml, table-driven; the table is
    built lazily on first use. *)

val string : string -> int32
(** CRC-32 of the whole string. *)

val sub : string -> pos:int -> len:int -> int32
(** CRC-32 of [String.sub s pos len], without the copy — how a frame
    reader checks the bytes below its CRC line in place.  Raises
    [Invalid_argument] when the range is not inside [s]. *)

val digest : string -> string
(** [to_hex (string s)] — the 8-char lowercase hex form the codec
    stores. *)

val to_hex : int32 -> string

val of_hex : string -> int32 option
(** Parse exactly 8 hex digits; [None] on anything else. *)
