(* CRC-32/ISO-HDLC (the zlib/PNG polynomial 0xEDB88320), table-driven.
   The running value lives in a native int (the low 32 bits), so the
   byte loop allocates nothing. *)

let table =
  lazy
    (Array.init 256 (fun i ->
         let c = ref i in
         for _ = 0 to 7 do
           if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1)
           else c := !c lsr 1
         done;
         !c))

let mask = 0xFFFF_FFFF

let sub s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.sub";
  let table = Lazy.force table in
  let c = ref mask in
  for i = pos to pos + len - 1 do
    c :=
      Array.unsafe_get table ((!c lxor Char.code (String.unsafe_get s i)) land 0xff)
      lxor (!c lsr 8)
  done;
  Int32.of_int (lnot !c land mask)

let string s = sub s ~pos:0 ~len:(String.length s)
let to_hex crc = Printf.sprintf "%08lx" crc
let digest s = to_hex (string s)

let of_hex s =
  if String.length s <> 8 then None
  else
    (* Parse as unsigned via int64 to survive the sign bit. *)
    match Int64.of_string_opt ("0x" ^ s) with
    | Some v when Int64.unsigned_compare v 0xffffffffL <= 0 ->
        Some (Int64.to_int32 v)
    | _ -> None
