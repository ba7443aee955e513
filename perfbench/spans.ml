(* Outside-in spans for the traced run.

   The benchmark cannot record inside the program, so a traced
   operation is a root span around the public call a user makes (a
   socket round trip, [Server.push], a whole build) plus child spans
   that replay the operation's sub-steps by calling each layer's public
   function directly on the same inputs.  Children share the root's
   operation id and name it as parent; they need not nest in time.  A
   span's self time is its duration minus its children's durations, so
   a root's self time is the part of the operation no layer replay
   accounts for (the "unattributed" remainder).  Spans stay in memory
   and are written out once, at exit. *)

type span = {
  id : int;
  name : string;
  t0 : float;
  t1 : float;
  parent : int;  (** [-1] for a root *)
  op : int;
}

let spans : span list ref = ref []
let next = ref 0

let add ~op ~parent name t0 t1 =
  let id = !next in
  incr next;
  spans := { id; name; t0; t1; parent; op } :: !spans;
  id

(* Time [f] as a span; returns its id and result. *)
let time ~op ~parent name f =
  let t0 = Common.now () in
  let r = f () in
  let t1 = Common.now () in
  (add ~op ~parent name t0 t1, r)

let count () = List.length !spans

(* Statistics below only see spans recorded since the last [section]
   call, so each replay's layers are measured on its own operations. *)
let from = ref 0
let section () = from := !next
let visible () = List.filter (fun s -> s.id >= !from) !spans

(* Self time (seconds) of every span, grouped by name. *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0) +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    (visible ());
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self = s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      Hashtbl.replace by_name s.name
        (self :: Option.value ~default:[] (Hashtbl.find_opt by_name s.name)))
    (visible ());
  fun name -> Array.of_list (Option.value ~default:[] (Hashtbl.find_opt by_name name))

let durations name =
  Array.of_list
    (List.filter_map (fun s -> if s.name = name then Some (s.t1 -. s.t0) else None) (visible ()))

let write path =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%s,\"start\":%.9f,\"end\":%.9f,\"parent\":%d,\"op\":%d}\n"
            s.id (Common.json_string s.name) s.t0 s.t1 s.parent s.op)
        (List.rev !spans))
