(* Shared plumbing for the benchmark: clock, order statistics, seeded
   inputs, file helpers and the result record.  Nothing here calls into
   a layer under test. *)

let now = Rs_util.Mclock.now

(* {2 Order statistics} *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then nan
  else
    let a = sorted xs in
    let pos = q *. float_of_int (n - 1) in
    let i = truncate pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let mean xs =
  if Array.length xs = 0 then nan
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* A growable float sample buffer. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
  let clear t = t.n <- 0
  let length t = t.n
end

(* The items whose stolen CPU share is at most 2 %, or, when fewer than
   a quarter qualify, the quarter with the least steal (see Steal). *)
let least_stolen items share =
  let n = List.length items in
  let clean = List.filter (fun x -> share x <= 0.02) items in
  if 4 * List.length clean >= n then clean
  else
    List.filteri
      (fun i _ -> i < (n + 3) / 4)
      (List.stable_sort (fun a b -> compare (share a) (share b)) items)

(* Timestamped samples split into fixed windows [from + k·width, ...)
   up to [until]; samples outside are dropped. *)
module Windows = struct
  type t = { width : float; groups : float array array }

  let split ~from ~until ~width times values =
    let n = max 1 (int_of_float ((until -. from) /. width)) in
    let groups = Array.make n [] in
    Array.iteri
      (fun i t ->
        let k = int_of_float ((t -. from) /. width) in
        if t >= from && k < n then groups.(k) <- values.(i) :: groups.(k))
      times;
    { width; groups = Array.map Array.of_list groups }

  let rates w = Array.map (fun g -> float_of_int (Array.length g) /. w.width) w.groups

  let quantiles w q =
    Array.of_list
      (List.filter_map
         (fun g -> if Array.length g = 0 then None else Some (quantile g q))
         (Array.to_list w.groups))

  let values w = Array.concat (Array.to_list w.groups)
  let count w = Array.length w.groups

  (* The windows with little steal; [share k] is window [k]'s. *)
  let keep w share =
    let indexed = List.mapi (fun k g -> (k, g)) (Array.to_list w.groups) in
    { w with groups = Array.of_list (List.map snd (least_stolen indexed (fun (k, _) -> share k))) }
end

(* {2 Seeded inputs} *)

let rng ~seed ~salt = Random.State.make [| 0x5eed; seed; salt |]

(* Non-negative integral frequencies with skew and local structure:
   a few heavy spikes over a smooth random walk. *)
let frequencies st ~n ~scale =
  let level = ref (float_of_int scale /. 2.) in
  Array.init n (fun _ ->
      level :=
        Float.max 0.
          (Float.min (float_of_int scale)
             (!level +. (Random.State.float st 2. -. 1.) *. float_of_int scale /. 16.));
      let spike =
        if Random.State.int st 64 = 0 then Random.State.float st (float_of_int (4 * scale))
        else 0.
      in
      Float.round (!level +. spike))

let range st ~n =
  let a = 1 + Random.State.int st n and b = 1 + Random.State.int st n in
  if a <= b then (a, b) else (b, a)

(* {2 Files} *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Written through to disk, so that the harness's own files leave no
   dirty pages to be flushed during a later measurement. *)
let write_file path s =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let b = Bytes.unsafe_of_string s in
      let off = ref 0 in
      while !off < Bytes.length b do
        off := !off + Unix.write fd b !off (Bytes.length b - !off)
      done;
      Unix.fsync fd)

(* fsync on a directory commits the file system's journal, including
   any unlinks before it, so their cost is not paid by a timed fsync
   later. *)
let sync_dir dir =
  let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

let rec copy_dir src dst =
  mkdir_p dst;
  Array.iter
    (fun f ->
      let s = Filename.concat src f and d = Filename.concat dst f in
      if Sys.is_directory s then copy_dir s d else write_file d (read_file s))
    (Sys.readdir src);
  sync_dir dst

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match read_file path with
  | exception Sys_error _ -> nan
  | s ->
      let lines = String.split_on_char '\n' s in
      List.fold_left
        (fun acc l ->
          match String.split_on_char ':' l with
          | [ "VmHWM"; v ] ->
              Scanf.sscanf (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.)
          | _ -> acc)
        nan lines

(* Restart this process's VmHWM from its current resident set. *)
let reset_peak_rss () =
  try Out_channel.with_open_bin "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* CPU seconds (user + system) a live process has used. *)
let cpu_seconds pid =
  match read_file (Printf.sprintf "/proc/%s/stat" pid) with
  | exception Sys_error _ -> nan
  | s ->
      let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
      let f = Array.of_list (String.split_on_char ' ' rest) in
      (float_of_string f.(11) +. float_of_string f.(12)) /. 100.

(* {2 Result record}

   Every run ends with one JSON line: correct/attempted/failed and the
   metrics, each {value, unit}.  Lines before it start with "# " and
   carry the run's record (environment, sample counts, notes). *)

type metric = { name : string; value : float; unit : string; samples : int }

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

type outcome = {
  metrics : metric list;
  ungated : metric list;
      (** measured and printed in the record line, but not part of the
          result: too unsteady on a shared host to gate a change on *)
  attempted : int;
  failed : int;
  notes : (string * string) list;  (** extra record fields, JSON-rendered *)
}

let l2_bytes () =
  match read_file "/sys/devices/system/cpu/cpu0/cache/index2/size" with
  | s -> String.trim s
  | exception Sys_error _ -> "unknown"

let nproc () =
  match read_file "/proc/cpuinfo" with
  | s ->
      List.length
        (List.filter
           (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor")
           (String.split_on_char '\n' s))
  | exception Sys_error _ -> 0

(* Hypervisor steal: time this VM's CPUs were ready to run while the
   host ran another guest.  On the shared host this benchmark was tuned
   on, bursts of steal took up to a third of a CPU for a minute and
   more, and slowed every metric of the runs they hit by up to 2.7x.
   Samples taken while steal exceeded 2 % of the CPU time available
   measure the host, not the program, so they are left out; when that
   would leave fewer than a quarter, the least-stolen quarter is kept
   (least_stolen). *)
module Steal = struct
  let hz = 100. (* USER_HZ, the unit of /proc/stat *)
  let cpus = float_of_int (max 1 (nproc ()))

  let ticks () =
    match read_file "/proc/stat" with
    | exception Sys_error _ -> 0.
    | s -> (
        let first = List.hd (String.split_on_char '\n' s) in
        match List.filter (( <> ) "") (String.split_on_char ' ' first) with
        | "cpu" :: fields when List.length fields >= 8 -> float_of_string (List.nth fields 7)
        | _ -> 0.)

  let share ~ticks ~dt = if dt <= 0. then 0. else ticks /. (dt *. cpus *. hz)

  (* Run [f]; also return the share of CPU time stolen meanwhile. *)
  let guarded f =
    let s0 = ticks () and t0 = now () in
    let r = f () in
    let dt = now () -. t0 in
    (r, share ~ticks:(ticks () -. s0) ~dt)

  (* Counter readings at fixed window boundaries: [note] is called
     often with the current time and reads the counter once per
     boundary passed. *)
  type marks = { from : float; width : float; mutable readings : (int * float) list }

  let marks ~from ~width = { from; width; readings = [ (0, ticks ()) ] }

  let note m t =
    let k = int_of_float (Float.max 0. (t -. m.from) /. m.width) in
    match m.readings with
    | (k0, _) :: _ when k > k0 -> m.readings <- (k, ticks ()) :: m.readings
    | _ -> ()

  (* Stolen share around window [k], from the nearest readings that
     bracket it; 0 when none do. *)
  let window_share m k =
    let before = List.find_opt (fun (i, _) -> i <= k) m.readings in
    let after = List.find_opt (fun (i, _) -> i >= k + 1) (List.rev m.readings) in
    match (before, after) with
    | Some (a, sa), Some (b, sb) -> share ~ticks:(sb -. sa) ~dt:(float_of_int (b - a) *. m.width)
    | _ -> 0.

  (* Samples in groups, each with the share stolen while it was taken. *)
  type kept = { mutable groups : (float array * float) list }

  let kept () = { groups = [] }
  let add k ~share xs = k.groups <- (xs, share) :: k.groups
  let groups k = List.map fst (least_stolen k.groups snd)
  let values k = Array.concat (groups k)
  let dropped k = List.length k.groups - List.length (least_stolen k.groups snd)
end

let print_outcome ~workload ~seed ~trace o =
  let correct = o.failed = 0 in
  let record =
    json_obj
      ([
         ("workload", json_string workload);
         ("seed", string_of_int seed);
         ("trace", string_of_bool trace);
         ("nproc", string_of_int (nproc ()));
         ("l2_cache", json_string (l2_bytes ()));
         ("ocaml", json_string Sys.ocaml_version);
         ("fail_frac", json_float (float_of_int o.failed /. float_of_int (max 1 o.attempted)));
         ( "samples",
           json_obj (List.map (fun m -> (m.name, string_of_int m.samples)) o.metrics) );
         ( "ungated",
           json_obj
             (List.map
                (fun m ->
                  ( m.name,
                    json_obj
                      [
                        ("value", json_float m.value);
                        ("unit", json_string m.unit);
                        ("samples", string_of_int m.samples);
                      ] ))
                o.ungated) );
       ]
      @ o.notes)
  in
  Printf.printf "# record %s\n" record;
  Printf.printf "%s\n%!"
    (json_obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int (max 1 o.attempted));
         ("failed", string_of_int o.failed);
         ( "metrics",
           json_obj
             (List.map
                (fun m ->
                  ( m.name,
                    json_obj [ ("value", json_float m.value); ("unit", json_string m.unit) ] ))
                o.metrics) );
       ]);
  if not correct then exit 1
