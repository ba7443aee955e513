(* Process-local metrics registry.  The disabled path is one load + one
   branch (the Faults.trip discipline); everything heavier — interning,
   snapshotting, JSON — happens off the hot paths.  Recording is
   unsynchronised by design: it is coordinator-only, like Governor.poll
   (DESIGN.md §12). *)

let on = ref false

let enabled () = !on
let enable () = on := true
let disable () = on := false

let with_enabled f =
  let prev = !on in
  on := true;
  Fun.protect ~finally:(fun () -> on := prev) f

let with_disabled f =
  let prev = !on in
  on := false;
  Fun.protect ~finally:(fun () -> on := prev) f

type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : float; mutable g_set : bool }

(* Default log-scale bounds, 1µs .. 100s, roughly ×10 per decade with a
   half-decade step; the implicit last bucket is the +inf overflow.
   Histograms measuring something other than seconds (probe lengths,
   chunk spans) intern their own bounds via [?bounds]. *)
let bucket_bounds =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 0.5; 1.; 5.; 10.; 100. |]

type histogram = {
  hg_name : string;
  hg_bounds : float array; (* strictly increasing upper bounds *)
  hg_counts : int array; (* length = Array.length hg_bounds + 1 *)
  mutable hg_count : int;
  mutable hg_sum : float;
  mutable hg_max : float;
}

type cell = C of counter | G of gauge | H of histogram

let registry : (string, cell) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()

let intern name make what =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      match Hashtbl.find_opt registry name with
      | Some cell -> cell
      | None ->
          let cell = make () in
          Hashtbl.add registry name cell;
          cell
      | exception _ -> invalid_arg ("Metrics: " ^ what ^ " " ^ name))

let counter name =
  match intern name (fun () -> C { c_name = name; c_value = 0 }) "counter" with
  | C c -> c
  | _ -> invalid_arg ("Metrics.counter: " ^ name ^ " registered with another kind")

let gauge name =
  match
    intern name (fun () -> G { g_name = name; g_value = 0.; g_set = false }) "gauge"
  with
  | G g -> g
  | _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " registered with another kind")

let histogram ?(bounds = bucket_bounds) name =
  let bounds = Array.copy bounds in
  if Array.length bounds = 0 then
    invalid_arg ("Metrics.histogram: " ^ name ^ ": empty bounds");
  Array.iteri
    (fun i b ->
      if (not (Float.is_finite b)) || (i > 0 && b <= bounds.(i - 1)) then
        invalid_arg
          ("Metrics.histogram: " ^ name ^ ": bounds must be finite and increasing"))
    bounds;
  match
    intern name
      (fun () ->
        H
          {
            hg_name = name;
            hg_bounds = bounds;
            hg_counts = Array.make (Array.length bounds + 1) 0;
            hg_count = 0;
            hg_sum = 0.;
            hg_max = neg_infinity;
          })
      "histogram"
  with
  | H h ->
      if Array.length h.hg_bounds <> Array.length bounds
         || not (Array.for_all2 ( = ) h.hg_bounds bounds)
      then
        invalid_arg
          ("Metrics.histogram: " ^ name ^ " registered with different bounds");
      h
  | _ ->
      invalid_arg ("Metrics.histogram: " ^ name ^ " registered with another kind")

let buckets histogram = Array.length histogram.hg_counts

let incr c = if !on then c.c_value <- c.c_value + 1
let add c n = if !on then c.c_value <- c.c_value + n

let set g v =
  if !on then (
    g.g_value <- v;
    g.g_set <- true)

let bucket_index bounds v =
  let n = Array.length bounds in
  let i = ref 0 in
  while !i < n && v > bounds.(!i) do
    i := !i + 1
  done;
  !i

let observe h v =
  if !on then (
    let i = bucket_index h.hg_bounds v in
    h.hg_counts.(i) <- h.hg_counts.(i) + 1;
    h.hg_count <- h.hg_count + 1;
    h.hg_sum <- h.hg_sum +. v;
    if v > h.hg_max then h.hg_max <- v)

(* Bulk merge of pre-bucketed tallies — the chunk-barrier/per-solve
   pattern: workers (or per-cell stats slots) tally into plain int
   arrays, the coordinator absorbs them here, once, outside the hot
   loop.  [counts] must have one slot per bucket including overflow
   (= [buckets h]). *)
let absorb h ~counts ~count ~sum ~max:mx =
  if !on && count > 0 then begin
    if Array.length counts <> Array.length h.hg_counts then
      invalid_arg
        ("Metrics.absorb: " ^ h.hg_name ^ ": counts/bucket arity mismatch");
    Array.iteri (fun i c -> h.hg_counts.(i) <- h.hg_counts.(i) + c) counts;
    h.hg_count <- h.hg_count + count;
    h.hg_sum <- h.hg_sum +. sum;
    if mx > h.hg_max then h.hg_max <- mx
  end

let count name n = if !on then add (counter name) n

let reset () =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      Hashtbl.iter
        (fun _ cell ->
          match cell with
          | C c -> c.c_value <- 0
          | G g ->
              g.g_value <- 0.;
              g.g_set <- false
          | H h ->
              Array.fill h.hg_counts 0 (Array.length h.hg_counts) 0;
              h.hg_count <- 0;
              h.hg_sum <- 0.;
              h.hg_max <- neg_infinity)
        registry)

type hist_snapshot = {
  h_count : int;
  h_sum : float;
  h_max : float;
  h_buckets : (float * int) list;
}

type report = {
  r_counters : (string * int) list;
  r_gauges : (string * float) list;
  r_histograms : (string * hist_snapshot) list;
}

let by_name (a, _) (b, _) = String.compare a b

let report () =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      let cs = ref [] and gs = ref [] and hs = ref [] in
      Hashtbl.iter
        (fun _ cell ->
          match cell with
          | C c -> cs := (c.c_name, c.c_value) :: !cs
          | G g -> if g.g_set then gs := (g.g_name, g.g_value) :: !gs
          | H h ->
              if h.hg_count > 0 then
                let buckets =
                  List.init
                    (Array.length h.hg_counts)
                    (fun i ->
                      let le =
                        if i < Array.length h.hg_bounds then h.hg_bounds.(i)
                        else infinity
                      in
                      (le, h.hg_counts.(i)))
                in
                hs :=
                  ( h.hg_name,
                    {
                      h_count = h.hg_count;
                      h_sum = h.hg_sum;
                      h_max = h.hg_max;
                      h_buckets = buckets;
                    } )
                  :: !hs)
        registry;
      {
        r_counters = List.sort by_name !cs;
        r_gauges = List.sort by_name !gs;
        r_histograms = List.sort by_name !hs;
      })

(* Hand-rolled JSON: no dependency, and the output is deterministic
   (sorted keys, %.17g / %d scalars). *)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let to_json () =
  let r = report () in
  let b = Buffer.create 1024 in
  let obj fields render =
    Buffer.add_char b '{';
    List.iteri
      (fun i (name, v) ->
        if i > 0 then Buffer.add_string b ", ";
        Buffer.add_string b (Printf.sprintf "\"%s\": " (json_escape name));
        render v)
      fields;
    Buffer.add_char b '}'
  in
  Buffer.add_string b "{\"schema\": \"rs-metrics-v1\", \"counters\": ";
  obj r.r_counters (fun v -> Buffer.add_string b (string_of_int v));
  Buffer.add_string b ", \"gauges\": ";
  obj r.r_gauges (fun v -> Buffer.add_string b (json_float v));
  Buffer.add_string b ", \"histograms\": ";
  obj r.r_histograms (fun h ->
      Buffer.add_string b
        (Printf.sprintf "{\"count\": %d, \"sum\": %s, \"max\": %s, \"buckets\": ["
           h.h_count (json_float h.h_sum) (json_float h.h_max));
      List.iteri
        (fun i (le, n) ->
          if i > 0 then Buffer.add_string b ", ";
          let le_s =
            if le = infinity then "\"+inf\"" else json_float le
          in
          Buffer.add_string b (Printf.sprintf "{\"le\": %s, \"count\": %d}" le_s n))
        h.h_buckets;
      Buffer.add_string b "]}");
  Buffer.add_string b "}\n";
  Buffer.contents b

let write_json path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json ()))
