module Error = Rs_util.Error
module Prefix = Rs_util.Prefix
module Q = Rs_query.Segments

type plan = { plan_n : int; bounds : (int * int) array }

let invalid fmt = Printf.ksprintf (fun m -> Error.raise_error (Error.Invalid_input m)) fmt

let plan ~n ~segments =
  if segments < 1 || segments > n then
    invalid "Segmented.plan: need 1 <= segments <= n (got segments=%d, n=%d)"
      segments n;
  let base = n / segments and rem = n mod segments in
  let bounds =
    Array.init segments (fun i ->
        (* the first [rem] segments carry one extra element *)
        let lo = (i * base) + min i rem + 1 in
        let w = base + if i < rem then 1 else 0 in
        (lo, lo + w - 1))
  in
  { plan_n = n; bounds }

(* A plan from explicit bounds — the streaming path keeps its own
   segment layout (stream manifests pin it across restarts) and needs
   to rebuild the same [plan] value, not a fresh balanced one. *)
let plan_of_bounds ~n bounds =
  if Array.length bounds = 0 then
    invalid "Segmented.plan_of_bounds: no segments";
  let expected_lo = ref 1 in
  Array.iteri
    (fun i (lo, hi) ->
      if lo <> !expected_lo || hi < lo then
        invalid
          "Segmented.plan_of_bounds: segment %d is [%d..%d] but must start \
           at %d and be non-empty"
          i lo hi !expected_lo;
      expected_lo := hi + 1)
    bounds;
  if !expected_lo <> n + 1 then
    invalid "Segmented.plan_of_bounds: segments cover [1..%d] but n=%d"
      (!expected_lo - 1) n;
  { plan_n = n; bounds = Array.copy bounds }

type part = { lo : int; hi : int; total : float; synopsis : Synopsis.t }
type t = { n : int; parts : part array }

let width (lo, hi) = hi - lo + 1

let make ds plan synopses =
  let s = Array.length plan.bounds in
  if Array.length synopses <> s then
    invalid "Segmented.make: %d synopses for %d segments"
      (Array.length synopses) s;
  if Dataset.n ds <> plan.plan_n then
    invalid "Segmented.make: dataset n=%d but plan n=%d" (Dataset.n ds)
      plan.plan_n;
  let p = Dataset.prefix ds in
  let parts =
    Array.mapi
      (fun i syn ->
        let lo, hi = plan.bounds.(i) in
        let w = width (lo, hi) in
        let d = Synopsis.domain_size syn in
        if d <> w then
          invalid "Segmented.make: segment %d spans [%d..%d] (width %d) but \
                   its synopsis covers n=%d" i lo hi w d;
        { lo; hi; total = Prefix.range_sum p ~a:lo ~b:hi; synopsis = syn })
      synopses
  in
  { n = plan.plan_n; parts }

let parts t = t.parts
let segments t = Array.length t.parts
let domain_size t = t.n

let query_parts t =
  Array.map
    (fun part ->
      {
        Q.width = width (part.lo, part.hi);
        Q.total = part.total;
        Q.est = Synopsis.estimate part.synopsis;
      })
    t.parts

let estimator t = Q.estimator (query_parts t)
let estimate t ~a ~b = (estimator t) ~a ~b

let storage_words t =
  Array.fold_left
    (fun acc part -> acc + Synopsis.storage_words part.synopsis)
    (Array.length t.parts) t.parts

let sub_dataset ds ~lo ~hi =
  let n = Dataset.n ds in
  if lo < 1 || hi < lo || hi > n then
    invalid "Segmented.sub_dataset: bad slice [%d..%d] of n=%d" lo hi n;
  let values = Array.sub (Dataset.values ds) (lo - 1) (hi - lo + 1) in
  Dataset.of_floats
    ~name:(Printf.sprintf "%s[%d..%d]" (Dataset.name ds) lo hi)
    values

let sse ds t =
  let intra =
    Array.map
      (fun part ->
        Synopsis.sse (sub_dataset ds ~lo:part.lo ~hi:part.hi) part.synopsis)
      t.parts
  in
  Q.sse (Dataset.prefix ds) ~parts:(query_parts t) ~intra

let to_string t =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "rs-segmented 1\nn %d\nsegments %d\n" t.n
    (Array.length t.parts);
  Array.iteri
    (fun i part ->
      Printf.bprintf buf "seg %d %d %d %h\n" i part.lo part.hi part.total;
      Buffer.add_string buf (Codec.to_string part.synopsis))
    t.parts;
  Buffer.contents buf

let describe t =
  (* e.g. "segmented{n=1024, segments=8, words=84, opt-a x7 + a0 x1}" *)
  let counts = Hashtbl.create 4 in
  let order = ref [] in
  Array.iter
    (fun part ->
      let name = Synopsis.name part.synopsis in
      match Hashtbl.find_opt counts name with
      | Some r -> incr r
      | None ->
          Hashtbl.add counts name (ref 1);
          order := name :: !order)
    t.parts;
  let methods =
    List.rev_map
      (fun name ->
        let c = !(Hashtbl.find counts name) in
        if c = 1 then name else Printf.sprintf "%s x%d" name c)
      !order
  in
  Printf.sprintf "segmented{n=%d, segments=%d, words=%d, %s}" t.n
    (Array.length t.parts) (storage_words t)
    (String.concat " + " methods)

(* --- budget planning --- *)

(* Both planners speak units of [words_per_unit method]; the global
   budget first pays S words for the stored exact totals, and each
   segment is floored at one unit and capped at its width (more buckets
   than positions cannot help). *)
let split_context plan ~method_name ~budget_words =
  let s = Array.length plan.bounds in
  let wpu = Builder.words_per_unit method_name in
  let avail = budget_words - s in
  if avail < s * wpu then
    invalid
      "segmented budget %dw cannot cover %d segments (one %d-word unit each \
       plus one word per stored segment total; need >= %d)"
      budget_words s wpu
      (s * (wpu + 1));
  (s, wpu, avail)

let uniform_split plan ~method_name ~budget_words =
  let s, wpu, avail = split_context plan ~method_name ~budget_words in
  let share = avail / s in
  Array.init s (fun i -> max wpu (min share (width plan.bounds.(i) * wpu)))

let greedy_split ~price plan ~method_name ~budget_words =
  let s, wpu, avail = split_context plan ~method_name ~budget_words in
  let memo = Hashtbl.create 64 in
  let priced seg units =
    match Hashtbl.find_opt memo (seg, units) with
    | Some v -> v
    | None ->
        let v = price ~seg ~units in
        Hashtbl.add memo (seg, units) v;
        v
  in
  let units = Array.make s 1 in
  let cap = Array.init s (fun i -> width plan.bounds.(i)) in
  let pool = ref (avail - (s * wpu)) in
  let continue_ = ref true in
  while !continue_ && !pool >= wpu do
    (* the grant with the largest strictly positive SSE drop wins;
       ties break to the smallest index (deterministic) *)
    let best = ref (-1) and best_gain = ref 0. in
    for seg = 0 to s - 1 do
      if units.(seg) < cap.(seg) then begin
        let gain = priced seg units.(seg) -. priced seg (units.(seg) + 1) in
        if gain > !best_gain then begin
          best := seg;
          best_gain := gain
        end
      end
    done;
    if !best < 0 then continue_ := false
    else begin
      units.(!best) <- units.(!best) + 1;
      pool := !pool - wpu
    end
  done;
  Array.map (fun u -> u * wpu) units
