type t = {
  n : int;
  a : float array; (* a.(i-1) = A[i] *)
  p : Tab.f1; (* p.(t) = P[t], t = 0..n — flat unboxed ({!Tab}) *)
  cp : Cum.t; (* cumulative of P[t], t = 0..n *)
  cp2 : Cum.t; (* cumulative of P[t]² *)
  ctp : Cum.t; (* cumulative of t·P[t] *)
  ca2 : Cum.t; (* cumulative of A[i]², i = 1..n *)
}

(* The first non-finite moment value, reported as the per-moment
   [Cum.of_fun] builds did.  Those ran as the fields of one record
   literal, which OCaml evaluates right to left: every A[i]² first, then
   t·P[t], then P[t]², then P[t]. *)
let raise_first_non_finite ~n p a =
  let check v = ignore (Checks.finite ~name:"Cum.of_fun" v) in
  Array.iter (fun v -> check (v *. v)) a;
  for t = 0 to n do
    check (float_of_int t *. Tab.f1_get p t)
  done;
  for t = 0 to n do
    check (Tab.f1_get p t *. Tab.f1_get p t)
  done;
  for t = 0 to n do
    check (Tab.f1_get p t)
  done

(* [a] is owned: kept as the data, never copied.  P is the plain left
   fold; the four moment tables run [Cum.of_fun]'s Kahan fold body side
   by side in one closure-free loop — each chain's operations in the
   same order as its own [of_fun] build, so the same bits, with the
   running sums in unboxed local refs instead of a boxed value per
   element through a closure.  The [.{}] accesses are bounds-checked
   and compile inline, unboxed. *)
let of_owned a =
  let a = Checks.non_empty_array ~name:"Prefix.create" a in
  let n = Array.length a in
  for i = 0 to n - 1 do
    if not (Float.is_finite a.(i)) then
      ignore (Checks.finite ~name:"Prefix.create" a.(i))
  done;
  let p = Tab.f1_create (n + 1) in
  for i = 1 to n do
    p.{i} <- p.{i - 1} +. a.(i - 1)
  done;
  let cp = Tab.f1_create (n + 2) and cp2 = Tab.f1_create (n + 2) in
  let ctp = Tab.f1_create (n + 2) and ca2 = Tab.f1_create (n + 1) in
  let s_p = ref 0. and c_p = ref 0. and s_p2 = ref 0. and c_p2 = ref 0. in
  let s_tp = ref 0. and c_tp = ref 0. and s_a2 = ref 0. and c_a2 = ref 0. in
  let finite = ref true in
  for t = 0 to n do
    let pt = p.{t} in
    let x_p = pt and x_p2 = pt *. pt and x_tp = float_of_int t *. pt in
    if not (Float.is_finite x_p && Float.is_finite x_p2 && Float.is_finite x_tp)
    then finite := false;
    let y = x_p -. !c_p in
    let u = !s_p +. y in
    c_p := u -. !s_p -. y;
    s_p := u;
    cp.{t + 1} <- u;
    let y = x_p2 -. !c_p2 in
    let u = !s_p2 +. y in
    c_p2 := u -. !s_p2 -. y;
    s_p2 := u;
    cp2.{t + 1} <- u;
    let y = x_tp -. !c_tp in
    let u = !s_tp +. y in
    c_tp := u -. !s_tp -. y;
    s_tp := u;
    ctp.{t + 1} <- u;
    if t < n then begin
      let v = a.(t) in
      let x_a2 = v *. v in
      if not (Float.is_finite x_a2) then finite := false;
      let y = x_a2 -. !c_a2 in
      let u = !s_a2 +. y in
      c_a2 := u -. !s_a2 -. y;
      s_a2 := u;
      ca2.{t + 1} <- u
    end
  done;
  if not !finite then raise_first_non_finite ~n p a;
  {
    n;
    a;
    p;
    cp = Cum.of_table cp;
    cp2 = Cum.of_table cp2;
    ctp = Cum.of_table ctp;
    ca2 = Cum.of_table ca2;
  }

let create a = of_owned (Array.copy a)
let of_ints a = of_owned (Array.map float_of_int a)
let n t = t.n

let value t i =
  let i = Checks.in_range ~name:"Prefix.value" ~lo:1 ~hi:t.n i in
  t.a.(i - 1)

let data t = Array.copy t.a

let prefix t k =
  let k = Checks.in_range ~name:"Prefix.prefix" ~lo:0 ~hi:t.n k in
  Tab.f1_get t.p k

let prefix_vector t = Tab.f1_to_array t.p

(* Raw-table handles for kernel loops ({!Cost} caches these once per
   context): the prefix vector itself and the four cumulative moment
   tables, all flat unboxed {!Tab} buffers. *)
let table t = t.p
let moment_p t = t.cp
let moment_p2 t = t.cp2
let moment_tp t = t.ctp
let moment_a2 t = t.ca2

let range_sum t ~a ~b =
  let a, b = Checks.ordered_pair ~name:"Prefix.range_sum" ~lo:1 ~hi:t.n (a, b) in
  Tab.f1_get t.p b -. Tab.f1_get t.p (a - 1)

let total t = Tab.f1_get t.p t.n
let mean t ~a ~b = range_sum t ~a ~b /. float_of_int (b - a + 1)
let sum_p t ~u ~v = Cum.range t.cp ~u ~v
let sum_p2 t ~u ~v = Cum.range t.cp2 ~u ~v
let sum_tp t ~u ~v = Cum.range t.ctp ~u ~v

(* Σ_{t=0}^{v} t = v(v+1)/2; the difference form handles u > 0. *)
let sum_t ~u ~v =
  if u > v then 0.
  else
    let s k = float_of_int k *. float_of_int (k + 1) /. 2. in
    s v -. s (u - 1)

(* Σ_{t=0}^{v} t² = v(v+1)(2v+1)/6. *)
let sum_t2 ~u ~v =
  if u > v then 0.
  else
    let s k =
      float_of_int k *. float_of_int (k + 1) *. float_of_int ((2 * k) + 1) /. 6.
    in
    s v -. s (u - 1)

let sum_a t ~a ~b = if a > b then 0. else range_sum t ~a ~b
let sum_a2 t ~a ~b = if a > b then 0. else Cum.range t.ca2 ~u:(a - 1) ~v:(b - 1)

(* Incremental prefix moments.  The four cumulative tables are
   {!Cum.Inc}s and the prefix vector is maintained by the same plain
   (uncompensated) fold [create] uses, so [freeze] is bit-identical to
   [create] over the current data — a point-delta at index [i] costs
   O(n − i) (the suffix whose prefixes actually changed), an append
   O(1) amortized, and neither ever rebuilds a table from scratch. *)
module Inc = struct
  type frozen = t

  type t = {
    mutable n : int;
    mutable a : float array; (* a.(i-1) = A[i] *)
    mutable p : float array; (* p.(t) = P[t], t = 0..n *)
    cp : Cum.Inc.t; (* over P[t], t = 0..n — m = n + 1 values *)
    cp2 : Cum.Inc.t; (* over P[t]² *)
    ctp : Cum.Inc.t; (* over t·P[t] *)
    ca2 : Cum.Inc.t; (* over A[i]², i = 1..n — m = n values *)
  }

  let create () =
    let t =
      {
        n = 0;
        a = Array.make 8 0.;
        p = Array.make 9 0.;
        cp = Cum.Inc.create ();
        cp2 = Cum.Inc.create ();
        ctp = Cum.Inc.create ();
        ca2 = Cum.Inc.create ();
      }
    in
    (* The t = 0 value of each prefix-index table: P[0] = 0. *)
    Cum.Inc.append t.cp 0.;
    Cum.Inc.append t.cp2 0.;
    Cum.Inc.append t.ctp 0.;
    t

  let n t = t.n

  let ensure t n' =
    if n' > Array.length t.a then begin
      let cap = max n' (2 * Array.length t.a) in
      let a' = Array.make cap 0. and p' = Array.make (cap + 1) 0. in
      Array.blit t.a 0 a' 0 t.n;
      Array.blit t.p 0 p' 0 (t.n + 1);
      t.a <- a';
      t.p <- p'
    end

  let append t v =
    let v = Checks.finite ~name:"Prefix.Inc.append" v in
    ensure t (t.n + 1);
    let n = t.n in
    t.a.(n) <- v;
    (* The same plain fold as [create]: P[n+1] = P[n] + A[n+1]. *)
    t.p.(n + 1) <- t.p.(n) +. v;
    Cum.Inc.append t.cp t.p.(n + 1);
    Cum.Inc.append t.cp2 (t.p.(n + 1) *. t.p.(n + 1));
    Cum.Inc.append t.ctp (float_of_int (n + 1) *. t.p.(n + 1));
    Cum.Inc.append t.ca2 (v *. v);
    t.n <- n + 1

  let add t ~i ~delta =
    let i = Checks.in_range ~name:"Prefix.Inc.add" ~lo:1 ~hi:t.n i in
    let delta = Checks.finite ~name:"Prefix.Inc.add delta" delta in
    let v = Checks.finite ~name:"Prefix.Inc.add value" (t.a.(i - 1) +. delta) in
    t.a.(i - 1) <- v;
    (* Replay [create]'s plain fold over the changed suffix — NOT
       [p.(t) +. delta], which would drift from the batch bits. *)
    for u = i to t.n do
      t.p.(u) <- t.p.(u - 1) +. t.a.(u - 1)
    done;
    Cum.Inc.refold t.cp ~from:i (fun u -> t.p.(u));
    Cum.Inc.refold t.cp2 ~from:i (fun u -> t.p.(u) *. t.p.(u));
    Cum.Inc.refold t.ctp ~from:i (fun u -> float_of_int u *. t.p.(u));
    Cum.Inc.refold t.ca2 ~from:(i - 1) (fun j -> t.a.(j) *. t.a.(j))

  let of_array a =
    let a = Checks.non_empty_array ~name:"Prefix.Inc.of_array" a in
    let t = create () in
    Array.iter (fun v -> append t v) a;
    t

  let value t i =
    let i = Checks.in_range ~name:"Prefix.Inc.value" ~lo:1 ~hi:t.n i in
    t.a.(i - 1)

  let data t = Array.sub t.a 0 t.n

  let prefix t k =
    let k = Checks.in_range ~name:"Prefix.Inc.prefix" ~lo:0 ~hi:t.n k in
    t.p.(k)

  let range_sum t ~a ~b =
    let a, b =
      Checks.ordered_pair ~name:"Prefix.Inc.range_sum" ~lo:1 ~hi:t.n (a, b)
    in
    t.p.(b) -. t.p.(a - 1)

  let total t = t.p.(t.n)

  let freeze t : frozen =
    ignore (Checks.positive ~name:"Prefix.Inc.freeze n" t.n);
    let p = Tab.f1_create (t.n + 1) in
    for u = 0 to t.n do
      Tab.f1_set p u t.p.(u)
    done;
    {
      n = t.n;
      a = Array.sub t.a 0 t.n;
      p;
      cp = Cum.Inc.freeze t.cp;
      cp2 = Cum.Inc.freeze t.cp2;
      ctp = Cum.Inc.freeze t.ctp;
      ca2 = Cum.Inc.freeze t.ca2;
    }
end
