type t = { c : Tab.f1 }
(* c.(i) = Σ_{j<i} x(j); length m+1, flat unboxed storage ({!Tab}) so
   kernel callers can cache the raw table and read ranges without a
   cross-module (boxing) call apiece. *)

let of_fun ~m f =
  let m = Checks.non_negative ~name:"Cum.of_fun" m in
  let c = Tab.f1_create (m + 1) in
  (* Kahan compensated running sum. *)
  let sum = ref 0. and comp = ref 0. in
  for i = 0 to m - 1 do
    let x = Checks.finite ~name:"Cum.of_fun" (f i) in
    let y = x -. !comp in
    let t = !sum +. y in
    comp := t -. !sum -. y;
    sum := t;
    Tab.f1_set c (i + 1) !sum
  done;
  { c }

let of_array x = of_fun ~m:(Array.length x) (Array.get x)
let of_table c = { c }
let length t = Tab.f1_len t.c - 1
let table t = t.c

let range t ~u ~v =
  if u > v then 0.
  else begin
    let m = length t in
    let u = Checks.in_range ~name:"Cum.range u" ~lo:0 ~hi:(m - 1) u in
    let v = Checks.in_range ~name:"Cum.range v" ~lo:0 ~hi:(m - 1) v in
    Tab.f1_get t.c (v + 1) -. Tab.f1_get t.c u
  end

let total t = Tab.f1_get t.c (Tab.f1_len t.c - 1)

(* Incremental cumulative table.  The crux is bit-identity with
   {!of_fun}: Kahan summation is a left fold over (sum, comp), so
   storing the compensation term after every value — not just the
   running sums — captures the whole fold state at every index.
   [append] resumes the fold at the end; [refold ~from] resumes it at
   an interior index after a suffix of the values changed.  Either way
   the cells produced are the cells a fresh [of_fun] over the current
   values would produce, bit for bit ({!freeze} is pinned against
   [of_fun] by the @stream twins). *)
module Inc = struct
  type t = {
    mutable m : int;
    mutable cum : float array; (* cum.(i) = Σ_{j<i} x(j), i = 0..m *)
    mutable comp : float array; (* Kahan compensation after i values *)
  }

  let create () = { m = 0; cum = Array.make 8 0.; comp = Array.make 8 0. }
  let length t = t.m

  let ensure t m' =
    let cap = Array.length t.cum in
    if m' + 1 > cap then begin
      let cap' = max (m' + 1) (2 * cap) in
      let cum' = Array.make cap' 0. and comp' = Array.make cap' 0. in
      Array.blit t.cum 0 cum' 0 (t.m + 1);
      Array.blit t.comp 0 comp' 0 (t.m + 1);
      t.cum <- cum';
      t.comp <- comp'
    end

  (* One Kahan step from the stored state at index [i] — the exact
     fold body of {!of_fun}. *)
  let step t i x =
    let x = Checks.finite ~name:"Cum.Inc" x in
    let sum = t.cum.(i) and comp = t.comp.(i) in
    let y = x -. comp in
    let s = sum +. y in
    t.cum.(i + 1) <- s;
    t.comp.(i + 1) <- s -. sum -. y

  let append t x =
    ensure t (t.m + 1);
    step t t.m x;
    t.m <- t.m + 1

  let refold t ~from f =
    let from = Checks.in_range ~name:"Cum.Inc.refold" ~lo:0 ~hi:t.m from in
    for i = from to t.m - 1 do
      step t i (f i)
    done

  let cell t i =
    let i = Checks.in_range ~name:"Cum.Inc.cell" ~lo:0 ~hi:t.m i in
    t.cum.(i)

  let range t ~u ~v =
    if u > v then 0.
    else begin
      let u = Checks.in_range ~name:"Cum.Inc.range u" ~lo:0 ~hi:(t.m - 1) u in
      let v = Checks.in_range ~name:"Cum.Inc.range v" ~lo:0 ~hi:(t.m - 1) v in
      t.cum.(v + 1) -. t.cum.(u)
    end

  let freeze t =
    let c = Tab.f1_create (t.m + 1) in
    for i = 0 to t.m do
      Tab.f1_set c i t.cum.(i)
    done;
    { c }
end
