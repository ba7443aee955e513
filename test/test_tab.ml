(* Flat unboxed tables ({!Rs_util.Tab}): checked/unsafe accessor
   semantics, the row-major 2-D layout contract, and bounds-checked
   Debug-twin runs of the kernel index arithmetic (the DP level sweep's
   hoisted row offsets and Prefix2d's four-corner reads), so an
   off-by-one in those address computations surfaces as
   [Invalid_argument] here rather than as a silent out-of-range read in
   an [unsafe_*] kernel. *)

module Tab = Rs_util.Tab

(* Alcotest's check_raises wants the exact exception; the Checks
   messages vary, so match on the constructor instead. *)
let check_raises_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let test_f1_basics () =
  let t = Tab.f1_create 5 in
  Alcotest.(check int) "len" 5 (Tab.f1_len t);
  for i = 0 to 4 do
    Alcotest.(check (float 0.)) "zero-filled" 0. (Tab.f1_get t i)
  done;
  Tab.f1_set t 3 2.5;
  Alcotest.(check (float 0.)) "set/get" 2.5 (Tab.f1_get t 3);
  Tab.f1_fill t 7.;
  Alcotest.(check (float 0.)) "fill" 7. (Tab.f1_get t 0);
  check_raises_invalid "get -1" (fun () -> Tab.f1_get t (-1));
  check_raises_invalid "get len" (fun () -> Tab.f1_get t 5);
  check_raises_invalid "set len" (fun () -> Tab.f1_set t 5 0.);
  check_raises_invalid "negative create" (fun () -> Tab.f1_create (-1))

let test_i1_basics () =
  let t = Tab.i1_create 4 in
  Alcotest.(check int) "len" 4 (Tab.i1_len t);
  Tab.i1_fill t (-1);
  Alcotest.(check int) "fill" (-1) (Tab.i1_get t 2);
  Tab.i1_set t 2 41;
  Alcotest.(check int) "set/get" 41 (Tab.i1_get t 2);
  check_raises_invalid "get oob" (fun () -> Tab.i1_get t 4)

let test_array_roundtrip () =
  let a = [| 1.5; -0.; infinity; neg_infinity; 3.14; 1e-308 |] in
  let t = Tab.f1_of_array a in
  let b = Tab.f1_to_array t in
  Alcotest.(check int) "length" (Array.length a) (Array.length b);
  Array.iteri
    (fun i v ->
      Alcotest.(check bool) "bit-equal" true
        (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float b.(i))))
    a;
  let ia = [| min_int; -1; 0; 1; max_int |] in
  Alcotest.(check (array int)) "int roundtrip" ia
    (Tab.i1_to_array (Tab.i1_of_array ia))

let test_blit () =
  let src = Tab.f1_of_array [| 1.; 2.; 3. |] in
  let dst = Tab.f1_create 3 in
  Tab.f1_blit ~src ~dst;
  Alcotest.(check (float 0.)) "blit" 2. (Tab.f1_get dst 1);
  let short = Tab.f1_create 2 in
  check_raises_invalid "length mismatch" (fun () -> Tab.f1_blit ~src ~dst:short)

let test_f2_layout () =
  (* The row-major layout is contractual: cell (r, c) lives at
     r * cols + c of the flat buffer — the kernel sweeps rely on it. *)
  let rows = 3 and cols = 4 in
  let t = Tab.f2_create ~rows ~cols in
  Alcotest.(check int) "rows" rows (Tab.f2_rows t);
  Alcotest.(check int) "cols" cols (Tab.f2_cols t);
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      Tab.f2_set t r c (float_of_int ((10 * r) + c))
    done
  done;
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      Alcotest.(check (float 0.)) "flat offset"
        (float_of_int ((10 * r) + c))
        (Tab.f1_get t.Tab.fbuf ((r * cols) + c))
    done
  done;
  check_raises_invalid "row oob" (fun () -> Tab.f2_get t rows 0);
  check_raises_invalid "col oob" (fun () -> Tab.f2_get t 0 cols);
  check_raises_invalid "negative dims" (fun () ->
      Tab.f2_create ~rows:(-1) ~cols:2)

let test_i2_layout () =
  let t = Tab.i2_create ~rows:2 ~cols:3 in
  Tab.i2_fill t (-1);
  Tab.i2_set t 1 2 9;
  Alcotest.(check int) "set/get" 9 (Tab.i2_get t 1 2);
  Alcotest.(check int) "flat offset" 9 (Tab.i1_get t.Tab.ibuf ((1 * 3) + 2));
  Alcotest.(check int) "fill" (-1) (Tab.i2_get t 0 0)

(* --- Debug twins of the kernel index arithmetic ---

   The DP's one transition loop ([relax], lib/histogram/dp.ml) hoists
   [prev = (k-1) * cols], reads the running best from the cell itself
   at [prev + cols + i] (e and parent alike), scans row k-1 at
   [prev + j] and writes the cell back.  Re-run that arithmetic
   through the bounds-checked Debug accessors on a sweep of shapes,
   including the degenerate ones (one row, one column), splitting
   every window into two ascending pieces as the tiled sweep does,
   and cross-check every cell against a plain-array reference. *)
let test_debug_twin_dp_row_sweep () =
  let cost ~j ~i = float_of_int (((i - j) * 3) mod 7) in
  List.iter
    (fun (rows, cols) ->
      let e = Tab.f2_create ~rows ~cols and p = Tab.i2_create ~rows ~cols in
      Tab.f2_fill e Float.infinity;
      Tab.i2_fill p (-1);
      let ebuf = e.Tab.fbuf and pbuf = p.Tab.ibuf in
      let row0 c = float_of_int (((c * 5) mod 4) + 1) in
      for c = 0 to cols - 1 do
        Tab.Debug.f1_unsafe_set ebuf c (row0 c)
      done;
      let relax k i ~jlo ~jhi =
        let prev = (k - 1) * cols in
        let cell = prev + cols + i in
        let best = ref (Tab.Debug.f1_unsafe_get ebuf cell)
        and best_j = ref (Tab.Debug.i1_unsafe_get pbuf cell) in
        for j = jlo to jhi do
          let c = Tab.Debug.f1_unsafe_get ebuf (prev + j) +. cost ~j ~i in
          if c < !best then begin
            best := c;
            best_j := j
          end
        done;
        Tab.Debug.f1_unsafe_set ebuf cell !best;
        Tab.Debug.i1_unsafe_set pbuf cell !best_j
      in
      for k = 1 to rows - 1 do
        for i = 0 to cols - 1 do
          relax k i ~jlo:0 ~jhi:(i / 2);
          relax k i ~jlo:((i / 2) + 1) ~jhi:i
        done
      done;
      let want = Array.make_matrix rows cols Float.infinity in
      let want_j = Array.make_matrix rows cols (-1) in
      for c = 0 to cols - 1 do
        want.(0).(c) <- row0 c
      done;
      for k = 1 to rows - 1 do
        for i = 0 to cols - 1 do
          for j = 0 to i do
            let c = want.(k - 1).(j) +. cost ~j ~i in
            if c < want.(k).(i) then begin
              want.(k).(i) <- c;
              want_j.(k).(i) <- j
            end
          done
        done
      done;
      for r = 0 to rows - 1 do
        for c = 0 to cols - 1 do
          Alcotest.(check (float 0.)) "sweep cell" want.(r).(c) (Tab.f2_get e r c);
          Alcotest.(check int) "sweep argmin" want_j.(r).(c) (Tab.i2_get p r c)
        done
      done)
    [ (1, 1); (1, 7); (5, 1); (4, 6); (3, 64) ]

(* Prefix2d.range_sum's four-corner arithmetic: rb = b1 * cols,
   ra = (a1-1) * cols, reads at rb+b2, ra+b2, rb+(a2-1), ra+(a2-1)
   (lib/util/prefix2d.ml).  Exhaust every valid rectangle on a small
   grid through the Debug accessors and compare with a brute-force
   sum — both the bounds and the values are checked. *)
let test_debug_twin_prefix2d_corners () =
  let n1 = 4 and n2 = 5 in
  let a =
    Array.init n1 (fun i ->
        Array.init n2 (fun j -> float_of_int (((i * 31) + (j * 7)) mod 11)))
  in
  let d = Tab.f2_create ~rows:(n1 + 1) ~cols:(n2 + 1) in
  for i = 1 to n1 do
    for j = 1 to n2 do
      Tab.f2_set d i j
        (a.(i - 1).(j - 1)
        +. Tab.f2_get d (i - 1) j
        +. Tab.f2_get d i (j - 1)
        -. Tab.f2_get d (i - 1) (j - 1))
    done
  done;
  let buf = d.Tab.fbuf in
  let cols = n2 + 1 in
  for a1 = 1 to n1 do
    for b1 = a1 to n1 do
      for a2 = 1 to n2 do
        for b2 = a2 to n2 do
          let rb = b1 * cols and ra = (a1 - 1) * cols in
          let got =
            Tab.Debug.f1_unsafe_get buf (rb + b2)
            -. Tab.Debug.f1_unsafe_get buf (ra + b2)
            -. Tab.Debug.f1_unsafe_get buf (rb + (a2 - 1))
            +. Tab.Debug.f1_unsafe_get buf (ra + (a2 - 1))
          in
          let want = ref 0. in
          for i = a1 to b1 do
            for j = a2 to b2 do
              want := !want +. a.(i - 1).(j - 1)
            done
          done;
          Alcotest.(check (float 1e-9)) "corner sum" !want got
        done
      done
    done
  done

let test_debug_twin_bounds_catch () =
  (* The whole point of the twins: an out-of-range address raises. *)
  let t = Tab.f1_create 3 in
  check_raises_invalid "debug get oob" (fun () ->
      Tab.Debug.f1_unsafe_get t 3);
  check_raises_invalid "debug set oob" (fun () ->
      Tab.Debug.f1_unsafe_set t (-1) 0.);
  let m = Tab.f2_create ~rows:2 ~cols:2 in
  check_raises_invalid "debug f2 oob" (fun () ->
      Tab.Debug.f2_unsafe_get m 2 0);
  let im = Tab.i2_create ~rows:2 ~cols:2 in
  check_raises_invalid "debug i2 oob" (fun () ->
      Tab.Debug.i2_unsafe_set im 0 2 1)

let () =
  Alcotest.run "tab"
    [
      ( "accessors",
        [
          Alcotest.test_case "f1 basics" `Quick test_f1_basics;
          Alcotest.test_case "i1 basics" `Quick test_i1_basics;
          Alcotest.test_case "array roundtrip" `Quick test_array_roundtrip;
          Alcotest.test_case "blit" `Quick test_blit;
        ] );
      ( "layout",
        [
          Alcotest.test_case "f2 row-major" `Quick test_f2_layout;
          Alcotest.test_case "i2 row-major" `Quick test_i2_layout;
        ] );
      ( "debug-twins",
        [
          Alcotest.test_case "dp row sweep" `Quick test_debug_twin_dp_row_sweep;
          Alcotest.test_case "prefix2d corners" `Quick
            test_debug_twin_prefix2d_corners;
          Alcotest.test_case "bounds catch" `Quick test_debug_twin_bounds_catch;
        ] );
    ]
