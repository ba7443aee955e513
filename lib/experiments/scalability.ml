module Builder = Rs_core.Builder
module Synopsis = Rs_core.Synopsis
module Dataset = Rs_core.Dataset
module Text_table = Rs_util.Text_table
module Opt_a = Rs_histogram.Opt_a

type row = { n : int; method_name : string; seconds : float; sse : float }

let default_ns = [ 127; 255; 511; 1023 ]

let default_methods =
  [ "sap0"; "sap1"; "a0"; "point-opt"; "equi-depth"; "topbb"; "wave-range-opt" ]

let run ?(ns = default_ns) ?(methods = default_methods) ?(budget_words = 32)
    ?(options = Builder.default_options) () =
  List.concat_map
    (fun n ->
      let ds = Dataset.generate (Printf.sprintf "zipf-%d" n) in
      List.map
        (fun method_name ->
          let syn, seconds =
            Timing.time (fun () ->
                Builder.build ~options ds ~method_name ~budget_words)
          in
          { n; method_name; seconds; sse = Synopsis.sse ds syn })
        methods)
    ns

let table rows =
  let ns = List.sort_uniq compare (List.map (fun r -> r.n) rows) in
  let methods =
    List.fold_left
      (fun acc r -> if List.mem r.method_name acc then acc else acc @ [ r.method_name ])
      [] rows
  in
  (* Index once — the jobs sweep multiplies the row count, and the
     nested find over rows per cell was O(rows²). *)
  let index = Hashtbl.create (List.length rows) in
  List.iter (fun r -> Hashtbl.replace index (r.method_name, r.n) r) rows;
  let header = "method" :: List.map (fun n -> Printf.sprintf "n=%d" n) ns in
  let body =
    List.map
      (fun m ->
        m
        :: List.map
             (fun n ->
               match Hashtbl.find_opt index (m, n) with
               | Some r ->
                   Printf.sprintf "%.3fs / %s" r.seconds
                     (Text_table.float_cell ~prec:3 r.sse)
               | None -> "-")
             ns)
      methods
  in
  Text_table.render ~header body

(* --- jobs sweep: the level-parallel OPT-A engine --- *)

type jobs_row = { jobs : int; seconds : float; sse : float; states : int }

let default_jobs = [ 1; 2; 4 ]

let run_jobs ?(dataset = "paper") ?(jobs_list = default_jobs) ?(buckets = 8)
    ?(max_states = 60_000_000) ?(x = 1) () =
  let ds = Dataset.generate dataset in
  let p =
    (* x > 1 pre-rounds the data exactly as OPT-A-ROUNDED does, so a
       constrained state budget (e.g. --quick) can still time the exact
       DP engine — same code path, smaller Λ range. *)
    if x <= 1 then Dataset.prefix ds
    else
      let fx = float_of_int x in
      Rs_util.Prefix.create
        (Array.map
           (fun v -> Float.round (v /. fx))
           (Rs_util.Prefix.data (Dataset.prefix ds)))
  in
  (* One rounded pass seeds a shared UB outside the timed region, so
     every jobs run prunes with the same Λ cap and the timings compare
     only the level sweep itself. *)
  let ub = (Opt_a.build_rounded ~max_states p ~buckets ~x:8).Opt_a.sse in
  List.map
    (fun jobs ->
      let r, seconds =
        Timing.time (fun () -> Opt_a.build_exact ~ub ~max_states ~jobs p ~buckets)
      in
      { jobs; seconds; sse = r.Opt_a.sse; states = r.Opt_a.states })
    jobs_list

let speedup_vs_sequential rows r =
  match List.find_opt (fun x -> x.jobs = 1) rows with
  | Some base when r.seconds > 0. -> base.seconds /. r.seconds
  | _ -> 1.

let jobs_table rows =
  let header = [ "jobs"; "seconds"; "speedup"; "sse"; "states" ] in
  let body =
    List.map
      (fun r ->
        [
          string_of_int r.jobs;
          Printf.sprintf "%.3fs" r.seconds;
          Printf.sprintf "%.2fx" (speedup_vs_sequential rows r);
          Text_table.float_cell ~prec:4 r.sse;
          string_of_int r.states;
        ])
      rows
  in
  Text_table.render ~header body
