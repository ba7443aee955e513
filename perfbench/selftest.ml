(* bench.exe --self-test: the output checks must reject perturbed
   results.  Real responses from an in-process Server pass the oracle;
   each perturbation of them (one estimate off by one ulp, another rung,
   a stale flag, a wrong id or generation, a missing estimate) must
   fail it, and so must a wrong build and a wrong ingest history. *)

open Common

let replace_first s ~sub ~by =
  match Oracle.index_from s 0 sub with
  | -1 -> failwith ("self-test: no " ^ sub ^ " in " ^ s)
  | i -> String.sub s 0 i ^ by ^ String.sub s (i + String.length sub) (String.length s - i - String.length sub)

(* Replace the first estimate by its successor float, rendered the way
   the daemon renders numbers. *)
let nudge_first_estimate line expected =
  let next = Printf.sprintf "%.17g" (Float.succ expected.(0)) in
  let k = "\"estimates\":[" in
  let i = Oracle.index_from line 0 k + String.length k in
  let j = ref i in
  while line.[!j] <> ',' && line.[!j] <> ']' do
    incr j
  done;
  String.sub line 0 i ^ next ^ String.sub line !j (String.length line - !j)

let run ~work =
  let dir = Filename.concat work (Printf.sprintf "selftest-%d" (Unix.getpid ())) in
  rm_rf dir;
  mkdir_p dir;
  let results = ref [] in
  let expect label ok = results := (label, ok) :: !results in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let st = rng ~seed:1 ~salt:99 in
      let store_dir = Filename.concat dir "store" in
      let store = Rs_core.Store.open_dir store_dir in
      let ds = Rs_core.Dataset.of_floats ~name:"t" (frequencies st ~n:256 ~scale:100) in
      Rs_core.Store.put store ~name:"h"
        (Rs_core.Builder.build ds ~method_name:"equi-width-reopt" ~budget_words:32);
      let syn =
        Rs_util.Error.get (Rs_core.Codec.decode_result (read_file (Filename.concat store_dir "h.rs")))
      in
      let srv =
        Rs_util.Error.get (Rs_serve.Server.create (Rs_serve.Server.default_config ~store_dir))
      in
      let ranges = Array.init 5 (fun _ -> range st ~n:256) in
      let expected = Oracle.expected syn ranges in
      let reply =
        Rs_serve.Server.handle_line srv (Oracle.query_line ~id:"7" ~synopsis:"h" ranges)
      in
      let ok line = Oracle.query_ok ~generation:1 ~id:"7" ~expected line in
      expect "genuine answer passes" (ok reply);
      let caught label line = expect ("caught: " ^ label) (not (ok line)) in
      caught "estimate off by one ulp" (nudge_first_estimate reply expected);
      caught "bound rung" (replace_first reply ~sub:"\"exact\"" ~by:"\"bound\"");
      caught "stale flag" (String.sub reply 0 (String.length reply - 1) ^ ",\"stale\":true}");
      caught "wrong id" (replace_first reply ~sub:"\"id\":\"7\"" ~by:"\"id\":\"8\"");
      caught "wrong generation" (replace_first reply ~sub:"\"generation\":1" ~by:"\"generation\":2");
      caught "extra estimate" (replace_first reply ~sub:"[" ~by:"[0,");
      caught "refusal" "{\"ok\":false,\"id\":\"7\",\"error\":\"overloaded\",\"message\":\"x\"}";
      Rs_serve.Server.close srv;
      (* A build that differs from its reference path. *)
      let input = { Build.method_name = "sap1"; path = ""; budget = 40; slot = 0 } in
      let built = (Build.build_one ds input).Rs_core.Builder.synopsis in
      let other = Rs_core.Builder.build ds ~method_name:"sap1" ~budget_words:30 in
      expect "genuine build passes" (Build.reference_ok ds input built (Rs_core.Codec.to_string built));
      expect "caught: build differing from reference"
        (not (Build.reference_ok ds input built (Rs_core.Codec.to_string other)));
      (* An ingest history missing one acked delta. *)
      let t = Ingest.prepare ~seed:1 ~dir in
      let live, _ = Ingest.cold_start t ~dir:(Filename.concat dir "live") in
      let live_dir = Filename.concat dir "live" in
      ignore (Rs_core.Stream.refresh (Option.get (Rs_serve.Server.stream live)));
      expect "genuine ingest history passes"
        (List.for_all Fun.id (Ingest.final_checks live t.Ingest.model ~dir:live_dir));
      let model = Array.copy t.Ingest.model in
      model.(0) <- model.(0) +. 1.;
      expect "caught: lost delta"
        (not (List.for_all Fun.id (Ingest.final_checks live model ~dir:live_dir)));
      Rs_serve.Server.close live;
      let results = List.rev !results in
      List.iter (fun (label, ok) -> Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") label) results;
      if List.for_all snd results then 0 else 1)
