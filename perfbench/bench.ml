(* Entry point: bench.exe --workload W --seed N --seconds S --trace 0|1
   [--served PATH] [--work DIR], or bench.exe --self-test.

   Prints "# ..." record lines and, last, one JSON result line (see
   Common.print_outcome).  Exits 1 when any output check failed, 2 on
   bad arguments.  perfbench/run.py builds this and rs_served first. *)

let workloads = [ "query-point"; "query-scan"; "ingest-mixed"; "build" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let served = ref "_build/default/bin/rs_served.exe" in
  let work = ref "perfbench/_run" and self_test = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--served", Arg.Set_string served, "PATH rs_served executable");
      ("--work", Arg.Set_string work, "DIR scratch directory (emptied first)");
      ("--self-test", Arg.Set self_test, " check that the output oracle catches perturbations");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !self_test then exit (Selftest.run ~work:!work);
  if (not (List.mem !workload workloads)) || !seconds < 1 || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline ("bench: need --workload in {" ^ String.concat ", " workloads
                   ^ "}, --seconds >= 1 and --trace 0|1");
    exit 2
  end;
  if not (Sys.file_exists !served) then begin
    prerr_endline ("bench: rs_served not found at " ^ !served);
    exit 2
  end;
  let work = Filename.concat !work (string_of_int (Unix.getpid ())) in
  Common.rm_rf work;
  Common.mkdir_p work;
  let traced = !trace = 1 in
  let outcome =
    Fun.protect
      ~finally:(fun () ->
        Query.kill_all ();
        Common.rm_rf work)
      (fun () ->
        if traced then Traced.run ~served:!served ~work ~seed:!seed ~seconds:!seconds !workload
        else
          match !workload with
          | "query-point" -> Query.run ~served:!served ~work ~seed:!seed ~seconds:!seconds Query.Point
          | "query-scan" -> Query.run ~served:!served ~work ~seed:!seed ~seconds:!seconds Query.Scan
          | "ingest-mixed" -> Ingest.run ~work ~seed:!seed ~seconds:!seconds
          | _ -> Build.run ~work ~seed:!seed ~seconds:!seconds)
  in
  Common.print_outcome ~workload:!workload ~seed:!seed ~trace:traced outcome
