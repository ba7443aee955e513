let build_with_cost ?governor ?stage ?jobs p ~buckets =
  let ctx = Cost.make p in
  let { Dp.cost; bucketing } =
    (* The SAP0 cost violates the quadrangle inequality even on sorted
       data (THEORY.md §11 exhibits a counterexample), so it is never
       monotone-certified: it always runs the level engine. *)
    Dp.solve ?governor ?stage ?jobs ~n:(Rs_util.Prefix.n p) ~buckets
      ~cost:(Cost.sap0_bucket ctx) ()
  in
  (Summaries.sap0_histogram ctx bucketing, cost)

let build ?governor ?stage ?jobs p ~buckets =
  fst (build_with_cost ?governor ?stage ?jobs p ~buckets)
