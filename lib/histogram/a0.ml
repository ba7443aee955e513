let build_with_cost ?governor ?stage p ~buckets =
  let ctx = Cost.make p in
  let { Dp.cost; bucketing } =
    (* The A0 cost violates the quadrangle inequality even on sorted
       data (THEORY.md §11), so it is never monotone-certified — which
       also keeps OPT-A's seeding and ladder floor byte-identical to
       previous releases regardless of the engine option. *)
    Dp.solve ?governor ?stage
      ~n:(Rs_util.Prefix.n p) ~buckets ~cost:(Cost.a0_bucket ctx) ()
  in
  (Summaries.avg_histogram ~name:"a0" p bucketing, cost)

let build ?governor ?stage p ~buckets =
  fst (build_with_cost ?governor ?stage p ~buckets)
