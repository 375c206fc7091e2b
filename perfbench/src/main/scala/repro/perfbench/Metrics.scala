package repro.perfbench

/** The metrics every run prints, by name and unit; BENCHMARK.json lists the
  * same names. Every workload prints every metric of its mode: the
  * end-to-end ones untraced, the per-layer ones traced. A layer a workload
  * does not use reads 0 there. README.md says what each one means.
  */
object Metrics {

  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s",
    "heap_mb" -> "MB",
    "op_p50_ms" -> "ms",
    "op_p90_ms" -> "ms",
    "ops_per_s" -> "1/s",
  )

  val PerLayer: Seq[(String, String)] = Seq(
    "core.cellify_s" -> "s",
    "dits.local.build_s" -> "s",
    "dits.global.build_ms" -> "ms",
    "dits.local.nodes" -> "count",
    "dits.local.leaves" -> "count",
    "dits.local.postings" -> "count",
    "dits.global.route_ms" -> "ms",
    "dits.global.sources_routed" -> "count",
    "dits.global.route_yield" -> "ratio",
    "multisource.payload_cells" -> "count",
    "multisource.kb_per_query" -> "KB",
    "multisource.rounds_per_query" -> "count",
    "multisource.source.round_ms" -> "ms",
    "multisource.coordinator_self_ms" -> "ms",
    "multisource.cjsp_kb_per_query" -> "KB",
    "multisource.cjsp_coordinator_self_ms" -> "ms",
    "core.regrid_ms" -> "ms",
    "dits.overlap.search_ms" -> "ms",
    "dits.overlap.calls_per_query" -> "count",
    "dits.overlap.hit_yield" -> "ratio",
    "dits.overlap.p99_ms" -> "ms",
    "dits.coverage.find_connect_ms" -> "ms",
    "dits.coverage.candidates_per_round" -> "count",
    "dits.coverage.coverage_cells" -> "count",
    "dits.coverage.query_ms" -> "ms",
    "dits.local.insert_ms" -> "ms",
    "dits.local.update_ms" -> "ms",
    "dits.local.delete_ms" -> "ms",
    "core.baselines.sts3_ms" -> "ms",
    "core.baselines.rtree_ms" -> "ms",
    "dits.overlap.pooled_ms" -> "ms",
    "trace.untraced_op_ms" -> "ms",
    "trace.traced_op_ms" -> "ms",
    "trace.overhead_ms" -> "ms",
  )

  /** The result's metrics for this mode, in declaration order; a name the
    * workload did not measure is a layer it leaves idle and reads 0.
    */
  def complete(measured: Map[String, Double], traced: Boolean): Report = {
    val declared = if (traced) PerLayer else EndToEnd
    val unknown = measured.keySet -- declared.map(_._1)
    require(unknown.isEmpty, s"undeclared metrics: ${unknown.mkString(", ")}")
    val missing = declared.map(_._1).filterNot(measured.contains)
    require(traced || missing.isEmpty, s"end-to-end metrics not measured: ${missing.mkString(", ")}")
    val r = new Report
    declared.foreach { case (n, u) => r.put(n, measured.getOrElse(n, 0.0), u) }
    r
  }
}
