package repro.perfbench

import java.io.File

/** Runs one workload of the benchmark:
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
  * }}}
  *
  * It prints a summary line, then as its last line one JSON object with
  * `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
  * untraced, the per-layer metrics traced. Spans of a traced run go to
  * `<dir>/spans-<workload>-seed<n>.jsonl`.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val cfg = parse(args.toList).getOrElse {
      Console.err.println("usage: Main --workload <" + Workload.all.map(_.name).mkString("|") +
        "> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]")
      sys.exit(2)
    }
    val workload = Workload.all.find(_.name == cfg.workload).get
    Inputs.phase(s"${cfg.workload} seed ${cfg.seed}: generating inputs")
    val out = new Outcomes
    val measured = workload.run(cfg, out)
    val report = Metrics.complete(measured, cfg.trace)
    Inputs.phase("done")
    out.failures.foreach(f => Console.err.println(s"FAILED: $f"))
    println(s"# workload=${cfg.workload} seed=${cfg.seed} seconds=${cfg.seconds} trace=${if (cfg.trace) 1 else 0} " +
      f"attempted=${out.attempted} failed=${out.failed} fail_ratio=${out.failRatio}%.6f")
    println(report.json(out))
  }

  private def parse(args: List[String]): Option[Config] = {
    val kv = args.grouped(2).collect { case List(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    if (args.length % 2 != 0 || kv.size * 2 != args.length) return None
    for {
      w <- kv.get("workload") if Workload.all.exists(_.name == w)
      seed <- kv.get("seed").flatMap(_.toLongOption)
      secs <- kv.get("seconds").flatMap(_.toIntOption) if secs > 0
      trace <- kv.get("trace").collect { case "0" => false; case "1" => true }
    } yield Config(w, seed, secs, trace, new File(kv.getOrElse("out", "perfbench/target/traces")))
  }
}
