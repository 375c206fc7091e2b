package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

/** The benchmark's own helpers: the percentile rule, span self time and
  * failure counting.
  */
class HelpersSpec extends AnyFunSuite {

  test("a percentile needs at least 10 samples beyond it") {
    assert(Stats.beyond(100, 90) == 10 && Stats.supports(100, 90))
    assert(Stats.beyond(99, 90) == 9 && !Stats.supports(99, 90))
    assert(!Stats.supports(999, 99) && Stats.supports(1000, 99))
    assert(Stats.supports(20, 50) && !Stats.supports(19, 50))
  }

  test("the highest supported percentile grows with the sample count") {
    assert(Stats.highestSupported(5).isEmpty)
    assert(Stats.highestSupported(20).contains(50))
    assert(Stats.highestSupported(100).contains(90))
    assert(Stats.highestSupported(999).contains(90))
    assert(Stats.highestSupported(1000).contains(99))
  }

  test("percentiles are nearest-rank") {
    val xs = (1 to 100).map(_.toDouble).toArray
    assert(Stats.percentile(xs, 50) == 50.0)
    assert(Stats.percentile(xs, 90) == 90.0)
    assert(Stats.percentile(xs, 100) == 100.0)
    assert(Stats.percentile(Array(7.0), 90) == 7.0)
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
  }

  test("best times keep each operation's lowest time; percentiles are over operations") {
    val best = new BestTimes
    Seq(1 -> 5.0, 2 -> 2.0, 1 -> 3.0, 3 -> 9.0, 2 -> 4.0).foreach { case (k, ms) => best.record(k, ms) }
    assert(best.samples == 5 && best.count == 3)
    assert(best.total == 3.0 + 2.0 + 9.0)
    assert(best.percentile(50) == 3.0 && best.percentile(100) == 9.0)
    assert(new BestTimes().percentile(50) == 0.0)
  }

  test("CPU lists are parsed as Linux writes them") {
    assert(CpuRotation.parseList("0-3") == Seq(0, 1, 2, 3))
    assert(CpuRotation.parseList("0,2,4-5") == Seq(0, 2, 4, 5))
    assert(CpuRotation.parseList("7") == Seq(7))
  }

  private def span(name: String, parent: Int, start: Long, end: Long): Span = {
    val s = new Span(name, parent, -1, start); s.end = end; s
  }

  test("self time is duration minus the children's coverage") {
    val spans = IndexedSeq(
      span("query", -1, 0, 100),
      span("route", 0, 10, 30),
      span("search", 0, 40, 90),
      span("verify", 2, 50, 60),
    )
    assert(Tracer.selfNanos(spans).toSeq == Seq(30L, 20L, 40L, 10L))
    assert(Tracer.selfNanosByName(spans) == Map("query" -> 30L, "route" -> 20L, "search" -> 40L, "verify" -> 10L))
  }

  test("overlapping children are counted once and clipped to the parent") {
    val spans = IndexedSeq(
      span("query", -1, 0, 100),
      span("a", 0, 10, 50),
      span("b", 0, 30, 70),
      span("c", 0, 90, 120),
    )
    assert(Tracer.selfNanos(spans)(0) == 100 - 60 - 10)
  }

  test("self times of a traced tree add up to its root span") {
    val tr = new Tracer(true)
    tr.inQuery(1) {
      tr.span("query") {
        tr.span("route")(Thread.sleep(2))
        tr.span("search")(tr.span("verify")(Thread.sleep(2)))
      }
    }
    val spans = tr.recorded
    assert(spans.map(_.name) == Seq("query", "route", "search", "verify"))
    assert(spans.forall(_.query == 1))
    assert(spans.map(_.parent) == Seq(-1, 0, 0, 2))
    assert(Tracer.selfNanos(spans).sum == spans(0).nanos)
  }

  test("a disabled tracer records nothing") {
    val tr = new Tracer(false)
    assert(tr.span("x")(41 + 1) == 42)
    tr.count("n")
    assert(tr.recorded.isEmpty && tr.counter("n") == 0.0)
  }

  test("fail_ratio counts wrong answers and exceptions, and drops nothing") {
    val out = new Outcomes
    out.run("ok")(true)
    out.run("wrong")(false)
    out.run("throws")(throw new IllegalStateException("boom"))
    out.run("ok")(true)
    assert(out.attempted == 4 && out.failed == 2)
    assert(out.failRatio == 0.5)
    assert(out.failures.length == 2 && out.failures(1).contains("boom"))
  }

  test("the result line carries exactly the four keys") {
    val out = new Outcomes
    out.run("ok")(true)
    val r = new Report
    r.put("op_p50_ms", 1.25, "ms")
    assert(r.json(out) ==
      """{"correct": true, "attempted": 1, "failed": 0, "metrics": {"op_p50_ms": {"value": 1.25, "unit": "ms"}}}""")
  }

  test("every declared metric is printed, idle layers as 0") {
    val traced = Metrics.complete(Map("core.cellify_s" -> 1.5), traced = true)
    assert(traced.names == Metrics.PerLayer.map(_._1))
    assert(traced("core.cellify_s") == 1.5 && traced("dits.local.insert_ms") == 0.0)
    intercept[IllegalArgumentException](Metrics.complete(Map("setup_s" -> 1.0), traced = false))
    intercept[IllegalArgumentException](Metrics.complete(Map("nope" -> 1.0), traced = true))
  }
}
