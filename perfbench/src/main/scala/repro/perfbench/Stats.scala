package repro.perfbench

import scala.collection.mutable
import scala.util.control.NonFatal

/** Summary statistics and outcome counting shared by every workload. */
object Stats {

  /** A percentile is reported only with at least this many samples beyond it. */
  val MinTail = 10

  /** Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted`. */
  def percentile(sorted: Array[Double], p: Double): Double = {
    require(sorted.nonEmpty, "percentile of no samples")
    sorted(math.max(0, rank(sorted.length, p) - 1))
  }

  /** 1-based nearest rank of percentile `p` among `n` samples. */
  def rank(n: Int, p: Double): Int = math.min(n, math.ceil(p / 100 * n - 1e-9).toInt)

  /** Samples strictly beyond percentile `p`'s rank. */
  def beyond(n: Int, p: Double): Int = n - rank(n, p)

  /** Whether `n` samples support percentile `p` (≥ [[MinTail]] beyond it). */
  def supports(n: Int, p: Double): Boolean = beyond(n, p) >= MinTail

  /** The highest percentile of `ladder` that `n` samples support. */
  def highestSupported(n: Int, ladder: Seq[Double] = Seq(50, 90, 99, 99.9)): Option[Double] =
    ladder.filter(supports(n, _)).maxOption

  def median(xs: Iterable[Double]): Double = percentile(xs.toArray.sorted, 50)
}

/** Attempted and failed operations. An operation fails when it throws or
  * when its answer does not pass its check; both count, nothing is dropped.
  */
final class Outcomes {
  private var attempted0 = 0L
  private var failed0 = 0L
  private val firstFailures = mutable.ArrayBuffer.empty[String]

  def attempted: Long = attempted0
  def failed: Long = failed0
  def failRatio: Double = if (attempted0 == 0) 0.0 else failed0.toDouble / attempted0

  private val deferred = mutable.ArrayBuffer.empty[(() => String, () => Boolean)]

  /** Runs one operation; `op` returns whether its answer is correct. */
  def run(what: => String)(op: => Boolean): Unit = {
    attempted0 += 1
    judge(what, op)
  }

  /** Runs one operation now and checks its answer in [[checkDeferred]]:
    * `op` returns that check. An exception fails the operation at once.
    * Deferring keeps oracle work out of the JIT profile and the heap of the
    * measured window.
    */
  def runDeferred(what: => String)(op: => () => Boolean): Unit = {
    attempted0 += 1
    try deferred += ((() => what, op))
    catch { case NonFatal(e) => judge(what, throw e) }
  }

  /** Makes every deferred check, in the order the operations ran. */
  def checkDeferred(): Unit = {
    deferred.foreach { case (what, check) => judge(what(), check()) }
    deferred.clear()
  }

  private def judge(what: => String, ok: => Boolean): Unit = {
    val error =
      try { if (ok) None else Some("gave a wrong answer") }
      catch { case NonFatal(e) => Some(s"threw $e") }
    error.foreach { e =>
      failed0 += 1
      if (firstFailures.length < 5) firstFailures += s"$what $e"
    }
  }

  /** The first few failures, for the run's log. */
  def failures: Seq[String] = firstFailures.toSeq
}

/** Latency samples of one operation class, in milliseconds. */
final class Latencies {
  private val xs = mutable.ArrayBuffer.empty[Double]
  def +=(ms: Double): Unit = xs += ms
  def count: Int = xs.length
  def total: Double = xs.sum
  def sorted: Array[Double] = xs.toArray.sorted
  def percentile(p: Double): Double = if (xs.isEmpty) 0.0 else Stats.percentile(sorted, p)
}

/** The best (lowest) latency of each distinct operation over its repeats
  * in a run, in milliseconds. A run repeats a fixed set of operations, each
  * many times and on every CPU in turn (see [[CpuRotation]]); an
  * operation's best time is its cost with the least interference from
  * other tenants of the host, whose load slows a whole CPU for seconds at a
  * time. Percentiles are taken over the distinct operations.
  */
final class BestTimes {
  private val best = mutable.HashMap.empty[Int, Double]
  private var samples0 = 0

  def record(key: Int, ms: Double): Unit = {
    samples0 += 1
    best(key) = math.min(ms, best.getOrElse(key, Double.PositiveInfinity))
  }

  /** Distinct operations timed. */
  def count: Int = best.size
  /** Timings taken, repeats included. */
  def samples: Int = samples0
  def total: Double = best.values.sum
  def percentile(p: Double): Double =
    if (best.isEmpty) 0.0 else Stats.percentile(best.values.toArray.sorted, p)
}

/** Metrics of one run, in insertion order, rendered as the result line. */
final class Report {
  private val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]

  def put(name: String, value: Double, unit: String): Unit = {
    require(!value.isNaN && !value.isInfinite, s"metric $name is $value")
    metrics(name) = (value, unit)
  }

  def names: Seq[String] = metrics.keys.toSeq
  def apply(name: String): Double = metrics(name)._1

  /** The one-line JSON result: `correct`, `attempted`, `failed`, `metrics`. */
  def json(outcomes: Outcomes): String = {
    val ms = metrics.map { case (n, (v, u)) =>
      s""""$n": {"value": ${java.lang.Double.toString(v)}, "unit": "$u"}"""
    }.mkString(", ")
    s"""{"correct": ${outcomes.failed == 0}, "attempted": ${outcomes.attempted}, """ +
      s""""failed": ${outcomes.failed}, "metrics": {$ms}}"""
  }
}
