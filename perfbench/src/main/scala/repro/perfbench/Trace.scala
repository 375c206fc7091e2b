package repro.perfbench

import java.io.{File, PrintWriter}
import scala.collection.mutable

/** One recorded span: a named interval, the span that was open when it
  * started (`parent`, -1 at top level) and the query it belongs to (-1
  * outside queries). Times are `System.nanoTime`.
  */
final class Span(val name: String, val parent: Int, val query: Int, val start: Long) {
  var end: Long = start
  def nanos: Long = end - start
}

/** In-memory span and counter recorder. The benchmark places spans around
  * its own calls into each layer; nothing inside the program is
  * instrumented. When disabled, [[span]] just runs its body and the
  * counters stay empty, so the untraced run pays nothing.
  */
final class Tracer(val enabled: Boolean) {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var query = -1
  private val counters = mutable.LinkedHashMap.empty[String, Double]

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val ix = spans.length
      spans += new Span(name, open.headOption.getOrElse(-1), query, System.nanoTime())
      open = ix :: open
      try body
      finally { spans(ix).end = System.nanoTime(); open = open.tail }
    }

  /** Runs `body` with every span inside it tagged with query id `q`. */
  def inQuery[A](q: Int)(body: => A): A = {
    val saved = query
    query = q
    try body finally query = saved
  }

  def count(name: String, delta: Double = 1): Unit =
    if (enabled) counters(name) = counters.getOrElse(name, 0.0) + delta

  def counter(name: String): Double = counters.getOrElse(name, 0.0)

  def recorded: IndexedSeq[Span] = spans.toIndexedSeq

  /** Self time in nanoseconds summed per span name. */
  def selfNanosByName: Map[String, Long] = Tracer.selfNanosByName(recorded)

  /** Durations in milliseconds of every span called `name`. */
  def durationsMs(name: String): Seq[Double] =
    spans.iterator.filter(_.name == name).map(_.nanos / 1e6).toSeq

  /** Writes every span as one JSON object per line, once, at the end. */
  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val out = new PrintWriter(file, "UTF-8")
    try spans.foreach { s =>
      out.println(s"""{"name": "${s.name}", "start": ${s.start}, "end": ${s.end}, """ +
        s""""parent": ${s.parent}, "query": ${s.query}}""")
    } finally out.close()
  }
}

object Tracer {

  /** Per-span self time: its duration minus the part of its interval that
    * its children cover (overlapping children are counted once).
    */
  def selfNanos(spans: IndexedSeq[Span]): Array[Long] = {
    val children = spans.indices.filter(spans(_).parent >= 0).groupBy(spans(_).parent)
    Array.tabulate(spans.length) { i =>
      val s = spans(i)
      var covered = 0L
      var reach = s.start
      children.getOrElse(i, Nil).map(spans).sortBy(_.start).foreach { c =>
        val lo = math.max(c.start, reach); val hi = math.min(c.end, s.end)
        if (hi > lo) { covered += hi - lo; reach = hi }
      }
      s.nanos - covered
    }
  }

  def selfNanosByName(spans: IndexedSeq[Span]): Map[String, Long] = {
    val self = selfNanos(spans)
    spans.indices.groupMapReduce(spans(_).name)(self(_))(_ + _)
  }
}
