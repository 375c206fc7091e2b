package repro.perfbench

import java.io.File
import scala.io.Source
import scala.util.Try

/** Moves the measuring thread to the next of the process's allowed CPUs
  * every [[CpuRotation.PeriodNanos]], so that each repeated operation runs
  * on every CPU in turn. On a shared host another tenant can slow one CPU
  * by a third or more for seconds at a time; a thread the scheduler leaves
  * on that CPU would measure the tenant, not the program.
  *
  * Affinity is set with `taskset` (util-linux) on the thread's own id,
  * between operations and outside every timing; each call is waited for.
  * Without Linux `/proc` or `taskset`, the thread stays where the
  * scheduler puts it and the run says so on standard error.
  */
final class CpuRotation {
  private val cpus: IndexedSeq[Int] = CpuRotation.allowedCpus()
  private val tid: Option[String] =
    Try(new File("/proc/thread-self").getCanonicalFile.getName).toOption.filter(_.forall(_.isDigit))
  private var enabled = cpus.length > 1 && tid.nonEmpty
  private var next = 0
  private var last = System.nanoTime()

  if (!enabled) Console.err.println("[perfbench] CPU rotation off: no CPU list or thread id")

  /** Moves to the next CPU once a period has passed since the last move. */
  def tick(): Unit =
    if (enabled && System.nanoTime() - last >= CpuRotation.PeriodNanos) {
      pin(cpus(next).toString)
      next = (next + 1) % cpus.length
      last = System.nanoTime()
    }

  /** Lets the thread run on every allowed CPU again. */
  def release(): Unit = if (enabled) pin(cpus.mkString(","))

  private def pin(list: String): Unit = {
    val ok = Try {
      new ProcessBuilder("taskset", "-p", "-c", list, tid.get)
        .redirectOutput(ProcessBuilder.Redirect.DISCARD)
        .redirectError(ProcessBuilder.Redirect.DISCARD)
        .start().waitFor() == 0
    }.getOrElse(false)
    if (!ok) {
      enabled = false
      Console.err.println("[perfbench] CPU rotation off: taskset failed")
    }
  }
}

object CpuRotation {

  /** How long the thread stays on one CPU. */
  val PeriodNanos: Long = 500_000_000L

  /** The CPUs this process may run on (`Cpus_allowed_list`), or none. */
  def allowedCpus(): IndexedSeq[Int] =
    Try {
      val src = Source.fromFile("/proc/self/status")
      try src.getLines().collectFirst { case l if l.startsWith("Cpus_allowed_list:") => parseList(l.drop(18).trim) }
        .getOrElse(IndexedSeq.empty)
      finally src.close()
    }.getOrElse(IndexedSeq.empty)

  /** Parses a Linux CPU list such as `0-3` or `0,2,4-5`. */
  def parseList(s: String): IndexedSeq[Int] =
    s.split(",").toIndexedSeq.filter(_.nonEmpty).flatMap { part =>
      part.split("-") match {
        case Array(a) => Seq(a.toInt)
        case Array(a, b) => a.toInt to b.toInt
      }
    }
}
