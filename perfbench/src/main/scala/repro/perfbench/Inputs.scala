package repro.perfbench

import repro.core.{Grid, SynthSpatial}
import repro.core.SynthSpatial.{RawDataset, SourceSpec}
import repro.core.dits.OverlapHit
import scala.util.Random

/** Inputs shared by every workload: the paper's default parameters
  * (§VII-A, Table II) and the five synthetic sources.
  *
  * The source data is fixed (the experiments' data seed), so set-up cost
  * and memory do not depend on the workload seed; the seed drives only
  * query sampling and the mixed-rw operation sequence.
  */
object Inputs {
  val Theta = 12
  val Capacity = 10
  val K = 10
  val Delta = 5.0
  val grid: Grid = Grid.world(Theta)

  /** Raw points of one source, generated before any timing starts. */
  final case class Source(spec: SourceSpec, raw: IndexedSeq[RawDataset])

  /** A query dataset: its pooled id, cells under [[grid]], and the cell
    * centres the data center takes as its wire format.
    */
  final case class Query(pooledId: Int, cells: Array[Long]) {
    val lonLat: Array[(Double, Double)] = Inputs.lonLat(cells)
  }

  /** Dataset identity across sources, as in the multi-source tests. */
  def pooledId(source: Int, id: Int): Int = source * 1_000_000 + id

  def rawSources(scale: Double): IndexedSeq[Source] =
    SynthSpatial.paperSources(scale).map(s => Source(s, SynthSpatial.source(s, repro.exp.Workloads.Seed)))

  /** Cell conversion (Def. 5) of every dataset of one source. */
  def cellify(src: Source): IndexedSeq[(Int, Array[Long])] =
    src.raw.map(d => d.id -> grid.cellSet(d.points))

  /** Every dataset of every source under its pooled id, in id order. */
  def pool(srcs: IndexedSeq[Source], cells: IndexedSeq[IndexedSeq[(Int, Array[Long])]]): IndexedSeq[(Int, Array[Long])] =
    srcs.zip(cells).flatMap { case (s, ds) =>
      ds.map { case (id, cs) => pooledId(s.spec.sourceId, id) -> cs }
    }.sortBy(_._1)

  /** `n` query datasets drawn from the union of all sources (§VII-A),
    * stratified by size: the pool is split by cell count into `n` equal
    * strata and one dataset is drawn from each, so every dataset is
    * equally likely but the mix of small and large queries, which sets
    * most of the cost, varies little from seed to seed. Returned in a
    * seeded random order.
    */
  def sampleQueries(pool: IndexedSeq[(Int, Array[Long])], n: Int, rnd: Random): IndexedSeq[Query] = {
    require(n <= pool.length, s"cannot draw $n queries from ${pool.length} datasets")
    val bySize = pool.sortBy { case (id, cs) => (cs.length, id) }
    val picks = (0 until n).map { i =>
      val lo = i * bySize.length / n; val hi = (i + 1) * bySize.length / n
      val (id, cs) = bySize(lo + rnd.nextInt(hi - lo))
      Query(id, cs)
    }
    rnd.shuffle(picks)
  }

  def lonLat(cells: Array[Long]): Array[(Double, Double)] =
    cells.map { c => val r = grid.cellRect(c); (r.pivot.x, r.pivot.y) }

  /** `f` over `xs` on the common fork-join pool: oracle answers are
    * computed before any timing starts, so they may use every core.
    */
  def parMap[A, B](xs: IndexedSeq[A])(f: A => B): IndexedSeq[B] =
    java.util.stream.IntStream.range(0, xs.length).parallel()
      .mapToObj[B](i => f(xs(i))).toArray.toIndexedSeq.map(_.asInstanceOf[B])

  private val started = System.nanoTime()

  /** Notes on standard error how far into the run a phase begins. */
  def phase(name: String): Unit =
    Console.err.println(f"[perfbench] ${(System.nanoTime() - started) / 1e9}%7.2f s  $name")

  /** Seconds taken by `f`, with its value. */
  def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Used heap in MB after a full collection. */
  def usedHeapMb(): Double = {
    System.gc(); System.gc()
    val rt = Runtime.getRuntime
    (rt.totalMemory - rt.freeMemory) / 1e6
  }
}

/** Answer checks against the oracles, made outside every timed region. */
object Checks {

  /** OJSP: exactly the brute-force top-k (ties by pooled id), plus the
    * invariants overlap ≤ |S_Q|, unique ids and at most k hits.
    */
  def ojsp(got: Seq[OverlapHit], expected: Seq[OverlapHit], queryCells: Int, k: Int): Boolean =
    got == expected && invariants(got.map(_.id), k) && got.forall(_.overlap <= queryCells)

  /** CJSP: the oracle's picks in order and its coverage, unique picks, at
    * most k of them, and coverage no smaller than the query.
    */
  def cjsp(picked: Seq[Int], coverage: Int, expPicked: Seq[Int], expCoverage: Int,
           queryCells: Int, k: Int): Boolean =
    picked == expPicked && coverage == expCoverage && invariants(picked, k) && coverage >= queryCells

  private def invariants(ids: Seq[Int], k: Int): Boolean =
    ids.length <= k && ids.distinct.length == ids.length
}
