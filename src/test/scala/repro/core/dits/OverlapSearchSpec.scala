package repro.core.dits

import java.util.concurrent.{Callable, CountDownLatch, Executors, TimeUnit}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CellSet, Grid, SynthSpatial}
import repro.core.baselines.BruteForce
import scala.collection.mutable
import scala.util.Random

/** OverlapSearch (Algorithm 2) returns exactly the brute-force OJSP
  * answer across instance shapes, k, f, and θ.
  */
class OverlapSearchSpec extends AnyFunSuite {

  private def randomDatasets(seed: Int, n: Int, span: Int = 64): IndexedSeq[(Int, Array[Long])] = {
    val rnd = new Random(seed)
    (0 until n).map { id =>
      val cx = rnd.nextInt(span); val cy = rnd.nextInt(span)
      id -> CellSet.of(Array.fill(1 + rnd.nextInt(30)) {
        val x = math.min(span - 1, math.max(0, cx + rnd.nextInt(9) - 4))
        val y = math.min(span - 1, math.max(0, cy + rnd.nextInt(9) - 4))
        Grid.interleave(x, y)
      })
    }
  }

  for (seed <- 0 until 10; k <- Seq(1, 5, 15); f <- Seq(3, 10)) {
    test(s"matches brute force (seed=$seed, k=$k, f=$f)") {
      val ds = randomDatasets(seed, 50)
      val ix = DitsLocal.build(ds, f)
      val query = randomDatasets(seed + 1000, 1).head._2
      val got = OverlapSearch.search(ix, query, k)
      val exp = BruteForce.overlapTopK(ds, query, k)
      assert(got == exp, s"got=$got exp=$exp")
    }
  }

  for (theta <- Seq(8, 10, 12); seed <- 0 until 3) {
    test(s"matches brute force on route data (θ=$theta, seed=$seed)") {
      val spec = SynthSpatial.testSources(1, 60, 50).head
      val ds = SynthSpatial.cellSource(spec, Grid.world(theta), seed = 42L + seed)
      val ix = DitsLocal.build(ds, 10)
      val query = ds(seed * 7 % ds.length)._2
      assert(OverlapSearch.search(ix, query, 10) == BruteForce.overlapTopK(ds, query, 10))
    }
  }

  test("query identical to one dataset ranks it first with full overlap") {
    val ds = randomDatasets(3, 40)
    val ix = DitsLocal.build(ds, 5)
    val (qid, qcells) = ds(17)
    val hits = OverlapSearch.search(ix, qcells, 5)
    assert(hits.head.id == qid || hits.head.overlap == qcells.length)
    assert(hits.head.overlap == qcells.length)
  }

  test("disjoint query returns no hits") {
    val ds = randomDatasets(4, 30, span = 32)
    val ix = DitsLocal.build(ds, 5)
    // Far-away query: cells at the opposite corner of a much larger grid.
    val q = CellSet.of(Seq(Grid.interleave(500, 500), Grid.interleave(501, 501)))
    assert(OverlapSearch.search(ix, q, 10).isEmpty)
  }

  test("k larger than candidate count returns every overlapping dataset") {
    val ds = randomDatasets(5, 20)
    val ix = DitsLocal.build(ds, 4)
    val query = ds.head._2
    val got = OverlapSearch.search(ix, query, 1000)
    val exp = BruteForce.overlapTopK(ds, query, 1000)
    assert(got == exp)
    assert(got.forall(_.overlap > 0))
  }

  test("empty query yields empty result") {
    val ds = randomDatasets(6, 10)
    val ix = DitsLocal.build(ds, 4)
    assert(OverlapSearch.search(ix, Array.emptyLongArray, 5).isEmpty)
  }

  test("results are sorted by overlap desc then id asc") {
    val ds = randomDatasets(7, 60)
    val ix = DitsLocal.build(ds, 8)
    val query = ds(3)._2
    val hits = OverlapSearch.search(ix, query, 20)
    val resorted = hits.sortBy(h => (-h.overlap, h.id))
    assert(hits == resorted)
  }

  test("k must be positive") {
    val ds = randomDatasets(8, 5)
    val ix = DitsLocal.build(ds, 4)
    intercept[IllegalArgumentException](OverlapSearch.search(ix, ds.head._2, 0))
  }

  // Large enough that each query's MBR hits hundreds of leaves, so both
  // stages of the search run as several fork-join tasks.
  test("matches brute force when split across tasks, also from 4 threads at once") {
    val rnd = new Random(17)
    val span = 128
    val ds = mutable.ArrayBuffer.empty[(Int, Array[Long])]
    for (id <- 0 until 3000) {
      // One dataset in four is a clone, so the k-th overlap is often tied.
      val cells =
        if (id > 0 && rnd.nextInt(4) == 0) ds(rnd.nextInt(ds.length))._2
        else {
          val cx = rnd.nextInt(span); val cy = rnd.nextInt(span)
          CellSet.of(Array.fill(1 + rnd.nextInt(8)) {
            Grid.interleave(math.min(span - 1, math.max(0, cx + rnd.nextInt(5) - 2)),
                            math.min(span - 1, math.max(0, cy + rnd.nextInt(5) - 2)))
          })
        }
      ds += id -> cells
    }
    val ix = DitsLocal.build(ds, 4)
    val block = CellSet.of(Array.fill(2500)(Grid.interleave(16 + rnd.nextInt(96), 16 + rnd.nextInt(96))))
    val unions = Seq.fill(3)(CellSet.of(Array.fill(60)(ds(rnd.nextInt(ds.length))._2).flatten))
    val queries = block +: unions
    val leaves = DitsLocal.leaves(ix.root)
    for (q <- queries) {
      val hit = leaves.filter(_.rect.intersects(CellSet.mbr(q)))
      assert(hit.length > 200, s"query MBR hits only ${hit.length} leaves")
      assert(hit.count(OverlapSearch.upperBound(_, q) > 0) > 100)
    }

    val ks = Seq(1, 10, 100, ds.length + 5)
    val expected = for (q <- queries; k <- ks) yield BruteForce.overlapTopK(ds, q, k)
    val tiedAtK = for (q <- queries; k <- ks.init) yield {
      val exp = BruteForce.overlapTopK(ds, q, k + 1)
      exp.length > k && exp(k).overlap == exp(k - 1).overlap
    }
    assert(tiedAtK.count(identity) >= 2, "too few queries tie at the k-th overlap")
    assert((for (q <- queries; k <- ks) yield OverlapSearch.search(ix, q, k)) == expected)

    val threads = Executors.newFixedThreadPool(4)
    try {
      val start = new CountDownLatch(1)
      val runs = Seq.fill(4)(threads.submit(new Callable[Seq[Seq[OverlapHit]]] {
        def call(): Seq[Seq[OverlapHit]] = {
          start.await()
          Seq.fill(5)(for (q <- queries; k <- ks) yield OverlapSearch.search(ix, q, k)).flatten
        }
      }))
      start.countDown()
      runs.foreach(r => assert(r.get(60, TimeUnit.SECONDS) == Seq.fill(5)(expected).flatten))
    } finally threads.shutdownNow()
  }
}
