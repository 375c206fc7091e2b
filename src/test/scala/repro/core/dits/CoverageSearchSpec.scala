package repro.core.dits

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CellSet, Grid, SynthSpatial}
import repro.core.baselines.{BruteForce, StandardGreedy}
import scala.util.Random

/** CoverageSearch (Algorithm 3): greedy equivalence with SG / SG+DITS,
  * connectivity of results, and the (1 − 1/e) guarantee in the
  * unconstrained regime.
  */
class CoverageSearchSpec extends AnyFunSuite {

  private def randomDatasets(seed: Int, n: Int, span: Int = 48): IndexedSeq[(Int, Array[Long])] = {
    val rnd = new Random(seed)
    (0 until n).map { id =>
      val cx = rnd.nextInt(span); val cy = rnd.nextInt(span)
      id -> CellSet.of(Array.fill(1 + rnd.nextInt(20)) {
        val x = math.min(span - 1, math.max(0, cx + rnd.nextInt(9) - 4))
        val y = math.min(span - 1, math.max(0, cy + rnd.nextInt(9) - 4))
        Grid.interleave(x, y)
      })
    }
  }

  /** The three greedy variants make identical picks: they share the gain
    * rule and tie-break, and connectivity-to-merged equals
    * connectivity-to-some-member because dist(S, A ∪ B) = min(dist(S, A),
    * dist(S, B)).
    */
  for (seed <- 0 until 10; delta <- Seq(0.0, 2.0, 5.0); k <- Seq(3, 8)) {
    test(s"CoverageSearch ≡ SG ≡ SG+DITS (seed=$seed, δ=$delta, k=$k)") {
      val ds = randomDatasets(seed, 40)
      val ix = DitsLocal.build(ds, 5)
      val query = randomDatasets(seed + 500, 1).head._2
      val a = CoverageSearch.search(ix, query, delta, k)
      val b = StandardGreedy.sg(ds, query, delta, k)
      val c = StandardGreedy.sgDits(ix, query, delta, k)
      assert(a == b, s"CoverageSearch=$a SG=$b")
      assert(a == c, s"CoverageSearch=$a SG+DITS=$c")
    }
  }

  for (seed <- 0 until 8) {
    test(s"every result set satisfies spatial connectivity with the query (seed=$seed)") {
      val ds = randomDatasets(seed + 30, 35)
      val byId = ds.toMap
      val ix = DitsLocal.build(ds, 5)
      val query = randomDatasets(seed + 700, 1).head._2
      val delta = 3.0
      val res = CoverageSearch.search(ix, query, delta, 6)
      // BFS from the query over picked datasets must reach all of them.
      var frontier = List(CellSet.of(query))
      val remaining = scala.collection.mutable.Set(res.picked: _*)
      var progress = true
      while (progress && remaining.nonEmpty) {
        progress = false
        val reached = remaining.filter(id => frontier.exists(m =>
          CellSet.connected(byId(id), m, delta)))
        if (reached.nonEmpty) {
          progress = true
          reached.foreach { id => frontier ::= byId(id); remaining -= id }
        }
      }
      assert(remaining.isEmpty, s"picked ${res.picked} not connected: $remaining left")
    }
  }

  for (seed <- 0 until 6) {
    test(s"greedy ≤ exhaustive optimum, and ≥ (1−1/e)·OPT when fully connected (seed=$seed)") {
      val ds = randomDatasets(seed + 60, 10, span = 16) // tiny: exhaustive is 2^10
      val ix = DitsLocal.build(ds, 3)
      val query = randomDatasets(seed + 900, 1, span = 16).head._2
      val k = 3
      // Huge δ: connectivity never constrains — classical MCP regime.
      val delta = 1e9
      val greedy = CoverageSearch.search(ix, query, delta, k)
      val opt = BruteForce.coverageOptimal(ds, query, delta, k)
      assert(greedy.coverage <= opt.coverage)
      assert(greedy.coverage >= ((1 - 1 / math.E) * opt.coverage - 1e-9),
             s"greedy=${greedy.coverage} opt=${opt.coverage}")
    }
  }

  test("δ=0 requires an overlapping cell to connect") {
    // Two datasets: one shares a cell with the query, one is 1 cell away.
    val q = CellSet.of(Seq(Grid.interleave(5, 5)))
    val share = CellSet.of(Seq(Grid.interleave(5, 5), Grid.interleave(9, 9)))
    val near = CellSet.of(Seq(Grid.interleave(5, 6)))
    val ix = DitsLocal.build(Seq(0 -> share, 1 -> near), 2)
    val res0 = CoverageSearch.search(ix, q, 0.0, 2)
    assert(res0.picked.contains(0))
    // δ=0 still admits `near` AFTER `share` is merged? No: dist(near, q∪share)
    // = 1 > 0. So only the sharing dataset (and nothing else) is reachable.
    assert(!res0.picked.contains(1))
    // δ=1 admits both (near is 1 away from the query).
    val res1 = CoverageSearch.search(ix, q, 1.0, 2)
    assert(res1.picked.toSet == Set(0, 1))
  }

  test("stops early when no connected dataset remains") {
    val q = CellSet.of(Seq(Grid.interleave(0, 0)))
    val far = CellSet.of(Seq(Grid.interleave(40, 40)))
    val ix = DitsLocal.build(Seq(0 -> far), 2)
    val res = CoverageSearch.search(ix, q, 1.0, 5)
    assert(res.picked.isEmpty)
    assert(res.coverage == 1) // just the query cell
  }

  test("empty query picks nothing with coverage 0") {
    val ix = DitsLocal.build(randomDatasets(8, 20), 5)
    assert(CoverageSearch.search(ix, Array.emptyLongArray, 3.0, 5) == CoverageResult(Seq.empty, 0))
  }

  test("picked datasets are distinct and at most k") {
    val ds = randomDatasets(77, 30)
    val ix = DitsLocal.build(ds, 5)
    val query = ds.head._2
    val res = CoverageSearch.search(ix, query, 5.0, 7)
    assert(res.picked.distinct.length == res.picked.length)
    assert(res.picked.length <= 7)
  }

  test("coverage equals |S_Q ∪ picked| recomputed from scratch") {
    val ds = randomDatasets(88, 25)
    val byId = ds.toMap
    val ix = DitsLocal.build(ds, 4)
    val query = randomDatasets(888, 1).head._2
    val res = CoverageSearch.search(ix, query, 4.0, 5)
    val union = res.picked.foldLeft(CellSet.of(query))((acc, id) => CellSet.union(acc, byId(id)))
    assert(res.coverage == union.length)
  }

  test("marginal gains are non-increasing across greedy rounds (submodularity)") {
    val ds = randomDatasets(99, 40)
    val byId = ds.toMap
    val ix = DitsLocal.build(ds, 5)
    val query = randomDatasets(999, 1).head._2
    val res = CoverageSearch.search(ix, query, 1e9, 8) // unconstrained
    var covered = CellSet.of(query)
    var last = Int.MaxValue
    res.picked.foreach { id =>
      val g = CellSet.marginalGain(byId(id), covered)
      assert(g <= last, "greedy gain increased — not the max-gain pick")
      last = g
      covered = CellSet.union(covered, byId(id))
    }
  }

  test("route data: CoverageSearch ≡ SG on realistic clusters") {
    val spec = SynthSpatial.testSources(1, 50, 40).head
    val ds = SynthSpatial.cellSource(spec, Grid.world(9))
    val ix = DitsLocal.build(ds, 8)
    val query = ds(5)._2
    assert(CoverageSearch.search(ix, query, 5.0, 10) ==
           StandardGreedy.sg(ds, query, 5.0, 10))
  }
}
