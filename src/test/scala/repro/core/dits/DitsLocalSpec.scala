package repro.core.dits

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CellSet, Grid, SynthSpatial}
import scala.util.Random

/** Structural invariants of the DITS-L construction (Algorithm 1) and the
  * Appendix C update operations.
  */
class DitsLocalSpec extends AnyFunSuite {

  private def randomDatasets(seed: Int, n: Int, cellsEach: Int = 20,
                             span: Int = 64): IndexedSeq[(Int, Array[Long])] = {
    val rnd = new Random(seed)
    (0 until n).map { id =>
      // Clustered so MBRs are informative: pick a centre, scatter around it.
      val cx = rnd.nextInt(span); val cy = rnd.nextInt(span)
      id -> CellSet.of(Array.fill(1 + rnd.nextInt(cellsEach)) {
        val x = math.min(span - 1, math.max(0, cx + rnd.nextInt(7) - 3))
        val y = math.min(span - 1, math.max(0, cy + rnd.nextInt(7) - 3))
        Grid.interleave(x, y)
      })
    }
  }

  private def checkInvariants(ix: DitsLocal, expect: Map[Int, Array[Long]]): Unit = {
    // Every dataset present exactly once.
    val ids = ix.datasets.map(_.id).toSeq
    assert(ids.sorted == expect.keys.toSeq.sorted)
    assert(ids.distinct.length == ids.length)
    // Leaf capacity respected; inverted index consistent with children.
    DitsLocal.leaves(ix.root).foreach { leaf =>
      assert(leaf.children.length <= ix.capacity,
             s"leaf holds ${leaf.children.length} > f=${ix.capacity}")
      val rebuilt = leaf.children
        .flatMap(d => d.cells.map(c => c -> d.id))
        .groupBy(_._1).view.mapValues(_.map(_._2).sorted.toSeq).toMap
      val actual = leaf.keys.indices.map { j =>
        leaf.keys(j) -> (leaf.offsets(j) until leaf.offsets(j + 1))
          .map(p => leaf.children(leaf.postings(p)).id).sorted.toSeq
      }.toMap
      assert(actual == rebuilt, "leaf inverted index out of sync with children")
    }
    // MBR containment along parent pointers and cell sets match.
    ix.datasets.foreach { d =>
      assert(d.cells.sameElements(expect(d.id)))
      var r = d.parent: TreeNode
      while (r != null) {
        val rr = r.rect
        assert(rr.minX <= d.rect.minX && rr.maxX >= d.rect.maxX &&
               rr.minY <= d.rect.minY && rr.maxY >= d.rect.maxY,
               s"ancestor MBR $rr does not contain ${d.rect}")
        r = r.parent
      }
    }
  }

  for (seed <- 0 until 8; f <- Seq(2, 5, 10)) {
    test(s"build invariants hold (seed=$seed, f=$f)") {
      val ds = randomDatasets(seed, 20 + seed * 10)
      val ix = DitsLocal.build(ds, f)
      checkInvariants(ix, ds.toMap)
    }
  }

  test("build handles duplicate pivots (all datasets identical)") {
    val cells = CellSet.of(Seq(Grid.interleave(3, 3), Grid.interleave(4, 4)))
    val ds = (0 until 37).map(id => id -> cells)
    val ix = DitsLocal.build(ds, 4)
    checkInvariants(ix, ds.toMap)
  }

  test("single-dataset source builds a one-leaf tree") {
    val ds = randomDatasets(1, 1)
    val ix = DitsLocal.build(ds, 10)
    assert(ix.nodeCount == 1 && ix.size == 1)
  }

  test("nodeCount is O(n): at most 2·ceil(n/1) for f≥2") {
    val ds = randomDatasets(3, 200)
    val ix = DitsLocal.build(ds, 10)
    assert(ix.nodeCount <= 2 * 200)
  }

  for (seed <- 0 until 5) {
    test(s"insert keeps invariants and search equivalence (seed=$seed)") {
      val ds = randomDatasets(seed, 40)
      val extra = randomDatasets(seed + 50, 15).map { case (id, cs) => (1000 + id, cs) }
      val ix = DitsLocal.build(ds, 5)
      extra.foreach { case (id, cs) => ix.insert(DatasetNode(id, cs)) }
      checkInvariants(ix, (ds ++ extra).toMap)
      // Equivalent to an index rebuilt from scratch, for overlap search.
      val rebuilt = DitsLocal.build(ds ++ extra, 5)
      val q = randomDatasets(seed + 99, 1).head._2
      assert(OverlapSearch.search(ix, q, 10) == OverlapSearch.search(rebuilt, q, 10))
    }
  }

  for (seed <- 0 until 5) {
    test(s"delete keeps invariants (seed=$seed)") {
      val ds = randomDatasets(seed, 40)
      val ix = DitsLocal.build(ds, 5)
      val gone = ds.take(13).map(_._1)
      gone.foreach(ix.delete)
      checkInvariants(ix, ds.drop(13).toMap)
    }
  }

  for (seed <- 0 until 5) {
    test(s"update replaces content and keeps invariants (seed=$seed)") {
      val ds = randomDatasets(seed, 30)
      val ix = DitsLocal.build(ds, 5)
      val updated = randomDatasets(seed + 77, 10).map { case (i, cs) => (ds(i)._1, cs) }
      updated.foreach { case (id, cs) => ix.update(DatasetNode(id, cs)) }
      checkInvariants(ix, (ds.toMap ++ updated.toMap))
    }
  }

  test("delete of unknown id throws") {
    val ix = DitsLocal.build(randomDatasets(0, 5), 4)
    intercept[NoSuchElementException](ix.delete(4242))
  }

  test("update of unknown id throws") {
    val ix = DitsLocal.build(randomDatasets(0, 5), 4)
    intercept[NoSuchElementException](ix.update(DatasetNode(4242, randomDatasets(1, 1).head._2)))
    checkInvariants(ix, randomDatasets(0, 5).toMap)
  }

  test("insert of an indexed id throws and leaves the index unchanged") {
    val ds = randomDatasets(2, 30)
    val ix = DitsLocal.build(ds, 4)
    val q = CellSet.of(ds(1)._2.take(1) ++ ds(3)._2.take(1))
    val before = OverlapSearch.search(ix, q, 10)
    intercept[IllegalArgumentException](ix.insert(DatasetNode(ds(1)._1, q)))
    checkInvariants(ix, ds.toMap)
    assert(ix.size == ds.length && ix.postingEntries == ds.map(_._2.length.toLong).sum)
    assert(OverlapSearch.search(ix, q, 10) == before)
  }

  test("postingEntries equals total cells across datasets") {
    val ds = randomDatasets(11, 25)
    val ix = DitsLocal.build(ds, 4)
    assert(ix.postingEntries == ds.map(_._2.length.toLong).sum)
  }

  test("synthetic route datasets build a deep tree at realistic scale") {
    val spec = SynthSpatial.testSources(1, 120, 60).head
    val ds = SynthSpatial.cellSource(spec, Grid.world(10))
    val ix = DitsLocal.build(ds, 10)
    checkInvariants(ix, ds.toMap)
    assert(ix.nodeCount > 12, "expected an actual tree, not one leaf")
  }
}
