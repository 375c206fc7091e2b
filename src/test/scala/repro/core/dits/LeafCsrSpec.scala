package repro.core.dits

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CellSet, Grid}
import repro.core.baselines.BruteForce
import scala.collection.mutable
import scala.util.Random

/** The leaves' CSR inverted indexes under seeded random Appendix C
  * insert/update/delete steps: after every step the arrays are well formed
  * and hold exactly what `children` implies, and OverlapSearch equals brute
  * force for k ∈ {1, 10, size + 5}. Datasets sit on a small grid and some
  * are clones, so the k-th overlap is often tied: those queries exercise
  * the k-th-lb prune and the smaller-id tie-break.
  */
class LeafCsrSpec extends AnyFunSuite {

  private val Span = 24

  private def randomCells(rnd: Random): Array[Long] = {
    val cx = rnd.nextInt(Span); val cy = rnd.nextInt(Span)
    CellSet.of(Array.fill(1 + rnd.nextInt(15)) {
      val x = math.min(Span - 1, math.max(0, cx + rnd.nextInt(7) - 3))
      val y = math.min(Span - 1, math.max(0, cy + rnd.nextInt(7) - 3))
      Grid.interleave(x, y)
    })
  }

  /** New cells, or with probability 1/4 a clone of a live dataset's. */
  private def drawCells(rnd: Random, live: mutable.Map[Int, Array[Long]]): Array[Long] =
    if (live.nonEmpty && rnd.nextInt(4) == 0) live.values.toSeq(rnd.nextInt(live.size))
    else randomCells(rnd)

  private def checkCsr(ix: DitsLocal): Unit =
    DitsLocal.leaves(ix.root).foreach { leaf =>
      val (keys, offsets, postings) = (leaf.keys, leaf.offsets, leaf.postings)
      assert((1 until keys.length).forall(j => keys(j - 1) < keys(j)), "keys not strictly increasing")
      assert(offsets.length == keys.length + 1 && offsets.head == 0)
      assert((1 until offsets.length).forall(j => offsets(j - 1) <= offsets(j)), "offsets decrease")
      assert(offsets.last == postings.length)
      val actual = keys.indices.map { j =>
        keys(j) -> (offsets(j) until offsets(j + 1)).map(p => leaf.children(postings(p)).id).sorted
      }.toMap
      val implied = leaf.children.toSeq
        .flatMap(d => d.cells.toSeq.map(_ -> d.id))
        .groupMap(_._1)(_._2).view.mapValues(_.sorted).toMap
      assert(actual == implied, "CSR postings out of sync with children")
    }

  for (seed <- 0 until 6) {
    val f = Seq(2, 4, 10)(seed % 3)
    test(s"CSR leaves and OverlapSearch stay exact under random updates (seed=$seed, f=$f)") {
      val rnd = new Random(seed)
      val live = mutable.LinkedHashMap.empty[Int, Array[Long]]
      (0 until 60).foreach(id => live(id) = drawCells(rnd, live))
      val ix = DitsLocal.build(live.toSeq, f)
      var nextId = live.size
      var tiedAtK = 0
      for (_ <- 0 until 40) {
        rnd.nextInt(3) match {
          case 0 =>
            val cells = drawCells(rnd, live)
            ix.insert(DatasetNode(nextId, cells)); live(nextId) = cells; nextId += 1
          case 1 =>
            val id = live.keys.toSeq(rnd.nextInt(live.size))
            val cells = drawCells(rnd, live)
            ix.update(DatasetNode(id, cells)); live(id) = cells
          case _ if live.size > 1 =>
            val id = live.keys.toSeq(rnd.nextInt(live.size))
            ix.delete(id); live -= id
          case _ =>
        }
        checkCsr(ix)
        assert(ix.size == live.size && ix.datasets.map(_.id).toSet == live.keySet)
        val queries = Seq(live.values.toSeq(rnd.nextInt(live.size)), randomCells(rnd),
                          CellSet.union(randomCells(rnd), randomCells(rnd)))
        for (q <- queries; k <- Seq(1, 10, live.size + 5)) {
          val exp = BruteForce.overlapTopK(live, q, k + 1)
          if (exp.length > k && exp(k).overlap == exp(k - 1).overlap) tiedAtK += 1
          assert(OverlapSearch.search(ix, q, k) == exp.take(k), s"k=$k q=${q.toSeq}")
        }
      }
      assert(tiedAtK > 0, "no query had a tie at the k-th overlap")
    }
  }
}
