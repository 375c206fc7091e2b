package repro.core.dits

import repro.core.{CellSet, MBR, Point}
import scala.collection.mutable

/** CJSP result: chosen dataset ids (in pick order) and the total coverage
  * `|S_Q ∪ ⋃ S_D|` achieved.
  */
final case class CoverageResult(picked: Seq[Int], coverage: Int)

/** Algorithm 3 — CoverageSearch: greedy with *spatial merge*.
  *
  * The result set starts as the query. Each of the k iterations runs ONE
  * tree search (FindConnectSet) from the merged node `N_M` — the union of
  * everything picked so far — using the Lemma 4 distance bounds:
  *
  *   lb = max(‖p_N, p_M‖ − r_N − r_M, 0)   ub = ‖p_N, p_M‖ + r_N + r_M
  *
  * Subtrees with `ub ≤ δ` are connected wholesale; subtrees with `lb > δ`
  * are pruned; leaves in between verify the exact cell-set distance. The
  * candidate with maximum marginal gain (Eq. 3) is picked, with the
  * `|S_D| > τ` cardinality filter skipping datasets that cannot beat the
  * best gain found so far.
  *
  * Because every pick is directly connected to the *merged* set, the
  * result is directly-or-indirectly connected to the query (Defs. 7–9).
  */
object CoverageSearch {

  /** Lemma 4 bounds on `dist(S_M, S_D)` from two node summaries. */
  def distBounds(aPivot: Point, aR: Double, bPivot: Point, bR: Double): (Double, Double) = {
    val d = aPivot.dist(bPivot)
    (math.max(d - aR - bR, 0.0), d + aR + bR)
  }

  /** FindConnectSet: all dataset nodes within cell-distance δ of the
    * merged set, via the Lemma 4 bounds. `mergedCells` is only consulted
    * (through its NeighborIndex) for the exact verification at leaves.
    */
  def findConnected(root: TreeNode, mergedRect: MBR, mergedCells: Array[Long],
                    delta: Double, out: mutable.ArrayBuffer[DatasetNode]): Unit =
    findConnected(root, mergedRect, new CellSet.NeighborIndex(mergedCells, delta), delta, out)

  /** FindConnectSet against a prebuilt δ-connectivity tester (reused when
    * the same merged set probes several subtrees).
    */
  def findConnected(root: TreeNode, mergedRect: MBR, merged: CellSet.NeighborIndex,
                    delta: Double, out: mutable.ArrayBuffer[DatasetNode]): Unit = {
    val mp = mergedRect.pivot; val mr = mergedRect.radius
    def go(n: TreeNode): Unit = {
      val (lb, ub) = distBounds(n.pivot, n.radius, mp, mr)
      if (ub <= delta) n.datasets.foreach(out += _) // whole subtree connected
      else if (lb <= delta) n match {
        case l: Leaf =>
          l.children.foreach { d =>
            if (merged.connectedToPacked(d.packedXY)) out += d
          }
        case i: Internal => go(i.left); go(i.right)
      }
    }
    go(root)
  }

  /** Greedy coverage search (Algorithm 3). Stops early when no unpicked
    * connected dataset remains; an empty query connects to nothing.
    */
  def search(index: DitsLocal, queryCells: Array[Long], delta: Double, k: Int): CoverageResult = {
    require(k > 0, "k must be positive")
    if (queryCells.isEmpty) return CoverageResult(Seq.empty, 0)
    var covered = CellSet.of(queryCells)
    var mergedRect = CellSet.mbr(covered)
    val picked = mutable.ArrayBuffer.empty[Int]
    val pickedIds = mutable.HashSet.empty[Int]

    var it = 0
    var exhausted = false
    while (it < k && !exhausted) {
      val cand = mutable.ArrayBuffer.empty[DatasetNode]
      findConnected(index.root, mergedRect, covered, delta, cand)
      var tau = -1
      var best: DatasetNode = null
      // Deterministic: scan in id order so gain ties keep the smaller id.
      cand.sortBy(_.id).foreach { d =>
        if (!pickedIds.contains(d.id) && d.cells.length > tau) { // |S_D| ≤ τ ⇒ g ≤ τ
          val g = CellSet.marginalGain(d.cells, covered)
          if (g > tau) { tau = g; best = d }
        }
      }
      if (best == null) exhausted = true
      else {
        picked += best.id
        pickedIds += best.id
        covered = CellSet.union(covered, best.cells)
        mergedRect = mergedRect.union(best.rect)
      }
      it += 1
    }
    CoverageResult(picked.toSeq, covered.length)
  }
}
