package repro.multisource

import repro.core.{CellSet, Grid, MBR}
import repro.core.dits._
import scala.collection.mutable

/** One autonomous data source (Fig. 3): owns its datasets, builds its own
  * DITS-L under its own grid, and answers local search requests from the
  * data center. The query arrives as lon/lat points of cell centres (the
  * center's wire format), which the source re-grids under its own
  * resolution — this is the paper's mechanism for heterogeneous θ.
  */
final class SourceNode(val sourceId: Int, val grid: Grid,
                       datasetsIn: Seq[(Int, Array[Long])], capacity: Int)
    extends Serializable {

  val index: DitsLocal = DitsLocal.build(datasetsIn, capacity)

  /** Root summary sent to the data center after index construction. */
  def summary: SourceSummary = SourceSummary.of(sourceId, index, grid)

  /** Convert lon/lat query points into this source's cell space. */
  def toLocalCells(lonLat: Array[(Double, Double)]): Array[Long] =
    CellSet.of(lonLat.map { case (x, y) => grid.cellOf(x, y) })

  /** Local OJSP endpoint: top-k overlaps for the shipped query portion. */
  def localOverlap(queryLonLat: Array[(Double, Double)], k: Int): Seq[OverlapHit] = {
    val q = toLocalCells(queryLonLat)
    if (q.isEmpty) Seq.empty else OverlapSearch.search(index, q, k)
  }

  /** Local CJSP endpoint for one greedy round: the best (max marginal
    * gain) unpicked dataset directly connected to the shipped merged set.
    * Returns (dataset id, gain, its cells as lon/lat cell centres).
    */
  def localCoverageRound(mergedLonLat: Array[(Double, Double)],
                         coveredLonLat: Array[(Double, Double)],
                         excluded: Set[Int], delta: Double):
      Option[(Int, Int, Array[(Double, Double)])] = {
    val merged = toLocalCells(mergedLonLat)
    if (merged.isEmpty) return None
    val covered = toLocalCells(coveredLonLat)
    val out = mutable.ArrayBuffer.empty[DatasetNode]
    CoverageSearch.findConnected(index.root, CellSet.mbr(merged), merged, delta, out)
    var tau = -1
    var best: DatasetNode = null
    out.sortBy(_.id).foreach { d =>
      if (!excluded.contains(d.id) && d.cells.length > tau) {
        val g = CellSet.marginalGain(d.cells, covered)
        if (g > tau) { tau = g; best = d }
      }
    }
    if (best == null) None
    else Some((best.id, tau, best.cells.map(centreLonLat)))
  }

  /** Lon/lat centre of one of this source's cells. */
  private def centreLonLat(c: Long): (Double, Double) = {
    val r = grid.cellRect(c); (r.pivot.x, r.pivot.y)
  }
}
