package repro.core.dits

import repro.core.{Grid, MBR, Point}
import scala.collection.mutable

/** Root-node summary a data source sends to the data center after building
  * its DITS-L (Section V-B): the source id plus the root MBR converted to
  * lon/lat, so sources gridded at different resolutions remain comparable.
  */
final case class SourceSummary(sourceId: Int, lonLatRect: MBR, grid: Grid)
    extends Serializable {
  def pivot: Point   = lonLatRect.pivot
  def radius: Double = lonLatRect.radius
}

object SourceSummary {
  /** Summarise a built local index under its grid. */
  def of(sourceId: Int, index: DitsLocal, grid: Grid): SourceSummary =
    SourceSummary(sourceId, grid.cellSpaceToLonLat(index.root.rect), grid)
}

/** DITS-G — the data center's global index (Section V-B): the same
  * median-split tree as DITS-L, but over source summaries in lon/lat
  * space, and with plain leaves (no inverted index).
  */
final class DitsGlobal private (root: DitsGlobal.GNode) extends Serializable {

  /** Candidate sources for an overlap query: sources whose root MBR
    * intersects the query's lon/lat MBR (Section VI-A strategy 1).
    */
  def overlapCandidates(queryRect: MBR): Seq[SourceSummary] = {
    val out = mutable.ArrayBuffer.empty[SourceSummary]
    def go(n: DitsGlobal.GNode): Unit =
      if (n.rect.intersects(queryRect)) n match {
        case DitsGlobal.GLeaf(_, ss)      => out ++= ss.filter(_.lonLatRect.intersects(queryRect))
        case DitsGlobal.GInternal(_, l, r) => go(l); go(r)
      }
    go(root)
    out.toSeq
  }

  /** Candidate sources for a coverage query: sources possibly within the
    * connectivity threshold of the query. δ is in cell units of each
    * source's grid, so the lon/lat slack is δ·max(cellW, cellH) of that
    * source (plus the query's own slack `queryDeltaLonLat`).
    */
  def coverageCandidates(queryRect: MBR, delta: Double): Seq[SourceSummary] = {
    val out = mutable.ArrayBuffer.empty[SourceSummary]
    // +1 cell of margin: the wire format ships cell *centres*, which sit up
    // to half a cell away from the grid-coordinate corners δ is defined on.
    def slack(s: SourceSummary): Double = (delta + 1) * math.max(s.grid.cellW, s.grid.cellH)
    def go(n: DitsGlobal.GNode): Unit = {
      // Node-level prune with the loosest slack below this node.
      if (n.rect.minDist(queryRect) <= (delta + 1) * n.maxCell) n match {
        case DitsGlobal.GLeaf(_, ss) =>
          out ++= ss.filter(s => s.lonLatRect.minDist(queryRect) <= slack(s))
        case DitsGlobal.GInternal(_, l, r) => go(l); go(r)
      }
    }
    go(root)
    out.toSeq
  }
}

object DitsGlobal {
  sealed trait GNode extends Serializable {
    def rect: MBR
    /** Largest cell side (lon/lat) of any source below this node, so the
      * loosest δ slack below it is `(δ + 1) · maxCell`.
      */
    def maxCell: Double
  }
  final case class GLeaf(rect: MBR, ss: Seq[SourceSummary]) extends GNode {
    val maxCell: Double = ss.map(s => math.max(s.grid.cellW, s.grid.cellH)).max
  }
  final case class GInternal(rect: MBR, left: GNode, right: GNode) extends GNode {
    val maxCell: Double = math.max(left.maxCell, right.maxCell)
  }

  /** Build the global index with leaf capacity f (top-down median split,
    * mirroring Algorithm 1).
    */
  def build(summaries: Seq[SourceSummary], capacity: Int = 2): DitsGlobal = {
    require(summaries.nonEmpty, "no data sources registered")
    def go(ss: Seq[SourceSummary]): GNode = {
      val rect = ss.map(_.lonLatRect).reduce(_ union _)
      if (ss.length <= capacity) GLeaf(rect, ss)
      else {
        val d = if (rect.width(0) >= rect.width(1)) 0 else 1
        val sorted = ss.sortBy(s => if (d == 0) s.pivot.x else s.pivot.y)
        val mid = sorted.length / 2
        GInternal(rect, go(sorted.take(mid)), go(sorted.drop(mid)))
      }
    }
    new DitsGlobal(go(summaries))
  }
}
