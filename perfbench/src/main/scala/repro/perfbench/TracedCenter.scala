package repro.perfbench

import repro.core.{CellSet, MBR, Point}
import repro.core.dits.{CoverageSearch, DatasetNode, OverlapHit, OverlapSearch}
import repro.multisource.{DataCenter, SourceNode}
import scala.collection.mutable

/** The data center's Clipped-strategy protocol replayed step by step from
  * the same public calls `DataCenter` makes (DITS-G routing, clipping,
  * `SourceNode.toLocalCells`, `OverlapSearch.search`,
  * `SourceNode.localCoverageRound`), so that the traced run can put a span
  * around each layer. Only the traced run uses it, and its answers are
  * checked against the same oracles as `DataCenter`'s.
  *
  * Span names are the layer metrics' names without their unit suffix.
  */
final class TracedCenter(center: DataCenter, sources: Seq[SourceNode], tr: Tracer) {
  import TracedCenter.RoundInput
  private val bySrc = sources.map(s => s.sourceId -> s).toMap
  private def rectOf(pts: Array[(Double, Double)]) = MBR.of(pts.map { case (x, y) => Point(x, y) })

  /** OJSP: answers as pooled-id hits, like `DataCenter.overlapSearch`. */
  def overlapSearch(q: Array[(Double, Double)], k: Int): Seq[OverlapHit] = tr.span("multisource.query") {
    val targets = tr.span("dits.global.route") { center.global.overlapCandidates(rectOf(q)) }
    tr.count("dits.global.sources_routed", targets.length)
    val all = mutable.ArrayBuffer.empty[OverlapHit]
    targets.foreach { t =>
      val payload = q.filter { case (x, y) => t.lonLatRect.contains(Point(x, y)) }
      if (payload.nonEmpty) {
        tr.count("multisource.payload_cells", payload.length)
        val src = bySrc(t.sourceId)
        val cells = tr.span("core.regrid") { src.toLocalCells(payload) }
        val hits = if (cells.isEmpty) Seq.empty
                   else tr.span("dits.overlap.search") { OverlapSearch.search(src.index, cells, k) }
        tr.count("dits.overlap.calls")
        tr.count("dits.overlap.hits_returned", hits.length)
        if (hits.nonEmpty) tr.count("dits.global.sources_with_hits")
        hits.foreach(h => all += OverlapHit(Inputs.pooledId(t.sourceId, h.id), h.overlap))
      }
    }
    val top = all.sortBy(h => (-h.overlap, h.id)).take(k).toSeq
    tr.count("dits.overlap.hits_kept", top.length)
    top
  }

  /** CJSP: pooled-id picks and coverage, like `DataCenter.coverageSearch`,
    * plus every (source, payload) round input it shipped.
    */
  def coverageSearch(q: Array[(Double, Double)], delta: Double, k: Int): (Seq[Int], Int, Seq[RoundInput]) =
    tr.span("multisource.query") {
      val grid = sources.map(_.grid).maxBy(_.theta)
      def cellsOf(pts: Array[(Double, Double)]) = CellSet.of(pts.map { case (x, y) => grid.cellOf(x, y) })
      var covered = cellsOf(q)
      var merged = q.distinct
      val picked = mutable.ArrayBuffer.empty[Int]
      val excluded = mutable.HashMap.empty[Int, Set[Int]].withDefaultValue(Set.empty)
      val inputs = mutable.ArrayBuffer.empty[RoundInput]
      var exhausted = false
      while (picked.length < k && !exhausted) {
        tr.count("multisource.rounds")
        val targets = tr.span("dits.global.route") { center.global.coverageCandidates(rectOf(merged), delta) }
        tr.count("dits.global.sources_routed", targets.length)
        var best: Option[(Int, Int, Int, Array[(Double, Double)])] = None
        targets.foreach { t =>
          val clip = t.lonLatRect.expand((delta + 1) * math.max(t.grid.cellW, t.grid.cellH))
          val payload = merged.filter { case (x, y) => clip.contains(Point(x, y)) }
          if (payload.nonEmpty) {
            tr.count("multisource.payload_cells", payload.length)
            val src = bySrc(t.sourceId)
            inputs += RoundInput(src, payload)
            val resp = tr.span("multisource.source.round") {
              src.localCoverageRound(payload, payload, excluded(t.sourceId), delta)
            }
            resp.foreach { case (id, _, cells) =>
              tr.count("dits.global.sources_with_hits")
              val g = CellSet.marginalGain(cellsOf(cells), covered)
              val beats = best.forall { case (bs, bid, bg, _) =>
                g > bg || (g == bg && (t.sourceId < bs || (t.sourceId == bs && id < bid)))
              }
              if (beats) best = Some((t.sourceId, id, g, cells))
            }
          }
        }
        best match {
          case Some((src, id, _, cells)) =>
            picked += Inputs.pooledId(src, id)
            excluded(src) = excluded(src) + id
            covered = CellSet.union(covered, cellsOf(cells))
            merged = (merged ++ cells).distinct
          case None => exhausted = true
        }
      }
      (picked.toSeq, covered.length, inputs.toSeq)
    }

  /** FindConnectSet alone on one round's input, as a top-level span beside
    * the query's: the share of a round that connectivity search takes.
    */
  def probeFindConnect(in: RoundInput, delta: Double): Unit = {
    val merged = in.source.toLocalCells(in.payload)
    if (merged.nonEmpty) {
      val out = mutable.ArrayBuffer.empty[DatasetNode]
      tr.span("dits.coverage.find_connect") {
        CoverageSearch.findConnected(in.source.index.root, CellSet.mbr(merged), merged, delta, out)
      }
      tr.count("dits.coverage.probes")
      tr.count("dits.coverage.candidates", out.length)
    }
  }
}

object TracedCenter {
  /** One round's input to one source, replayed by `probeFindConnect`. */
  final case class RoundInput(source: SourceNode, payload: Array[(Double, Double)])
}
