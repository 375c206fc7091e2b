package repro.core.dits

import repro.core.{CellSet, MBR, Point}
import scala.collection.mutable

/** Dataset node (Def. 12): one spatial dataset summarised by its MBR in
  * cell-coordinate space, pivot, radius, and its cell-based set.
  */
final class DatasetNode(
    val id: Int,
    var rect: MBR,
    var cells: Array[Long],
) extends Serializable {
  var parent: Leaf = _
  def pivot: Point  = rect.pivot
  def radius: Double = rect.radius
  /** Cell grid coordinates decoded once for repeated connectivity probes. */
  @transient lazy val packedXY: Array[Long] = CellSet.packXY(cells)
  override def toString: String = s"DatasetNode($id, ${cells.length} cells)"
}

object DatasetNode {
  /** Build a dataset node from a cell-based dataset. */
  def apply(id: Int, cells: Array[Long]): DatasetNode = {
    val cs = CellSet.of(cells)
    new DatasetNode(id, CellSet.mbr(cs), cs)
  }
}

/** A node of the DITS-L tree: either an internal node with two children
  * (Def. 13) or a leaf holding ≤ f dataset nodes plus an inverted index
  * (Def. 14). Bidirectional parent pointers support Appendix C updates.
  */
sealed trait TreeNode extends Serializable {
  var rect: MBR
  var parent: Internal = _
  def pivot: Point   = rect.pivot
  def radius: Double = rect.radius
  def isLeaf: Boolean
  /** All dataset nodes in this subtree. */
  def datasets: Iterator[DatasetNode] = this match {
    case l: Leaf     => l.children.iterator
    case i: Internal => i.left.datasets ++ i.right.datasets
  }
  def size: Int = this match {
    case l: Leaf     => l.children.length
    case i: Internal => i.left.size + i.right.size
  }
}

final class Internal(var rect: MBR, var left: TreeNode, var right: TreeNode)
    extends TreeNode {
  def isLeaf = false
}

/** Leaf node: up to f child dataset nodes plus their inverted index
  * (Def. 14), stored in CSR (compressed sparse row) form:
  *
  *  - `keys`: every cell of the children, sorted and distinct;
  *  - `offsets`: `keys(j)`'s posting run is `postings(offsets(j) until
  *    offsets(j + 1))`, and `offsets.last == postings.length`;
  *  - `postings`: positions into `children` (ascending within a run) of the
  *    children holding each key.
  *
  * OverlapSearch merges a sorted query against `keys` once for the Lemma 2
  * ub and the Lemma 3 lb (a run of length `children.length` is a cell every
  * child holds), and once more to count each child's exact overlap.
  * [[reindex]] rebuilds the three arrays from `children` in one k-way merge;
  * DitsLocal calls it once per built leaf and once per Appendix C change.
  */
final class Leaf(var rect: MBR, val capacity: Int) extends TreeNode {
  def isLeaf = true
  val children: mutable.ArrayBuffer[DatasetNode] = mutable.ArrayBuffer.empty
  private[dits] var keys: Array[Long] = Array.emptyLongArray
  private[dits] var offsets: Array[Int] = Array(0)
  private[dits] var postings: Array[Int] = Array.emptyIntArray

  /** Add a child without reindexing: the caller reindexes or splits next. */
  private[dits] def attach(d: DatasetNode): Unit = {
    children += d
    d.parent = this
  }

  /** Remove a child without reindexing. */
  private[dits] def detach(d: DatasetNode): Unit = {
    val ix = children.indexWhere(_ eq d)
    require(ix >= 0, s"dataset ${d.id} not in leaf")
    children.remove(ix)
  }

  /** Rebuild `keys`, `offsets` and `postings` from `children` by merging
    * the children's sorted cell arrays.
    */
  private[dits] def reindex(): Unit = {
    val f = children.length
    val cells = Array.tabulate(f)(children(_).cells)
    val at = new Array[Int](f)
    val total = cells.foldLeft(0)(_ + _.length)
    val ks = new Array[Long](total)
    val offs = new Array[Int](total + 1)
    val post = new Array[Int](total)
    var nk = 0; var np = 0
    var more = true
    while (more) {
      var min = 0L; more = false
      var c = 0
      while (c < f) {
        if (at(c) < cells(c).length && (!more || cells(c)(at(c)) < min)) {
          min = cells(c)(at(c)); more = true
        }
        c += 1
      }
      if (more) {
        ks(nk) = min; offs(nk) = np; nk += 1
        c = 0
        while (c < f) {
          if (at(c) < cells(c).length && cells(c)(at(c)) == min) {
            post(np) = c; np += 1; at(c) += 1
          }
          c += 1
        }
      }
    }
    offs(nk) = np
    keys = java.util.Arrays.copyOf(ks, nk)
    offsets = java.util.Arrays.copyOf(offs, nk + 1)
    postings = post
  }
}
