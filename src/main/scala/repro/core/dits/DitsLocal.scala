package repro.core.dits

import repro.core.MBR
import scala.collection.mutable

/** DITS-L — the per-data-source local index (Section V-A, Algorithm 1).
  *
  * A top-down median-split tree over dataset nodes: at each step the axis
  * with the widest MBR extent is chosen and the dataset nodes are split at
  * the median of their pivots on that axis. Recursion stops when ≤ f
  * dataset nodes remain, producing a leaf with an inverted index.
  *
  * The structure is mutable (bidirectional parent pointers) to support the
  * Appendix C insert/update/delete operations without a full rebuild. An
  * id → node map finds a dataset's node, and through its parent pointer its
  * leaf, in O(1); splits and collapses move nodes between leaves but keep
  * the nodes themselves, so the map stays current.
  */
final class DitsLocal private (var root: TreeNode, val capacity: Int)
    extends Serializable {

  private val byId: mutable.HashMap[Int, DatasetNode] =
    mutable.HashMap.from(root.datasets.map(d => d.id -> d))
  require(byId.size == root.size, "dataset ids must be unique")

  /** All dataset nodes currently indexed. */
  def datasets: Iterator[DatasetNode] = root.datasets
  def size: Int = byId.size

  /** Number of tree nodes (internal + leaf) — the Fig. 8 memory proxy. */
  def nodeCount: Int = {
    def go(n: TreeNode): Int = n match {
      case _: Leaf     => 1
      case i: Internal => 1 + go(i.left) + go(i.right)
    }
    go(root)
  }

  /** Total posting-list entries across all leaves. */
  def postingEntries: Long = {
    def go(n: TreeNode): Long = n match {
      case l: Leaf     => l.postings.length.toLong
      case i: Internal => go(i.left) + go(i.right)
    }
    go(root)
  }

  /** Appendix C insert: descend to the leaf whose pivot is nearest, add
    * the dataset node, split the leaf if it overflows (else reindex it), and
    * refresh MBRs up to the root. An id already indexed is rejected.
    */
  def insert(d: DatasetNode): Unit = {
    if (byId.contains(d.id))
      throw new IllegalArgumentException(s"dataset ${d.id} already indexed")
    byId(d.id) = d
    var n = root
    while (!n.isLeaf) {
      val i = n.asInstanceOf[Internal]
      n = if (d.pivot.dist(i.left.pivot) <= d.pivot.dist(i.right.pivot)) i.left else i.right
    }
    val leaf = n.asInstanceOf[Leaf]
    leaf.attach(d)
    leaf.rect = leaf.rect.union(d.rect)
    if (leaf.children.length > capacity) splitLeaf(leaf) else leaf.reindex()
    refreshUp(leaf.parent)
  }

  /** Appendix C update: replace the node with id `d.id` by `d` (delete +
    * re-insert keeps MBRs exact).
    */
  def update(d: DatasetNode): Unit = { delete(d.id); insert(d) }

  /** Appendix C delete: remove the dataset node from its leaf and refresh
    * ancestor MBRs.
    */
  def delete(id: Int): Unit = {
    val d = byId.remove(id)
      .getOrElse(throw new NoSuchElementException(s"dataset $id not indexed"))
    val leaf = d.parent
    leaf.detach(d)
    leaf.reindex()
    if (leaf.children.nonEmpty) {
      leaf.rect = leaf.children.map(_.rect).reduce(_ union _)
      refreshUp(leaf.parent)
    } else collapse(leaf)
  }

  private def splitLeaf(leaf: Leaf): Unit = {
    val sub = DitsLocal.buildNode(leaf.children.toArray, capacity)
    replaceChild(leaf, sub)
  }

  private def collapse(leaf: Leaf): Unit = {
    val p = leaf.parent
    if (p == null) () // empty index keeps its (now stale) empty root leaf
    else {
      val sibling = if (p.left eq leaf) p.right else p.left
      replaceChild(p, sibling)
    }
  }

  private def replaceChild(old: TreeNode, nw: TreeNode): Unit = {
    val p = old.parent
    nw.parent = p
    if (p == null) root = nw
    else {
      if (p.left eq old) p.left = nw else p.right = nw
      refreshUp(p)
    }
  }

  private def refreshUp(from: Internal): Unit = {
    var p = from
    while (p != null) {
      p.rect = p.left.rect.union(p.right.rect)
      p = p.parent
    }
  }
}

object DitsLocal {

  /** Algorithm 1: build the local index over `nodes` with leaf capacity f. */
  def build(nodes: Array[DatasetNode], capacity: Int): DitsLocal = {
    require(nodes.nonEmpty, "cannot index an empty data source")
    new DitsLocal(buildNode(nodes, capacity), capacity)
  }

  def build(datasets: Iterable[(Int, Array[Long])], capacity: Int): DitsLocal =
    build(datasets.map { case (id, cells) => DatasetNode(id, cells) }.toArray, capacity)

  private[dits] def buildNode(nodes: Array[DatasetNode], capacity: Int): TreeNode = {
    val rect = nodes.map(_.rect).reduce(_ union _)
    if (nodes.length <= capacity) {
      val leaf = new Leaf(rect, capacity)
      nodes.foreach(leaf.attach)
      leaf.reindex()
      leaf
    } else {
      // Widest dimension of the enclosing MBR (Alg. 1 lines 11–14).
      val d = if (rect.width(0) >= rect.width(1)) 0 else 1
      val keyed = nodes.sortBy(n => if (d == 0) n.pivot.x else n.pivot.y)
      // Median split on pivot coordinate (Alg. 1 lines 15–19); index-based
      // halving also handles duplicate pivots, guaranteeing progress.
      val mid = keyed.length / 2
      val left  = buildNode(keyed.take(mid), capacity)
      val right = buildNode(keyed.drop(mid), capacity)
      val in = new Internal(rect, left, right)
      left.parent = in; right.parent = in
      in
    }
  }

  /** Collect all leaves under `n` (test/diagnostic helper). */
  def leaves(n: TreeNode): Seq[Leaf] = n match {
    case l: Leaf     => Seq(l)
    case i: Internal => leaves(i.left) ++ leaves(i.right)
  }
}
