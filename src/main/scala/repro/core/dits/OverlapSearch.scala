package repro.core.dits

import repro.core.CellSet
import scala.collection.mutable

/** OJSP result entry: dataset id and its exact `|S_Q ∩ S_D|`. */
final case class OverlapHit(id: Int, overlap: Int)

/** Algorithm 2 — OverlapSearch: branch-and-bound over DITS-L with
  * leaf-level intersection bounds (Lemmas 2–3), followed by exact
  * verification through the leaves' CSR inverted indexes.
  *
  * Filter step: internal nodes whose MBR misses the query MBR are pruned
  * outright (their intersection is 0). For each leaf the query MBR hits,
  * one galloping merge of the sorted query against the leaf's sorted
  * `keys`, limited to `[keys.head, keys.last]`, gives both bounds: the
  * upper bound counts the query cells among the keys (Lemma 2), the lower
  * bound those whose posting run holds every child (Lemma 3). Every child
  * of a leaf overlaps the query in at least the leaf's lb cells, so the
  * k-th largest lb, counting each leaf's lb once per child, bounds the k-th
  * best overlap from below; a leaf whose ub is below it is never verified.
  * The test is strict, so a leaf that can tie the k-th overlap still
  * reaches the smaller-id tie-break.
  *
  * Verification step: the remaining leaves are verified in descending ub
  * order (a sort of packed `ub << 32 | index` longs), which tightens the
  * top-k heap early; verification stops at the first leaf whose ub is
  * below the current k-th best. Verifying a leaf repeats the merge and adds
  * each shared key's posting run into a reused `Int` counter per child.
  */
object OverlapSearch {

  /** Lemma 2: upper bound of `|S_Q ∩ S_D|` over all datasets in `leaf`. */
  def upperBound(leaf: Leaf, query: Array[Long]): Int = (merge(leaf, query, null) >>> 32).toInt

  /** Lemma 3: lower bound — query cells contained by *every* child of the
    * leaf, so every child dataset has at least this overlap.
    */
  def lowerBound(leaf: Leaf, query: Array[Long]): Int = merge(leaf, query, null).toInt

  /** Exact overlap, by dataset id, of each child of `leaf` that shares a
    * cell with the query.
    */
  def verifyLeaf(leaf: Leaf, query: Array[Long]): Map[Int, Int] = {
    val counts = new Array[Int](leaf.children.length)
    merge(leaf, query, counts)
    leaf.children.indices.filter(counts(_) > 0).map(c => leaf.children(c).id -> counts(c)).toMap
  }

  /** The one merge of the sorted, distinct `query` with `leaf.keys`.
    * Returns `ub << 32 | lb`; when `counts` is given, also adds each shared
    * key's posting run into it (one slot per child position).
    */
  private def merge(leaf: Leaf, query: Array[Long], counts: Array[Int]): Long = {
    val keys = leaf.keys
    val n = keys.length
    if (n == 0) return 0L
    val offsets = leaf.offsets
    val postings = leaf.postings
    val full = leaf.children.length
    var i = gallop(query, 0, query.length, keys(0))
    var qEnd = gallop(query, i, query.length, keys(n - 1))
    if (qEnd < query.length && query(qEnd) == keys(n - 1)) qEnd += 1
    var j = 0; var ub = 0; var lb = 0
    while (i < qEnd && j < n) {
      val q = query(i); val key = keys(j)
      if (q == key) {
        val from = offsets(j); val until = offsets(j + 1)
        ub += 1
        if (until - from == full) lb += 1
        if (counts != null) {
          var p = from
          while (p < until) { counts(postings(p)) += 1; p += 1 }
        }
        i += 1; j += 1
      } else if (q < key) i = gallop(query, i + 1, qEnd, key)
      else j = gallop(keys, j + 1, n, q)
    }
    (ub.toLong << 32) | lb
  }

  /** First index in `a(from until until)` holding a value ≥ `x`, or
    * `until`: steps of doubling length from `from`, then binary search.
    */
  private def gallop(a: Array[Long], from: Int, until: Int, x: Long): Int = {
    if (from >= until || a(from) >= x) return from
    var lo = from // a(lo) < x
    var step = 1
    var hi = from + 1
    while (hi < until && a(hi) < x) {
      lo = hi
      step <<= 1
      hi = if (step >= until - lo) until else lo + step
    }
    // a(lo) < x, and hi == until or a(hi) ≥ x.
    while (lo + 1 < hi) {
      val mid = (lo + hi) >>> 1
      if (a(mid) < x) lo = mid else hi = mid
    }
    hi
  }

  /** Top-k datasets by exact overlap with `query` (sorted, distinct cell
    * IDs). Datasets with overlap 0 are never returned (their MBRs are
    * pruned). Ties are broken by smaller dataset id for determinism.
    */
  def search(index: DitsLocal, queryCells: Array[Long], k: Int): Seq[OverlapHit] = {
    require(k > 0, "k must be positive")
    if (queryCells.isEmpty) return Seq.empty
    val qRect = CellSet.mbr(queryCells)

    // ---- Filter: bounds of every leaf the query MBR hits. ---------------
    val leaves = mutable.ArrayBuffer.empty[Leaf]
    val bounds = mutable.ArrayBuilder.make[Long] // ub << 32 | lb per leaf
    val lbRuns = mutable.ArrayBuilder.make[Long] // lb << 32 | children
    def descend(n: TreeNode): Unit = n match {
      case l: Leaf =>
        if (l.rect.intersects(qRect)) {
          val b = merge(l, queryCells, null)
          if (b != 0L) {
            leaves += l
            bounds += b
            val lb = b.toInt
            if (lb > 0) lbRuns += (lb.toLong << 32) | l.children.length
          }
        }
      case i: Internal =>
        if (i.rect.intersects(qRect)) { descend(i.left); descend(i.right) }
    }
    descend(index.root)

    // k-th largest lb, each leaf's lb counted once per child.
    val lbs = lbRuns.result()
    java.util.Arrays.sort(lbs)
    var kthLb = 0
    var held = 0
    var r = lbs.length - 1
    while (r >= 0 && held < k) {
      held += lbs(r).toInt
      if (held >= k) kthLb = (lbs(r) >>> 32).toInt
      r -= 1
    }

    // Alg. 2's filter-stage prune, then descending-ub order.
    val bs = bounds.result()
    val order = mutable.ArrayBuilder.make[Long]
    var c = 0
    while (c < bs.length) {
      val ub = (bs(c) >>> 32).toInt
      if (ub >= kthLb) order += (ub.toLong << 32) | c
      c += 1
    }
    val byUb = order.result()
    java.util.Arrays.sort(byUb)

    // ---- Verification in descending-ub order with a top-k min-heap. -----
    val top = new TopK(k)
    val counts = new Array[Int](index.capacity) // a leaf holds ≤ f children
    c = byUb.length - 1
    while (c >= 0 && !(top.full && (byUb(c) >>> 32).toInt < top.kth)) { // Alg. 2 line 19
      val leaf = leaves(byUb(c).toInt)
      merge(leaf, queryCells, counts)
      var ch = 0
      while (ch < leaf.children.length) {
        if (counts(ch) > 0) {
          top.offer(counts(ch), leaf.children(ch).id)
          counts(ch) = 0
        }
        ch += 1
      }
      c -= 1
    }
    top.result
  }

  /** The k best hits so far, as a binary min-heap of packed longs whose
    * order is the ranking: `overlap << 32` above an id key that is larger
    * for smaller ids. The root is the weakest hit kept.
    */
  private final class TopK(k: Int) {
    private var heap = new Array[Long](math.min(k, 64))
    private var size = 0

    private def pack(overlap: Int, id: Int): Long =
      (overlap.toLong << 32) | ((id ^ Int.MaxValue) & 0xFFFFFFFFL)

    def full: Boolean = size >= k
    /** Overlap of the weakest hit kept (meaningful once `full`). */
    def kth: Int = (heap(0) >>> 32).toInt

    def offer(overlap: Int, id: Int): Unit = {
      val h = pack(overlap, id)
      if (size < k) {
        if (size == heap.length) heap = java.util.Arrays.copyOf(heap, 2 * size)
        var i = size
        size += 1
        while (i > 0 && heap((i - 1) / 2) > h) { heap(i) = heap((i - 1) / 2); i = (i - 1) / 2 }
        heap(i) = h
      } else if (h > heap(0)) {
        var i = 0
        var done = false
        while (!done) {
          val l = 2 * i + 1
          if (l >= size) done = true
          else {
            val m = if (l + 1 < size && heap(l + 1) < heap(l)) l + 1 else l
            if (heap(m) < h) { heap(i) = heap(m); i = m } else done = true
          }
        }
        heap(i) = h
      }
    }

    /** The hits kept, best first. */
    def result: Seq[OverlapHit] = {
      val a = java.util.Arrays.copyOf(heap, size)
      java.util.Arrays.sort(a)
      a.reverseIterator.map(h => OverlapHit(h.toInt ^ Int.MaxValue, (h >>> 32).toInt)).toSeq
    }
  }
}
