package repro.perfbench

import java.io.File
import repro.core.baselines.{BruteForce, RTreeIndex, StandardGreedy, Sts3Index}
import repro.core.dits.{DatasetNode, DitsLocal, OverlapHit, OverlapSearch}
import repro.core.SynthSpatial
import repro.multisource.{DataCenter, Distribution, SourceNode}
import scala.collection.mutable
import scala.util.Random

/** One run's settings, from the command line. */
final case class Config(workload: String, seed: Long, seconds: Int, trace: Boolean, outDir: File)

/** A named workload. `run` measures it and returns the metrics of the
  * run's mode (see [[Metrics]]); every answer it gets is checked, and
  * counted, in `out`.
  */
trait Workload {
  def name: String
  def run(cfg: Config, out: Outcomes): Map[String, Double]
}

object Workload {
  val all: Seq[Workload] = Seq(OjspPaper, MixedRw)

  /** Set-up is repeated this many times per run and its median reported. */
  val SetupReps = 3

  /** A run never measures longer than this, whatever `minOps` asks. */
  val MaxMeasureSeconds = 60.0

  /** Runs `op(0)`, `op(1)`, … back to back (one closed-loop client) for
    * `seconds`, and past them until `minOps` operations have run, moving
    * from CPU to CPU between operations (see [[CpuRotation]]).
    */
  def closedLoop(seconds: Double, minOps: Int = 1)(op: Int => Unit): Int = {
    Inputs.phase(s"measuring for $seconds s")
    val cpus = new CpuRotation
    val t0 = System.nanoTime()
    def elapsed = (System.nanoTime() - t0) / 1e9
    var i = 0
    try while (elapsed < seconds || (i < minOps && elapsed < MaxMeasureSeconds)) { cpus.tick(); op(i); i += 1 }
    finally cpus.release()
    i
  }

  /** The traced run's two halves: `untraced`, then `traced`, each for half
    * of `seconds`. Returns the operations the traced half ran.
    */
  def halves(seconds: Int)(untraced: Int => Unit)(traced: Int => Unit): Int = {
    closedLoop(seconds / 2.0)(untraced)
    closedLoop(seconds / 2.0)(traced)
  }

  /** Times one call, hands its milliseconds to `record`, and checks its
    * answer outside the timing: at once, or with `defer` after the
    * measured window (see [[Outcomes.runDeferred]]).
    */
  def timedCheck[A](out: Outcomes, record: Double => Unit, what: => String, defer: Boolean = true)
                   (call: => A)(check: A => Boolean): Unit = {
    def timed(): A = {
      val t0 = System.nanoTime()
      val a = call
      record((System.nanoTime() - t0) / 1e6)
      a
    }
    if (defer) out.runDeferred(what) { val a = timed(); () => check(a) }
    else out.run(what)(check(timed()))
  }

  /** The deferred checks of the run so far, after its measured window. */
  def check(out: Outcomes): Unit = {
    Inputs.phase("checking answers")
    out.checkDeferred()
  }

  /** Discards a warm-up operation's time. */
  val ignore: Double => Unit = _ => ()

  /** Set-up, timed: runs `build` [[SetupReps]] times, letting each result
    * go before the next build. Returns the last result, each build's
    * seconds, and the heap in MB the last result retains after a full
    * collection (raw points, generated before, are not counted).
    */
  def setUp[A](build: => A): (A, Seq[Double], Double) = {
    Inputs.phase("set-up")
    val before = Inputs.usedHeapMb()
    var last: Option[A] = None
    val secs = (1 to SetupReps).map { _ =>
      last = None
      val (a, s) = Inputs.timed(build)
      last = Some(a)
      s
    }
    (last.get, secs, Inputs.usedHeapMb() - before)
  }

  /** Per-build means of the set-up spans' self times. */
  def setupLayers(tr: Tracer): Map[String, Double] = {
    val self = tr.selfNanosByName
    def mean(span: String, scale: Double) = self.getOrElse(span, 0L) / scale / SetupReps
    Map("core.cellify_s" -> mean("core.cellify", 1e9),
        "dits.local.build_s" -> mean("dits.local.build", 1e9),
        "dits.global.build_ms" -> mean("dits.global.build", 1e6))
  }

  /** The end-to-end metrics: set-up, heap, and the percentiles and rate
    * of the operations' best times.
    */
  def endToEnd(setupS: Seq[Double], heapMb: Double, ops: BestTimes): Map[String, Double] = {
    Inputs.phase(s"${ops.samples} timings of ${ops.count} distinct operations; the highest percentile " +
      s"with ${Stats.MinTail} beyond it is " +
      Stats.highestSupported(ops.count).fold("none")(p => "p" + p.toString.stripSuffix(".0")))
    Map(
      "setup_s" -> Stats.median(setupS),
      "heap_mb" -> heapMb,
      "op_p50_ms" -> ops.percentile(50),
      "op_p90_ms" -> ops.percentile(90),
      "ops_per_s" -> ops.count / (ops.total / 1e3),
    )
  }

  /** Per-query means of the traced window's layer self times, in ms. */
  def layerTimes(tr: Tracer, queries: Int, names: (String, String)*): Map[String, Double] = {
    val self = tr.selfNanosByName
    names.map { case (span, metric) => metric -> self.getOrElse(span, 0L) / 1e6 / queries }.toMap
  }

  /** The traced run's accounting: traced and untraced time per operation.
    * The traced time is the sum of the layer self times in each operation.
    */
  def overhead(untraced: Latencies, tr: Tracer, opSpans: Set[String]): Map[String, Double] = {
    val ops = tr.recorded.filter(s => s.parent < 0 && opSpans(s.name))
    val tracedMs = ops.map(_.nanos).sum / 1e6 / ops.length
    val untracedMs = untraced.total / untraced.count
    Map("trace.untraced_op_ms" -> untracedMs, "trace.traced_op_ms" -> tracedMs,
        "trace.overhead_ms" -> (tracedMs - untracedMs))
  }

  def treeShape(indexes: Seq[DitsLocal]): Map[String, Double] = Map(
    "dits.local.nodes" -> indexes.map(_.nodeCount.toDouble).sum,
    "dits.local.leaves" -> indexes.map(ix => DitsLocal.leaves(ix.root).length.toDouble).sum,
    "dits.local.postings" -> indexes.map(_.postingEntries.toDouble).sum,
  )

  def ratio(num: Double, den: Double): Double = if (den == 0) 0.0 else num / den

  def writeSpans(cfg: Config, tr: Tracer, part: String = ""): Unit =
    if (tr.enabled) tr.write(new File(cfg.outDir, s"spans-${cfg.workload}$part-seed${cfg.seed}.jsonl"))
}

/** The five paper sources behind one data center, as set up: cell sets,
  * one `SourceNode` (DITS-L) per source, and the `DataCenter` (DITS-G).
  */
final case class MultiSource(cells: IndexedSeq[IndexedSeq[(Int, Array[Long])]],
                             nodes: IndexedSeq[SourceNode], center: DataCenter)

object MultiSource {
  def build(sources: IndexedSeq[Inputs.Source], tr: Tracer): MultiSource = {
    val cells = tr.span("core.cellify") { sources.map(Inputs.cellify) }
    val nodes = sources.zip(cells).map { case (s, cs) =>
      tr.span("dits.local.build") { new SourceNode(s.spec.sourceId, Inputs.grid, cs, Inputs.Capacity) }
    }
    val center = tr.span("dits.global.build") { new DataCenter(nodes) }
    MultiSource(cells, nodes, center)
  }
}

/** OJSP through `DataCenter.overlapSearch` (Clipped) at the paper's scale.
  * Its traced run also runs [[CjspPhase]] and the reference indexes.
  */
object OjspPaper extends Workload {
  val name = "ojsp-paper"
  /** Distinct queries per run: enough that the seed moves the median by
    * only a few per cent; a run cycles through them several times.
    */
  val Queries = 600
  val WarmUp = 200

  def run(cfg: Config, out: Outcomes): Map[String, Double] = {
    val setupTracer = new Tracer(cfg.trace)
    val sources = Inputs.rawSources(1.0)
    val (built, setupS, heapMb) = Workload.setUp(MultiSource.build(sources, setupTracer))
    val setupLayers = Workload.setupLayers(setupTracer)
    val pool = Inputs.pool(sources, built.cells)
    val queries = Inputs.sampleQueries(pool, Queries, new Random(cfg.seed))
    lazy val expected = Inputs.parMap(queries)(q => BruteForce.overlapTopK(pool, q.cells, Inputs.K))
    Inputs.phase("warm-up")

    def real(i: Int, record: Double => Unit): Unit = {
      val q = queries(i % queries.length)
      Workload.timedCheck(out, record, s"OJSP query ${q.pooledId}") {
        built.center.overlapSearch(q.lonLat, Inputs.K, Distribution.Clipped)
      } { case (hits, _) =>
        val pooled = hits.map(h => OverlapHit(Inputs.pooledId(h.sourceId, h.datasetId), h.overlap))
        Checks.ojsp(pooled, expected(i % queries.length), q.cells.length, Inputs.K)
      }
    }
    (0 until WarmUp).foreach(real(_, Workload.ignore)) // warm-up, checked

    if (!cfg.trace) {
      val best = new BestTimes
      Workload.closedLoop(cfg.seconds, minOps = queries.length)(i => real(i, best.record(i % queries.length, _)))
      Workload.check(out)
      Workload.endToEnd(setupS, heapMb, best)
    } else {
      // Counts and bytes: one pass over the warm-up queries, so they repeat
      // exactly.
      val counts = new Tracer(true)
      val countPass = new TracedCenter(built.center, built.nodes, counts)
      var bytes = 0L
      (0 until WarmUp).foreach { i =>
        val q = queries(i)
        out.runDeferred(s"OJSP query ${q.pooledId}") {
          val (hits, comm) = built.center.overlapSearch(q.lonLat, Inputs.K, Distribution.Clipped)
          bytes += comm.total
          val traced = countPass.overlapSearch(q.lonLat, Inputs.K)
          () => Checks.ojsp(traced, expected(i), q.cells.length, Inputs.K) &&
            hits.map(h => Inputs.pooledId(h.sourceId, h.datasetId)) == expected(i).map(_.id)
        }
      }
      val n = WarmUp.toDouble
      // Times: untraced and traced halves of the window.
      val untraced = new Latencies
      val tr = new Tracer(true)
      val traced = new TracedCenter(built.center, built.nodes, tr)
      val tracedQueries = Workload.halves(cfg.seconds)(real(_, untraced += _)) { i =>
        val q = queries(i % queries.length)
        tr.inQuery(i) {
          out.runDeferred(s"traced OJSP query ${q.pooledId}") {
            val hits = traced.overlapSearch(q.lonLat, Inputs.K)
            () => Checks.ojsp(hits, expected(i % queries.length), q.cells.length, Inputs.K)
          }
        }
      }
      Workload.check(out)
      Workload.writeSpans(cfg, tr)
      setupLayers ++ Workload.treeShape(built.nodes.map(_.index)) ++
        Workload.layerTimes(tr, tracedQueries,
          "dits.global.route" -> "dits.global.route_ms",
          "core.regrid" -> "core.regrid_ms",
          "dits.overlap.search" -> "dits.overlap.search_ms",
          "multisource.query" -> "multisource.coordinator_self_ms") ++
        Workload.overhead(untraced, tr, Set("multisource.query")) ++
        baselines(pool, queries.take(WarmUp), expected, out) ++ CjspPhase.run(cfg, out) ++ Map(
          "dits.overlap.p99_ms" -> Stats.percentile(tr.durationsMs("dits.overlap.search").toArray.sorted, 99),
          "dits.global.sources_routed" -> counts.counter("dits.global.sources_routed") / n,
          "dits.global.route_yield" -> Workload.ratio(counts.counter("dits.global.sources_with_hits"),
                                                      counts.counter("dits.global.sources_routed")),
          "multisource.payload_cells" -> counts.counter("multisource.payload_cells") / n,
          "multisource.kb_per_query" -> bytes / 1e3 / n,
          "dits.overlap.calls_per_query" -> counts.counter("dits.overlap.calls") / n,
          "dits.overlap.hit_yield" -> Workload.ratio(counts.counter("dits.overlap.hits_kept"),
                                                     counts.counter("dits.overlap.hits_returned")))
    }
  }

  /** The reference indexes on the same queries over the pooled data: ms
    * per query over one pass after a warm-up pass, answers checked.
    */
  private def baselines(pool: IndexedSeq[(Int, Array[Long])], queries: IndexedSeq[Inputs.Query],
                        expected: IndexedSeq[Seq[OverlapHit]], out: Outcomes): Map[String, Double] = {
    def perQuery(name: String, search: Array[Long] => Seq[OverlapHit]): Double = {
      val lat = new Latencies
      for (pass <- 1 to 2; i <- queries.indices) {
        val q = queries(i)
        val record = if (pass == 1) Workload.ignore else lat += (_: Double)
        Workload.timedCheck(out, record, s"$name query ${q.pooledId}", defer = false)(search(q.cells)) {
          Checks.ojsp(_, expected(i), q.cells.length, Inputs.K)
        }
      }
      lat.total / lat.count
    }
    Inputs.phase("baselines")
    val sts3 = Sts3Index.build(pool)
    val sts3Ms = perQuery("STS3", sts3.overlapTopK(_, Inputs.K))
    val rtree = RTreeIndex.build(pool, Inputs.Capacity)
    val rtreeMs = perQuery("R-tree", rtree.overlapTopK(_, Inputs.K))
    val pooled = DitsLocal.build(pool, Inputs.Capacity)
    val pooledMs = perQuery("pooled DITS-L", OverlapSearch.search(pooled, _, Inputs.K))
    Map("core.baselines.sts3_ms" -> sts3Ms, "core.baselines.rtree_ms" -> rtreeMs,
        "dits.overlap.pooled_ms" -> pooledMs)
  }
}

/** CJSP through `DataCenter.coverageSearch` (Clipped) at scale 0.1, as a
  * phase of [[OjspPaper]]'s traced run: it gives the coverage layers'
  * metrics, and is not a workload of its own. A CJSP query takes about
  * 100 ms and allocates about half a gigabyte, so a run sees each query
  * only a few times, and on a shared host its end-to-end times moved by
  * 15–30 % between runs of the same code, more than any bound allows.
  *
  * One untraced pass over the queries gives the bytes and coverage (so
  * they repeat exactly for a seed) and warms up; one traced pass gives the
  * layer times, with `CoverageSearch.findConnected` re-run alone on each
  * round's input beside the query. Every answer is checked against
  * `StandardGreedy.sgDits` on one pooled DITS-L.
  */
object CjspPhase {
  val Scale = 0.1
  val Queries = 40

  def run(cfg: Config, out: Outcomes): Map[String, Double] = {
    Inputs.phase(s"CJSP at scale $Scale")
    val sources = Inputs.rawSources(Scale)
    val built = MultiSource.build(sources, new Tracer(false))
    val pool = Inputs.pool(sources, built.cells)
    val queries = Inputs.sampleQueries(pool, Queries, new Random(cfg.seed))
    lazy val expected = {
      val pooledIndex = DitsLocal.build(pool, Inputs.Capacity)
      Inputs.parMap(queries)(q => StandardGreedy.sgDits(pooledIndex, q.cells, Inputs.Delta, Inputs.K))
    }
    def check(i: Int, picked: Seq[Int], coverage: Int): Boolean =
      Checks.cjsp(picked, coverage, expected(i).picked, expected(i).coverage, queries(i).cells.length, Inputs.K)

    var bytes = 0L
    var coverage = 0L
    queries.indices.foreach { i =>
      out.runDeferred(s"CJSP query ${queries(i).pooledId}") {
        val (mc, comm) = built.center.coverageSearch(queries(i).lonLat, Inputs.Delta, Inputs.K, Distribution.Clipped)
        bytes += comm.total
        coverage += mc.coverage
        () => check(i, mc.picked.map { case (s, d) => Inputs.pooledId(s, d) }, mc.coverage)
      }
    }
    val tr = new Tracer(true)
    val traced = new TracedCenter(built.center, built.nodes, tr)
    queries.indices.foreach { i =>
      tr.inQuery(i) {
        var inputs = Seq.empty[TracedCenter.RoundInput]
        out.runDeferred(s"traced CJSP query ${queries(i).pooledId}") {
          val (picked, cov, in) = traced.coverageSearch(queries(i).lonLat, Inputs.Delta, Inputs.K)
          inputs = in
          () => check(i, picked, cov)
        }
        // FindConnectSet on the same round inputs, beside the query span.
        inputs.foreach(traced.probeFindConnect(_, Inputs.Delta))
      }
    }
    Workload.check(out)
    Workload.writeSpans(cfg, tr, "-cjsp")
    val n = queries.length.toDouble
    val queryMs = tr.recorded.filter(s => s.parent < 0 && s.name == "multisource.query").map(_.nanos).sum / 1e6 / n
    Workload.layerTimes(tr, queries.length,
      "multisource.source.round" -> "multisource.source.round_ms",
      "multisource.query" -> "multisource.cjsp_coordinator_self_ms",
      "dits.coverage.find_connect" -> "dits.coverage.find_connect_ms") ++ Map(
      "dits.coverage.query_ms" -> queryMs,
      "multisource.cjsp_kb_per_query" -> bytes / 1e3 / n,
      "multisource.rounds_per_query" -> tr.counter("multisource.rounds") / n,
      "dits.coverage.candidates_per_round" -> Workload.ratio(tr.counter("dits.coverage.candidates"),
                                                             tr.counter("dits.coverage.probes")),
      "dits.coverage.coverage_cells" -> coverage / n)
  }
}

/** One pooled DITS-L at the paper's scale under a closed loop of rounds of
  * ¼ insert, ¼ update, ¼ delete and ¼ OJSP read.
  *
  * A round is [[PerKind]] blocks of four operations, one of each kind in a
  * seeded order, on datasets drawn from the pool. Block b deletes dataset
  * b and inserts dataset b − 1 back, the one block b − 1 deleted (block 0
  * inserts the one the previous round's last block deleted); an insert is
  * thus of an id the index does not hold. Update b gives another dataset
  * new cells in even rounds and its own back in odd rounds; read b searches
  * with a third dataset's cells. So every second round starts from the same
  * index contents and repeats the same operations, and each operation is
  * timed many times. Reads are checked against brute force over the
  * benchmark's own live map in the first two rounds and against those
  * answers after; the index size is checked after every write.
  */
object MixedRw extends Workload {
  val name = "mixed-rw"
  /** Operations of each kind in a round. */
  val PerKind = 400
  /** Untimed rounds, one of each parity, whose reads brute force checks. */
  val WarmUpRounds = 2
  private val OpKinds = IndexedSeq("insert", "update", "delete", "read")

  def run(cfg: Config, out: Outcomes): Map[String, Double] = {
    val setupTracer = new Tracer(cfg.trace)
    val sources = Inputs.rawSources(1.0)
    val ((pool, index), setupS, heapMb) = Workload.setUp {
      val cells = setupTracer.span("core.cellify") { sources.map(Inputs.cellify) }
      val pool = Inputs.pool(sources, cells)
      (pool, setupTracer.span("dits.local.build") { DitsLocal.build(pool, Inputs.Capacity) })
    }

    val rnd = new Random(cfg.seed)
    // New cell sets for updates, from the source generators under ids no
    // source uses.
    val altCells = (0 until PerKind).map { j =>
      val src = sources(rnd.nextInt(sources.length))
      Inputs.grid.cellSet(SynthSpatial.dataset(src.spec, src.spec.nDatasets + j, cfg.seed).points)
    }
    val drawn = rnd.shuffle(pool.indices.toIndexedSeq).take(2 * PerKind).map(pool(_))
    val (deleted, updated) = drawn.splitAt(PerKind)
    val drawnIds = drawn.map(_._1).toSet
    val reads = Inputs.sampleQueries(pool.filterNot(d => drawnIds(d._1)), PerKind, rnd).map(_.cells)
    val plan = (0 until PerKind).flatMap(b => rnd.shuffle(OpKinds).map(_ -> b))

    val live = mutable.HashMap.from(pool)
    val expected = new Array[Seq[OverlapHit]](2 * PerKind)
    def sizeOk(): Boolean = index.size == live.size
    // Block 0 inserts the last deleted dataset, deleted before the first
    // round as if by a round before it.
    index.delete(deleted.last._1)
    live -= deleted.last._1

    var step = 0
    /** The next operation of the rounds. `record` gets its kind, its key
      * (its position in the round) and its time.
      */
    def op(tr: Tracer, record: (String, Int, Double) => Unit): Unit = {
      val round = step / plan.length
      val pos = step % plan.length
      step += 1
      val (kind, b) = plan(pos)
      val parity = round % 2
      // Checked at once: a read's oracle is the live map of that moment.
      def timed[A](span: String)(call: => A)(check: A => Boolean): Unit =
        Workload.timedCheck(out, record(kind, pos, _), kind, defer = false)(
          tr.span(span)(call))(check)
      kind match {
        case "insert" =>
          val (id, cells) = deleted((b + PerKind - 1) % PerKind)
          timed("dits.local.insert")(index.insert(DatasetNode(id, cells))) { _ =>
            live(id) = cells; sizeOk()
          }
        case "update" =>
          val id = updated(b)._1
          val cells = if (parity == 0) altCells(b) else updated(b)._2
          timed("dits.local.update")(index.update(DatasetNode(id, cells))) { _ =>
            live(id) = cells; sizeOk()
          }
        case "delete" =>
          val id = deleted(b)._1
          timed("dits.local.delete")(index.delete(id)) { _ => live -= id; sizeOk() }
        case "read" =>
          val q = reads(b)
          val key = parity * PerKind + b
          timed("dits.overlap.search")(OverlapSearch.search(index, q, Inputs.K)) { hits =>
            if (round < WarmUpRounds) expected(key) = BruteForce.overlapTopK(live, q, Inputs.K)
            Checks.ojsp(hits, expected(key), q.length, Inputs.K)
          }
      }
    }
    val untraced = new Tracer(false)

    Inputs.phase("warm-up")
    (1 to WarmUpRounds * plan.length).foreach(_ => op(untraced, (_, _, _) => ())) // checked
    if (!cfg.trace) {
      val best = new BestTimes
      Workload.closedLoop(cfg.seconds, minOps = 2 * plan.length)(_ => op(untraced, (_, key, ms) => best.record(key, ms)))
      Workload.endToEnd(setupS, heapMb, best)
    } else {
      val all = new Latencies
      val lat = OpKinds.map(_ -> new Latencies).toMap
      val tr = new Tracer(true)
      Workload.halves(cfg.seconds)(_ => op(untraced, (_, _, ms) => all += ms)) { i =>
        tr.inQuery(i)(op(tr, (kind, _, ms) => lat(kind) += ms))
      }
      Workload.writeSpans(cfg, tr)
      val self = tr.selfNanosByName
      def perOp(span: String, kind: String) = self.getOrElse(span, 0L) / 1e6 / math.max(1, lat(kind).count)
      Workload.setupLayers(setupTracer) ++ Map(
        "dits.local.insert_ms" -> perOp("dits.local.insert", "insert"),
        "dits.local.update_ms" -> perOp("dits.local.update", "update"),
        "dits.local.delete_ms" -> perOp("dits.local.delete", "delete"),
        "dits.overlap.search_ms" -> perOp("dits.overlap.search", "read"),
        "dits.overlap.p99_ms" -> lat("read").percentile(99),
      ) ++ Workload.treeShape(Seq(index)) ++
        Workload.overhead(all, tr, Set("dits.local.insert", "dits.local.update",
                                       "dits.local.delete", "dits.overlap.search"))
    }
  }
}
