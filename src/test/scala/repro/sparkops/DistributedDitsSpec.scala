package repro.sparkops

import repro.{SparkSpec, SynthData}
import repro.core.{CellSet, Grid, SynthSpatial}
import repro.core.baselines.StandardGreedy
import scala.util.Random

/** The distributed DITS operator: per-source partition indexes + driver
  * DITS-G must answer exactly like the pooled single-machine algorithms.
  */
class DistributedDitsSpec extends SparkSpec {

  private val theta = 9
  private val grid = Grid.world(theta)
  private lazy val specs = SynthSpatial.testSources(3, 20, 30)
  private lazy val cells =
    SpatialCells.toCells(SynthData.spatialSources(spark, specs), grid).cache()
  private lazy val dits = DistributedDits.build(cells, grid, capacity = 5)
  private lazy val coreDatasets: IndexedSeq[(Int, Int, Array[Long])] =
    specs.flatMap { spec =>
      SynthSpatial.cellSource(spec, grid).map { case (id, cs) => (spec.sourceId, id, cs) }
    }

  test("build produces one local index per source with full membership") {
    val bySource = dits.indexes.collect().toMap
    assert(bySource.keySet == specs.map(_.sourceId).toSet)
    specs.foreach { spec =>
      val ix = bySource(spec.sourceId)
      assert(ix.size == spec.nDatasets)
    }
  }

  test("root summaries match the built indexes") {
    assert(dits.summaries.keySet == specs.map(_.sourceId).toSet)
    dits.summaries.values.foreach { s =>
      val r = s.lonLatRect
      assert(r.minX < r.maxX && r.minY < r.maxY)
    }
  }

  for (seed <- 0 until 5) {
    test(s"distributed OJSP equals pooled brute force (seed=$seed)") {
      val rnd = new Random(seed)
      val q = coreDatasets(rnd.nextInt(coreDatasets.length))._3
      val k = 8
      val (hits, shipped) = dits.overlapTopK(q, k)
      val exp = coreDatasets
        .map { case (s, d, cs) => (s, d, CellSet.intersectionSize(cs, q)) }
        .filter(_._3 > 0)
        .sortBy { case (s, d, ov) => (-ov, s, d) }
        .take(k)
      assert(hits == exp)
      assert(shipped <= q.length.toLong * specs.length, "clipping must not inflate traffic")
    }
  }

  for (seed <- 0 until 3) {
    test(s"distributed CJSP equals pooled greedy (seed=$seed)") {
      val rnd = new Random(50 + seed)
      val q = coreDatasets(rnd.nextInt(coreDatasets.length))._3
      val delta = 3.0; val k = 5
      val (picked, cov) = dits.coverageSearch(q, delta, k)
      val pool = coreDatasets.sortBy(t => (t._1, t._2)).map { case (s, d, cs) =>
        (s * 1_000_000 + d) -> cs
      }
      val exp = StandardGreedy.sg(pool, q, delta, k)
      assert(picked.map { case (s, d) => s * 1_000_000 + d } == exp.picked)
      assert(cov == exp.coverage)
    }
  }

  test("queries far from every source ship nothing and return nothing") {
    val q = CellSet.of(Seq(Grid.interleave(1, 1))) // lon/lat ≈ (-180, -90)
    val (hits, shipped) = dits.overlapTopK(q, 5)
    assert(hits.isEmpty && shipped == 0L)
  }

  test("empty CJSP query picks nothing with coverage 0") {
    assert(dits.coverageSearch(Array.emptyLongArray, 3.0, 5) == ((Seq.empty, 0)))
  }
}
