package repro

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Synthetic spatial data for the DITS reproduction as Spark DataFrames
  * of points. Generation is delegated to the deterministic core generator
  * ([[repro.core.SynthSpatial]]) so the pure-Scala algorithms, the Spark
  * dataflow, and the DuckDB oracle all see byte-identical data.
  */
object SynthData {

  /** Points of one synthetic spatial data source:
    * `(source_id INT, dataset_id INT, x DOUBLE, y DOUBLE)`.
    * Dataset generation is distributed: each task generates its own
    * datasets from the (spec, id, seed) triple.
    */
  def spatialSource(spark: SparkSession, spec: repro.core.SynthSpatial.SourceSpec,
                    seed: Long = 42L): DataFrame = {
    import spark.implicits._
    spark.range(spec.nDatasets)
      .flatMap { id =>
        repro.core.SynthSpatial.dataset(spec, id.toInt, seed).points
          .map(p => (spec.sourceId, id.toInt, p.x, p.y))
      }
      .toDF("source_id", "dataset_id", "x", "y")
  }

  /** Union of several sources' points. */
  def spatialSources(spark: SparkSession,
                     specs: Seq[repro.core.SynthSpatial.SourceSpec],
                     seed: Long = 42L): DataFrame =
    specs.map(spatialSource(spark, _, seed)).reduce(_ unionAll _)
}
