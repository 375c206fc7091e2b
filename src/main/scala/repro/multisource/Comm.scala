package repro.multisource

/** Communication accounting for the data-center ↔ data-source protocol
  * (Section VI-A, Figs. 13–14 and 19–20).
  *
  * Costs are modelled as the payload bytes actually shipped: 8 bytes per
  * cell ID, 4 bytes per dataset id / integer count, 8 bytes per double.
  * Transmission time = bytes / bandwidth (the paper: "the transmission
  * time is inversely proportional to the network bandwidth").
  */
final class CommStats extends Serializable {
  var messages: Long = 0
  var bytesSent: Long = 0      // data center → sources
  var bytesReceived: Long = 0  // sources → data center

  def total: Long = bytesSent + bytesReceived

  def sendCells(n: Int): Unit = { messages += 1; bytesSent += 8L * n + CommStats.HeaderBytes }
  def receiveHits(n: Int): Unit = { messages += 1; bytesReceived += 8L * n + CommStats.HeaderBytes }
  def receiveCells(n: Int): Unit = { messages += 1; bytesReceived += 8L * n + CommStats.HeaderBytes }

  /** Simulated transfer time in milliseconds at `mbps` megabit/s. */
  def transferMillis(mbps: Double = CommStats.DefaultMbps): Double =
    total * 8.0 / (mbps * 1e6) * 1e3

  def +=(o: CommStats): Unit = {
    messages += o.messages; bytesSent += o.bytesSent; bytesReceived += o.bytesReceived
  }
}

object CommStats {
  /** Fixed per-message envelope (ids, lengths, request type). */
  val HeaderBytes = 24L
  /** Simulated link bandwidth for transfer-time figures. */
  val DefaultMbps = 100.0
}
