// Access-pattern compatibility (Sec. II).
//
// "The resulting RSNs must follow the initial RSN topology...  be able to
// use the same access patterns as the initial unhardened RSN."
//
// Selective hardening replaces cells with hardened variants but never
// rewires anything, so every retargeted access recorded on the initial
// network replays bit-identically on the robust one.  This example
// records a read and a write access for every instrument of a tree
// benchmark and replays the full pattern log on the (topologically
// identical) hardened network.
#include <iostream>

#include "benchgen/registry.hpp"
#include "sim/retarget.hpp"
#include "support/table.hpp"

int main() {
  using namespace rrsn;

  const rsn::Network original = benchgen::buildBenchmark("TreeUnbalanced");
  const rsn::Network robust = benchgen::buildBenchmark("TreeUnbalanced");
  const auto originalFlat = rsn::FlatNetwork::lower(original);
  std::cout << "network TreeUnbalanced: " << original.segments().size()
            << " segments, " << original.muxes().size() << " muxes, "
            << original.instruments().size() << " instruments\n\n";

  TextTable table({"instrument", "read rounds", "write rounds",
                   "pattern bits", "replay on robust RSN"});
  table.setAlign(0, TextTable::Align::Left);
  table.setAlign(4, TextTable::Align::Left);

  std::size_t totalPatterns = 0;
  std::size_t okReplays = 0;
  for (rsn::InstrumentId i = 0; i < original.instruments().size(); ++i) {
    const auto segLen =
        original.segment(original.instrument(i).segment).length;

    // Record a read access on the initial network.
    sim::ScanSimulator recordSim(original);
    recordSim.setInstrumentValue(i, sim::accessMarker(segLen));
    sim::Retargeter recorder(recordSim, originalFlat);
    const auto read = recorder.readInstrument(i);

    // Record a write access (fresh simulator: patterns start from reset).
    sim::ScanSimulator writeSim(original);
    sim::Retargeter writer(writeSim, originalFlat);
    const auto write = writer.writeInstrument(i, sim::accessMarker(segLen));

    if (!read.success || !write.success) {
      std::cerr << "unexpected: instrument " << i
                << " inaccessible on the fault-free network\n";
      return 1;
    }

    // Replay both recipes on the robust network.
    sim::ScanSimulator replayRead(robust);
    replayRead.setInstrumentValue(i, sim::accessMarker(segLen));
    const bool readOk = sim::replayPatterns(replayRead, read);
    sim::ScanSimulator replayWrite(robust);
    const bool writeOk = sim::replayPatterns(replayWrite, write);

    std::size_t bits = 0;
    for (const auto& p : read.patterns) bits += p.shiftIn.size();
    for (const auto& p : write.patterns) bits += p.shiftIn.size();
    totalPatterns += read.patterns.size() + write.patterns.size();
    okReplays += readOk && writeOk;

    if (i < 8 || !(readOk && writeOk)) {
      table.addRow({original.instrument(i).name,
                    std::to_string(read.rounds), std::to_string(write.rounds),
                    std::to_string(bits),
                    readOk && writeOk ? "identical" : "DIVERGED"});
    }
  }

  std::cout << table << "  ... (first 8 instruments shown)\n\n";
  std::cout << "replayed " << totalPatterns << " scan patterns; "
            << okReplays << "/" << original.instruments().size()
            << " instruments with bit-identical replay\n";
  return okReplays == original.instruments().size() ? 0 : 1;
}
