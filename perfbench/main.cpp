// perfbench_runner — runs one workload of the repository benchmark and
// prints its metrics; the last line of stdout is the result object.
//
//   perfbench_runner --workload <harden-flow|validate-ladder>
//                    --seed <n> --seconds <s> --trace <0|1> [--source <id>]
//                    [--spec <BENCHMARK.json>]
//
// Exit code 0 only when every output check passed.
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "support/io.hpp"

namespace {

perfbench::Options parseArgs(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--source") {
      opt.source = value;
    } else if (flag == "--spec") {
      opt.spec = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1 || opt.workload.empty() || opt.seconds <= 0) {
    throw std::invalid_argument(
        "usage: perfbench_runner --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--source <id>] [--spec <BENCHMARK.json>]");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  rrsn::io::ignoreSigpipe();
  perfbench::Options opt;
  try {
    opt = parseArgs(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  perfbench::Report report;
  try {
    if (opt.workload == "harden-flow") {
      perfbench::runHardenFlow(opt, report);
    } else if (opt.workload == "validate-ladder") {
      perfbench::runValidateLadder(opt, report);
    } else {
      std::cerr << "unknown workload: " << opt.workload << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    report.fail(std::string("workload aborted: ") + e.what());
    report.attempt(false);
  }
  report.print(opt);
  return report.correct() ? 0 : 1;
}
