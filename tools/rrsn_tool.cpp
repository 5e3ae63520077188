// rrsn_tool — command-line driver for the robust-RSN library.
//
//   rrsn_tool info    <netlist>                  network statistics
//   rrsn_tool dot     <netlist>                  Graphviz DOT of the graph model
//   rrsn_tool tree    <netlist>                  annotated decomposition tree
//   rrsn_tool analyze <netlist> [options]        criticality report (top k)
//   rrsn_tool harden  <netlist> [options]        SPEA-2 Pareto front + plans
//   rrsn_tool access  <netlist> <instrument> [--fault F]
//                                                retarget an access, print CSU
//                                                patterns (optionally under a
//                                                fault: break:<seg> or
//                                                stuck:<mux>:<branch>)
//   rrsn_tool diagnose <netlist> --fault F       build the fault dictionary
//                                                (projected from the
//                                                certifier's verdicts) and
//                                                diagnose the injected fault
//                                                measured on the simulator
//   rrsn_tool campaign <netlist> [options]       fault-injection campaign:
//                                                simulate every (scenario,
//                                                instrument) access, classify
//                                                accessible / recovered /
//                                                reconfigured / lost and
//                                                cross-validate against the
//                                                structural oracles.  --pairs
//                                                runs simultaneous two-fault
//                                                scenarios (stratified sample
//                                                of the pair space) against the
//                                                pair-composed oracle;
//                                                --transient runs one-shot CSU
//                                                upsets (--transient-rounds
//                                                0,1,...) with a recovery
//                                                re-probe after reconfiguring.
//                                                Options: --sample N,
//                                                --sample-fraction F,
//                                                --deadline-ms N,
//                                                --checkpoint file, --batch N,
//                                                --csv file, --json file,
//                                                --max-reroutes N, --no-reroute
//                                                (= --max-reroutes 0)
//   rrsn_tool bench   <name>                     emit a Table-I benchmark as a
//                                                netlist on stdout
//   rrsn_tool certify <netlist> [options]        static robustness certifier:
//                                                fixpoint dataflow proof of
//                                                per-instrument accessibility
//                                                under every single structural
//                                                fault.  --plan f excludes the
//                                                hardened primitives from the
//                                                fault universe, --top K bounds
//                                                the itemized witness table,
//                                                --json f / --sarif f export
//                                                the verdicts.  Exit 1 when
//                                                any verdict stayed Unknown.
//   rrsn_tool lint    <netlist> [options]        static verification: run the
//                                                rrsn_lint rule registry and
//                                                print a compiler-style report
//                                                (exit 1 on error findings).
//                                                --spec f checks damage
//                                                weights, --plan f checks a
//                                                hardened-set plan, --json f /
//                                                --sarif f export the findings
//                                                (SARIF 2.1.0 for CI)
//
// Common options: --spec <file> (explicit damage weights), --seed N
// (random spec / EA seed), --generations N, --population N, --top K.
// `analyze`, `harden` and `campaign` fail fast on error-severity lint
// findings before doing any work; --no-lint skips that check.
// Every subcommand also accepts --trace <file> (Chrome trace-event JSON
// of the run, for chrome://tracing / Perfetto) and --metrics <file>
// (canonical metrics JSON); both imply profiling and print a timing
// summary to stderr.  Results are byte-identical with and without them.
// `<netlist>` of "-" reads from stdin; "example:fig1" / "example:tiny"
// resolve the built-in example networks.
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>

#include "benchgen/registry.hpp"
#include "campaign/campaign.hpp"
#include "crit/analyzer.hpp"
#include "diag/diagnosis.hpp"
#include "harden/hardening.hpp"
#include "lint/lint.hpp"
#include "moo/spea2.hpp"
#include "obs/obs.hpp"
#include "rsn/example_networks.hpp"
#include "rsn/flat.hpp"
#include "rsn/netlist_io.hpp"
#include "sim/retarget.hpp"
#include "sp/decomposition.hpp"
#include "verify/certifier.hpp"
#include "support/io.hpp"
#include "support/strings.hpp"

namespace {

using namespace rrsn;

struct Options {
  std::string command;
  std::vector<std::string> positional;
  std::optional<std::string> specFile;
  std::optional<std::string> faultText;
  std::optional<std::string> planOut;
  // lint options
  std::optional<std::string> planIn;
  std::optional<std::string> sarifOut;
  bool noLint = false;
  std::uint64_t seed = 2022;
  std::size_t generations = 300;
  std::size_t population = 100;
  std::size_t top = 10;
  // campaign options
  bool pairs = false;
  bool transientMode = false;
  std::size_t sample = 0;
  double sampleFraction = 0.0;
  std::optional<std::vector<std::uint32_t>> transientRounds;
  std::size_t deadlineMs = 0;
  std::size_t batch = 32;
  std::size_t maxReroutes = 8;
  bool noReroute = false;
  std::optional<std::string> checkpoint;
  std::optional<std::string> csvOut;
  std::optional<std::string> jsonOut;
  // observability (any subcommand)
  std::optional<std::string> traceOut;
  std::optional<std::string> metricsOut;
};

const char* usageText() {
  return
      "usage: rrsn_tool <info|dot|tree|analyze|harden|access|diagnose|"
      "campaign|bench|lint|certify> <netlist|name> [args] [--spec file] "
      "[--fault F] "
      "[--seed N] [--generations N] [--population N] [--top K] "
      "[--plan-out file] [--pairs] [--transient] [--transient-rounds list] "
      "[--sample N] [--sample-fraction F] [--deadline-ms N] "
      "[--checkpoint file] "
      "[--batch N] [--csv file] [--json file] [--max-reroutes N] "
      "[--no-reroute] [--trace file] [--metrics file] [--plan file] "
      "[--sarif file] [--no-lint]\n";
}

[[noreturn]] void usage() {
  std::cerr << usageText();
  std::exit(2);
}

Options parseArgs(int argc, char** argv) {
  Options opt;
  if (argc < 3) usage();
  opt.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    // Both "--opt value" and "--opt=value" are accepted for every
    // value-taking option.
    std::optional<std::string> inlineValue;
    if (arg.size() > 2 && arg[0] == '-' && arg[1] == '-') {
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        inlineValue = arg.substr(eq + 1);
        arg.resize(eq);
      }
    }
    const auto value = [&]() -> std::string {
      if (inlineValue) return *inlineValue;
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--spec") opt.specFile = value();
    else if (arg == "--plan-out") opt.planOut = value();
    else if (arg == "--plan") opt.planIn = value();
    else if (arg == "--sarif") opt.sarifOut = value();
    else if (arg == "--no-lint") opt.noLint = true;
    else if (arg == "--fault") opt.faultText = value();
    // All numeric options go through the strict bounded parser: the
    // whole string must be digits and the value must be in range, or a
    // UsageError surfaces the message next to the usage text (exit 1).
    // The same helper validates rrsn_serve request fields.
    else if (arg == "--seed")
      opt.seed = parseUintBounded(value(), "--seed", 0,
                                  std::numeric_limits<std::uint64_t>::max());
    else if (arg == "--generations")
      opt.generations = parseUintBounded(value(), "--generations", 1, 1000000);
    else if (arg == "--population")
      opt.population = parseUintBounded(value(), "--population", 1, 1000000);
    else if (arg == "--top")
      opt.top = parseUintBounded(value(), "--top", 1, 1000000);
    else if (arg == "--pairs") opt.pairs = true;
    else if (arg == "--transient") opt.transientMode = true;
    else if (arg == "--transient-rounds") {
      std::vector<std::uint32_t> rounds;
      for (const std::string& part : split(value(), ','))
        rounds.push_back(static_cast<std::uint32_t>(
            parseUintBounded(part, "--transient-rounds", 0, 1000000)));
      opt.transientRounds = std::move(rounds);
    }
    else if (arg == "--sample")
      opt.sample = parseUintBounded(value(), "--sample", 0, 100000000);
    else if (arg == "--sample-fraction")
      opt.sampleFraction = parseDouble(value(), "--sample-fraction");
    else if (arg == "--deadline-ms")
      opt.deadlineMs = parseUintBounded(value(), "--deadline-ms", 0, 86400000);
    else if (arg == "--batch")
      opt.batch = parseUintBounded(value(), "--batch", 1, 1000000);
    else if (arg == "--max-reroutes")
      opt.maxReroutes = parseUintBounded(value(), "--max-reroutes", 0, 1000000);
    else if (arg == "--no-reroute") opt.noReroute = true;
    else if (arg == "--checkpoint") opt.checkpoint = value();
    else if (arg == "--csv") opt.csvOut = value();
    else if (arg == "--json") opt.jsonOut = value();
    else if (arg == "--trace") opt.traceOut = value();
    else if (arg == "--metrics") opt.metricsOut = value();
    else if (!arg.empty() && arg[0] == '-' && arg != "-") usage();
    else opt.positional.push_back(arg);
    if (inlineValue && (arg == "--no-reroute" || arg == "--no-lint" ||
                        arg == "--pairs" || arg == "--transient" ||
                        arg[0] != '-'))
      usage();
  }
  if (opt.positional.empty()) usage();
  return opt;
}

/// Flushes and verifies an output stream after writing a report; an
/// ofstream swallows ENOSPC/EPIPE silently until checked.
void checkStreamWrite(std::ostream& out, const std::string& what) {
  out.flush();
  if (!out) throw IoError("short write to " + what);
}

/// Opens the file named by an output flag (--plan-out, --csv, --json,
/// --sarif, --trace, --metrics); a path that cannot be opened is a user
/// error, reported as such.
std::ofstream openOutput(const std::string& path, const std::string& what,
                         std::ios::openmode mode = std::ios::out) {
  std::ofstream out(path, mode);
  if (!out) throw IoError("cannot write " + what + " '" + path + "'");
  return out;
}

rsn::Network loadNetwork(const std::string& path) {
  if (path == "-") return rsn::parseNetlist(std::cin);
  // `example:<name>` resolves the built-in example networks, so every
  // command (campaign in particular) can run on them without a file.
  if (path == "example:fig1") return rsn::makeFig1Network();
  if (path == "example:tiny") return rsn::makeTinyNetwork();
  std::ifstream in(path);
  if (!in) throw Error("cannot open netlist '" + path + "'");
  return rsn::parseNetlist(in);
}

rsn::CriticalitySpec loadSpec(const Options& opt, const rsn::Network& net) {
  if (opt.specFile) {
    std::ifstream in(*opt.specFile);
    if (!in) throw Error("cannot open spec '" + *opt.specFile + "'");
    return rsn::readSpec(in, net);
  }
  Rng rng(opt.seed);
  return rsn::randomSpec(net, {}, rng);
}

fault::Fault parseFault(const rsn::Network& net, const rsn::FlatNetwork& flat,
                        const std::string& text) {
  const auto parts = split(text, ':');
  if (parts.size() == 2 && parts[0] == "break") {
    const rsn::SegmentId seg = net.findSegment(parts[1]);
    if (seg == rsn::kNone)
      throw UsageError("--fault names unknown segment '" + parts[1] + "'");
    return fault::Fault::segmentBreak(seg);
  }
  if (parts.size() == 3 && parts[0] == "stuck") {
    const rsn::MuxId mux = net.findMux(parts[1]);
    if (mux == rsn::kNone)
      throw UsageError("--fault names unknown mux '" + parts[1] + "'");
    const std::uint32_t arity = flat.muxArity()[mux];
    return fault::Fault::muxStuck(
        mux, static_cast<std::uint32_t>(parseUintBounded(
                 parts[2],
                 "stuck branch of mux '" + parts[1] + "' (arity " +
                     std::to_string(arity) + ")",
                 0, arity - 1)));
  }
  throw ParseError("--fault expects break:<segment> or stuck:<mux>:<branch>");
}

int cmdInfo(const Options& opt) {
  const rsn::Network net = loadNetwork(opt.positional[0]);
  const rsn::NetworkStats s = net.stats();
  std::cout << "network:       " << net.name() << '\n'
            << "segments:      " << s.segments << '\n'
            << "multiplexers:  " << s.muxes << '\n'
            << "instruments:   " << s.instruments << '\n'
            << "scan cells:    " << s.scanCells << '\n'
            << "mux nesting:   " << s.maxMuxNesting << '\n';
  const auto tree = sp::DecompositionTree::build(net);
  std::cout << "decomposition tree: " << tree.nodeCount() << " nodes, depth "
            << tree.depth() << '\n';
  return 0;
}

int cmdDot(const Options& opt) {
  std::cout << rsn::toDot(loadNetwork(opt.positional[0]));
  return 0;
}

int cmdTree(const Options& opt) {
  const rsn::Network net = loadNetwork(opt.positional[0]);
  auto tree = sp::DecompositionTree::build(net);
  tree.annotate(loadSpec(opt, net));
  std::cout << tree.toAscii();
  return 0;
}

int cmdAnalyze(const Options& opt) {
  const rsn::Network net = loadNetwork(opt.positional[0]);
  const auto spec = loadSpec(opt, net);
  crit::AnalysisOptions options;
  options.lint = !opt.noLint;
  const auto analysis = crit::CriticalityAnalyzer(net, spec, options).run();
  std::cout << "accumulated single-defect damage (nothing hardened): "
            << withThousands(analysis.totalDamage()) << "\n\n"
            << analysis.report(opt.top);
  return 0;
}

int cmdHarden(const Options& opt) {
  const rsn::Network net = loadNetwork(opt.positional[0]);
  const auto spec = loadSpec(opt, net);
  crit::AnalysisOptions critOptions;
  critOptions.lint = !opt.noLint;
  const auto analysis = crit::CriticalityAnalyzer(net, spec, critOptions).run();
  const auto problem = harden::HardeningProblem::assemble(net, analysis);
  moo::EvolutionOptions options;
  options.populationSize = opt.population;
  options.generations = opt.generations;
  options.seed = opt.seed;
  const auto result = moo::runSpea2(problem.linear, options);

  std::cout << "max cost " << withThousands(problem.maxCost)
            << ", max damage " << withThousands(problem.maxDamage)
            << ", Pareto front with " << result.archive.size()
            << " solutions:\n";
  for (const moo::Individual& ind : result.archive.members())
    std::cout << "  cost " << withThousands(ind.obj.cost) << "  damage "
              << withThousands(ind.obj.damage) << '\n';
  const auto sols = harden::extractPaperSolutions(result.archive, problem);
  if (sols.minCost) {
    const harden::HardeningPlan plan(net, sols.minCost->genome);
    std::cout << "\nmin cost @ damage <= 10%:\n" << plan.report(analysis);
    if (opt.planOut) {
      std::ofstream out = openOutput(*opt.planOut, "plan");
      harden::writePlan(out, plan);
      checkStreamWrite(out, "plan '" + *opt.planOut + "'");
      std::cout << "plan written to " << *opt.planOut << '\n';
    }
  }
  if (sols.minDamage) {
    std::cout << "\nmin damage @ cost <= 10%:\n"
              << harden::HardeningPlan(net, sols.minDamage->genome)
                     .report(analysis);
  }
  return 0;
}

int cmdAccess(const Options& opt) {
  if (opt.positional.size() < 2) usage();
  const rsn::Network net = loadNetwork(opt.positional[0]);
  const rsn::InstrumentId inst = net.findInstrument(opt.positional[1]);
  if (inst == rsn::kNone)
    throw Error("unknown instrument '" + opt.positional[1] + "'");
  const auto flat = rsn::FlatNetwork::lower(net);
  sim::ScanSimulator simulator(net);
  if (opt.faultText)
    simulator.injectFault(parseFault(net, *flat, *opt.faultText));
  sim::Retargeter rt(simulator, flat);
  simulator.setInstrumentValue(
      inst, sim::accessMarker(net.segment(net.instrument(inst).segment).length));
  const auto res = rt.readInstrument(inst);
  std::cout << "read " << net.instrument(inst).name << ": "
            << (res.success ? "OK" : "INACCESSIBLE") << " (" << res.rounds
            << " CSU rounds)\n";
  for (std::size_t k = 0; k < res.patterns.size(); ++k) {
    std::cout << "  csu[" << k << "] in  " << toString(res.patterns[k].shiftIn)
              << "\n  csu[" << k << "] out " << toString(res.patterns[k].shiftOut)
              << '\n';
  }
  return res.success ? 0 : 1;
}

int cmdDiagnose(const Options& opt) {
  const rsn::Network net = loadNetwork(opt.positional[0]);
  if (!opt.faultText) throw UsageError("diagnose requires --fault");
  const fault::Fault f =
      parseFault(net, *rsn::FlatNetwork::lower(net), *opt.faultText);
  const auto dict = diag::FaultDictionary::build(net);
  const auto observed = diag::FaultDictionary::measure(net, &f);
  const auto d = dict.diagnose(observed);
  std::cout << "injected: " << fault::describe(net, f) << '\n';
  if (d.faultFree) {
    std::cout << "syndrome is fault-free: the defect is undetectable by "
                 "instrument accesses\n";
    return 0;
  }
  std::cout << "candidates (" << d.exactMatches.size() << "):";
  for (const auto& c : d.exactMatches) std::cout << ' ' << describe(net, c);
  std::cout << '\n';
  const auto r = dict.resolution();
  std::cout << "dictionary: " << r.faults << " faults, " << r.detectable
            << " detectable, " << r.classes << " classes, avg ambiguity "
            << r.avgAmbiguity << '\n';
  return 0;
}

int cmdCampaign(const Options& opt) {
  const rsn::Network net = loadNetwork(opt.positional[0]);

  if (opt.pairs && opt.transientMode) {
    std::cerr << "rrsn_tool: --pairs and --transient are mutually exclusive\n";
    return 2;
  }
  campaign::CampaignConfig config;
  if (opt.pairs) config.mode = campaign::CampaignMode::Pairs;
  if (opt.transientMode) config.mode = campaign::CampaignMode::Transient;
  config.sample = opt.sample;
  config.sampleFraction = opt.sampleFraction;
  if (opt.transientRounds) config.transientRounds = *opt.transientRounds;
  config.seed = opt.seed;
  config.retarget.maxReroutes = opt.noReroute ? 0 : opt.maxReroutes;
  config.checkpointEvery = opt.batch;
  config.lint = !opt.noLint;
  if (opt.checkpoint) config.checkpointPath = *opt.checkpoint;

  // The CLI keeps its historical "0 = no deadline" contract; the config
  // layer spells that kNoDeadline and rejects a literal 0.
  if (opt.deadlineMs != 0)
    config.deadlineMs = static_cast<std::uint64_t>(opt.deadlineMs);
  config.progress = [](std::size_t done, std::size_t total) {
    std::cerr << "campaign: " << done << "/" << total << " scenarios\n";
  };

  campaign::CampaignEngine engine(net, std::move(config));
  const campaign::CampaignResult result = engine.run();
  const campaign::CampaignSummary s = result.summary();

  std::cout << "network: " << net.name() << " — "
            << campaign::campaignModeName(result.mode) << " campaign, "
            << s.faultsDone << "/" << s.faultsTotal << " scenarios x "
            << s.instruments << " instruments\n\n"
            << campaign::summaryTable(s).render() << '\n';
  if (result.mode != campaign::CampaignMode::Single) {
    std::cout << '\n' << campaign::robustnessTable(result.robustness()).render();
  }
  const auto items = result.mismatches();
  if (!items.empty()) {
    std::cout << "\nexpected-vs-simulated MISMATCHES (" << items.size()
              << "; these indicate an engine or analysis bug):\n"
              << campaign::mismatchTable(net, items).render();
  } else if (s.faultsDone > 0) {
    std::cout << "\nno expected-vs-simulated mismatches\n";
  }
  const auto interactions = result.pairInteractions();
  if (!interactions.empty()) {
    std::cout << "\npair interaction effects vs the composed single-fault "
                 "oracle ("
              << interactions.size()
              << "; compounded = composition predicted access, masked = "
                 "composition predicted loss):\n"
              << campaign::mismatchTable(net, interactions).render();
  }
  const auto gaps = result.structuralGaps();
  if (!gaps.empty()) {
    std::cout << "\ncontrol-dependency gaps vs the plain structural oracle ("
              << gaps.size() << "; documented, itemized):\n"
              << campaign::mismatchTable(net, gaps).render();
  }
  if (s.oracleDisagreements != 0) {
    std::cout << "\nWARNING: tree and graph oracles disagreed on "
              << s.oracleDisagreements << " (fault, instrument) pairs\n";
  }

  if (opt.csvOut) {
    std::ofstream out = openOutput(*opt.csvOut, "csv");
    out << campaign::outcomeTable(net, result).renderCsv();
    checkStreamWrite(out, "csv '" + *opt.csvOut + "'");
    std::cout << "\nper-fault outcomes written to " << *opt.csvOut << '\n';
  }
  if (opt.jsonOut) {
    std::ofstream out = openOutput(*opt.jsonOut, "json");
    out << json::serialize(campaign::reportJson(net, result), 1) << '\n';
    checkStreamWrite(out, "json '" + *opt.jsonOut + "'");
    std::cout << "report written to " << *opt.jsonOut << '\n';
  }
  if (!s.complete()) {
    std::cout << "\ncampaign interrupted by deadline after " << s.faultsDone
              << "/" << s.faultsTotal << " scenarios";
    if (opt.checkpoint)
      std::cout << "; rerun with the same --checkpoint to resume";
    std::cout << '\n';
    return 1;
  }
  return 0;
}

int cmdBench(const Options& opt) {
  // Accepts the Table-I benchmark names and, for symmetry with the other
  // subcommands, the built-in "example:*" networks.
  const std::string& name = opt.positional[0];
  const rsn::Network net = startsWith(name, "example:")
                               ? loadNetwork(name)
                               : benchgen::buildBenchmark(name);
  rsn::writeNetlist(std::cout, net);
  return 0;
}

int cmdLint(const Options& opt) {
  const std::string& path = opt.positional[0];
  lint::LintResult result;
  rsn::NetlistSources sources;
  std::optional<rsn::Network> net;
  if (path == "example:fig1") {
    net = rsn::makeFig1Network();
  } else if (path == "example:tiny") {
    net = rsn::makeTinyNetwork();
  } else if (path == "-") {
    net = lint::parseForLint(std::cin, sources, result);
  } else {
    std::ifstream in(path);
    if (!in) throw Error("cannot open netlist '" + path + "'");
    net = lint::parseForLint(in, sources, result);
  }

  std::optional<rsn::CriticalitySpec> spec;
  std::vector<std::string> planNames;
  if (net) {
    if (opt.specFile) {
      std::ifstream in(*opt.specFile);
      if (!in) throw Error("cannot open spec '" + *opt.specFile + "'");
      spec = lint::lintSpec(in, *net, result);
    }
    if (opt.planIn) {
      std::ifstream in(*opt.planIn);
      if (!in) throw Error("cannot open plan '" + *opt.planIn + "'");
      planNames = lint::readPlanNames(in);
    }
    lint::LintOptions options;
    options.sources = &sources;
    if (spec) options.spec = &*spec;
    if (opt.planIn) options.hardenedNames = &planNames;
    lint::LintResult model = lint::runLint(*net, options);
    for (lint::Finding& f : model.findings) result.add(std::move(f));
  }
  result.sort();

  const std::string artifact = path == "-" ? "<stdin>" : path;
  std::cout << lint::textReport(result, artifact);
  if (opt.jsonOut) {
    std::ofstream out = openOutput(*opt.jsonOut, "json");
    out << json::serialize(lint::jsonReport(result, artifact), 1) << '\n';
    checkStreamWrite(out, "json '" + *opt.jsonOut + "'");
  }
  if (opt.sarifOut) {
    std::ofstream out = openOutput(*opt.sarifOut, "sarif");
    out << json::serialize(lint::sarifReport(result, artifact), 1) << '\n';
    checkStreamWrite(out, "sarif '" + *opt.sarifOut + "'");
  }
  return result.clean() ? 0 : 1;
}

/// Resolves a hardening plan (one primitive name per line, the
/// harden::writePlan format) to the linear-id exclusion bitset the
/// certifier expects: a hardened primitive cannot fail, so its faults
/// leave the universe.
DynamicBitset loadExclusions(const rsn::Network& net,
                             const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open plan '" + path + "'");
  DynamicBitset excluded(net.primitiveCount());
  for (const std::string& name : lint::readPlanNames(in)) {
    const rsn::SegmentId seg = net.findSegment(name);
    if (seg != rsn::kNone) {
      excluded.set(net.linearId({rsn::PrimitiveRef::Kind::Segment, seg}));
      continue;
    }
    const rsn::MuxId mux = net.findMux(name);
    if (mux == rsn::kNone)
      throw Error("plan '" + path + "' names unknown primitive '" + name +
                  "'");
    excluded.set(net.linearId({rsn::PrimitiveRef::Kind::Mux, mux}));
  }
  return excluded;
}

int cmdCertify(const Options& opt) {
  const rsn::Network net = loadNetwork(opt.positional[0]);
  const auto flat = rsn::FlatNetwork::lower(net);
  if (!opt.noLint) lint::enforceClean(net, *flat, "certification");

  verify::CertifyOptions options;
  if (opt.planIn) options.excludePrimitives = loadExclusions(net, *opt.planIn);
  options.crossCheck = verify::crossCheckDefault();

  const verify::Certifier certifier(flat);
  const verify::CertificationResult result = certifier.run(options);
  const verify::CertifySummary s = result.summary();

  std::cout << "network: " << net.name() << " — "
            << withThousands(std::uint64_t{s.faults}) << " faults x "
            << withThousands(std::uint64_t{s.instruments})
            << " instruments, " << s.reachableInstruments << "/"
            << s.instruments << " reachable fault-free\n"
            << "tiers: " << withThousands(std::uint64_t{s.fastRows})
            << " rows fast, " << withThousands(std::uint64_t{s.fixpointRows})
            << " rows fixpoint, "
            << withThousands(std::uint64_t{s.crossCheckedRows})
            << " rows cross-checked against the syndrome oracle\n\n"
            << verify::summaryTable(s).render();
  if (s.vulnerableRead + s.vulnerableWrite + s.unknownCells() > 0) {
    std::cout << '\n'
              << verify::vulnerabilityTable(net, result, opt.top).render();
  }
  if (s.unknownCells() > 0) {
    std::cout << "\nWARNING: " << s.unknownCells()
              << " verdicts exhausted the fixpoint budget (Unknown) — the "
                 "certification is incomplete\n";
  }

  if (opt.jsonOut) {
    std::ofstream out = openOutput(*opt.jsonOut, "json");
    out << json::serialize(verify::reportJson(net, result), 1) << '\n';
    checkStreamWrite(out, "json '" + *opt.jsonOut + "'");
    std::cout << "report written to " << *opt.jsonOut << '\n';
  }
  if (opt.sarifOut) {
    std::ofstream out = openOutput(*opt.sarifOut, "sarif");
    const std::string artifact =
        opt.positional[0] == "-" ? "<stdin>" : opt.positional[0];
    out << json::serialize(verify::sarifReport(net, result, artifact), 1)
        << '\n';
    checkStreamWrite(out, "sarif '" + *opt.sarifOut + "'");
    std::cout << "sarif written to " << *opt.sarifOut << '\n';
  }
  return s.unknownCells() == 0 ? 0 : 1;
}

int dispatch(const Options& opt) {
  if (opt.command == "info") return cmdInfo(opt);
  if (opt.command == "dot") return cmdDot(opt);
  if (opt.command == "tree") return cmdTree(opt);
  if (opt.command == "analyze") return cmdAnalyze(opt);
  if (opt.command == "harden") return cmdHarden(opt);
  if (opt.command == "access") return cmdAccess(opt);
  if (opt.command == "diagnose") return cmdDiagnose(opt);
  if (opt.command == "campaign") return cmdCampaign(opt);
  if (opt.command == "bench") return cmdBench(opt);
  if (opt.command == "lint") return cmdLint(opt);
  if (opt.command == "certify") return cmdCertify(opt);
  usage();
}

/// Writes the requested trace / metrics exports and a timing summary to
/// stderr (stdout carries the command's result and must stay identical
/// with and without profiling).
void exportObservability(const Options& opt) {
  if (!opt.traceOut && !opt.metricsOut && !obs::enabled()) return;
  const obs::Snapshot snap = obs::snapshot();
  if (opt.traceOut) {
    std::ofstream out =
        openOutput(*opt.traceOut, "trace", std::ios::binary);
    out << obs::traceEventJson(snap) << '\n';
    checkStreamWrite(out, "trace '" + *opt.traceOut + "'");
    std::cerr << "trace written to " << *opt.traceOut << '\n';
  }
  if (opt.metricsOut) {
    std::ofstream out =
        openOutput(*opt.metricsOut, "metrics", std::ios::binary);
    out << json::serialize(obs::metricsJson(snap), 1) << '\n';
    checkStreamWrite(out, "metrics '" + *opt.metricsOut + "'");
    std::cerr << "metrics written to " << *opt.metricsOut << '\n';
  }
  if (opt.traceOut || opt.metricsOut)
    std::cerr << obs::summaryTable(snap).render();
  obs::raiseIfError(obs::checkSpanBalance());
}

}  // namespace

int main(int argc, char** argv) {
  // With SIGPIPE ignored, `rrsn_tool ... | head` makes stdout writes
  // fail with EPIPE (badbit on std::cout) instead of killing the
  // process; the flush check below turns that into a typed error.
  rrsn::io::ignoreSigpipe();
  try {
    const Options opt = parseArgs(argc, argv);
    if (opt.traceOut || opt.metricsOut) obs::enable();
    const int code = dispatch(opt);
    std::cout.flush();
    if (!std::cout) {
      throw rrsn::IoError("stdout write failed (consumer closed the pipe?)");
    }
    exportObservability(opt);
    return code;
  } catch (const rrsn::UsageError& e) {
    std::cerr << "error: " << e.what() << '\n' << usageText();
    return 1;
  } catch (const rrsn::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
