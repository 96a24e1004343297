/// \file main.cpp
/// perfbench: the paper-workload benchmark program.
///
///   perfbench --workload grover|gse --seed N --seconds S --trace 0|1
///             [--trace-dir DIR]
///
/// Prints one line per metric with its unit and sample count, then the
/// one-line JSON result.  --trace 0 reports the end-to-end metrics; --trace 1
/// reports the per-layer breakdown and writes the run's spans as Chrome-trace
/// JSON under DIR.  Exits 1 when any output check failed, 2 on usage errors.
#include "common.hpp"
#include "workloads.hpp"

#include <iostream>
#include <stdexcept>

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parseArgs(argc, argv);
    SpanLog spans(args.trace);
    Report report;
    if (args.workload == "grover") {
      runGrover(args, report, spans);
    } else if (args.workload == "gse") {
      runGse(args, report, spans);
    } else {
      throw std::invalid_argument("unknown workload '" + args.workload + "'");
    }
    if (args.trace) {
      const std::string path =
          args.traceDir + "/" + args.workload + "-seed" + std::to_string(args.seed) + ".json";
      spans.writeChromeTrace(path);
      report.note("chrome trace: " + path + " (" + std::to_string(spans.size()) + " spans)");
    }
    report.print(std::cout, args.workload, args.trace);
    return report.failed() == 0 ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 2;
  }
}
