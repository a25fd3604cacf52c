// stackroute_perfbench: runs one benchmark workload and prints, as its
// last stdout line, {"correct","attempted","failed","metrics"}. Preceded
// by one {"context": ...} line stamping the run (workload, seed, nproc,
// threads, commit, build type). Normally started by run.py:
//
//   stackroute_perfbench --workload NAME --seed N --seconds S --trace 0|1
//       [--goodput-limit-ms MS] [--trace-out FILE] [--commit SHA]
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "common.h"
#include "stackroute/util/build_info.h"
#include "stackroute/util/parallel.h"
#include "workloads.h"

namespace {

using perfbench::Options;
using perfbench::Report;

int usage(const std::string& why) {
  std::cerr << "stackroute_perfbench: " << why
            << "\nusage: stackroute_perfbench --workload "
               "anaheim-beta|anaheim-assign|sweep-grid --seed N "
               "--seconds S --trace 0|1 [--goodput-limit-ms MS] "
               "[--trace-out FILE] [--commit SHA]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string val = argv[++i];
    if (arg == "--workload") {
      o.workload = val;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::atof(val.c_str());
    } else if (arg == "--trace") {
      o.trace = val == "1";
    } else if (arg == "--goodput-limit-ms") {
      o.goodput_limit_ms = std::atof(val.c_str());
    } else if (arg == "--trace-out") {
      o.trace_out = val;
    } else if (arg == "--commit") {
      o.commit = val;
    } else {
      return usage("unknown option " + arg);
    }
  }
  const std::map<std::string, void (*)(const Options&, Report&)> workloads = {
      {"anaheim-beta", perfbench::run_anaheim_beta},
      {"anaheim-assign", perfbench::run_anaheim_assign},
      {"sweep-grid", perfbench::run_sweep_grid},
  };
  const auto it = workloads.find(o.workload);
  if (it == workloads.end()) return usage("unknown workload '" + o.workload + "'");
  if (!(o.seconds > 0.0)) return usage("--seconds must be positive");
  if (!stackroute::release_build()) {
    std::cerr << "stackroute_perfbench: refusing a " << stackroute::build_type()
              << " build; benchmark numbers come from Release builds only\n";
    return 1;
  }

  std::cout << "{\"context\": {\"workload\": \"" << o.workload
            << "\", \"seed\": " << o.seed << ", \"seconds\": " << o.seconds
            << ", \"trace\": " << (o.trace ? 1 : 0)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"threads\": " << stackroute::max_threads()
            << ", \"commit\": \"" << o.commit << "\", \"build_type\": \""
            << stackroute::build_type() << "\"}}" << std::endl;
  Report rep;
  try {
    it->second(o, rep);
  } catch (const std::exception& e) {
    rep.fail(std::string("workload threw: ") + e.what());
  }
  std::cout << rep.result_json() << std::endl;
  return 0;
}
