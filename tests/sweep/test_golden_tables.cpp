// Golden-table pin: every builtin scenario's deterministic table, warm and
// cold, hashed at full precision and compared against recorded digests.
//
// The other determinism tests compare a table against itself at another
// thread count; nothing there notices a change that moves every number
// the same way. This one does: a refactor that is meant to be
// answer-preserving must leave every digest below untouched. A digest that
// moves on purpose (a solver fix, a new scenario column) is re-recorded
// from the failure message, and the change says why.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "stackroute/sweep/runner.h"
#include "stackroute/sweep/scenarios.h"
#include "stackroute/util/hash.h"
#include "stackroute/util/parallel.h"

namespace stackroute::sweep {
namespace {

struct Golden {
  std::uint64_t warm;
  std::uint64_t cold;
};

// Recorded at one thread with 17 fixed decimals (SweepOptions::digits),
// far finer than the tables' default 6.
const std::map<std::string, Golden>& golden() {
  static const std::map<std::string, Golden> table = {
      {"pigou-grid", {0xf20ad3f3d35b328aULL, 0xf20ad3f3d35b328aULL}},
      {"affine-random", {0x74eb6dc218fcfaceULL, 0x74eb6dc218fcfaceULL}},
      {"mm1-two-groups", {0xfc0c8ef436960972ULL, 0x0434e2f6c7a88a5dULL}},
      {"thm24-hard", {0x9d5dac2c72445686ULL, 0x9d5dac2c72445686ULL}},
      {"braess-eps", {0xde1038e8400bb033ULL, 0xde1038e8400bb033ULL}},
      {"layered-dag", {0xe67fb98d16173736ULL, 0xe67fb98d16173736ULL}},
      {"grid-bpr", {0x46095a695cc5259fULL, 0x46095a695cc5259fULL}},
      {"series-parallel", {0xd9a9856cc4a65b95ULL, 0xd9a9856cc4a65b95ULL}},
      {"braess-ladder", {0xa189cac4b7e0615eULL, 0xa189cac4b7e0615eULL}},
      {"strategy-compare-parallel",
       {0xe88aa54c4bce0517ULL, 0xae7cbe0e1442e0e5ULL}},
      {"strategy-compare-grid", {0x5120a808b6d1ed02ULL, 0x803302d6b5500ed2ULL}},
      {"strategy-compare-braess",
       {0xf6e41e2bf916d665ULL, 0xf6e41e2bf916d665ULL}},
      {"strategy-compare-siouxfalls",
       {0xb7e4b0844df39564ULL, 0xb7e4b0844df39564ULL}},
  };
  return table;
}

std::uint64_t table_digest(const ScenarioSpec& spec, bool warm_start) {
  SweepOptions opts;
  opts.digits = 17;
  opts.warm_start = warm_start;
  return StableHash().mix_string(SweepRunner(opts).run(spec).to_csv()).digest();
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64 "ULL", v);
  return buf;
}

TEST(GoldenTables, EveryBuiltinScenarioWarmAndCold) {
  const int saved = max_threads_setting();
  set_max_threads(1);
  for (const NamedScenario& named : builtin_scenarios()) {
    const ScenarioSpec spec = named.make();
    const std::uint64_t warm = table_digest(spec, true);
    const std::uint64_t cold = table_digest(spec, false);
    const auto it = golden().find(named.name);
    if (it == golden().end()) {
      ADD_FAILURE() << "no digest recorded: {\"" << named.name << "\", {"
                    << hex(warm) << ", " << hex(cold) << "}},";
      continue;
    }
    EXPECT_EQ(warm, it->second.warm)
        << named.name << " warm table moved; now " << hex(warm);
    EXPECT_EQ(cold, it->second.cold)
        << named.name << " cold table moved; now " << hex(cold);
  }
  set_max_threads(saved);
  EXPECT_EQ(builtin_scenarios().size(), golden().size())
      << "a recorded scenario is no longer builtin";
}

}  // namespace
}  // namespace stackroute::sweep
