// Extensions beyond the first pass: weak vs strong k-commodity strategies
// and the Stackelberg improvement threshold.
#include <gtest/gtest.h>

#include <cmath>

#include "stackroute/core/hard_instances.h"
#include "stackroute/core/mop.h"
#include "stackroute/core/optop.h"
#include "stackroute/core/structure.h"
#include "stackroute/equilibrium/parallel.h"
#include "stackroute/latency/families.h"
#include "stackroute/network/generators.h"
#include "stackroute/util/numeric.h"
#include "stackroute/util/rng.h"

namespace stackroute {
namespace {

TEST(WeakStrong, CoincideOnSingleCommodity) {
  const MopResult r = mop(fig7_instance(0.05));
  EXPECT_NEAR(r.beta, r.weak_beta, 1e-9);
}

TEST(WeakStrong, WeakDominatesStrong) {
  // A uniform fraction must cover the worst commodity, so weak >= strong.
  Rng rng(180);
  for (int trial = 0; trial < 8; ++trial) {
    const NetworkInstance inst =
        grid_city_multicommodity(rng, 4, 4, 4, 0.2, 1.0);
    MopOptions opts;
    opts.verify_induced = false;
    const MopResult r = mop(inst, opts);
    EXPECT_GE(r.weak_beta, r.beta - 1e-9) << "trial " << trial;
    EXPECT_LE(r.weak_beta, 1.0 + 1e-9);
  }
}

TEST(WeakStrong, WeakBetaIsTheWorstCommodityFraction) {
  Rng rng(181);
  const NetworkInstance inst = grid_city_multicommodity(rng, 4, 5, 5, 0.2, 1.0);
  MopOptions opts;
  opts.verify_induced = false;
  const MopResult r = mop(inst, opts);
  double worst = 0.0;
  for (std::size_t i = 0; i < inst.commodities.size(); ++i) {
    worst = std::fmax(worst, r.commodities[i].controlled_flow /
                                 inst.commodities[i].demand);
  }
  EXPECT_NEAR(r.weak_beta, worst, 1e-12);
}

TEST(ImprovementThreshold, TwoLinkClosedForm) {
  // ℓ1 = x, ℓ2 = x + 1, r = 2: the threshold equals the minimum Nash load
  // among under-loaded links (0.5 of flow, i.e. alpha = 0.25) — the cost
  // derivative at the freeze point is 4·s2 − 3 < 0 at s2 = 0.5, so any
  // extra budget immediately helps.
  const ParallelLinks m{{make_linear(1.0), make_affine(1.0, 1.0)}, 2.0};
  const double threshold = improvement_threshold_common_slope(m, 1e-7);
  EXPECT_NEAR(threshold, 0.25, 1e-5);
  EXPECT_NEAR(threshold, minimum_useful_control(m) / m.demand, 1e-5);
}

TEST(ImprovementThreshold, ZeroWhenNashOptimal) {
  const ParallelLinks m{{make_affine(1.0, 0.3), make_affine(1.0, 0.3)}, 1.0};
  EXPECT_DOUBLE_EQ(improvement_threshold_common_slope(m), 0.0);
}

TEST(ImprovementThreshold, SeparatesUselessFromUseful) {
  Rng rng(183);
  for (int trial = 0; trial < 5; ++trial) {
    const ParallelLinks m = random_common_slope_links(rng, 4, 2.0, 1.0);
    const LinkAssignment nash = solve_nash(m);
    const double nash_cost = cost(m, nash.flows);
    const double opt_cost = cost(m, solve_optimum(m).flows);
    if (nash_cost <= opt_cost + 1e-9) continue;
    const double threshold = improvement_threshold_common_slope(m, 1e-6);
    const double margin = 5e-3;
    if (threshold > margin) {
      const Thm24Result below =
          optimal_strategy_common_slope(m, threshold - margin);
      EXPECT_GE(below.cost, nash_cost - 1e-7) << "trial " << trial;
    }
    if (threshold + margin < 1.0) {
      const Thm24Result above =
          optimal_strategy_common_slope(m, threshold + margin);
      EXPECT_LT(above.cost, nash_cost - 1e-9) << "trial " << trial;
    }
  }
}

TEST(ImprovementThreshold, NeverExceedsBeta) {
  // Improving starts no later than reaching the optimum outright.
  Rng rng(184);
  for (int trial = 0; trial < 5; ++trial) {
    const ParallelLinks m = random_common_slope_links(rng, 4, 1.5, 1.0);
    const double threshold = improvement_threshold_common_slope(m, 1e-6);
    const double beta = op_top(m).beta;
    EXPECT_LE(threshold, beta + 1e-5) << "trial " << trial;
  }
}

TEST(ImprovementThreshold, MatchesMinimumUsefulControlOnRandomInstances) {
  // [43, Eq. (1)]: on parallel links with linear latencies, the threshold
  // is exactly the minimum Nash load among under-loaded links.
  Rng rng(185);
  for (int trial = 0; trial < 5; ++trial) {
    const ParallelLinks m = random_common_slope_links(rng, 3, 2.0, 1.0);
    const double nash_cost = cost(m, solve_nash(m).flows);
    const double opt_cost = cost(m, solve_optimum(m).flows);
    if (nash_cost <= opt_cost + 1e-9) continue;
    const double threshold = improvement_threshold_common_slope(m, 1e-7);
    EXPECT_NEAR(threshold, minimum_useful_control(m) / m.demand, 1e-4)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace stackroute
