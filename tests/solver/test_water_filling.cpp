// Water-filling against closed-form Nash/optimum assignments, including
// the constant-latency plateau logic of Remark 2.5 and capacity limits.
#include "stackroute/solver/water_filling.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "stackroute/latency/families.h"
#include "stackroute/network/generators.h"
#include "stackroute/util/error.h"
#include "stackroute/util/numeric.h"

namespace stackroute {
namespace {

TEST(WaterFill, PigouNashFloodsTheFastLink) {
  const ParallelLinks m = pigou();
  const auto wf = water_fill(m.links, m.demand, LevelKind::kLatency);
  EXPECT_NEAR(wf.flows[0], 1.0, 1e-9);
  EXPECT_NEAR(wf.flows[1], 0.0, 1e-9);
  EXPECT_NEAR(wf.level, 1.0, 1e-9);
}

TEST(WaterFill, PigouOptimumBalances) {
  const ParallelLinks m = pigou();
  const auto wf = water_fill(m.links, m.demand, LevelKind::kMarginalCost);
  EXPECT_NEAR(wf.flows[0], 0.5, 1e-9);
  EXPECT_NEAR(wf.flows[1], 0.5, 1e-9);
  EXPECT_NEAR(wf.level, 1.0, 1e-9);  // marginal 2x = 1 at x = 1/2
  EXPECT_TRUE(wf.constant_plateau);
}

TEST(WaterFill, Fig4NashMatchesClosedForm) {
  const ParallelLinks m = fig4_instance();
  const Fig4Expected e = fig4_expected();
  const auto wf = water_fill(m.links, m.demand, LevelKind::kLatency);
  EXPECT_NEAR(wf.level, e.nash_level, 1e-10);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_NEAR(wf.flows[i], e.nash[i], 1e-9) << "link " << i;
  }
  EXPECT_FALSE(wf.constant_plateau);  // Nash level 32/77 < 0.7
}

TEST(WaterFill, Fig4OptimumMatchesClosedForm) {
  const ParallelLinks m = fig4_instance();
  const Fig4Expected e = fig4_expected();
  const auto wf = water_fill(m.links, m.demand, LevelKind::kMarginalCost);
  EXPECT_NEAR(wf.level, e.optimum_level, 1e-10);
  EXPECT_TRUE(wf.constant_plateau);  // M5 absorbs the residual at 0.7
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_NEAR(wf.flows[i], e.optimum[i], 1e-9) << "link " << i;
  }
}

TEST(WaterFill, TwoAffineLinksClosedForm) {
  // ℓ1 = x, ℓ2 = 2x, r = 3: Nash level L with L + L/2 = 3 -> L = 2.
  const std::vector<LatencyPtr> links = {make_linear(1.0), make_linear(2.0)};
  const auto wf = water_fill(links, 3.0, LevelKind::kLatency);
  EXPECT_NEAR(wf.level, 2.0, 1e-10);
  EXPECT_NEAR(wf.flows[0], 2.0, 1e-10);
  EXPECT_NEAR(wf.flows[1], 1.0, 1e-10);
}

TEST(WaterFill, InterceptKeepsSlowLinkEmpty) {
  // ℓ1 = x, ℓ2 = x + 10, r = 1: everything on link 1.
  const std::vector<LatencyPtr> links = {make_linear(1.0),
                                         make_affine(1.0, 10.0)};
  const auto wf = water_fill(links, 1.0, LevelKind::kLatency);
  EXPECT_NEAR(wf.flows[0], 1.0, 1e-12);
  EXPECT_NEAR(wf.flows[1], 0.0, 1e-12);
}

TEST(WaterFill, Mm1TwoLinksNashClosedForm) {
  // mu = {2, 1}, r = 1: L = 1, n = {1, 0} (link 2 exactly indifferent).
  const std::vector<LatencyPtr> links = {make_mm1(2.0), make_mm1(1.0)};
  const auto wf = water_fill(links, 1.0, LevelKind::kLatency);
  EXPECT_NEAR(wf.level, 1.0, 1e-9);
  EXPECT_NEAR(wf.flows[0], 1.0, 1e-8);
  EXPECT_NEAR(wf.flows[1], 0.0, 1e-8);
}

TEST(WaterFill, Mm1TwoLinksOptimumClosedForm) {
  // Closed form: x1 = 2 − 2√2/(1+√2), x2 = 3 − 2√2, D = ((1+√2)/2)².
  const std::vector<LatencyPtr> links = {make_mm1(2.0), make_mm1(1.0)};
  const auto wf = water_fill(links, 1.0, LevelKind::kMarginalCost);
  const double sqrt2 = std::sqrt(2.0);
  EXPECT_NEAR(wf.flows[1], 3.0 - 2.0 * sqrt2, 1e-9);
  EXPECT_NEAR(wf.flows[0], 1.0 - (3.0 - 2.0 * sqrt2), 1e-9);
  EXPECT_NEAR(wf.level, (3.0 + 2.0 * sqrt2) / 4.0, 1e-9);
}

TEST(WaterFill, DemandBeyondMm1CapacityThrows) {
  const std::vector<LatencyPtr> links = {make_mm1(0.6), make_mm1(0.5)};
  EXPECT_THROW(water_fill(links, 1.2, LevelKind::kLatency), Error);
}

TEST(WaterFill, ZeroDemandGivesZeroFlowsAndBaseLevel) {
  const std::vector<LatencyPtr> links = {make_affine(1.0, 0.5),
                                         make_affine(1.0, 0.2)};
  const auto wf = water_fill(links, 0.0, LevelKind::kLatency);
  EXPECT_DOUBLE_EQ(wf.flows[0], 0.0);
  EXPECT_DOUBLE_EQ(wf.flows[1], 0.0);
  EXPECT_DOUBLE_EQ(wf.level, 0.2);
}

TEST(WaterFill, AllConstantLinksSplitAtCheapestLevel) {
  const std::vector<LatencyPtr> links = {make_constant(1.0),
                                         make_constant(1.0),
                                         make_constant(2.0)};
  const auto wf = water_fill(links, 1.0, LevelKind::kLatency);
  EXPECT_TRUE(wf.constant_plateau);
  EXPECT_NEAR(wf.level, 1.0, 1e-12);
  EXPECT_NEAR(wf.flows[0], 0.5, 1e-12);
  EXPECT_NEAR(wf.flows[1], 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(wf.flows[2], 0.0);
}

TEST(WaterFill, ConstantAboveLevelStaysEmpty) {
  // Increasing link absorbs everything below the constant's level.
  const std::vector<LatencyPtr> links = {make_linear(1.0), make_constant(5.0)};
  const auto wf = water_fill(links, 2.0, LevelKind::kLatency);
  EXPECT_FALSE(wf.constant_plateau);
  EXPECT_NEAR(wf.flows[0], 2.0, 1e-10);
  EXPECT_DOUBLE_EQ(wf.flows[1], 0.0);
}

TEST(WaterFill, FlowsSumToDemand) {
  Rng rng(99);
  for (int trial = 0; trial < 25; ++trial) {
    const ParallelLinks m = random_affine_links(rng, 8, 2.5);
    for (LevelKind kind : {LevelKind::kLatency, LevelKind::kMarginalCost}) {
      const auto wf = water_fill(m.links, m.demand, kind);
      EXPECT_NEAR(sum(wf.flows), m.demand, 1e-9);
    }
  }
}

TEST(WaterFill, LoadedLinksSitAtTheLevel) {
  Rng rng(100);
  for (int trial = 0; trial < 25; ++trial) {
    const ParallelLinks m = random_polynomial_links(rng, 6, 1.7);
    const auto wf = water_fill(m.links, m.demand, LevelKind::kLatency);
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (wf.flows[i] > 1e-9) {
        EXPECT_NEAR(m.links[i]->value(wf.flows[i]), wf.level, 1e-7)
            << "trial " << trial << " link " << i;
      } else {
        EXPECT_GE(m.links[i]->value(0.0), wf.level - 1e-7);
      }
    }
  }
}

TEST(WaterFill, NashMonotoneInDemand) {
  // Proposition 7.1 at the solver level: r' <= r => n'_i <= n_i.
  Rng rng(101);
  for (int trial = 0; trial < 20; ++trial) {
    const ParallelLinks m = random_affine_links(rng, 6, 2.0);
    const auto big = water_fill(m.links, 2.0, LevelKind::kLatency);
    const auto small = water_fill(m.links, 1.1, LevelKind::kLatency);
    for (std::size_t i = 0; i < m.size(); ++i) {
      EXPECT_LE(small.flows[i], big.flows[i] + 1e-9);
    }
  }
}

TEST(WaterFill, RejectsBadInput) {
  const std::vector<LatencyPtr> none;
  EXPECT_THROW(water_fill(none, 1.0, LevelKind::kLatency), Error);
  const std::vector<LatencyPtr> links = {make_linear(1.0)};
  EXPECT_THROW(water_fill(links, -1.0, LevelKind::kLatency), Error);
  const std::vector<LatencyPtr> with_null = {make_linear(1.0), nullptr};
  EXPECT_THROW(water_fill(with_null, 1.0, LevelKind::kLatency), Error);
}


TEST(WaterFill, LevelHintAgreesWithColdSolve) {
  Rng rng(9);
  std::vector<LatencyPtr> links;
  for (int i = 0; i < 12; ++i) {
    links.push_back(make_affine(rng.uniform(0.3, 3.0), rng.uniform(0.0, 1.5)));
  }
  SolverWorkspace ws;
  const auto cold = water_fill(links, 4.0, LevelKind::kLatency, &ws);
  for (double hint :
       {cold.level, 0.5 * cold.level, 2.0 * cold.level,
        std::numeric_limits<double>::quiet_NaN()}) {
    const auto warm = water_fill(links, 4.0, LevelKind::kLatency, &ws, hint);
    EXPECT_NEAR(warm.level, cold.level, 1e-10) << "hint " << hint;
    for (std::size_t i = 0; i < links.size(); ++i) {
      EXPECT_NEAR(warm.flows[i], cold.flows[i], 1e-8) << "hint " << hint;
    }
  }
}

TEST(WaterFill, LevelHintRespectsConstantPlateau) {
  // Plateau instance: the constant link absorbs the residual regardless of
  // any (even absurd) hint.
  const std::vector<LatencyPtr> links = {make_linear(1.0), make_constant(0.5)};
  SolverWorkspace ws;
  const auto cold = water_fill(links, 3.0, LevelKind::kLatency, &ws);
  ASSERT_TRUE(cold.constant_plateau);
  for (double hint : {0.01, 0.5, 100.0}) {
    const auto warm = water_fill(links, 3.0, LevelKind::kLatency, &ws, hint);
    EXPECT_TRUE(warm.constant_plateau);
    EXPECT_DOUBLE_EQ(warm.level, cold.level);
    EXPECT_DOUBLE_EQ(warm.flows[0], cold.flows[0]);
    EXPECT_DOUBLE_EQ(warm.flows[1], cold.flows[1]);
  }
}

TEST(WaterFill, LevelHintStillDetectsInfeasibleDemand) {
  const std::vector<LatencyPtr> links = {make_mm1(1.0), make_mm1(1.5)};
  SolverWorkspace ws;
  EXPECT_THROW(water_fill(links, 4.0, LevelKind::kLatency, &ws, 3.0), Error);
}

}  // namespace
}  // namespace stackroute
