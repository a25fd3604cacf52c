// Atomic followers (the Fotakis [12] direction): best-response dynamics,
// pure Nash certification, convergence to the continuous model under
// refinement, and the atomic Stackelberg scheme.
#include "stackroute/core/atomic.h"

#include <gtest/gtest.h>

#include <cmath>

#include "stackroute/core/optop.h"
#include "stackroute/equilibrium/parallel.h"
#include "stackroute/latency/families.h"
#include "stackroute/network/generators.h"
#include "stackroute/util/error.h"
#include "stackroute/util/numeric.h"
#include "stackroute/util/rng.h"

namespace stackroute {
namespace {

TEST(Atomic, TwoPlayersOnIdenticalLinksSplit) {
  AtomicInstance game;
  game.links = {make_linear(1.0), make_linear(1.0)};
  game.weights = {1.0, 1.0};
  const BestResponseResult r = best_response_dynamics(game);
  EXPECT_TRUE(solve_ok(r.status));
  EXPECT_NE(r.choice[0], r.choice[1]);
  EXPECT_NEAR(r.cost, 2.0, 1e-12);  // each link: 1·ℓ(1) = 1
  EXPECT_TRUE(is_pure_nash(game, r.choice));
}

TEST(Atomic, SinglePlayerPicksTheCheapestLink) {
  AtomicInstance game;
  game.links = {make_affine(1.0, 0.5), make_constant(0.4)};
  game.weights = {1.0};
  const BestResponseResult r = best_response_dynamics(game);
  EXPECT_TRUE(solve_ok(r.status));
  EXPECT_EQ(r.choice[0], 1);  // ℓ2 = 0.4 < ℓ1(1) = 1.5
}

TEST(Atomic, UnweightedDynamicsAlwaysConverge) {
  // Rosenthal's potential guarantees convergence for unit weights.
  Rng rng(500);
  for (int trial = 0; trial < 20; ++trial) {
    const ParallelLinks m = random_polynomial_links(rng, 4, 1.0);
    const AtomicInstance game = atomize(m, 12);
    const BestResponseResult r = best_response_dynamics(game);
    EXPECT_TRUE(solve_ok(r.status)) << "trial " << trial;
    EXPECT_TRUE(is_pure_nash(game, r.choice)) << "trial " << trial;
  }
}

TEST(Atomic, WeightedAffineDynamicsConverge) {
  Rng rng(501);
  for (int trial = 0; trial < 20; ++trial) {
    AtomicInstance game;
    const int links = 3 + trial % 3;
    for (int l = 0; l < links; ++l) {
      game.links.push_back(
          make_affine(rng.uniform(0.3, 2.0), rng.uniform(0.0, 1.0)));
    }
    const int players = 5 + trial % 8;
    for (int p = 0; p < players; ++p) {
      game.weights.push_back(rng.uniform(0.1, 1.0));
    }
    const BestResponseResult r = best_response_dynamics(game);
    EXPECT_TRUE(solve_ok(r.status)) << "trial " << trial;
    EXPECT_TRUE(is_pure_nash(game, r.choice)) << "trial " << trial;
  }
}

TEST(Atomic, LoadsAccountForEveryPlayer) {
  Rng rng(502);
  const ParallelLinks m = random_affine_links(rng, 3, 1.0);
  const AtomicInstance game = atomize(m, 9);
  const BestResponseResult r = best_response_dynamics(game);
  EXPECT_NEAR(sum(r.load), game.total_weight(), 1e-12);
}

TEST(Atomic, RefinementApproachesTheContinuousNash) {
  // As unit players shrink, the atomic equilibrium cost approaches the
  // continuous C(N) — Pigou: atomic cost -> 1.
  const ParallelLinks m = pigou();
  const double continuous_nash = cost(m, solve_nash(m).flows);
  double prev_gap = kInf;
  for (int players : {4, 16, 64, 256}) {
    const AtomicInstance game = atomize(m, players);
    const BestResponseResult r = best_response_dynamics(game);
    ASSERT_TRUE(solve_ok(r.status));
    const double gap = std::fabs(r.cost - continuous_nash);
    EXPECT_LE(gap, prev_gap + 1e-9) << players << " players";
    prev_gap = gap;
  }
  EXPECT_LT(prev_gap, 0.02);
}

TEST(Atomic, PureNashCheckerRejectsNonEquilibria) {
  AtomicInstance game;
  game.links = {make_linear(1.0), make_constant(10.0)};
  game.weights = {1.0, 1.0};
  // Both players on the expensive constant link: each would deviate.
  const std::vector<int> bad = {1, 1};
  EXPECT_FALSE(is_pure_nash(game, bad));
}

TEST(Atomic, StackelbergImprovesPigou) {
  // 8 unit players on Pigou; the Leader owning half of them (the Fig. 2
  // story, atomically) restores the optimum: 4 players pinned on the
  // constant link, 4 followers share the fast link.
  const AtomicInstance game = atomize(pigou(), 8);
  const BestResponseResult aloof = best_response_dynamics(game);
  std::vector<std::size_t> leaders = {0, 1, 2, 3};
  const AtomicStackelbergResult stack = atomic_stackelberg(game, leaders);
  EXPECT_TRUE(solve_ok(stack.status));
  EXPECT_LT(stack.cost, aloof.cost - 1e-9);
  EXPECT_NEAR(stack.cost, 0.75, 1e-9);  // the continuous optimum exactly
}

TEST(Atomic, StackelbergShareSelectsHeaviest) {
  AtomicInstance game;
  game.links = {make_linear(1.0), make_constant(1.0)};
  game.weights = {0.4, 0.3, 0.2, 0.1};
  const AtomicStackelbergResult r = atomic_stackelberg_share(game, 0.5);
  EXPECT_TRUE(r.is_leader[0]);   // 0.4 taken
  EXPECT_FALSE(r.is_leader[3] && r.is_leader[2] && r.is_leader[1]);
  EXPECT_LE(r.leader_weight, 0.5 + 1e-12);
}

TEST(Atomic, StackelbergWorseThanAloofOnlyByGranularity) {
  // With indivisible players the LLF-style pre-placement can overshoot a
  // link's optimum share by at most one player, so the Stackelberg cost
  // may exceed the aloof cost — but only by a granularity-sized sliver.
  Rng rng(503);
  for (int trial = 0; trial < 15; ++trial) {
    const ParallelLinks m = random_affine_links(rng, 4, 2.0);
    const AtomicInstance game = atomize(m, 16);
    const BestResponseResult aloof = best_response_dynamics(game);
    const AtomicStackelbergResult stack =
        atomic_stackelberg_share(game, 0.5);
    ASSERT_TRUE(solve_ok(aloof.status));
    ASSERT_TRUE(solve_ok(stack.status));
    EXPECT_LE(stack.cost, aloof.cost * 1.05) << "trial " << trial;
  }
}

TEST(Atomic, StackelbergBeatsAloofUnderRefinement) {
  // Fine granularity removes the overshoot: at 128 players, playing the
  // continuous β share pins the cost (near) the continuous optimum, which
  // dominates the aloof equilibrium.
  Rng rng(504);
  for (int trial = 0; trial < 8; ++trial) {
    const ParallelLinks m = random_affine_links(rng, 4, 2.0);
    const double beta = op_top(m).beta;
    if (beta < 0.05) continue;
    const AtomicInstance game = atomize(m, 128);
    const BestResponseResult aloof = best_response_dynamics(game);
    const AtomicStackelbergResult stack =
        atomic_stackelberg_share(game, beta);
    ASSERT_TRUE(solve_ok(stack.status));
    EXPECT_LE(stack.cost, aloof.cost * 1.005) << "trial " << trial;
    EXPECT_NEAR(stack.cost, stack.continuous_optimum,
                0.02 * stack.continuous_optimum)
        << "trial " << trial;
  }
}

TEST(Atomic, FullControlHitsTheFractionalOptimumUnderRefinement) {
  const ParallelLinks m = fig4_instance();
  const AtomicInstance game = atomize(m, 200);
  std::vector<std::size_t> all(game.num_players());
  for (std::size_t p = 0; p < all.size(); ++p) all[p] = p;
  const AtomicStackelbergResult r = atomic_stackelberg(game, all);
  // 200 unit players can only approximate the fractional optimum.
  EXPECT_NEAR(r.cost, r.continuous_optimum,
              0.02 * std::fmax(1.0, r.continuous_optimum));
}

TEST(Atomic, ValidationRejectsBadGames) {
  AtomicInstance no_links;
  no_links.weights = {1.0};
  EXPECT_THROW(no_links.validate(), Error);

  AtomicInstance no_players;
  no_players.links = {make_linear(1.0)};
  EXPECT_THROW(no_players.validate(), Error);

  AtomicInstance bad_weight;
  bad_weight.links = {make_linear(1.0)};
  bad_weight.weights = {-1.0};
  EXPECT_THROW(bad_weight.validate(), Error);

  const AtomicInstance ok = atomize(pigou(), 4);
  std::vector<std::size_t> dup = {1, 1};
  EXPECT_THROW(atomic_stackelberg(ok, dup), Error);
  EXPECT_THROW(atomic_stackelberg_share(ok, 1.5), Error);
}

}  // namespace
}  // namespace stackroute
