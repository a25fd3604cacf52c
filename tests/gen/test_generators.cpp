// The gen/ instance generators: structural guarantees, the registry front
// door, and the purity contract (same (spec, seed) -> bitwise-identical
// instance) the sweep determinism story rests on.
#include <gtest/gtest.h>

#include <variant>

#include "stackroute/equilibrium/network.h"
#include "stackroute/gen/generators.h"
#include "stackroute/gen/registry.h"
#include "stackroute/io/serialize.h"
#include "stackroute/latency/families.h"
#include "stackroute/util/error.h"

namespace stackroute {
namespace {

using gen::GeneratedInstance;

/// Canonical 17-digit text form — equal text means bitwise-equal params.
std::string render(const GeneratedInstance& inst) {
  if (const auto* m = std::get_if<ParallelLinks>(&inst)) return to_string(*m);
  return to_string(std::get<NetworkInstance>(inst));
}

TEST(Gen, GridShapeAndConnectivity) {
  gen::GridSpec spec;
  spec.rows = 3;
  spec.cols = 5;
  const NetworkInstance inst = gen::make_grid(spec, 42);
  EXPECT_EQ(inst.graph.num_nodes(), 15);
  // Planar: rightward rows*(cols-1) + downward cols*(rows-1).
  EXPECT_EQ(inst.graph.num_edges(), 3 * 4 + 5 * 2);
  EXPECT_NO_THROW(inst.validate());
  ASSERT_EQ(inst.commodities.size(), 1u);
  EXPECT_EQ(inst.commodities[0].source, 0);
  EXPECT_EQ(inst.commodities[0].sink, 14);
}

TEST(Gen, TorusAddsWrapArcs) {
  gen::GridSpec spec;
  spec.rows = 3;
  spec.cols = 5;
  spec.torus = true;
  const NetworkInstance inst = gen::make_grid(spec, 42);
  // Torus: every cell has exactly one rightward and one downward arc.
  EXPECT_EQ(inst.graph.num_edges(), 2 * 3 * 5);
  EXPECT_NO_THROW(inst.validate());
}

TEST(Gen, GridLatenciesAreBprWithinRanges) {
  gen::GridSpec spec;
  const NetworkInstance inst = gen::make_grid(spec, 7);
  for (EdgeId e = 0; e < inst.graph.num_edges(); ++e) {
    const auto& lat = *inst.graph.edge(e).latency;
    ASSERT_EQ(lat.kind(), LatencyKind::kBpr);
    const auto p = lat.params();  // {t0, cap, B, power}
    EXPECT_GE(p[0], spec.t0_lo);
    EXPECT_LE(p[0], spec.t0_hi);
    EXPECT_GE(p[1], spec.cap_lo);
    EXPECT_LE(p[1], spec.cap_hi);
    EXPECT_EQ(p[2], spec.bpr_b);
    EXPECT_EQ(p[3], spec.bpr_power);
  }
}

TEST(Gen, SeriesParallelDepthZeroIsSingleEdge) {
  gen::SeriesParallelSpec spec;
  spec.depth = 0;
  const NetworkInstance inst = gen::make_series_parallel(spec, 1);
  EXPECT_EQ(inst.graph.num_edges(), 1);
  EXPECT_NO_THROW(inst.validate());
}

TEST(Gen, SeriesParallelValidatesAcrossSeeds) {
  gen::SeriesParallelSpec spec;
  spec.depth = 4;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const NetworkInstance inst = gen::make_series_parallel(spec, seed);
    EXPECT_NO_THROW(inst.validate()) << "seed " << seed;
    EXPECT_GE(inst.graph.num_edges(), 1);
    EXPECT_LE(inst.graph.num_edges(), 81);  // max_branch^depth
  }
}

TEST(Gen, BraessLadderSingleRungIsTheClassicParadox) {
  gen::BraessLadderSpec spec;
  spec.rungs = 1;
  const NetworkInstance inst = gen::make_braess_ladder(spec, 99);
  EXPECT_EQ(inst.graph.num_nodes(), 4);
  EXPECT_EQ(inst.graph.num_edges(), 5);
  // Classic Braess at r = 1: all Nash flow on s->v->w->t at cost 2.
  EXPECT_NEAR(cost(inst, solve_equilibrium(inst).edge_flow), 2.0, 1e-9);
  EXPECT_NEAR(
      cost(inst, solve_equilibrium(inst, FlowObjective::kTotalCost).edge_flow),
      1.5, 1e-9);
}

TEST(Gen, BraessLadderWithoutJitterIgnoresSeed) {
  gen::BraessLadderSpec spec;
  spec.rungs = 3;
  EXPECT_EQ(render(gen::make_braess_ladder(spec, 1)),
            render(gen::make_braess_ladder(spec, 2)));
}

TEST(Gen, BraessLadderJitterVariesWithSeed) {
  gen::BraessLadderSpec spec;
  spec.rungs = 3;
  spec.jitter = 0.1;
  EXPECT_NE(render(gen::make_braess_ladder(spec, 1)),
            render(gen::make_braess_ladder(spec, 2)));
  EXPECT_NO_THROW(gen::make_braess_ladder(spec, 1).validate());
}

TEST(Gen, RandomDagHasSpineAndValidates) {
  gen::DagSpec spec;
  spec.nodes = 15;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const NetworkInstance inst = gen::make_random_dag(spec, seed);
    EXPECT_EQ(inst.graph.num_nodes(), 15);
    EXPECT_GE(inst.graph.num_edges(), 14);  // the connectivity spine
    EXPECT_NO_THROW(inst.validate()) << "seed " << seed;
    // DAG property: every edge goes strictly forward in node order.
    for (EdgeId e = 0; e < inst.graph.num_edges(); ++e) {
      EXPECT_LT(inst.graph.edge(e).tail, inst.graph.edge(e).head);
    }
  }
}

TEST(Gen, CommonSlopeFamilyMatchesTheorem24Shape) {
  gen::ParallelFamilySpec spec;
  spec.family = gen::ParallelFamilySpec::Family::kCommonSlope;
  spec.links = 6;
  spec.demand = 2.0;
  spec.slope = 1.5;
  const ParallelLinks m = gen::make_parallel_family(spec, 3);
  ASSERT_EQ(m.size(), 6u);
  double prev_b = -1.0;
  for (const auto& link : m.links) {
    const auto p = link->params();  // {a, b}
    EXPECT_EQ(p[0], 1.5);
    EXPECT_GT(p[1], prev_b);  // strictly increasing intercepts
    prev_b = p[1];
  }
}

TEST(Gen, Mm1FamilyIsFeasibleByConstruction) {
  gen::ParallelFamilySpec spec;
  spec.family = gen::ParallelFamilySpec::Family::kMm1;
  spec.links = 5;
  spec.demand = 4.0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const ParallelLinks m = gen::make_parallel_family(spec, seed);
    double cap = 0.0;
    for (const auto& link : m.links) cap += link->capacity();
    EXPECT_GT(cap, spec.demand) << "seed " << seed;
  }
}

TEST(Gen, EveryRegisteredFamilyIsPure) {
  for (const auto& info : gen::generator_registry()) {
    gen::GeneratorSpec spec;
    spec.family = info.name;
    const std::string a = render(gen::generate(spec, 12345));
    const std::string b = render(gen::generate(spec, 12345));
    EXPECT_EQ(a, b) << info.name;  // bitwise-identical at equal seeds
  }
}

TEST(Gen, RandomFamiliesVaryWithSeed) {
  for (const auto& info : gen::generator_registry()) {
    if (info.name == "braess-ladder") continue;  // jitter-free by default
    gen::GeneratorSpec spec;
    spec.family = info.name;
    EXPECT_NE(render(gen::generate(spec, 1)), render(gen::generate(spec, 2)))
        << info.name;
  }
}

TEST(Gen, RegistryRejectsUnknownFamilyAndKnob) {
  gen::GeneratorSpec spec;
  spec.family = "no-such-family";
  try {
    gen::generate(spec, 1);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("grid-bpr"), std::string::npos);
  }
  spec.family = "grid-bpr";
  spec.params["rowz"] = 4;  // typo must not silently fall back to defaults
  try {
    gen::generate(spec, 1);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("rowz"), std::string::npos);
  }
}

TEST(Gen, RegistryRejectsNonIntegerIntegerKnobs) {
  gen::GeneratorSpec spec;
  spec.family = "grid-bpr";
  spec.params["rows"] = 3.5;
  EXPECT_THROW(gen::generate(spec, 1), Error);
}

TEST(Gen, GenerateSizedDrivesTheSizeKnob) {
  const auto grid = gen::generate_sized("grid-bpr", 6, 1.0, 1);
  EXPECT_EQ(std::get<NetworkInstance>(grid).graph.num_nodes(), 36);
  const auto links = gen::generate_sized("parallel-affine", 12, 2.0, 1);
  const auto& m = std::get<ParallelLinks>(links);
  EXPECT_EQ(m.size(), 12u);
  EXPECT_EQ(m.demand, 2.0);
  // size 0 = family defaults.
  const auto dflt = gen::generate_sized("random-dag", 0, 1.0, 1);
  EXPECT_EQ(std::get<NetworkInstance>(dflt).graph.num_nodes(), 12);
}

TEST(Gen, SpecValidationThrows) {
  gen::GridSpec grid;
  grid.rows = 1;
  EXPECT_THROW(gen::make_grid(grid, 1), Error);
  gen::SeriesParallelSpec sp;
  sp.depth = 11;
  EXPECT_THROW(gen::make_series_parallel(sp, 1), Error);
  gen::BraessLadderSpec ladder;
  ladder.jitter = 1.0;
  EXPECT_THROW(gen::make_braess_ladder(ladder, 1), Error);
  gen::DagSpec dag;
  dag.edge_prob = 1.5;
  EXPECT_THROW(gen::make_random_dag(dag, 1), Error);
  gen::ParallelFamilySpec par;
  par.family = gen::ParallelFamilySpec::Family::kMm1;
  par.mu_margin = 1.0;
  EXPECT_THROW(gen::make_parallel_family(par, 1), Error);
}

}  // namespace
}  // namespace stackroute
