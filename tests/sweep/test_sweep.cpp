// Scenario sweep engine: grid expansion, determinism across thread
// counts, closed-form checks on the Pigou grid, file-backed sources and
// failure reporting.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "stackroute/io/serialize.h"
#include "stackroute/network/generators.h"
#include "stackroute/sweep/runner.h"
#include "stackroute/sweep/scenarios.h"
#include "stackroute/util/error.h"
#include "stackroute/util/parallel.h"

namespace stackroute::sweep {
namespace {

TEST(ParamGrid, ExpansionCounts) {
  ParamGrid g;
  EXPECT_EQ(g.size(), 1u);  // axis-free grid: one empty point
  EXPECT_EQ(g.at(0).size(), 0u);

  g.add("a", {1, 2, 3}).add("b", {10, 20}).add_range("c", 0, 4);
  EXPECT_EQ(g.num_axes(), 3u);
  EXPECT_EQ(g.size(), 3u * 2u * 5u);
  EXPECT_THROW(g.at(g.size()), Error);
}

TEST(ParamGrid, RowMajorDecoding) {
  ParamGrid g;
  g.add("a", {1, 2}).add("b", {10, 20, 30});
  // First axis slowest: index = a_idx * 3 + b_idx.
  const ParamPoint p = g.at(4);  // a_idx 1, b_idx 1
  EXPECT_DOUBLE_EQ(p.get("a"), 2);
  EXPECT_DOUBLE_EQ(p.get("b"), 20);
  const ParamPoint last = g.at(5);
  EXPECT_DOUBLE_EQ(last.get("a"), 2);
  EXPECT_DOUBLE_EQ(last.get("b"), 30);
}

TEST(ParamGrid, LinspaceAndRange) {
  ParamGrid g;
  g.add_linspace("x", 0.0, 1.0, 5).add_linspace("y", 2.0, 2.0, 1);
  EXPECT_EQ(g.size(), 5u);
  EXPECT_DOUBLE_EQ(g.at(2).get("x"), 0.5);
  EXPECT_DOUBLE_EQ(g.at(0).get("y"), 2.0);

  ParamGrid r;
  r.add_range("n", 2, 8, 3);  // 2, 5, 8
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.at(2).get_int("n"), 8);
}

TEST(ParamGrid, RejectsBadAxes) {
  ParamGrid g;
  g.add("a", {1});
  EXPECT_THROW(g.add("a", {2}), Error);  // duplicate name
  EXPECT_THROW(g.add("b", {}), Error);   // empty values
  EXPECT_THROW(g.add_linspace("c", 0, 1, 0), Error);
  EXPECT_THROW(g.add_range("d", 3, 1), Error);
}

TEST(ParamPoint, Lookup) {
  ParamPoint p({"demand", "degree"}, {1.5, 3.0});
  EXPECT_DOUBLE_EQ(p.get("demand"), 1.5);
  EXPECT_EQ(p.get_int("degree"), 3);
  EXPECT_TRUE(p.has("degree"));
  EXPECT_FALSE(p.has("slope"));
  EXPECT_DOUBLE_EQ(p.get_or("slope", 7.0), 7.0);
  EXPECT_THROW((void)p.get("slope"), Error);
  EXPECT_THROW((void)p.get_int("demand"), Error);  // 1.5 is not integral
}

TEST(ParamPoint, GetIntToleratesLargeLinspaceValues) {
  // Regression: the integrality check used an absolute 1e-9 tolerance, so
  // large integral axis values carrying magnitude-proportional linspace
  // rounding (a size axis near 1e6+) were spuriously rejected. The dirt
  // below (5e-8 absolute, 5e-14 relative) fails the old check and passes
  // the mixed one.
  ParamPoint dirty({"size"}, {1000000.00000005});
  EXPECT_EQ(dirty.get_int("size"), 1000000);

  // A genuinely fractional value still throws at any magnitude — the
  // relative term must never grow loose enough to bless real fractions.
  ParamPoint frac({"size"}, {1000000.25});
  EXPECT_THROW((void)frac.get_int("size"), Error);
  ParamPoint frac_large({"size"}, {600000000.3});
  EXPECT_THROW((void)frac_large.get_int("size"), Error);
  // Near INT_MAX an uncapped relative tolerance would reach ~2e-3 and
  // bless this milli-fraction; the 1e-6 cap must reject it.
  ParamPoint frac_huge({"size"}, {2000000000.001});
  EXPECT_THROW((void)frac_huge.get_int("size"), Error);

  // Whole grids: a large linspace-generated integer axis round-trips.
  ParamGrid g;
  g.add_linspace("size", 1000000.0, 5000000.0, 5);
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(g.at(i).get_int("size"),
              1000000 + 1000000 * static_cast<int>(i));
  }
}

TEST(ParamPoint, GetIntRejectsIntOverflowInsteadOfUB) {
  // The old static_cast<int> of an out-of-range double was UB; now it is a
  // precondition error. 3e15 is integral to relative tolerance (its
  // linspace dirt sits below 1 ulp of the value) but cannot fit in int.
  ParamPoint huge({"size"}, {3.0e15});
  EXPECT_THROW((void)huge.get_int("size"), Error);
  ParamPoint negative({"size"}, {-3.0e15});
  EXPECT_THROW((void)negative.get_int("size"), Error);
  // INT_MAX itself still converts.
  ParamPoint edge({"size"}, {2147483647.0});
  EXPECT_EQ(edge.get_int("size"), 2147483647);
}

ScenarioSpec randomized_spec() {
  ScenarioSpec spec;
  spec.name = "test-affine";
  spec.grid.add("links", {2, 3}).add("demand", {0.5, 1.0}).add_range(
      "replicate", 0, 4);
  spec.factory = [](const ParamPoint& p, Rng& rng) -> engine::Instance {
    return random_affine_links(rng, p.get_int("links"), p.get("demand"));
  };
  spec.metrics = default_metrics();
  spec.base_seed = 99;
  return spec;
}

TEST(SweepRunner, DeterministicAcrossThreadCounts) {
  const ScenarioSpec spec = randomized_spec();
  set_max_threads(1);
  const SweepResult serial = SweepRunner().run(spec);
  set_max_threads(0);  // library default: all cores
  const SweepResult threaded = SweepRunner().run(spec);
  set_max_threads(0);

  ASSERT_EQ(serial.num_tasks(), spec.grid.size());
  EXPECT_EQ(serial.num_failed(), 0u);
  // Bitwise-equal metric records, hence byte-identical exports.
  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    ASSERT_EQ(serial.records[i].metrics.size(),
              threaded.records[i].metrics.size());
    for (std::size_t k = 0; k < serial.records[i].metrics.size(); ++k) {
      EXPECT_EQ(serial.records[i].metrics[k], threaded.records[i].metrics[k]);
    }
  }
  EXPECT_EQ(serial.to_csv(), threaded.to_csv());
  EXPECT_EQ(serial.to_markdown(), threaded.to_markdown());
  EXPECT_EQ(serial.to_json(), threaded.to_json());
}

TEST(SweepRunner, SeedChangesRandomizedResults) {
  ScenarioSpec spec = randomized_spec();
  const SweepResult a = SweepRunner().run(spec);
  spec.base_seed = 100;
  const SweepResult b = SweepRunner().run(spec);
  EXPECT_NE(a.to_csv(), b.to_csv());
}

TEST(SweepRunner, PigouGridMatchesClosedForms) {
  // Unit-demand slice of the builtin grid: β = 1 − (d+1)^{−1/d} and
  // ρ = (1 − d·(d+1)^{−(d+1)/d})^{−1} (§1 of the paper; the second factor
  // d·(d+1)^{−(d+1)/d} is the optimum's load-dependent cost share).
  ScenarioSpec spec = make_scenario("pigou-grid");
  spec.grid = ParamGrid().add_range("degree", 1, 8).add("demand", {1.0});
  const SweepResult result = SweepRunner().run(spec);
  ASSERT_EQ(result.num_tasks(), 8u);
  ASSERT_EQ(result.num_failed(), 0u);
  ASSERT_EQ(result.metric_columns[0], "beta");
  ASSERT_EQ(result.metric_columns[1], "poa");
  for (const TaskRecord& rec : result.records) {
    const double d = rec.point.get("degree");
    const double beta_closed = 1.0 - std::pow(d + 1.0, -1.0 / d);
    const double rho_closed =
        1.0 / (1.0 - d * std::pow(d + 1.0, -(d + 1.0) / d));
    EXPECT_NEAR(rec.metrics[0], beta_closed, 1e-7) << "degree " << d;
    EXPECT_NEAR(rec.metrics[1], rho_closed, 1e-6) << "degree " << d;
    // C(S+T) = C(O): the strategy induces the optimum exactly (Thm 2.1).
    EXPECT_NEAR(rec.metrics[4], rec.metrics[3], 1e-9);
  }
}

TEST(SweepRunner, BuiltinScenariosAreWellFormed) {
  for (const auto& named : builtin_scenarios()) {
    const ScenarioSpec spec = named.make();
    EXPECT_EQ(spec.name, named.name);
    EXPECT_TRUE(spec.factory);
    EXPECT_FALSE(spec.metrics.empty());
    EXPECT_GE(spec.grid.size(), 1u);
  }
  EXPECT_THROW(make_scenario("no-such-scenario"), Error);
}

TEST(SweepRunner, FileInstanceSourceSweepsDemand) {
  const std::string path = "sweep_test_fig4.links";
  {
    std::ofstream out(path);
    write_instance(out, fig4_instance());
  }
  ScenarioSpec spec;
  spec.name = "file-test";
  spec.grid.add("demand", {0.5, 1.0, 2.0});
  spec.factory = file_instance_source(path);
  spec.metrics = {metric_beta(), metric_nash_cost(), metric_optimum_cost()};
  const SweepResult result = SweepRunner().run(spec);
  ASSERT_EQ(result.num_tasks(), 3u);
  EXPECT_EQ(result.num_failed(), 0u);
  // Fig. 4 at its native demand r = 1: β = 29/120.
  EXPECT_NEAR(result.records[1].metrics[0], 29.0 / 120.0, 1e-7);
  // Costs grow with demand.
  EXPECT_LT(result.records[0].metrics[2], result.records[1].metrics[2]);
  EXPECT_LT(result.records[1].metrics[2], result.records[2].metrics[2]);

  EXPECT_THROW(file_instance_source("does_not_exist.links"), Error);
}

TEST(SweepRunner, OverrideDemandRescalesCommodities) {
  Rng rng(5);
  engine::Instance inst = grid_city_multicommodity(rng, 3, 3, 3, 0.2, 0.6);
  const auto& net = std::get<NetworkInstance>(inst);
  const double before = net.total_demand();
  ASSERT_GT(before, 0.0);
  const double share0 = net.commodities[0].demand / before;
  override_demand(inst, 2.5);
  EXPECT_NEAR(std::get<NetworkInstance>(inst).total_demand(), 2.5, 1e-12);
  // Proportional split preserved.
  EXPECT_NEAR(std::get<NetworkInstance>(inst).commodities[0].demand,
              share0 * 2.5, 1e-12);
}

TEST(SweepRunner, FailedTasksAreReportedNotFatal) {
  ScenarioSpec spec;
  spec.name = "failing";
  spec.grid.add("demand", {1.0, -1.0, 2.0});  // -1 is infeasible
  spec.factory = [](const ParamPoint& p, Rng&) -> engine::Instance {
    ParallelLinks m = pigou();
    m.demand = p.get("demand");
    m.validate();
    return m;
  };
  spec.metrics = {metric_beta()};
  const SweepResult result = SweepRunner().run(spec);
  EXPECT_EQ(result.num_failed(), 1u);
  EXPECT_FALSE(result.records[1].ok);
  EXPECT_FALSE(result.records[1].error.empty());
  EXPECT_TRUE(std::isnan(result.records[1].metrics[0]));
  EXPECT_TRUE(result.records[0].ok);
  EXPECT_NE(result.to_csv().find("error"), std::string::npos);

  SweepOptions fail_fast;
  fail_fast.keep_going = false;
  EXPECT_THROW(SweepRunner(fail_fast).run(spec), Error);
}

TEST(SweepRunner, NetworkMetricsDispatchToMop) {
  ScenarioSpec spec = make_scenario("braess-eps");
  spec.grid = ParamGrid().add("eps", {0.05});
  const SweepResult result = SweepRunner().run(spec);
  ASSERT_EQ(result.num_failed(), 0u);
  // β_G = 1/2 + 2ε on the Fig. 7 family.
  EXPECT_NEAR(result.records[0].metrics[0], 0.6, 1e-6);
  EXPECT_NEAR(result.records[0].metrics[0], result.records[0].metrics[1],
              1e-6);
}

TEST(TaskEval, CachedRunsComputeOncePerTask) {
  ScenarioSpec spec;
  spec.name = "cached";
  spec.grid.add("x", {1.0, 2.0});
  spec.factory = [](const ParamPoint&, Rng&) -> engine::Instance {
    return pigou();
  };
  // Both metrics share one cached solve; the counter metric reports how
  // many times compute ran for its own task (expected: exactly once).
  spec.metrics = {
      {"beta_cached",
       [](TaskEval& e) {
         return e.cached<double>("shared", [&] { return e.beta(); });
       }},
      {"compute_count",
       [](TaskEval& e) {
         int runs = 0;
         (void)e.cached<double>("shared", [&] {
           ++runs;
           return e.beta();
         });
         return static_cast<double>(runs);
       }}};
  const SweepResult result = SweepRunner().run(spec);
  ASSERT_EQ(result.num_failed(), 0u);
  for (const auto& rec : result.records) {
    EXPECT_DOUBLE_EQ(rec.metrics[0], 0.5);  // Pigou beta from the cache
    EXPECT_DOUBLE_EQ(rec.metrics[1], 0.0);  // already cached by metric 1
  }
}

TEST(SweepRunner, RequiresFactoryAndMetrics) {
  ScenarioSpec spec;
  spec.name = "empty";
  spec.metrics = {metric_beta()};
  EXPECT_THROW((void)SweepRunner().run(spec), Error);  // no factory
  spec.factory = [](const ParamPoint&, Rng&) -> engine::Instance {
    return pigou();
  };
  spec.metrics.clear();
  EXPECT_THROW((void)SweepRunner().run(spec), Error);  // no metrics
}

TEST(SweepRunner, RejectsDuplicateColumnNames) {
  ScenarioSpec spec;
  spec.name = "dup";
  spec.factory = [](const ParamPoint&, Rng&) -> engine::Instance {
    return pigou();
  };
  spec.metrics = {metric_beta(), metric_beta()};  // two "beta" columns
  EXPECT_THROW((void)SweepRunner().run(spec), Error);
  // A metric colliding with a grid axis name is just as ambiguous.
  spec.metrics = {metric_beta()};
  spec.grid.add("beta", {0.5});
  EXPECT_THROW((void)SweepRunner().run(spec), Error);
}

TEST(SweepRunner, RejectsReservedColumnNamesUpFront) {
  ScenarioSpec spec;
  spec.name = "reserved";
  spec.factory = [](const ParamPoint&, Rng&) -> engine::Instance {
    return pigou();
  };
  // "status" and "millis" are appended by table()/timing_table(); catching
  // the clash before the sweep runs avoids wasting the whole grid.
  spec.metrics = {{"status", [](TaskEval&) { return 1.0; }}};
  EXPECT_THROW((void)SweepRunner().run(spec), Error);
  spec.metrics = {{"millis", [](TaskEval&) { return 1.0; }}};
  EXPECT_THROW((void)SweepRunner().run(spec), Error);
}

TEST(SweepRunner, SinglePointSweepPinsInnerThreadsAndRestores) {
  ScenarioSpec spec;
  spec.name = "single";
  spec.factory = [](const ParamPoint&, Rng&) -> engine::Instance {
    return pigou();
  };
  // Observe the thread setting from inside the lone task: with no outer
  // fan-out possible, the runner must serialize the solvers' own parallel
  // reductions to keep the determinism contract.
  spec.metrics = {{"inner_max_threads", [](TaskEval&) {
                     return static_cast<double>(max_threads());
                   }}};
  set_max_threads(0);
  const SweepResult result = SweepRunner().run(spec);
  ASSERT_EQ(result.num_tasks(), 1u);
  EXPECT_DOUBLE_EQ(result.records[0].metrics[0], 1.0);
  EXPECT_EQ(max_threads_setting(), 0);  // restored afterwards
}

TEST(SweepRunner, ThreadsReportsParticipantsNotPoolSize) {
  // Three warm chains under an 8-thread setting fan out over three
  // participants only; the result must say so rather than echo the pool.
  ScenarioSpec spec = make_scenario("pigou-grid");
  spec.grid = ParamGrid().add("degree", {1, 2, 3}).add("demand", {1.0, 2.0});
  set_max_threads(8);
  const SweepResult result = SweepRunner().run(spec);
  set_max_threads(0);
  ASSERT_EQ(result.chains, 3u);
  EXPECT_EQ(result.threads, 3);
  EXPECT_NE(result.summary().find("3 thread(s)"), std::string::npos)
      << result.summary();
}

TEST(SweepResult, TableShapes) {
  ScenarioSpec spec = make_scenario("pigou-grid");
  spec.grid = ParamGrid().add("degree", {1, 2}).add("demand", {1.0});
  const SweepResult result = SweepRunner().run(spec);
  const Table t = result.table();
  EXPECT_EQ(t.num_rows(), 2u);
  // params + metrics + status; timing_table adds the millis column.
  const std::string csv = result.to_csv();
  EXPECT_EQ(csv.find("millis"), std::string::npos);
  EXPECT_NE(csv.find("degree,demand,beta"), std::string::npos);
  const std::string timed = result.timing_table().to_csv();
  EXPECT_NE(timed.find("millis"), std::string::npos);
}

}  // namespace
}  // namespace stackroute::sweep
