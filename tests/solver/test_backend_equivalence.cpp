// Cross-backend equivalence: the three equilibrium backends (path
// equalization, Frank–Wolfe, bush) minimize the same convex programs, so
// they must agree on the equilibrium cost to their gap tolerances — not
// bitwise — across generator families and seeds. Plus the bush solver's
// own contracts: warm-vs-cold agreement, honest degraded statuses, and
// bitwise thread-count invariance (solver level here; the sweep-table
// level lives in sweep/test_warm_chains-style coverage below), and the
// solve frame solve_equilibrium wraps around every backend: budget,
// deadline, the single cold retry of a degraded warm run, trace spans.
#include "stackroute/solver/backend.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "stackroute/equilibrium/network.h"
#include "stackroute/gen/registry.h"
#include "stackroute/network/generators.h"
#include "stackroute/obs/counters.h"
#include "stackroute/obs/trace.h"
#include "stackroute/sweep/runner.h"
#include "stackroute/sweep/scenario.h"
#include "stackroute/util/error.h"
#include "stackroute/util/fault.h"
#include "stackroute/util/numeric.h"
#include "stackroute/util/parallel.h"
#include "stackroute/util/rng.h"

namespace stackroute {
namespace {

constexpr EquilibriumBackend kBush = EquilibriumBackend::kBush;

double rel_diff(double a, double b) {
  return std::fabs(a - b) / std::fmax(1.0, std::fmax(std::fabs(a), std::fabs(b)));
}

EquilibriumRequest request(EquilibriumBackend backend,
                           FlowObjective objective = FlowObjective::kBeckmann) {
  EquilibriumRequest req;
  req.backend = backend;
  req.objective = objective;
  return req;
}

TEST(BackendRegistry, NamesRoundTrip) {
  for (EquilibriumBackend b : equilibrium_backends()) {
    EXPECT_EQ(parse_equilibrium_backend(to_string(b)), b);
  }
  EXPECT_EQ(parse_equilibrium_backend("path-equalization"),
            EquilibriumBackend::kPathEqualization);
  EXPECT_EQ(parse_equilibrium_backend("frank-wolfe"),
            EquilibriumBackend::kFrankWolfe);
  EXPECT_THROW(parse_equilibrium_backend("simplex"), Error);
  EXPECT_THROW(parse_equilibrium_backend(""), Error);
}

TEST(Bush, PigouNashAndOptimum) {
  const NetworkInstance inst = to_network(pigou());
  const EquilibriumResult nash = solve_equilibrium(inst, request(kBush));
  EXPECT_TRUE(solve_ok(nash.status));
  EXPECT_EQ(nash.status, SolveStatus::kConverged);
  EXPECT_NEAR(nash.edge_flow[0], 1.0, 1e-8);
  EXPECT_NEAR(nash.edge_flow[1], 0.0, 1e-8);

  const EquilibriumResult opt =
      solve_equilibrium(inst, request(kBush, FlowObjective::kTotalCost));
  EXPECT_TRUE(solve_ok(opt.status));
  EXPECT_NEAR(opt.edge_flow[0], 0.5, 1e-6);
  EXPECT_NEAR(opt.edge_flow[1], 0.5, 1e-6);
}

TEST(Bush, BraessNashMatchesClosedForm) {
  const NetworkInstance inst = braess_classic();
  const EquilibriumResult r = solve_equilibrium(inst, request(kBush));
  ASSERT_TRUE(solve_ok(r.status));
  // All flow takes s→v→w→t at Nash; C(N) = 2.
  EXPECT_NEAR(cost(inst, r.edge_flow), 2.0, 1e-7);
}

TEST(Bush, ReachesTightGapOnMulticommodityGrid) {
  Rng rng(91);
  const NetworkInstance inst = grid_city_multicommodity(rng, 5, 5, 6, 0.5, 2.0);
  EquilibriumRequest req = request(kBush);
  req.bush.rel_gap_tol = 1e-10;
  const EquilibriumResult r = solve_equilibrium(inst, req);
  EXPECT_TRUE(solve_ok(r.status)) << "gap " << r.rel_gap << " status "
                           << to_string(r.status);
  EXPECT_LE(r.rel_gap, 1e-10);
}

// The headline equivalence sweep: three backends, several generator
// families, several seeds; equilibrium *costs* agree to the loosest
// backend's tolerance (FW at 1e-5, like its own suite — the O(1/k) tail
// makes tighter gaps impractical, which is the bush backend's whole
// point).
TEST(BackendEquivalence, NashCostAgreesAcrossFamiliesAndSeeds) {
  struct Family {
    const char* name;
    NetworkInstance (*make)(Rng&);
  };
  const Family families[] = {
      {"grid", [](Rng& rng) { return grid_city(rng, 4, 4, 2.0); }},
      {"grid-multi",
       [](Rng& rng) { return grid_city_multicommodity(rng, 4, 4, 4, 0.5, 1.5); }},
      {"dag", [](Rng& rng) { return random_layered_dag(rng, 3, 3, 0.7, 1.5); }},
  };
  for (const Family& fam : families) {
    for (std::uint64_t seed : {1u, 7u, 23u}) {
      Rng rng(seed);
      const NetworkInstance inst = fam.make(rng);
      SolverWorkspace ws;

      EquilibriumRequest req;
      req.backend = EquilibriumBackend::kPathEqualization;
      const EquilibriumResult pe =
          solve_equilibrium(inst, {}, req, ws, nullptr, nullptr);
      ASSERT_TRUE(solve_ok(pe.status)) << fam.name << " seed " << seed;
      EXPECT_FALSE(pe.commodity_paths.empty());

      req.backend = EquilibriumBackend::kFrankWolfe;
      req.frank_wolfe.rel_gap_tol = 1e-5;
      const EquilibriumResult fw =
          solve_equilibrium(inst, {}, req, ws, nullptr, nullptr);
      ASSERT_TRUE(solve_ok(fw.status)) << fam.name << " seed " << seed;

      req.backend = EquilibriumBackend::kBush;
      const EquilibriumResult bush =
          solve_equilibrium(inst, {}, req, ws, nullptr, nullptr);
      ASSERT_TRUE(solve_ok(bush.status))
          << fam.name << " seed " << seed << " gap " << bush.rel_gap;

      const double c_pe = cost(inst, pe.edge_flow);
      const double c_fw = cost(inst, fw.edge_flow);
      const double c_bush = cost(inst, bush.edge_flow);
      EXPECT_LE(rel_diff(c_pe, c_bush), 1e-6)
          << fam.name << " seed " << seed << ": pe " << c_pe << " bush "
          << c_bush;
      EXPECT_LE(rel_diff(c_fw, c_bush), 1e-3)
          << fam.name << " seed " << seed << ": fw " << c_fw << " bush "
          << c_bush;
    }
  }
}

TEST(BackendEquivalence, OptimumCostAgreesOnGrid) {
  Rng rng(5);
  const NetworkInstance inst = grid_city(rng, 4, 4, 2.5);
  const auto pe = solve_equilibrium(inst, FlowObjective::kTotalCost);
  ASSERT_TRUE(solve_ok(pe.status));
  const EquilibriumResult bush =
      solve_equilibrium(inst, request(kBush, FlowObjective::kTotalCost));
  ASSERT_TRUE(solve_ok(bush.status));
  EXPECT_LE(rel_diff(cost(inst, pe.edge_flow), cost(inst, bush.edge_flow)),
            1e-6);
}

TEST(Bush, WarmMatchesColdAcrossDemandScale) {
  Rng rng(17);
  const NetworkInstance base = grid_city_multicommodity(rng, 4, 5, 5, 0.5, 2.0);

  const EquilibriumRequest req = request(kBush);
  SolverWorkspace ws;
  EquilibriumWarmState warm;
  obs::SolveCounters sink;
  obs::CountersScope scope(sink);

  const EquilibriumResult first =
      solve_equilibrium(base, {}, req, ws, nullptr, &warm);
  ASSERT_TRUE(solve_ok(first.status));
  ASSERT_FALSE(warm.bush.empty());

  NetworkInstance scaled = base;
  for (Commodity& com : scaled.commodities) com.demand *= 1.15;

  const std::uint64_t hits_before = sink.warm_hits;
  const EquilibriumResult warm_run =
      solve_equilibrium(scaled, {}, req, ws, &warm, &warm);
  ASSERT_TRUE(solve_ok(warm_run.status));
  EXPECT_EQ(sink.warm_hits, hits_before + 1) << "warm payload not accepted";

  SolverWorkspace ws_cold;
  const EquilibriumResult cold_run =
      solve_equilibrium(scaled, {}, req, ws_cold, nullptr, nullptr);
  ASSERT_TRUE(solve_ok(cold_run.status));
  EXPECT_LE(rel_diff(cost(scaled, warm_run.edge_flow),
                     cost(scaled, cold_run.edge_flow)),
            1e-8);
}

TEST(Bush, MismatchedWarmPayloadFallsBackCold) {
  Rng rng(29);
  const NetworkInstance a = grid_city(rng, 4, 4, 2.0);
  Rng rng2(31);
  NetworkInstance b = grid_city(rng2, 4, 4, 2.0);
  b.commodities[0].sink = b.commodities[0].sink - 1;  // different endpoints

  const EquilibriumRequest req = request(kBush);
  SolverWorkspace ws;
  EquilibriumWarmState warm;
  ASSERT_TRUE(
      solve_ok(solve_equilibrium(a, {}, req, ws, nullptr, &warm).status));

  obs::SolveCounters sink;
  obs::CountersScope scope(sink);
  const EquilibriumResult r = solve_equilibrium(b, {}, req, ws, &warm, nullptr);
  EXPECT_TRUE(solve_ok(r.status));
  EXPECT_EQ(sink.warm_attempts, 1u);
  EXPECT_EQ(sink.warm_hits, 0u);
}

TEST(Bush, EdgeFlowBitwiseInvariantAcrossThreadCounts) {
  Rng rng(43);
  const NetworkInstance inst = grid_city_multicommodity(rng, 5, 5, 8, 0.5, 2.0);
  const int saved = max_threads_setting();

  set_max_threads(1);
  const EquilibriumResult serial = solve_equilibrium(inst, request(kBush));
  set_max_threads(4);
  const EquilibriumResult parallel = solve_equilibrium(inst, request(kBush));
  set_max_threads(saved);

  ASSERT_TRUE(solve_ok(serial.status));
  ASSERT_EQ(serial.edge_flow.size(), parallel.edge_flow.size());
  for (std::size_t e = 0; e < serial.edge_flow.size(); ++e) {
    EXPECT_EQ(serial.edge_flow[e], parallel.edge_flow[e]) << "edge " << e;
  }
  EXPECT_EQ(serial.rel_gap, parallel.rel_gap);
  EXPECT_EQ(serial.iterations, parallel.iterations);
}

TEST(Bush, HonestIterLimitStatus) {
  Rng rng(3);
  const NetworkInstance inst = grid_city(rng, 4, 4, 3.0);
  EquilibriumRequest req = request(kBush);
  req.budget.max_iters = 1;
  req.bush.rel_gap_tol = 0.0;
  const EquilibriumResult r = solve_equilibrium(inst, req);
  EXPECT_FALSE(solve_ok(r.status));
  EXPECT_EQ(r.status, SolveStatus::kIterLimit);
  EXPECT_GT(r.rel_gap, 0.0);
  EXPECT_TRUE(std::isfinite(r.rel_gap));
}

TEST(Bush, BudgetDeadlineReportsDeadlineExceeded) {
  Rng rng(3);
  const NetworkInstance inst = grid_city(rng, 5, 5, 3.0);
  EquilibriumRequest req = request(kBush);
  req.bush.rel_gap_tol = 0.0;  // never converges; only the budget can stop it
  req.budget.deadline_ms = 1e-3;
  const EquilibriumResult r = solve_equilibrium(inst, req);
  EXPECT_FALSE(solve_ok(r.status));
  EXPECT_EQ(r.status, SolveStatus::kDeadlineExceeded);
}

TEST(Bush, CountersReportShiftsAndRebuilds) {
  Rng rng(47);
  const NetworkInstance inst = grid_city_multicommodity(rng, 4, 4, 4, 0.5, 2.0);
  obs::SolveCounters sink;
  {
    obs::CountersScope scope(sink);
    const EquilibriumResult r = solve_equilibrium(inst, request(kBush));
    ASSERT_TRUE(solve_ok(r.status));
    EXPECT_GT(r.counters.bush_shifts, 0u);
    EXPECT_GT(r.counters.dijkstra_calls, 0u);
  }
  EXPECT_GT(sink.bush_shifts, 0u);
  EXPECT_GT(sink.gap_checks, 0u);
}

/// Synthetic Anaheim (416 nodes / 914 links / 380 OD pairs) with every OD
/// demand scaled by `factor`.
NetworkInstance anaheim_at(double factor) {
  NetworkInstance inst = std::get<NetworkInstance>(sweep::load_instance_file(
      sweep::locate_data_file("examples/instances/Anaheim_net.tntp")));
  for (Commodity& com : inst.commodities) com.demand *= factor;
  return inst;
}

// The system optimum on the bush backend reaches 1e-10 and pe's objective
// at the two 0.8-1.3x ramp points whose cost-improving edges point backward
// in some bush's order — the case an admission rule that can close a cycle
// gets stuck on at the iteration cap.
TEST(Bush, TotalCostConvergesOnAnaheim) {
  for (const double factor : {0.925, 1.175}) {
    const NetworkInstance inst = anaheim_at(factor);
    const EquilibriumResult bush =
        solve_equilibrium(inst, request(kBush, FlowObjective::kTotalCost));
    EXPECT_EQ(bush.status, SolveStatus::kConverged) << "factor " << factor;
    EXPECT_LE(bush.rel_gap, 1e-10) << "factor " << factor;
    const EquilibriumResult pe = solve_equilibrium(
        inst, request(EquilibriumBackend::kPathEqualization,
                      FlowObjective::kTotalCost));
    ASSERT_TRUE(solve_ok(pe.status));
    EXPECT_LE(std::fabs(bush.objective - pe.objective),
              1e-9 * std::fabs(pe.objective))
        << "factor " << factor;
  }
}

// Every published bush is acyclic with its stored order as the witness:
// each node listed once, the origin first, pos[tail] < pos[head] on every
// bush edge, and flow only on bush edges.
TEST(Bush, PublishedBushesAreTopological) {
  for (const double factor : {0.925, 1.175}) {
    const NetworkInstance inst = anaheim_at(factor);
    SolverWorkspace ws;
    EquilibriumWarmState warm;
    const EquilibriumResult r =
        solve_equilibrium(inst, {}, request(kBush, FlowObjective::kTotalCost),
                          ws, nullptr, &warm);
    ASSERT_TRUE(solve_ok(r.status)) << "factor " << factor;
    ASSERT_FALSE(warm.bush.bushes.empty());
    const Graph& g = inst.graph;
    for (const OriginBush& b : warm.bush.bushes) {
      std::vector<int> pos(static_cast<std::size_t>(g.num_nodes()), -1);
      for (std::size_t i = 0; i < b.order.size(); ++i) {
        const auto v = static_cast<std::size_t>(b.order[i]);
        ASSERT_EQ(pos[v], -1) << "node " << v << " listed twice";
        pos[v] = static_cast<int>(i);
      }
      ASSERT_FALSE(b.order.empty());
      EXPECT_EQ(b.order.front(), b.origin);
      ASSERT_EQ(b.in_bush.size(), static_cast<std::size_t>(g.num_edges()));
      for (std::size_t e = 0; e < b.in_bush.size(); ++e) {
        if (!b.in_bush[e]) {
          EXPECT_EQ(b.flow[e], 0.0) << "flow off the bush, edge " << e;
          continue;
        }
        const Edge& ed = g.edge(static_cast<EdgeId>(e));
        const int pt = pos[static_cast<std::size_t>(ed.tail)];
        const int ph = pos[static_cast<std::size_t>(ed.head)];
        EXPECT_GE(pt, 0) << "edge " << e;
        EXPECT_LT(pt, ph) << "origin " << b.origin << ", edge " << e;
      }
    }
  }
}

TEST(BackendWarmState, SwitchingBackendsDropsPayloads) {
  Rng rng(11);
  const NetworkInstance inst = grid_city(rng, 3, 3, 1.5);
  SolverWorkspace ws;
  EquilibriumWarmState warm;

  EquilibriumRequest req;
  req.backend = EquilibriumBackend::kFrankWolfe;
  ASSERT_TRUE(
      solve_ok(solve_equilibrium(inst, {}, req, ws, &warm, &warm).status));
  EXPECT_EQ(warm.backend, EquilibriumBackend::kFrankWolfe);
  EXPECT_FALSE(warm.fw_flow.empty());

  req.backend = EquilibriumBackend::kBush;
  ASSERT_TRUE(
      solve_ok(solve_equilibrium(inst, {}, req, ws, &warm, &warm).status));
  EXPECT_EQ(warm.backend, EquilibriumBackend::kBush);
  EXPECT_TRUE(warm.fw_flow.empty()) << "FW payload must not survive a switch";
  EXPECT_FALSE(warm.bush.empty());

  req.backend = EquilibriumBackend::kPathEqualization;
  ASSERT_TRUE(
      solve_ok(solve_equilibrium(inst, {}, req, ws, &warm, &warm).status));
  EXPECT_EQ(warm.backend, EquilibriumBackend::kPathEqualization);
  EXPECT_TRUE(warm.bush.empty()) << "bush payload must not survive a switch";
  EXPECT_FALSE(warm.paths.empty());
}

// ---- The solve frame, for every backend ----------------------------------

TEST(SolveFrame, IterationBudgetGivesIterLimitWithHonestBound) {
  Rng rng(11);
  const NetworkInstance inst = grid_city(rng, 4, 4, 3.0);
  for (EquilibriumBackend b : equilibrium_backends()) {
    EquilibriumRequest req = request(b);
    req.assignment.tol = 1e-12;
    req.frank_wolfe.rel_gap_tol = 1e-12;
    req.bush.rel_gap_tol = 0.0;
    req.budget.max_iters = 2;
    const EquilibriumResult r = solve_equilibrium(inst, req);
    EXPECT_EQ(r.status, SolveStatus::kIterLimit) << to_string(b);
    // The achieved bound in the backend's native metric is reported, not
    // the tolerance it missed.
    const double bound =
        b == EquilibriumBackend::kPathEqualization ? r.spread : r.rel_gap;
    EXPECT_GT(bound, 1e-12) << to_string(b);
    double total = 0.0;
    for (double f : r.edge_flow) {
      EXPECT_TRUE(std::isfinite(f)) << to_string(b);
      total += f;
    }
    EXPECT_GT(total, 0.0) << to_string(b);  // best-so-far still routes
  }
}

TEST(SolveFrame, PassedDeadlineGivesDeadlineExceeded) {
  Rng rng(11);
  const NetworkInstance inst = grid_city(rng, 4, 4, 3.0);
  for (EquilibriumBackend b : equilibrium_backends()) {
    EquilibriumRequest req = request(b);
    req.budget.deadline_ns = 1;  // epoch + 1 ns: long expired
    const EquilibriumResult r = solve_equilibrium(inst, req);
    EXPECT_EQ(r.status, SolveStatus::kDeadlineExceeded) << to_string(b);
    for (double f : r.edge_flow) EXPECT_TRUE(std::isfinite(f)) << to_string(b);
  }
}

TEST(SolveFrame, DegradedWarmRunGetsExactlyOneColdRetry) {
  Rng rng(19);
  const NetworkInstance base = grid_city(rng, 4, 4, 2.0);
  NetworkInstance scaled = base;
  for (Commodity& com : scaled.commodities) com.demand *= 1.1;
  for (EquilibriumBackend b : equilibrium_backends()) {
    EquilibriumRequest req = request(b);
    req.frank_wolfe.rel_gap_tol = 1e-4;
    SolverWorkspace ws;
    EquilibriumWarmState warm;
    ASSERT_TRUE(
        solve_ok(solve_equilibrium(base, {}, req, ws, nullptr, &warm).status))
        << to_string(b);
    SolverWorkspace cold_ws;
    const EquilibriumResult cold =
        solve_equilibrium(scaled, {}, req, cold_ws, nullptr, nullptr);

    // The first latency evaluation of the warm run returns NaN: the warm
    // run degrades, the frame reruns cold once, and the (consumed) fault
    // leaves the cold rerun clean — bitwise the plain cold solve.
    fault::TaskFaults tf;
    tf.latency.push_back({0, false});
    obs::SolveCounters sink;
    EquilibriumResult r;
    {
      obs::CountersScope counters(sink);
      fault::FaultScope scope(&tf, 0);
      r = solve_equilibrium(scaled, {}, req, ws, &warm, nullptr);
    }
    EXPECT_EQ(sink.warm_attempts, 1u) << to_string(b);
    EXPECT_EQ(sink.warm_hits, 1u) << to_string(b);
    EXPECT_EQ(sink.warm_fallbacks, 1u) << to_string(b);
    EXPECT_EQ(r.status, cold.status) << to_string(b);
    EXPECT_EQ(r.iterations, cold.iterations) << to_string(b);
    ASSERT_EQ(r.edge_flow.size(), cold.edge_flow.size());
    for (std::size_t e = 0; e < r.edge_flow.size(); ++e) {
      EXPECT_EQ(r.edge_flow[e], cold.edge_flow[e])
          << to_string(b) << " edge " << e;
    }

    // The retry draws on the same gate: a warm run stopped by the
    // deadline is not retried, since no time is left to retry with.
    EquilibriumRequest late = req;
    late.budget.deadline_ns = 1;
    obs::SolveCounters late_sink;
    obs::CountersScope counters(late_sink);
    const EquilibriumResult timed_out =
        solve_equilibrium(scaled, {}, late, ws, &warm, nullptr);
    EXPECT_EQ(timed_out.status, SolveStatus::kDeadlineExceeded)
        << to_string(b);
    EXPECT_EQ(late_sink.warm_hits, 1u) << to_string(b);
    EXPECT_EQ(late_sink.warm_fallbacks, 0u) << to_string(b);
  }
}

TEST(SolveFrame, TraceCarriesTheBackendSpan) {
  Rng rng(5);
  const NetworkInstance inst = grid_city(rng, 3, 3, 1.5);
  const char* const spans[] = {"assign_traffic", "frank_wolfe", "bush"};
  for (EquilibriumBackend b : equilibrium_backends()) {
    obs::TraceSession session;
    {
      obs::TraceScope trace(session);
      (void)solve_equilibrium(inst, request(b));
    }
    EXPECT_TRUE(session.balanced()) << to_string(b);
    std::ostringstream os;
    session.write_chrome_trace(os);
    const std::string name =
        std::string("\"name\":\"") + spans[static_cast<int>(b)] + "\"";
    EXPECT_NE(os.str().find(name), std::string::npos) << to_string(b);
  }
}

// Sweep-table level: a bush-backed demand sweep exports byte-identical
// tables at 1 and N threads (the same contract the golden pe tables
// hold), every row converged.
TEST(BackendSweep, BushTableBitwiseInvariantAcrossThreadCounts) {
  sweep::ScenarioSpec spec;
  spec.name = "bush-threads";
  spec.grid.add_linspace("demand", 0.5, 2.0, 6);
  spec.factory =
      sweep::generated_instance_source(gen::sized_spec("grid-bpr", 4), 11);
  spec.metrics = {sweep::metric_nash_cost()};
  spec.warm_axis = "demand";
  spec.backend = EquilibriumBackend::kBush;

  const auto run_at = [&](int threads) {
    const int saved = max_threads_setting();
    set_max_threads(threads);
    sweep::SweepResult result =
        sweep::SweepRunner(sweep::SweepOptions{}).run(spec);
    set_max_threads(saved);
    return result;
  };
  const sweep::SweepResult serial = run_at(1);
  const sweep::SweepResult parallel = run_at(4);
  EXPECT_EQ(serial.num_failed(), 0u);
  EXPECT_EQ(serial.num_degraded(), 0u);
  EXPECT_EQ(serial.to_csv(), parallel.to_csv());
}

}  // namespace
}  // namespace stackroute
