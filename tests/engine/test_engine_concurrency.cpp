// Engine under concurrency (engine/engine.h): many threads driving
// solve() and session open-close with no lost or duplicated
// responses and thread-count-invariant results, also beside direct
// pool-parallel solver calls; the byte budgets (table cache + session
// set) and the cancellation fast path that back the serve front end.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "stackroute/engine/engine.h"
#include "stackroute/gen/registry.h"
#include "stackroute/latency/families.h"
#include "stackroute/network/generators.h"
#include "stackroute/solver/backend.h"
#include "stackroute/util/parallel.h"
#include "stackroute/util/rng.h"

namespace stackroute::engine {
namespace {

Instance grid_instance(double demand, std::uint64_t seed = 3) {
  return Instance(gen::generate_sized("grid-bpr", 0, demand, seed));
}

Instance links_instance(double demand) {
  ParallelLinks m;
  m.links = {make_affine(1.0, 0.0), make_affine(2.0, 0.5), make_mm1(6.0)};
  m.demand = demand;
  return Instance(m);
}

SolveRequest request(RequestKind kind, Instance inst, std::uint64_t id,
                     std::uint64_t session = 0) {
  SolveRequest req;
  req.kind = kind;
  req.instance = std::move(inst);
  req.id = id;
  req.session = session;
  return req;
}

/// The request a (thread, step) pair issues everywhere below — demand
/// varies with the step so results are distinguishable per id.
SolveRequest stress_request(std::size_t thread, std::size_t step) {
  const std::uint64_t id = thread * 1000 + step;
  const double demand = 0.5 + 0.25 * static_cast<double>(step % 8);
  return request(RequestKind::kEquilibrium, links_instance(demand), id);
}

TEST(EngineConcurrencyTest, ConcurrentSolvesAreThreadCountInvariant) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 16;

  // Serial reference: same requests through plain solve() on a fresh
  // engine, one at a time.
  std::map<std::uint64_t, double> expected;
  {
    Engine serial;
    for (std::size_t t = 0; t < kThreads; ++t) {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const SolveRequest req = stress_request(t, i);
        const SolveResponse r = serial.solve(req);
        ASSERT_TRUE(r.ok) << r.error;
        expected[req.id] = r.cost;
      }
    }
  }

  Engine eng;
  std::mutex mu;
  std::map<std::uint64_t, double> got;  // id -> cost; map rejects dups
  std::atomic<std::size_t> duplicates{0};
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          const SolveRequest req = stress_request(t, i);
          const SolveResponse r = eng.solve(req);
          ASSERT_TRUE(r.ok) << r.error;
          ASSERT_EQ(r.id, req.id);
          const std::lock_guard<std::mutex> lock(mu);
          if (!got.emplace(r.id, r.cost).second) ++duplicates;
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }

  EXPECT_EQ(duplicates.load(), 0u);
  ASSERT_EQ(got.size(), kThreads * kPerThread);  // nothing lost
  for (const auto& [id, cost] : expected) {
    ASSERT_TRUE(got.count(id)) << "lost response id " << id;
    EXPECT_EQ(got[id], cost) << "id " << id;  // bitwise determinism
  }
  EXPECT_EQ(eng.stats().requests, kThreads * kPerThread);
  EXPECT_EQ(eng.stats().errors, 0u);
}

TEST(EngineConcurrencyTest, MixedSessionlessSolvesAndSessionChurn) {
  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kRounds = 4;
  Engine eng;
  std::atomic<std::size_t> ok_count{0};

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        if (t % 2 == 0) {
          // Session churn: open, run a warm chain, close.
          const std::uint64_t s = eng.open_session();
          ASSERT_NE(s, 0u);
          for (std::size_t i = 0; i < 3; ++i) {
            SolveRequest req = stress_request(t, round * 3 + i);
            req.session = s;
            const SolveResponse r = eng.solve(req);
            ASSERT_TRUE(r.ok) << r.error;
            ++ok_count;
          }
          ASSERT_TRUE(eng.close_session(s));
        } else {
          // Sessionless requests.
          for (std::size_t i = 0; i < 3; ++i) {
            const SolveRequest req = stress_request(t, round * 3 + i);
            const SolveResponse r = eng.solve(req);
            ASSERT_TRUE(r.ok) << r.error;
            ASSERT_EQ(r.id, req.id);  // no mixups across threads
            ++ok_count;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(ok_count.load(), kThreads * kRounds * 3);
  EXPECT_EQ(eng.num_sessions(), 0u);
  const EngineStats stats = eng.stats();
  EXPECT_EQ(stats.sessions_opened, stats.sessions_closed);
  EXPECT_EQ(stats.requests, kThreads * kRounds * 3);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(EngineConcurrencyTest, ConcurrentSameSessionRequestsQueueSafely) {
  Engine eng;
  const std::uint64_t s = eng.open_session();
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 8;
  std::atomic<std::size_t> ok_count{0};
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          SolveRequest req = stress_request(t, i);
          req.session = s;
          const SolveResponse r = eng.solve(req);
          ASSERT_TRUE(r.ok) << r.error;
          ++ok_count;
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  EXPECT_EQ(ok_count.load(), kThreads * kPerThread);
  EXPECT_TRUE(eng.close_session(s));
}

TEST(EngineConcurrencyTest, EngineSolvesRunBesidePoolParallelSolverCalls) {
  constexpr std::size_t kEngineThreads = 4;
  constexpr std::size_t kPerThread = 6;
  constexpr int kBushSolves = 4;
  Rng rng(43);
  const NetworkInstance net =
      grid_city_multicommodity(rng, 5, 5, 8, 0.5, 2.0);
  EquilibriumRequest bush_req;
  bush_req.backend = EquilibriumBackend::kBush;
  const auto bush_solve = [&] {
    SolverWorkspace ws;
    return solve_equilibrium(net, {}, bush_req, ws, nullptr, nullptr);
  };

  // Serial references: engine answers one at a time, the bush flow at one
  // thread (bush edge flows are bitwise thread-count invariant).
  std::map<std::uint64_t, double> expected;
  {
    Engine serial;
    for (std::size_t t = 0; t < kEngineThreads; ++t) {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const SolveRequest req = stress_request(t, i);
        expected[req.id] = serial.solve(req).cost;
      }
    }
  }
  const int saved = max_threads_setting();
  set_max_threads(1);
  const EquilibriumResult bush_serial = bush_solve();
  ASSERT_TRUE(solve_ok(bush_serial.status));

  // One thread drives the pool with 4-thread bush solves while four
  // others call Engine::solve; nothing waits on anything else.
  set_max_threads(4);
  Engine eng;
  std::mutex mu;
  std::map<std::uint64_t, double> got;
  std::vector<EquilibriumResult> bush_runs(kBushSolves);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (EquilibriumResult& r : bush_runs) r = bush_solve();
  });
  for (std::size_t t = 0; t < kEngineThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const SolveRequest req = stress_request(t, i);
        const SolveResponse r = eng.solve(req);
        const std::lock_guard<std::mutex> lock(mu);
        got.emplace(r.id, r.ok ? r.cost : std::nan(""));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  set_max_threads(saved);

  ASSERT_EQ(got.size(), expected.size());
  for (const auto& [id, cost] : expected) {
    EXPECT_EQ(got[id], cost) << "id " << id;  // bitwise
  }
  for (const EquilibriumResult& r : bush_runs) {
    ASSERT_TRUE(solve_ok(r.status));
    ASSERT_EQ(r.edge_flow.size(), bush_serial.edge_flow.size());
    for (std::size_t e = 0; e < r.edge_flow.size(); ++e) {
      EXPECT_EQ(r.edge_flow[e], bush_serial.edge_flow[e]) << "edge " << e;
    }
  }
}

TEST(EngineConcurrencyTest, SessionByteBudgetShedsButKeepsSessionsUsable) {
  EngineOptions opts;
  opts.session_budget_bytes = 1;  // impossibly tight: shed everything idle
  Engine eng(opts);

  const std::uint64_t a = eng.open_session();
  const std::uint64_t b = eng.open_session();
  for (int i = 0; i < 3; ++i) {
    const SolveResponse ra =
        eng.solve(request(RequestKind::kMop, grid_instance(1.0), 1, a));
    ASSERT_TRUE(ra.ok) << ra.error;
    const SolveResponse rb =
        eng.solve(request(RequestKind::kMop, grid_instance(1.5), 2, b));
    ASSERT_TRUE(rb.ok) << rb.error;
  }
  const EngineStats stats = eng.stats();
  EXPECT_GT(stats.session_sheds, 0u);
  EXPECT_GT(stats.peak_bytes, 0u);
  // Shed sessions stay open and correct — they just go cold.
  EXPECT_EQ(eng.num_sessions(), 2u);
  const SolveResponse again =
      eng.solve(request(RequestKind::kMop, grid_instance(1.0), 3, a));
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_TRUE(eng.close_session(a));
  EXPECT_TRUE(eng.close_session(b));
}

TEST(EngineConcurrencyTest, TableCacheByteBudgetIsNeverExceeded) {
  // Learn one compiled table's footprint from an unbudgeted engine.
  std::uint64_t one_table = 0;
  {
    Engine probe;
    const std::uint64_t s = probe.open_session();
    const SolveResponse r = probe.solve(
        request(RequestKind::kEquilibrium, grid_instance(1.0, 11), 1, s));
    ASSERT_TRUE(r.ok) << r.error;
    one_table = probe.stats().table_cache_bytes;
    probe.close_session(s);
  }
  ASSERT_GT(one_table, 0u);

  // Budget fits one table (and change), then feed four distinct latency
  // sets: the cache must evict rather than ever exceed the budget.
  EngineOptions opts;
  opts.table_cache_budget_bytes = one_table + one_table / 2;
  Engine eng(opts);
  for (std::uint64_t seed = 11; seed < 15; ++seed) {
    const std::uint64_t s = eng.open_session();
    const SolveResponse r = eng.solve(request(
        RequestKind::kEquilibrium, grid_instance(1.0, seed), seed, s));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_LE(eng.stats().table_cache_bytes, opts.table_cache_budget_bytes);
    eng.close_session(s);
  }
  const EngineStats stats = eng.stats();
  EXPECT_GT(stats.table_cache_evictions, 0u);
  EXPECT_LE(stats.table_cache_bytes, opts.table_cache_budget_bytes);

  // A budget smaller than any table: serve but never cache.
  EngineOptions tiny;
  tiny.table_cache_budget_bytes = 1;
  Engine never(tiny);
  const std::uint64_t s = never.open_session();
  const SolveResponse r = never.solve(
      request(RequestKind::kEquilibrium, grid_instance(1.0, 11), 1, s));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(never.stats().table_cache_bytes, 0u);
  never.close_session(s);
}

TEST(EngineConcurrencyTest, CancelledRequestIsTypedAndLeavesWarmState) {
  Engine eng;
  const std::uint64_t s = eng.open_session();

  const SolveResponse first =
      eng.solve(request(RequestKind::kMop, grid_instance(1.0), 1, s));
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.warm);

  std::atomic<bool> cancel{true};
  SolveRequest req = request(RequestKind::kMop, grid_instance(1.1), 2, s);
  req.cancel = &cancel;
  const SolveResponse shed = eng.solve(req);
  EXPECT_FALSE(shed.ok);
  EXPECT_EQ(shed.status, SolveStatus::kOverloaded);
  EXPECT_NE(shed.error.find("cancelled"), std::string::npos) << shed.error;
  EXPECT_EQ(shed.engine_bytes, 0u);  // never touched a session slot
  EXPECT_EQ(eng.stats().cancelled, 1u);

  // The cancelled request must not have disturbed the session's warm
  // anchor: the next compatible request still warm-starts off request 1.
  std::atomic<bool> live{false};
  SolveRequest third = request(RequestKind::kMop, grid_instance(1.05), 3, s);
  third.cancel = &live;
  const SolveResponse warm = eng.solve(third);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.warm);
  EXPECT_GT(warm.engine_bytes, 0u);
  EXPECT_TRUE(eng.close_session(s));
}

TEST(EngineConcurrencyTest, PeakBytesTracksResidentHighWater) {
  Engine eng;
  const std::uint64_t s = eng.open_session();
  const SolveResponse r =
      eng.solve(request(RequestKind::kMop, grid_instance(1.0), 1, s));
  ASSERT_TRUE(r.ok) << r.error;
  const EngineStats stats = eng.stats();
  EXPECT_GT(stats.peak_bytes, 0u);
  EXPECT_GE(stats.peak_bytes, stats.table_cache_bytes + stats.session_bytes);
  EXPECT_EQ(r.engine_bytes, stats.table_cache_bytes + stats.session_bytes);
  eng.close_session(s);
}

}  // namespace
}  // namespace stackroute::engine
