// sweep-grid: the paper's single-commodity question on random BPR street
// grids, as a custom ScenarioSpec through SweepRunner at the default
// thread count — many warm chains (one per grid, demand as the warm
// axis) scheduled over util/parallel, where the slowest chains set the
// makespan. Columns: beta, PoA, Nash, optimum and Stackelberg cost.
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "probes.h"
#include "stackroute/gen/registry.h"
#include "stackroute/sweep/runner.h"
#include "stackroute/sweep/scenario.h"
#include "stackroute/util/parallel.h"
#include "workloads.h"

namespace perfbench {

using namespace stackroute;

namespace {

/// Chain costs are heavy-tailed across random grids (a few grids cost ten
/// times the median), so a run needs thousands of grids before its seed
/// stops moving the throughput and the p99.
constexpr int kGrids = 2048;
constexpr int kDemands = 8;
constexpr double kDemandLo = 0.5;
constexpr double kDemandHi = 2.0;

/// The generator seeds of this run's grids.
std::vector<std::uint64_t> grid_seeds(std::uint64_t seed) {
  Rand r(seed);
  std::vector<std::uint64_t> s;
  for (int i = 0; i < kGrids; ++i) s.push_back(1 + r.next() % 1000000007ULL);
  return s;
}

/// Wraps a metric in a span named after the layer it mostly runs in.
sweep::Metric spanned(sweep::Metric m, const char* span) {
  auto fn = m.fn;
  m.fn = [fn, span](sweep::TaskEval& t) {
    trace::Span s(span);
    return fn(t);
  };
  return m;
}

sweep::ScenarioSpec make_spec(
    std::shared_ptr<const std::vector<engine::Instance>> grids) {
  sweep::ScenarioSpec spec;
  spec.name = "perfbench-sweep-grid";
  spec.warm_axis = "demand";
  spec.grid.add_range("grid", 0, kGrids - 1)
      .add_linspace("demand", kDemandLo, kDemandHi, kDemands);
  spec.factory = [grids](const sweep::ParamPoint& p, Rng&) {
    engine::Instance inst = (*grids)[static_cast<std::size_t>(p.get_int("grid"))];
    sweep::override_demand(inst, p.get("demand"));
    return inst;
  };
  spec.metrics = {spanned(sweep::metric_beta(), "core.beta"),
                  spanned(sweep::metric_poa(), "equilibrium.poa"),
                  spanned(sweep::metric_nash_cost(), "equilibrium.nash_cost"),
                  spanned(sweep::metric_optimum_cost(), "equilibrium.optimum_cost"),
                  spanned(sweep::metric_stackelberg_cost(), "core.stackelberg_cost")};
  return spec;
}

}  // namespace

void run_sweep_grid(const Options& o, Report& rep) {
  std::shared_ptr<std::vector<engine::Instance>> grids;
  sweep::ScenarioSpec spec;
  std::vector<double> setup_ms;
  for (int i = 0; i < kSetupReps; ++i) {
    const double t0 = now_ms();
    grids = std::make_shared<std::vector<engine::Instance>>();
    for (std::uint64_t s : grid_seeds(o.seed)) {
      grids->push_back(gen::generate_sized("grid-bpr", kSweepGridSize, 1.0, s));
    }
    spec = make_spec(grids);
    setup_ms.push_back(now_ms() - t0);
  }
  rep.set_setup(setup_ms);

  // Determinism contract: the metric table hashes the same in every run,
  // at any thread count.
  std::optional<std::size_t> table_hash;
  const auto check = [&](const sweep::SweepResult& r) {
    if (r.num_failed() != 0 || r.num_degraded() != 0) {
      rep.fail(std::to_string(r.num_failed()) + " failed and " +
               std::to_string(r.num_degraded()) + " degraded sweep tasks");
    }
    const std::size_t h = std::hash<std::string>{}(r.to_csv());
    if (!table_hash) table_hash = h;
    if (h != *table_hash) rep.fail("sweep table hash differs between runs");
  };

  const auto phase = [&](double seconds, bool traced) {
    sweep::SweepOptions so;
    so.collect_counters = traced;
    const sweep::SweepRunner runner(so);
    Segments sweeps;  // one segment per sweep
    const double deadline = now_ms() + 1000.0 * seconds;
    while (now_ms() < deadline) {
      sweep::SweepResult r;
      const double t0 = now_ms();
      {
        trace::Span span("sweep.run");
        r = runner.run(spec);
      }
      OpLog& log = sweeps.emplace_back();
      log.wall_ms = now_ms() - t0;
      check(r);
      for (const sweep::TaskRecord& t : r.records) {
        log.add(t.millis, t.ok && solve_ok(t.status), o.goodput_limit_ms);
      }
      if (traced) {
        set_sweep_metrics(r, log.wall_ms, rep);
        set_counter_metrics(r.total_counters(), r.num_tasks(), rep);
      }
    }
    return sweeps;
  };

  Home home;
  const NetworkInstance& first = std::get<NetworkInstance>(grids->front());
  home.net = first;
  home.net.commodities[0].demand = 0.5 * (kDemandLo + kDemandHi);
  for (int g = 0; g < 3; ++g) {
    NetworkInstance p = std::get<NetworkInstance>((*grids)[g]);
    p.commodities[0].demand = home.net.commodities[0].demand;
    home.mop_points.push_back(std::move(p));
  }

  if (o.trace) {
    traced_phases(o, rep, phase);
    const int saved = max_threads_setting();
    set_max_threads(1);
    check(sweep::SweepRunner().run(spec));
    set_max_threads(saved);
    // Sixteen grids: few enough that parse_line's prototype cache holds
    // them all, so serve.parse_us is the steady-state parse.
    const std::vector<std::uint64_t> seeds = grid_seeds(o.seed);
    for (std::size_t g = 0; g < 16; ++g) {
      const std::uint64_t s = seeds[g];
      home.lines.push_back("{\"op\":\"mop\",\"generate\":\"grid-bpr\",\"size\":" +
                           std::to_string(kSweepGridSize) + ",\"gen_seed\":" +
                           std::to_string(s) + ",\"demand\":" +
                           std::to_string(home.net.commodities[0].demand) + "}");
    }
    traced_tail(o, home, rep);
    return;
  }
  const Segments sweeps = phase(o.seconds, false);
  rep.count_ops(sweeps);
  rep.set_end_to_end(sweeps);
  rep.set_peak_rss();
}

}  // namespace perfbench
