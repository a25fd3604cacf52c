// anaheim-beta: the paper's quantity on the synthetic Anaheim network — one
// client computing beta_M through Engine::solve, one fresh session per
// demand ramp over 0.8-1.3 x the file's total OD flow.
//
// anaheim-assign: cold solve_equilibrium calls cycling pe, fw and bush on
// the same network, reusing one SolverWorkspace — the only workload whose
// solver, latency and network inner loops run with intra-solve threading.
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "probes.h"
#include "stackroute/engine/engine.h"
#include "stackroute/obs/counters.h"
#include "workloads.h"

namespace perfbench {

using namespace stackroute;

namespace {

constexpr int kRampPoints = 5;

/// `base` with every OD demand scaled so the total is `factor` x the file's.
NetworkInstance at_factor(const NetworkInstance& base, double factor) {
  NetworkInstance inst = base;
  for (Commodity& c : inst.commodities) c.demand *= factor;
  return inst;
}

/// Anaheim with every demand scaled by a factor within 0.5% of 1, drawn
/// from `seed`: the network anaheim-assign solves.
NetworkInstance reference_anaheim(std::uint64_t seed) {
  Rand r(seed);
  return at_factor(load_anaheim(), 1.0 + r.uniform(-0.005, 0.005));
}

/// Each backend's cost C(f) must lie within 20 x its stated accuracy
/// (relative) of the bush cost, the tightest of the three. `costs` is one
/// pe/fw/bush cycle, in equilibrium_backends() order.
void check_cost_agreement(const std::vector<double>& costs, Report& rep) {
  const std::span<const EquilibriumBackend> backends = equilibrium_backends();
  double bush = 0.0;
  for (std::size_t i = 0; i < backends.size(); ++i) {
    if (backends[i] == EquilibriumBackend::kBush) bush = costs[i];
  }
  for (std::size_t i = 0; i < backends.size(); ++i) {
    if (!close_rel(costs[i], bush, 20.0 * stated_accuracy(backends[i]))) {
      rep.fail(std::string(to_string(backends[i])) + " cost " +
               std::to_string(costs[i]) + " disagrees with bush cost " +
               std::to_string(bush));
    }
  }
}

/// One ramp's demand factors: an even grid over 0.8-1.3, each point
/// jittered by up to 0.5%. A warm point's cost depends sensitively on the
/// points before it, so a fixed grid keeps runs of different seeds
/// comparable.
std::vector<double> ramp_factors(Rand& r) {
  std::vector<double> f;
  for (int k = 0; k < kRampPoints; ++k) {
    f.push_back((0.8 + 0.5 * k / (kRampPoints - 1)) *
                (1.0 + r.uniform(-0.005, 0.005)));
  }
  return f;
}

std::string mop_line(double factor) {
  return "{\"op\":\"mop\",\"instance_file\":\"" + std::string(kAnaheimNet) +
         "\",\"demand\":" + std::to_string(factor * kAnaheimDemand) +
         ",\"backend\":\"bush\"}";
}

/// Set-up: load the network, build the engine and a workspace.
std::vector<double> timed_setups(const std::function<NetworkInstance()>& load,
                                 NetworkInstance* out) {
  std::vector<double> ms;
  for (int i = 0; i < kSetupReps; ++i) {
    const double t0 = now_ms();
    *out = load();
    engine::Engine eng;
    SolverWorkspace ws;
    ms.push_back(now_ms() - t0);
  }
  return ms;
}

}  // namespace

void run_anaheim_beta(const Options& o, Report& rep) {
  NetworkInstance base;
  rep.set_setup(timed_setups(load_anaheim, &base));
  Rand rand(o.seed);

  const auto phase = [&](double seconds, bool traced) {
    engine::EngineOptions eo;
    eo.collect_counters = traced;
    engine::Engine eng(eo);
    OpLog log;
    std::vector<double> solve_us;
    obs::SolveCounters counters;
    const double start = now_ms();
    const double deadline = start + 1000.0 * seconds;
    std::uint64_t id = 0;
    while (now_ms() < deadline) {
      const std::uint64_t session = eng.open_session();
      for (double f : ramp_factors(rand)) {
        if (now_ms() >= deadline) break;
        engine::SolveRequest req;
        req.kind = engine::RequestKind::kMop;
        req.instance = at_factor(base, f);
        req.backend = EquilibriumBackend::kBush;
        req.session = session;
        req.id = ++id;
        engine::SolveResponse resp;
        const double t0 = now_ms();
        {
          trace::Span span("engine.solve");
          resp = eng.solve(req);
        }
        const double ms = now_ms() - t0;
        bool ok = resp.ok && resp.id == id && solve_ok(resp.status);
        if (!ok) rep.fail("MOP request failed: " + resp.error);
        if (ok && (!close_rel(resp.cost, resp.optimum_cost, 1e-6) ||
                   !(resp.beta >= 0.0 && resp.beta <= 1.0))) {
          rep.fail("MOP breaks C(S+T) = C(O) or 0 <= beta <= 1");
          ok = false;
        }
        log.add(ms, ok, o.goodput_limit_ms);
        solve_us.push_back(1000.0 * resp.millis);
        counters.merge(resp.counters);
      }
      eng.close_session(session);
    }
    log.wall_ms = now_ms() - start;
    if (traced) {
      const engine::EngineStats st = eng.stats();
      rep.set("engine.solve_us", median(solve_us), "us");
      rep.set("engine.warm_hit_rate",
              st.warm_attempts > 0 ? static_cast<double>(st.warm_hits) /
                                         static_cast<double>(st.warm_attempts)
                                   : 0.0,
              "ratio");
      const double lookups =
          static_cast<double>(st.table_cache_hits + st.table_cache_misses);
      rep.set("engine.table_cache_hit_rate",
              lookups > 0 ? static_cast<double>(st.table_cache_hits) / lookups
                          : 0.0,
              "ratio");
      rep.set("engine.peak_bytes", static_cast<double>(st.peak_bytes), "bytes");
      set_counter_metrics(counters, log.attempted, rep);
    }
    return Segments{log};
  };

  if (o.trace) {
    traced_phases(o, rep, phase);
    Home home;
    home.net = base;
    Rand r(o.seed + 1);
    for (double f : ramp_factors(r)) {
      if (home.mop_points.size() < 2) home.mop_points.push_back(at_factor(base, f));
      home.lines.push_back(mop_line(f));
    }
    traced_tail(o, home, rep);
    return;
  }
  const Segments log = phase(o.seconds, false);
  rep.count_ops(log);
  rep.set_end_to_end(log);
  rep.set_peak_rss();
}

void run_anaheim_assign(const Options& o, Report& rep) {
  NetworkInstance inst;
  rep.set_setup(timed_setups([&] { return reference_anaheim(o.seed); }, &inst));
  SolverWorkspace ws;

  const auto phase = [&](double seconds, bool traced) {
    OpLog log;
    std::map<EquilibriumBackend, std::vector<double>> ms, iters;
    obs::SolveCounters counters;
    const double start = now_ms();
    const double deadline = start + 1000.0 * seconds;
    while (now_ms() < deadline) {
      std::vector<double> costs;
      for (EquilibriumBackend b : equilibrium_backends()) {
        EquilibriumResult r;
        Certificate cert;
        double t = 0.0;
        {
          obs::SolveCounters sink;
          std::optional<obs::CountersScope> scope;
          if (traced) scope.emplace(sink);
          t = timed_solve(inst, b, ws, rep, &r, &cert);
          counters.merge(sink);
        }
        log.add(t, t >= 0.0, o.goodput_limit_ms);
        if (t >= 0.0) ms[b].push_back(t);
        iters[b].push_back(r.iterations);
        costs.push_back(cert.cost);
      }
      check_cost_agreement(costs, rep);
    }
    log.wall_ms = now_ms() - start;
    if (traced) {
      for (EquilibriumBackend b : equilibrium_backends()) {
        const std::string name = std::string("solver.") + to_string(b);
        rep.set(name + ".solve_ms", median(ms[b]), "ms");
        rep.set(name + ".iterations", median(iters[b]), "count");
      }
      set_counter_metrics(counters, log.attempted, rep);
    }
    return Segments{log};
  };

  if (o.trace) {
    traced_phases(o, rep, phase);
    Home home;
    home.net = inst;
    home.mop_points.push_back(inst);
    // fw is left out: through serve it solves to its 1e-6 default gap,
    // which takes seconds on this network.
    for (const char* b : {"pe", "bush"}) {
      home.lines.push_back("{\"op\":\"equilibrium\",\"instance_file\":\"" +
                           std::string(kAnaheimNet) + "\",\"backend\":\"" + b +
                           "\"}");
    }
    traced_tail(o, home, rep);
    return;
  }
  const Segments log = phase(o.seconds, false);
  rep.count_ops(log);
  rep.set_end_to_end(log);
  rep.set_peak_rss();
}

}  // namespace perfbench
