#include "probes.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <thread>
#include <variant>

#include "stackroute/core/mop.h"
#include "stackroute/engine/engine.h"
#include "stackroute/gen/registry.h"
#include "stackroute/latency/table.h"
#include "stackroute/network/dijkstra.h"
#include "stackroute/network/maxflow.h"
#include "stackroute/serve/frontend.h"
#include "stackroute/serve/protocol.h"
#include "stackroute/sweep/scenario.h"
#include "stackroute/util/parallel.h"

namespace perfbench {

using namespace stackroute;

const char* const kAnaheimNet = "examples/instances/Anaheim_net.tntp";

NetworkInstance load_anaheim() {
  return std::get<NetworkInstance>(sweep::load_instance_file(kAnaheimNet));
}

double stated_accuracy(EquilibriumBackend b) {
  switch (b) {
    case EquilibriumBackend::kBush:
      return 1e-10;
    case EquilibriumBackend::kFrankWolfe:
      return 1e-4;
    case EquilibriumBackend::kPathEqualization:
      break;
  }
  return 1e-8;
}

EquilibriumRequest backend_request(EquilibriumBackend b) {
  EquilibriumRequest req;
  req.backend = b;
  req.frank_wolfe.rel_gap_tol = stated_accuracy(EquilibriumBackend::kFrankWolfe);
  req.bush.rel_gap_tol = stated_accuracy(EquilibriumBackend::kBush);
  return req;
}

Certificate certify(const NetworkInstance& inst, std::span<const double> flow,
                    std::vector<double>* spt_us) {
  const Graph& g = inst.graph;
  LatencyTable table;
  table.compile(g.latencies());
  std::vector<double> costs(flow.size());
  table.values(flow, costs);
  double tstt = 0.0;
  for (std::size_t e = 0; e < flow.size(); ++e) tstt += flow[e] * costs[e];
  std::map<NodeId, std::vector<const Commodity*>> by_origin;
  for (const Commodity& c : inst.commodities) by_origin[c.source].push_back(&c);
  DijkstraWorkspace dw;
  double sptt = 0.0;
  for (const auto& [origin, commodities] : by_origin) {
    const double t0 = now_ms();
    const ShortestPathTree& tree = dijkstra(g, origin, costs, dw);
    if (spt_us != nullptr) spt_us->push_back(1000.0 * (now_ms() - t0));
    for (const Commodity* c : commodities) {
      sptt += c->demand * tree.dist[static_cast<std::size_t>(c->sink)];
    }
  }
  return {(tstt - sptt) / tstt, tstt};
}

double timed_solve(const NetworkInstance& inst, EquilibriumBackend b,
                   SolverWorkspace& ws, Report& rep, EquilibriumResult* out,
                   Certificate* cert) {
  const EquilibriumRequest req = backend_request(b);
  double ms = 0.0;
  EquilibriumResult r;
  {
    trace::Span span("equilibrium.solve_equilibrium");
    const double t0 = now_ms();
    r = solve_equilibrium(inst, {}, req, ws, nullptr, nullptr);
    ms = now_ms() - t0;
  }
  const Certificate c = certify(inst, r.edge_flow);
  bool ok = true;
  if (!solve_ok(r.status)) {
    rep.fail(std::string(to_string(b)) + " solve ended " + to_string(r.status));
    ok = false;
  }
  if (!(c.rel_gap <= stated_accuracy(b))) {
    rep.fail(std::string(to_string(b)) + " certified relative gap " +
             std::to_string(c.rel_gap) + " above its stated accuracy");
    ok = false;
  }
  if (out != nullptr) *out = std::move(r);
  if (cert != nullptr) *cert = c;
  return ok ? ms : -1.0;
}

void set_counter_metrics(const obs::SolveCounters& total, std::uint64_t ops,
                         Report& rep) {
  const double n = static_cast<double>(std::max<std::uint64_t>(ops, 1));
  const auto per_op = [&](const char* name, std::uint64_t v) {
    rep.set(name, static_cast<double>(v) / n, "count");
  };
  per_op("network.dijkstra_calls", total.dijkstra_calls);
  per_op("network.dijkstra_settled", total.dijkstra_settled);
  per_op("latency.table_batch_evals", total.table_batch_evals);
  per_op("solver.equalization_steps", total.equalization_steps);
  per_op("solver.fw_line_search_evals", total.fw_line_search_evals);
  per_op("solver.bush_shifts", total.bush_shifts);
  per_op("solver.bush_rebuilds", total.bush_rebuilds);
}

void set_sweep_metrics(const sweep::SweepResult& r, double wall_ms,
                       Report& rep) {
  std::vector<double> task_ms;
  std::map<std::size_t, double> chain_ms;
  double busy = 0.0;
  for (const sweep::TaskRecord& t : r.records) {
    task_ms.push_back(t.millis);
    chain_ms[t.chain] += t.millis;
    busy += t.millis;
  }
  double longest = 0.0;
  for (const auto& [chain, ms] : chain_ms) longest = std::max(longest, ms);
  const obs::SolveCounters c = r.total_counters();
  rep.set("sweep.task_ms_p50", median(task_ms), "ms");
  rep.set("sweep.chain_ms_max", longest, "ms");
  rep.set("sweep.parallel_efficiency",
          busy / (std::max(r.threads, 1) * wall_ms), "ratio");
  rep.set("sweep.warm_hit_rate",
          c.warm_attempts > 0 ? static_cast<double>(c.warm_hits) /
                                    static_cast<double>(c.warm_attempts)
                              : 0.0,
          "ratio");
}

void traced_phases(const Options& o, Report& rep,
                   const std::function<Segments(double, bool)>& phase) {
  const Segments untraced = phase(o.seconds / 3.0, false);
  trace::set_enabled(true);
  const Segments traced = phase(o.seconds / 3.0, true);
  trace::set_enabled(false);
  rep.count_ops(untraced);
  rep.count_ops(traced);
  rep.set("obs.trace_overhead",
          median_ops_per_s(untraced) / median_ops_per_s(traced) - 1.0, "ratio");
  const std::map<std::string, double> self = trace::layer_self_ms();
  double total = 0.0;
  for (const auto& [layer, ms] : self) total += ms;
  for (const char* layer : {"serve", "engine", "sweep", "core", "equilibrium"}) {
    const auto it = self.find(layer);
    rep.set(std::string(layer) + ".self_share",
            it == self.end() || total <= 0.0 ? 0.0 : it->second / total,
            "ratio");
  }
}

namespace {

/// Checks one serve response line against the request id it answers:
/// valid JSON, ok:true, its own id, a converged status on solves, and for
/// MOP the paper's guarantee C(S+T) = C(O) (1e-6 relative) with
/// 0 <= beta <= 1. Sets `millis` to the engine's reported solve time (NaN
/// when the response carries none, e.g. a session close).
bool check_response(const std::string& line, std::uint64_t id, Report& rep,
                    double* millis) {
  *millis = std::nan("");
  JsonFields f;
  if (!f.parse(line)) {
    rep.fail("serve response is not valid JSON: " + line);
    return false;
  }
  if (!f.flag("ok") || f.number("id", -1.0) != static_cast<double>(id)) {
    rep.fail("serve request " + std::to_string(id) + " answered " + line);
    return false;
  }
  const std::string kind = f.string("kind");
  if (kind.empty()) return true;  // a session close
  if (f.string("status") != "converged") {
    rep.fail("serve response not converged: " + line);
    return false;
  }
  *millis = f.number("millis", std::nan(""));
  if (kind == "mop") {
    const double beta = f.number("beta", std::nan(""));
    if (!close_rel(f.number("cost", std::nan("")),
                   f.number("optimum_cost", std::nan("")), 1e-6) ||
        !(beta >= 0.0 && beta <= 1.0)) {
      rep.fail("MOP response breaks C(S+T) = C(O) or 0 <= beta <= 1: " + line);
      return false;
    }
  }
  return true;
}

std::string with_id(const std::string& body, std::uint64_t id) {
  return "{\"id\":" + std::to_string(id) + "," + body.substr(1);
}

/// Closed-loop clients on a FrontEnd: client i cycles through scripts[i]
/// (request objects without an "id"; the client inserts a unique one), one
/// request in flight, until `seconds` pass or it sent `max_per_client`
/// requests. Returns, per ok solve response, the client latency (from
/// submit_line until next_response returns) minus the engine's millis, in
/// microseconds.
std::vector<double> drive_frontend(
    serve::FrontEnd& fe, const std::vector<std::vector<std::string>>& scripts,
    double seconds, std::size_t max_per_client, Report& rep) {
  std::vector<std::vector<double>> overhead_us(scripts.size());
  std::vector<Report> checks(scripts.size());
  const double deadline = now_ms() + 1000.0 * seconds;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < scripts.size(); ++c) {
    clients.emplace_back([&, c] {
      const std::uint64_t client = fe.add_client(serve::Admission::kShed);
      std::string response;
      for (std::size_t i = 0; i < max_per_client && now_ms() < deadline; ++i) {
        const std::uint64_t id = (c + 1) * 1000000000ULL + i;
        std::string line = with_id(scripts[c][i % scripts[c].size()], id);
        bool got = false;
        double ms = 0.0;
        {
          trace::Span span("serve.request");
          const double t0 = now_ms();
          fe.submit_line(client, std::move(line), i + 1);
          got = fe.next_response(client, &response);
          ms = now_ms() - t0;
        }
        double engine_ms = 0.0;
        if (!got) {
          checks[c].fail("front end closed the client early");
        } else if (check_response(response, id, checks[c], &engine_ms) &&
                   std::isfinite(engine_ms)) {
          overhead_us[c].push_back(1000.0 * (ms - engine_ms));
        }
      }
      fe.finish_client(client);
      while (fe.next_response(client, &response)) {
      }
      fe.remove_client(client);
    });
  }
  for (std::thread& t : clients) t.join();
  std::vector<double> all;
  for (std::size_t c = 0; c < scripts.size(); ++c) {
    all.insert(all.end(), overhead_us[c].begin(), overhead_us[c].end());
    if (!checks[c].correct()) rep.fail("serve client " + std::to_string(c));
  }
  return all;
}

/// Median wall time of `reps` calls of fn, in ms.
template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_ms();
    fn();
    ms.push_back(now_ms() - t0);
  }
  return median(ms);
}

void probe_io_gen(Report& rep) {
  rep.set("io.load_ms", median_ms(3, [] {
            trace::Span span("io.load_instance_file");
            (void)load_anaheim();
          }),
          "ms");
  rep.set("gen.generate_ms", median_ms(3, [] {
            trace::Span span("gen.generate_sized");
            (void)gen::generate_sized("grid-bpr", kSweepGridSize, 1.0, 7);
          }),
          "ms");
}

/// serve.parse_us / serve.format_us over the home lines, and the engine
/// metrics of solving them one by one through Engine::solve.
void probe_serve_lines(const std::vector<std::string>& lines, Report& rep) {
  serve::PrototypeCache prototypes(64);
  std::vector<serve::ParsedLine> parsed;
  std::vector<double> parse_us;
  // Every line is parsed at least twice (32 parses at least), so the
  // median is the steady-state, cached parse.
  const std::size_t parses =
      std::min<std::size_t>(std::max<std::size_t>(2 * lines.size(), 32), 400);
  for (std::size_t i = 0; i < parses; ++i) {
    const std::string line = with_id(lines[i % lines.size()], i + 1);
    std::uint64_t id = 0;
    const double t0 = now_ms();
    {
      trace::Span span("serve.parse_line");
      parsed.push_back(serve::parse_line(line, prototypes, &id));
    }
    parse_us.push_back(1000.0 * (now_ms() - t0));
  }
  rep.set("serve.parse_us", median(parse_us), "us");

  engine::EngineOptions eo;
  eo.collect_counters = true;
  engine::Engine eng(eo);
  std::vector<double> format_us;
  std::vector<double> solve_us;
  obs::SolveCounters counters;
  std::uint64_t solved = 0;
  const double start = now_ms();
  for (const serve::ParsedLine& p : parsed) {
    if (p.op != serve::ParsedLine::Op::kSolve) continue;
    if (solved >= 40 || (solved >= 2 && now_ms() - start > 2000.0)) break;
    engine::SolveResponse resp;
    {
      trace::Span span("engine.solve");
      resp = eng.solve(p.solve);
    }
    if (!resp.ok || !solve_ok(resp.status)) {
      rep.fail("engine probe request failed: " + resp.error);
      continue;
    }
    ++solved;
    counters.merge(resp.counters);
    solve_us.push_back(1000.0 * resp.millis);
    std::string out;
    format_us.push_back(1000.0 * median_ms(25, [&] {
                          trace::Span span("serve.response_json");
                          out = serve::response_json(resp);
                        }));
  }
  rep.set("serve.format_us", median(format_us), "us");
  if (!rep.has("engine.solve_us")) rep.set("engine.solve_us", median(solve_us), "us");
  if (!rep.has("network.dijkstra_calls")) set_counter_metrics(counters, solved, rep);
  const engine::EngineStats st = eng.stats();
  if (!rep.has("engine.table_cache_hit_rate")) {
    const double lookups =
        static_cast<double>(st.table_cache_hits + st.table_cache_misses);
    rep.set("engine.table_cache_hit_rate",
            lookups > 0 ? static_cast<double>(st.table_cache_hits) / lookups : 0.0,
            "ratio");
  }
}

/// serve.wait_us_p99 / peak_queue / shed_rate and the engine's memory and
/// warm metrics: the home lines through a 2-worker FrontEnd, 4 clients.
void probe_frontend(const std::vector<std::string>& lines, Report& rep) {
  engine::Engine eng;
  serve::FrontEndOptions fo;
  fo.workers = 2;
  // Every client cycles all lines, each from its own offset.
  std::vector<std::vector<std::string>> scripts(4);
  for (std::size_t c = 0; c < scripts.size(); ++c) {
    for (std::size_t k = 0; k < lines.size(); ++k) {
      scripts[c].push_back(lines[(c + k) % lines.size()]);
    }
  }
  std::vector<double> overhead_us;
  serve::FrontEndStats fs;
  {
    serve::FrontEnd fe(eng, fo);
    overhead_us = drive_frontend(fe, scripts, 2.0, 6, rep);
    fs = fe.stats();
  }
  // Client latency minus engine millis, minus the median parse and format.
  std::vector<double> wait_us;
  const double fixed = rep.get("serve.parse_us") + rep.get("serve.format_us");
  for (double us : overhead_us) wait_us.push_back(us - fixed);
  rep.set("serve.wait_us_p99", quantile(wait_us, 0.99), "us");
  rep.set("serve.peak_queue", static_cast<double>(fs.peak_queue), "count");
  rep.set("serve.shed_rate",
          static_cast<double>(fs.shed) / std::max<double>(fs.requests, 1.0),
          "ratio");
  const engine::EngineStats st = eng.stats();
  if (!rep.has("engine.peak_bytes")) {
    rep.set("engine.peak_bytes", static_cast<double>(st.peak_bytes), "bytes");
  }
  if (!rep.has("engine.warm_hit_rate")) {
    rep.set("engine.warm_hit_rate",
            st.warm_attempts > 0 ? static_cast<double>(st.warm_hits) /
                                       static_cast<double>(st.warm_attempts)
                                 : 0.0,
            "ratio");
  }
}

/// core.mop_ms and the replay of MOP's steps 1, 2, 3 and 5 through the
/// public entry points; the part of mop() the replay does not cover is
/// reported as core.mop_unattributed_ms.
void probe_mop(const std::vector<NetworkInstance>& points, Report& rep) {
  std::vector<double> mop_ms, opt_ms, mask_ms, flow_ms, induced_ms;
  for (const NetworkInstance& inst : points) {
    SolverWorkspace ws;
    MopResult m;
    {
      trace::Span span("core.mop");
      const double t0 = now_ms();
      m = mop(inst, MopOptions{}, ws, nullptr, nullptr);
      mop_ms.push_back(now_ms() - t0);
    }
    if (!solve_ok(m.status) || !close_rel(m.induced_cost, m.optimum_cost, 1e-6) ||
        !(m.beta >= 0.0 && m.beta <= 1.0)) {
      rep.fail("mop() breaks C(S+T) = C(O) or 0 <= beta <= 1");
    }

    trace::Span replay("core.mop_replay");
    const Graph& g = inst.graph;
    const std::size_t ne = static_cast<std::size_t>(g.num_edges());
    SolverWorkspace rws;
    // (1) optimum
    EquilibriumRequest req;
    req.objective = FlowObjective::kTotalCost;
    double t0 = now_ms();
    EquilibriumResult opt;
    {
      trace::Span span("equilibrium.optimum");
      opt = solve_equilibrium(inst, {}, req, rws, nullptr, nullptr);
    }
    opt_ms.push_back(now_ms() - t0);
    // (2) tight subgraphs under the optimum's edge costs
    t0 = now_ms();
    std::vector<std::vector<char>> masks(inst.commodities.size());
    {
      trace::Span span("network.tight_mask");
      LatencyTable table;
      table.compile(g.latencies());
      std::vector<double> costs(ne);
      table.values(opt.edge_flow, costs);
      DijkstraWorkspace fwd, rev;
      for (std::size_t i = 0; i < inst.commodities.size(); ++i) {
        const Commodity& c = inst.commodities[i];
        const std::vector<double> from = dijkstra(g, c.source, costs, fwd).dist;
        const std::vector<double>& to = dijkstra_to(g, c.sink, costs, rev).dist;
        const double best = from[static_cast<std::size_t>(c.sink)];
        masks[i].assign(ne, 0);
        for (std::size_t e = 0; e < ne; ++e) {
          const Edge& ed = g.edge(static_cast<EdgeId>(e));
          masks[i][e] = from[static_cast<std::size_t>(ed.tail)] + costs[e] +
                            to[static_cast<std::size_t>(ed.head)] <=
                        best + MopOptions{}.tight_tol;
        }
      }
    }
    mask_ms.push_back(now_ms() - t0);
    // (3) free flow: max flow inside each tight subgraph
    t0 = now_ms();
    std::vector<double> leader(ne, 0.0);
    NetworkInstance followers;
    followers.graph = g;
    {
      trace::Span span("network.max_flow");
      std::vector<double> own(ne), caps(ne);
      for (std::size_t i = 0; i < inst.commodities.size(); ++i) {
        const Commodity& c = inst.commodities[i];
        std::fill(own.begin(), own.end(), 0.0);
        for (const PathFlow& pf : opt.commodity_paths[i]) {
          for (EdgeId e : pf.path) own[static_cast<std::size_t>(e)] += pf.flow;
        }
        for (std::size_t e = 0; e < ne; ++e) caps[e] = masks[i][e] ? own[e] : 0.0;
        const MaxFlowResult mf = max_flow(g, c.source, c.sink, caps, c.demand,
                                          MopOptions{}.flow_tol);
        for (std::size_t e = 0; e < ne; ++e) {
          leader[e] += std::fmax(0.0, own[e] - mf.edge_flow[e]);
        }
        if (mf.value > MopOptions{}.flow_tol) {
          Commodity free = c;
          free.demand = mf.value;
          followers.commodities.push_back(free);
        }
      }
    }
    flow_ms.push_back(now_ms() - t0);
    // (5) the followers' equilibrium under the Leader's preload
    t0 = now_ms();
    if (!followers.commodities.empty()) {
      trace::Span span("equilibrium.induced");
      (void)solve_equilibrium(followers, leader, EquilibriumRequest{}, rws,
                              nullptr, nullptr);
    }
    induced_ms.push_back(now_ms() - t0);
  }
  const double mop_med = median(mop_ms);
  const double stages = median(opt_ms) + median(mask_ms) + median(flow_ms) +
                        median(induced_ms);
  rep.set("core.mop_ms", mop_med, "ms");
  rep.set("equilibrium.optimum_ms", median(opt_ms), "ms");
  rep.set("network.tight_mask_ms", median(mask_ms), "ms");
  rep.set("network.maxflow_ms", median(flow_ms), "ms");
  rep.set("equilibrium.induced_ms", median(induced_ms), "ms");
  rep.set("core.mop_unattributed_ms", mop_med - stages, "ms");
}

/// Solve times, iterations, thread speed-ups, spt_us and eval_ns_per_edge
/// on the home network: cold solves per backend at the default thread
/// count and at 1.
void probe_solvers(const NetworkInstance& net, Report& rep) {
  SolverWorkspace ws;
  std::map<EquilibriumBackend, std::vector<double>> full, single, iters;
  EquilibriumResult bush;
  const int saved = max_threads_setting();
  const double start = now_ms();
  for (int rep_i = 0; rep_i < 2 || (rep_i < 7 && now_ms() - start < 1500.0);
       ++rep_i) {
    for (EquilibriumBackend b : equilibrium_backends()) {
      EquilibriumResult r;
      full[b].push_back(timed_solve(net, b, ws, rep, &r));
      iters[b].push_back(r.iterations);
      if (b == EquilibriumBackend::kBush) bush = std::move(r);
      set_max_threads(1);
      single[b].push_back(timed_solve(net, b, ws, rep));
      set_max_threads(saved);
    }
  }
  for (EquilibriumBackend b : equilibrium_backends()) {
    const std::string name = std::string("solver.") + to_string(b);
    if (!rep.has(name + ".iterations")) {
      rep.set(name + ".iterations", median(iters[b]), "count");
    }
    if (!rep.has(name + ".solve_ms")) rep.set(name + ".solve_ms", median(full[b]), "ms");
    rep.set(name + ".speedup", median(single[b]) / median(full[b]), "ratio");
  }
  std::vector<double> spt_us;
  (void)certify(net, bush.edge_flow, &spt_us);
  rep.set("network.spt_us", median(spt_us), "us");
  LatencyTable table;
  table.compile(net.graph.latencies());
  std::vector<double> out(bush.edge_flow.size());
  const int reps = 200;
  const double ms = median_ms(5, [&] {
    for (int i = 0; i < reps; ++i) table.values(bush.edge_flow, out);
  });
  rep.set("latency.eval_ns_per_edge",
          1e6 * ms / (reps * static_cast<double>(std::max<std::size_t>(out.size(), 1))),
          "ns");
}

/// sweep.* on the home network: 2 warm chains of 4 demand points, Nash
/// cost only.
void probe_sweep(const NetworkInstance& net, Report& rep) {
  auto proto = std::make_shared<engine::Instance>(net);
  const double demand = net.total_demand();
  sweep::ScenarioSpec spec;
  spec.name = "probe";
  spec.warm_axis = "demand";
  spec.grid.add_range("replicate", 0, 1).add_linspace("demand", 0.8 * demand,
                                                     1.2 * demand, 4);
  spec.factory = [proto](const sweep::ParamPoint& p, Rng&) {
    engine::Instance inst = *proto;
    sweep::override_demand(inst, p.get("demand"));
    return inst;
  };
  spec.metrics = {sweep::metric_nash_cost()};
  sweep::SweepOptions so;
  so.collect_counters = true;
  const sweep::SweepRunner runner(so);
  trace::Span span("sweep.run");
  const double t0 = now_ms();
  const sweep::SweepResult r = runner.run(spec);
  set_sweep_metrics(r, now_ms() - t0, rep);
  if (r.num_failed() != 0) rep.fail("sweep probe had failed tasks");
}

}  // namespace

void traced_tail(const Options& o, const Home& home, Report& rep) {
  trace::set_enabled(true);
  probe_io_gen(rep);
  probe_serve_lines(home.lines, rep);
  probe_frontend(home.lines, rep);
  if (!rep.has("core.mop_ms")) probe_mop(home.mop_points, rep);
  probe_solvers(home.net, rep);
  if (!rep.has("sweep.task_ms_p50")) probe_sweep(home.net, rep);
  trace::set_enabled(false);
  if (!o.trace_out.empty() && !trace::write_chrome(o.trace_out)) {
    rep.fail("cannot write the trace to " + o.trace_out);
  }
}

}  // namespace perfbench
