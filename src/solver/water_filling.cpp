#include "stackroute/solver/water_filling.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "stackroute/obs/counters.h"
#include "stackroute/obs/trace.h"
#include "stackroute/util/error.h"
#include "stackroute/util/fault.h"
#include "stackroute/util/numeric.h"
#include "stackroute/util/parallel.h"
#include "stackroute/util/scalar.h"

namespace stackroute {

namespace {
// Tolerance on the level.
constexpr double kTol = 1e-13;

// Internal control-flow exception: a budget hit or non-finite supply value
// unwinds the root-finding machinery to the one place that can assemble a
// best-so-far result. Never escapes water_fill.
struct SupplyInterrupt {
  SolveStatus status;
};
}  // namespace

LinkAssignment water_fill(std::span<const LatencyPtr> links, double demand,
                          LevelKind kind, SolverWorkspace* ws,
                          double level_hint, const SolveBudget& budget) {
  SolverWorkspace own;
  if (ws == nullptr) ws = &own;
  obs::ScopedSpan span("water_fill");
  SR_REQUIRE(!links.empty(), "water_fill needs >= 1 link");
  SR_REQUIRE(demand >= 0.0 && std::isfinite(demand),
             "water_fill needs demand >= 0");
  const std::size_t m = links.size();
  for (const auto& link : links) {
    SR_REQUIRE(link != nullptr, "water_fill got a null link");
  }
  ws->table.ensure_compiled(links);
  const LatencyTable& table = ws->table;

  const auto level_at_zero = [&](std::size_t i) {
    return kind == LevelKind::kLatency ? table.value(i, 0.0)
                                       : table.marginal(i, 0.0);
  };
  const auto response = [&](std::size_t i, double level) {
    return kind == LevelKind::kLatency ? table.inverse(i, level)
                                       : table.inverse_marginal(i, level);
  };

  // Capacity feasibility must be checked eagerly: bounded-domain latencies
  // (M/M/1) carry a barrier extension that would otherwise let bisection
  // "solve" an infeasible instance inside the barrier region.
  {
    double cap = 0.0;
    bool unbounded = false;
    for (const auto& link : links) {
      const double c = link->capacity();
      if (std::isfinite(c)) {
        cap += c;
      } else {
        unbounded = true;
      }
    }
    SR_REQUIRE(unbounded || cap > demand,
               "water_fill: demand exceeds total link capacity");
  }

  LinkAssignment result;
  result.flows.assign(m, 0.0);

  // Smallest level at which constant links start absorbing flow, and the
  // set of constant links achieving it.
  double const_level = kInf;
  for (std::size_t i = 0; i < m; ++i) {
    if (table.is_constant(i)) {
      const_level = std::fmin(const_level, level_at_zero(i));
    }
  }

  // S(L) over the increasing links only (constants contribute 0 below
  // their level and "anything" at it). Each evaluation is one cooperative
  // budget poll, one fault-injection event, and one finiteness check.
  BudgetGate gate(budget);
  std::uint64_t supply_evals = 0;
  double last_probe = std::numeric_limits<double>::quiet_NaN();
  auto increasing_supply = [&](double level) {
    last_probe = level;
    if (gate.over_iters(static_cast<long long>(supply_evals))) {
      throw SupplyInterrupt{SolveStatus::kIterLimit};
    }
    if (gate.expired()) throw SupplyInterrupt{SolveStatus::kDeadlineExceeded};
    ++supply_evals;
    double s = parallel_sum(m, [&](std::size_t i) {
      return table.is_constant(i) ? 0.0 : response(i, level);
    });
    if (fault::armed()) {
      double bad;
      if (fault::next_eval_faulted(bad)) s = bad;
    }
    if (!std::isfinite(s)) throw SupplyInterrupt{SolveStatus::kNumericFailure};
    return s;
  };

  if (demand == 0.0) {
    double lo = const_level;
    for (std::size_t i = 0; i < m; ++i) {
      if (!table.is_constant(i)) {
        lo = std::fmin(lo, level_at_zero(i));
      }
    }
    result.level = lo;
    return result;
  }

  bool plateau = false;
  double level = 0.0;
  try {
    plateau =
        std::isfinite(const_level) && increasing_supply(const_level) < demand;

    if (plateau) {
      level = const_level;
    } else {
      // Bracket: S is 0 at the smallest at-zero level; expand upward until
      // S >= demand. Cap the expansion at the constant plateau (if any) or a
      // generous bound; hitting the bound means demand exceeds capacity.
      double lo = kInf;
      for (std::size_t i = 0; i < m; ++i) {
        if (!table.is_constant(i)) {
          lo = std::fmin(lo, level_at_zero(i));
        }
      }
      SR_REQUIRE(std::isfinite(lo),
                 "water_fill: all links constant but demand below plateau?");
      auto deficit = [&](double l) { return increasing_supply(l) - demand; };
      const double cap = std::isfinite(const_level) ? const_level : 1e30;
      auto solve_cold = [&] {
        const double hi =
            expand_upper(deficit, lo, std::fmax(1.0, std::fabs(lo)), cap);
        SR_REQUIRE(deficit(hi) >= 0.0,
                   "water_fill: demand exceeds total link capacity");
        const double scale = std::fmax(1.0, std::fabs(hi));
        return bisect_increasing(deficit, lo, hi, kTol * scale);
      };
      if (std::isfinite(level_hint)) {
        obs::count(&obs::SolveCounters::warm_attempts);
      }
      if (std::isfinite(level_hint) && level_hint > lo && level_hint < cap) {
        obs::count(&obs::SolveCounters::warm_hits);
        // Warm path: expand a bracket geometrically from the hint (typically
        // 1-3 probes on dense sweeps), then false position on it. Correctness
        // does not depend on the hint's quality — only on the validated
        // bracket — so even a hint from a slightly different system is safe.
        // A non-finite probe near the hint falls back to the cold bracket
        // (the hint may sit in a numerically bad region); only if the cold
        // bracket fails too does the solve degrade.
        try {
          const double fh = deficit(level_hint);
          const double step0 = 1e-3 * std::fmax(1.0, std::fabs(level_hint));
          double wlo, whi, flo, fhi;
          if (fh < 0.0) {
            wlo = level_hint;
            flo = fh;
            double step = step0;
            whi = std::fmin(level_hint + step, cap);
            fhi = deficit(whi);
            while (fhi < 0.0 && whi < cap) {
              wlo = whi;
              flo = fhi;
              step *= 2.0;
              whi = std::fmin(level_hint + step, cap);
              fhi = deficit(whi);
            }
            SR_REQUIRE(fhi >= 0.0,
                       "water_fill: demand exceeds total link capacity");
          } else {
            whi = level_hint;
            fhi = fh;
            double step = step0;
            wlo = std::fmax(level_hint - step, lo);
            flo = deficit(wlo);
            while (flo > 0.0 && wlo > lo) {
              whi = wlo;
              fhi = flo;
              step *= 2.0;
              wlo = std::fmax(level_hint - step, lo);
              flo = deficit(wlo);
            }
            // deficit(lo) = -demand < 0, so the clamped end always brackets.
          }
          const double scale = std::fmax(1.0, std::fabs(whi));
          level =
              illinois_increasing(deficit, wlo, whi, flo, fhi, kTol * scale);
        } catch (const SupplyInterrupt& interrupt) {
          if (interrupt.status != SolveStatus::kNumericFailure) throw;
          obs::count(&obs::SolveCounters::warm_fallbacks);
          level = solve_cold();
        } catch (const NumericError&) {
          obs::count(&obs::SolveCounters::warm_fallbacks);
          level = solve_cold();
        }
      } else {
        level = solve_cold();
      }
    }
  } catch (const SupplyInterrupt& interrupt) {
    result.status = interrupt.status;
    level = std::isfinite(last_probe) ? last_probe : const_level;
  } catch (const NumericError&) {
    result.status = SolveStatus::kNumericFailure;
    level = std::isfinite(last_probe) ? last_probe : const_level;
  }

  // Fill flows at the computed level.
  parallel_for(m, [&](std::size_t i) {
    if (!table.is_constant(i)) {
      result.flows[i] = response(i, level);
    }
  });

  // Hand the residual to the plateau constants (equal split), or absorb the
  // bisection roundoff into the increasing links proportionally to their
  // level-sensitivity so the level stays consistent.
  const double assigned = sum(result.flows);
  double residual = demand - assigned;
  result.supply_gap = residual;
  if (!solve_ok(result.status)) {
    // Degraded: report the flows filled consistently at the best-so-far
    // level and leave the supply gap as the honest miss — redistributing
    // the residual would fake a feasibility the solve did not reach.
    result.level = level;
    obs::count(&obs::SolveCounters::water_fill_evals, supply_evals);
    return result;
  }
  if (plateau) {
    std::vector<std::size_t> at_plateau;
    for (std::size_t i = 0; i < m; ++i) {
      if (table.is_constant(i) && level_at_zero(i) <= const_level + kTol) {
        at_plateau.push_back(i);
      }
    }
    SR_ASSERT(!at_plateau.empty(), "plateau without constant links");
    SR_ASSERT(residual >= -1e-9 * std::fmax(1.0, demand),
              "negative plateau residual");
    residual = std::fmax(residual, 0.0);
    for (std::size_t i : at_plateau) {
      result.flows[i] = residual / static_cast<double>(at_plateau.size());
    }
  } else if (residual != 0.0) {
    // dx/dL of link i at its current flow; links pinned at zero get none.
    ws->weights.assign(m, 0.0);
    double total_weight = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      if (table.is_constant(i) || result.flows[i] <= 0.0) continue;
      const double d = table.derivative(i, result.flows[i]);
      ws->weights[i] = d > 0.0 ? 1.0 / d : 0.0;
      total_weight += ws->weights[i];
    }
    if (total_weight > 0.0) {
      for (std::size_t i = 0; i < m; ++i) {
        result.flows[i] = std::fmax(
            0.0, result.flows[i] + residual * ws->weights[i] / total_weight);
      }
    }
  }

  result.level = level;
  result.constant_plateau = plateau;
  obs::count(&obs::SolveCounters::water_fill_evals, supply_evals);
  return result;
}

}  // namespace stackroute
