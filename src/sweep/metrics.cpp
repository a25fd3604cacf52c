#include "stackroute/sweep/metrics.h"

namespace stackroute::sweep {

namespace {

/// The point's α for SCALE/LLF; Aloof reads none, so its grid needs no
/// "alpha" axis.
double alpha_of(const ParamPoint& point, engine::StrategyKind kind) {
  return kind == engine::StrategyKind::kAloof ? 0.0 : point.get("alpha");
}

}  // namespace

// One α per task (the point's), cached per kind inside the Evaluation.
double TaskEval::strategy_ratio(engine::StrategyKind kind) {
  return eval_.strategy_ratio(kind, alpha_of(point_, kind));
}

double TaskEval::strategy_cost(engine::StrategyKind kind) {
  return eval_.strategy_cost(kind, alpha_of(point_, kind));
}

Metric metric_beta() {
  return {"beta", [](TaskEval& e) { return e.beta(); }};
}

Metric metric_poa() {
  return {"poa", [](TaskEval& e) { return e.poa(); }};
}

Metric metric_nash_cost() {
  return {"nash_cost", [](TaskEval& e) { return e.nash_cost(); }};
}

Metric metric_optimum_cost() {
  return {"opt_cost", [](TaskEval& e) { return e.optimum_cost(); }};
}

Metric metric_stackelberg_cost() {
  return {"stackelberg_cost", [](TaskEval& e) { return e.stackelberg_cost(); }};
}

Metric metric_optop_rounds() {
  return {"optop_rounds", [](TaskEval& e) { return e.rounds(); }};
}

Metric metric_strategy_ratio(engine::StrategyKind kind) {
  return {std::string(engine::strategy_name(kind)) + "_ratio",
          [kind](TaskEval& e) { return e.strategy_ratio(kind); }};
}

Metric metric_strategy_cost(engine::StrategyKind kind) {
  return {std::string(engine::strategy_name(kind)) + "_cost",
          [kind](TaskEval& e) { return e.strategy_cost(kind); }};
}

Metric metric_alpha_to_optimum(engine::StrategyKind kind, double eps) {
  return {std::string(engine::strategy_name(kind)) + "_alpha_star",
          [kind, eps](TaskEval& e) {
            return e.strategy_alpha_to_optimum(kind, eps);
          }};
}

std::vector<Metric> default_metrics() {
  return {metric_beta(), metric_poa(), metric_nash_cost(),
          metric_optimum_cost(), metric_stackelberg_cost()};
}

std::vector<Metric> strategy_metrics() {
  return {metric_beta(), metric_optimum_cost(),
          metric_strategy_ratio(engine::StrategyKind::kAloof),
          metric_strategy_ratio(engine::StrategyKind::kScale),
          metric_strategy_ratio(engine::StrategyKind::kLlf)};
}

}  // namespace stackroute::sweep
