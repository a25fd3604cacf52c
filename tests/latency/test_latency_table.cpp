// LatencyTable vs the virtual LatencyFunction interface: the compiled
// kernels must agree with the objects they were compiled from — bitwise for
// value/derivative/integral/marginal (the solver hot paths lean on this for
// the sweep determinism contract) and to tight tolerance for the inverses.
// Covers every LatencyKind, nested shifted/offset wrappers, and the
// rejection of latencies compile() cannot represent.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "stackroute/latency/families.h"
#include "stackroute/latency/table.h"
#include "stackroute/util/error.h"
#include "stackroute/util/rng.h"

namespace stackroute {
namespace {

struct TableCase {
  std::string name;
  LatencyPtr fn;
  double x_max;  // sample loads in [0, x_max], inside capacity
};

std::vector<TableCase> table_cases() {
  Rng rng(77);
  std::vector<TableCase> cases;
  cases.push_back({"constant", make_constant(0.7), 8.0});
  cases.push_back({"constant_zero", make_constant(0.0), 8.0});
  cases.push_back({"affine", make_affine(2.5, 1.0 / 6.0), 8.0});
  cases.push_back({"affine_zero_slope", make_affine(0.0, 1.5), 8.0});
  cases.push_back({"linear", make_linear(3.0), 8.0});
  cases.push_back({"poly_quadratic", make_polynomial({0.5, 0.0, 2.0}), 5.0});
  cases.push_back({"poly_cubic", make_polynomial({0.1, 1.0, 0.0, 0.5}), 4.0});
  cases.push_back({"monomial_d7", make_monomial(0.3, 7), 2.5});
  cases.push_back({"bpr_default", make_bpr(1.0, 1.0), 3.0});
  cases.push_back({"bpr_steep", make_bpr(2.0, 0.5, 0.3, 6.0), 1.5});
  cases.push_back({"mm1", make_mm1(2.0), 1.8});
  cases.push_back({"mm1_past_break", make_mm1(1.0), 3.0});  // barrier region
  // Single wrappers around every wrappable family.
  cases.push_back({"shifted_affine", make_shifted(make_affine(2.0, 0.5), 1.25), 6.0});
  cases.push_back({"shifted_poly", make_shifted(make_polynomial({0.2, 0.1, 0.7}), 0.4), 4.0});
  cases.push_back({"shifted_bpr", make_shifted(make_bpr(1.5, 2.0), 0.8), 3.0});
  cases.push_back({"shifted_mm1", make_shifted(make_mm1(4.0), 1.0), 2.5});
  cases.push_back({"offset_poly", make_offset(make_polynomial({0.2, 0.3, 0.4}), 2.5), 4.0});
  cases.push_back({"offset_mm1", make_offset(make_mm1(3.0), 0.25), 2.5});
  cases.push_back({"offset_affine", make_offset(make_affine(1.2, 0.3), 0.9), 6.0});
  cases.push_back({"offset_constant", make_offset(make_constant(0.5), 0.25), 6.0});
  // Nested wrappers (both orders of shift/offset, and a 3-level chain).
  cases.push_back({"shifted_offset_affine",
                   make_shifted(make_offset(make_affine(1.0, 0.2), 0.4), 1.5), 5.0});
  cases.push_back({"offset_shifted_poly",
                   make_offset(make_shifted(make_polynomial({0.3, 0.6}), 2.0), 0.7), 5.0});
  cases.push_back({"shifted_offset_bpr",
                   make_shifted(make_offset(make_bpr(1.0, 1.5), 1.2), 0.6), 2.0});
  cases.push_back({"offset_shifted_mm1",
                   make_offset(make_shifted(make_mm1(5.0), 1.5), 0.8), 2.0});
  cases.push_back({"offset_shifted_offset_affine",
                   make_offset(make_shifted(make_offset(make_affine(0.9, 0.1), 0.5), 1.7), 0.3),
                   4.0});
  for (int i = 0; i < 6; ++i) {
    cases.push_back({"random_affine_" + std::to_string(i),
                     make_affine(rng.uniform(0.1, 5.0), rng.uniform(0.0, 3.0)),
                     6.0});
    std::vector<double> coeffs(static_cast<std::size_t>(rng.uniform_int(1, 5)));
    for (auto& c : coeffs) c = rng.uniform(0.0, 2.0);
    coeffs.back() += 0.1;
    cases.push_back({"random_poly_" + std::to_string(i),
                     make_polynomial(std::move(coeffs)), 3.0});
  }
  return cases;
}

LatencyTable compiled(const std::vector<LatencyPtr>& lats) {
  LatencyTable table;
  table.compile(lats);
  return table;
}

class TableEquivalence : public ::testing::TestWithParam<TableCase> {};

TEST_P(TableEquivalence, MatchesVirtualInterfaceBitwise) {
  const TableCase& c = GetParam();
  const std::vector<LatencyPtr> lats = {c.fn};
  const LatencyTable table = compiled(lats);
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table.is_constant(0), c.fn->is_constant()) << c.name;

  Rng rng(4242);
  for (int k = 0; k < 200; ++k) {
    const double x = k == 0 ? 0.0 : rng.uniform(0.0, c.x_max);
    EXPECT_EQ(table.value(0, x), c.fn->value(x)) << c.name << " value @" << x;
    EXPECT_EQ(table.derivative(0, x), c.fn->derivative(x))
        << c.name << " derivative @" << x;
    EXPECT_EQ(table.integral(0, x), c.fn->integral(x))
        << c.name << " integral @" << x;
    EXPECT_EQ(table.marginal(0, x), c.fn->marginal(x))
        << c.name << " marginal @" << x;
  }
}

TEST_P(TableEquivalence, InversesMatchToTightTolerance) {
  const TableCase& c = GetParam();
  if (c.fn->is_constant()) return;  // inverses throw for constants
  const std::vector<LatencyPtr> lats = {c.fn};
  const LatencyTable table = compiled(lats);

  Rng rng(1717);
  for (int k = 0; k < 100; ++k) {
    const double x = rng.uniform(0.0, c.x_max);
    {
      const double target = c.fn->value(x);
      const double a = table.inverse(0, target);
      const double b = c.fn->inverse(target);
      EXPECT_NEAR(a, b, 1e-9 * std::fmax(1.0, std::fabs(b)))
          << c.name << " inverse @" << target;
    }
    {
      const double target = c.fn->marginal(x);
      const double a = table.inverse_marginal(0, target);
      const double b = c.fn->inverse_marginal(target);
      EXPECT_NEAR(a, b, 1e-9 * std::fmax(1.0, std::fabs(b)))
          << c.name << " inverse_marginal @" << target;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, TableEquivalence, ::testing::ValuesIn(table_cases()),
    [](const ::testing::TestParamInfo<TableCase>& info) {
      return info.param.name;
    });

TEST(LatencyTable, BatchedKernelsMatchScalar) {
  Rng rng(99);
  std::vector<LatencyPtr> lats;
  for (const TableCase& c : table_cases()) lats.push_back(c.fn);
  const LatencyTable table = compiled(lats);
  ASSERT_EQ(table.size(), lats.size());

  std::vector<double> flow(lats.size());
  for (auto& x : flow) x = rng.uniform(0.0, 1.2);
  std::vector<double> out(lats.size());

  table.values(flow, out);
  for (std::size_t i = 0; i < lats.size(); ++i) {
    EXPECT_EQ(out[i], lats[i]->value(flow[i])) << i;
  }
}

// A subclass whose kind() and params() do not round-trip cannot be
// compiled into the table's family slots, so compile() refuses it.
class WeirdLatency final : public LatencyFunction {
 public:
  double value(double x) const override { return x * x + 3.0; }
  double derivative(double x) const override { return 2.0 * x; }
  double integral(double x) const override { return x * x * x / 3.0 + 3.0 * x; }
  LatencyKind kind() const override { return LatencyKind::kPolynomial; }
  std::vector<double> params() const override { return {}; }  // malformed
  std::string describe() const override { return "weird"; }
};

// A subclass that only reports a wrapper kind is not peeled as one.
class FakeShiftLatency final : public LatencyFunction {
 public:
  double value(double x) const override { return x + 1.0; }
  double derivative(double) const override { return 1.0; }
  double integral(double x) const override { return 0.5 * x * x + x; }
  LatencyKind kind() const override { return LatencyKind::kShifted; }
  std::vector<double> params() const override { return {1.0}; }
  std::string describe() const override { return "fake shift"; }
};

TEST(LatencyTable, CompileRejectsUnknownSubclass) {
  LatencyTable table;
  const std::vector<LatencyPtr> good = {make_affine(1.0, 0.5)};
  table.compile(good);
  const std::vector<LatencyPtr> lats = {make_linear(2.0),
                                        std::make_shared<WeirdLatency>()};
  EXPECT_THROW(table.compile(lats), Error);
  // The failed compile leaves an empty table, not a partial one.
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.compiled_for(good));
  EXPECT_FALSE(table.compiled_for(lats));

  const std::vector<LatencyPtr> wrapped = {
      make_offset(std::make_shared<WeirdLatency>(), 0.5)};
  EXPECT_THROW(table.compile(wrapped), Error);

  EXPECT_FALSE(peel_wrapper(FakeShiftLatency()).has_value());
  const std::vector<LatencyPtr> fake = {std::make_shared<FakeShiftLatency>()};
  EXPECT_THROW(table.compile(fake), Error);
}

TEST(LatencyTable, CompileRejectsWrapperChainsDeeperThan64) {
  // Alternating shift/offset levels, which the factories do not collapse.
  const auto chain = [](int depth) {
    LatencyPtr f = make_affine(1.0, 0.5);
    for (int k = 0; k < depth; ++k) {
      f = k % 2 == 0 ? make_shifted(f, 0.01) : make_offset(f, 0.01);
    }
    return f;
  };
  LatencyTable table;
  const std::vector<LatencyPtr> deepest = {chain(64)};
  table.compile(deepest);
  EXPECT_EQ(table.value(0, 1.0), deepest[0]->value(1.0));
  const std::vector<LatencyPtr> too_deep = {chain(65)};
  EXPECT_THROW(table.compile(too_deep), Error);
}

TEST(LatencyTable, CompileReusesStorageAndRejectsNull) {
  LatencyTable table;
  const std::vector<LatencyPtr> a = {make_affine(1.0, 0.5), make_mm1(2.0)};
  table.compile(a);
  EXPECT_EQ(table.size(), 2u);
  const std::vector<LatencyPtr> b = {make_constant(1.0)};
  table.compile(b);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.value(0, 3.0), 1.0);

  const std::vector<LatencyPtr> bad = {nullptr};
  EXPECT_THROW(table.compile(bad), Error);
}

}  // namespace
}  // namespace stackroute
