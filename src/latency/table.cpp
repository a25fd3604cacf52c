#include "stackroute/latency/table.h"

#include <algorithm>
#include <optional>
#include <string>

#include "stackroute/latency/families.h"
#include "stackroute/util/error.h"

namespace stackroute {

namespace {

// Paranoia bound: wrapper chains are O(1) deep in practice (make_shifted /
// make_offset collapse direct nesting); anything deeper than this is almost
// certainly a pathological construction, and compile() rejects it.
constexpr std::size_t kMaxWrapDepth = 64;

}  // namespace

bool LatencyTable::ensure_compiled(std::span<const LatencyPtr> lats) {
  if (compiled_for(lats)) return false;
  compile(lats);
  return true;
}

bool LatencyTable::compiled_for(std::span<const LatencyPtr> lats) const {
  return src_.size() == lats.size() &&
         std::equal(src_.begin(), src_.end(), lats.begin());
}

void LatencyTable::adopt(const LatencyTable& other,
                         std::span<const LatencyPtr> lats) {
  SR_REQUIRE(other.src_.size() == lats.size(),
             "LatencyTable::adopt size mismatch");
  const std::uint64_t revision = revision_ + 1;  // self-adopt keeps counting
  entries_ = other.entries_;
  wraps_ = other.wraps_;
  coeffs_ = other.coeffs_;
  all_affine_ = other.all_affine_;
  aff_a_ = other.aff_a_;
  aff_b_ = other.aff_b_;
  src_.assign(lats.begin(), lats.end());
  revision_ = revision;
}

void LatencyTable::compile(std::span<const LatencyPtr> lats) {
  ++revision_;
  entries_.clear();
  wraps_.clear();
  coeffs_.clear();
  src_.clear();
  entries_.reserve(lats.size());
  try {
    for (const LatencyPtr& lat : lats) {
      SR_REQUIRE(lat != nullptr, "LatencyTable::compile got a null latency");
      append_entry(*lat);
    }
  } catch (...) {
    entries_.clear();  // leave an empty table, never a partial one
    wraps_.clear();
    coeffs_.clear();
    all_affine_ = false;
    throw;
  }
  src_.assign(lats.begin(), lats.end());
  // Homogeneous-affine fast path: flat slope/intercept arrays.
  all_affine_ = !entries_.empty();
  for (const Entry& en : entries_) {
    if (en.fam != Fam::kAffine || en.wrap_count != 0) {
      all_affine_ = false;
      break;
    }
  }
  aff_a_.clear();
  aff_b_.clear();
  if (all_affine_) {
    aff_a_.reserve(entries_.size());
    aff_b_.reserve(entries_.size());
    for (const Entry& en : entries_) {
      aff_a_.push_back(en.p0);
      aff_b_.push_back(en.p1);
    }
  }
}

std::size_t LatencyTable::footprint_bytes() const {
  return sizeof(*this) + entries_.capacity() * sizeof(Entry) +
         wraps_.capacity() * sizeof(Wrap) +
         coeffs_.capacity() * sizeof(double) +
         src_.capacity() * sizeof(LatencyPtr) +
         (aff_a_.capacity() + aff_b_.capacity()) * sizeof(double);
}

void LatencyTable::append_entry(const LatencyFunction& f) {
  Entry en;
  en.wrap_begin = static_cast<std::uint32_t>(wraps_.size());

  // Peel wrappers outermost-first.
  const LatencyFunction* cur = &f;
  bool shifted = false;
  while (const std::optional<WrapperLevel> w = peel_wrapper(*cur)) {
    SR_REQUIRE(wraps_.size() - en.wrap_begin < kMaxWrapDepth,
               "LatencyTable::compile: wrapper chain deeper than " +
                   std::to_string(kMaxWrapDepth) + " levels");
    const bool shift = w->kind == LatencyKind::kShifted;
    wraps_.push_back(Wrap{shift ? Op::kShift : Op::kOffset, w->param});
    shifted = shifted || shift;
    cur = w->base;
  }
  en.wrap_count = static_cast<std::uint16_t>(wraps_.size() - en.wrap_begin);

  // Pack the primitive underneath from its kind() + params(), the
  // documented round-trip contract.
  const std::vector<double> p = cur->params();
  const auto require_params = [&](bool ok) {
    SR_REQUIRE(ok, "LatencyTable::compile: " + to_string(cur->kind()) +
                       " latency with " + std::to_string(p.size()) +
                       " parameters does not round-trip");
  };
  switch (cur->kind()) {
    case LatencyKind::kConstant:
      require_params(p.size() == 1);
      en.fam = Fam::kConstant;
      en.p0 = p[0];
      break;
    case LatencyKind::kAffine:
      require_params(p.size() == 2);
      en.fam = Fam::kAffine;
      en.p0 = p[0];
      en.p1 = p[1];
      if (en.p0 > 0.0) {
        en.flags |= kFlagClosedInverse | kFlagClosedInverseMarginal;
      }
      break;
    case LatencyKind::kPolynomial:
      require_params(!p.empty());
      en.fam = Fam::kPoly;
      en.coeff_begin = static_cast<std::uint32_t>(coeffs_.size());
      en.coeff_count = static_cast<std::uint32_t>(p.size());
      coeffs_.insert(coeffs_.end(), p.begin(), p.end());
      break;
    case LatencyKind::kBpr:
      require_params(p.size() == 4);
      en.fam = Fam::kBpr;
      en.p0 = p[0];
      en.p1 = p[1];
      en.p2 = p[2];
      en.p3 = p[3];
      en.aux = kernels::bpr_int_power(en.p3);
      en.flags |= kFlagClosedInverse | kFlagClosedInverseMarginal;
      break;
    case LatencyKind::kMm1:
      require_params(p.size() == 1);
      en.fam = Fam::kMm1;
      en.p0 = p[0];
      en.flags |= kFlagClosedInverse | kFlagClosedInverseMarginal;
      break;
    case LatencyKind::kShifted:
    case LatencyKind::kOffset:
      require_params(false);  // a wrapper kind peel_wrapper did not accept
      break;
  }
  // The marginal of a shifted latency is not the shifted marginal
  // (ShiftedLatency::inverse_marginal uses the numeric default).
  if (shifted) en.flags &= static_cast<std::uint8_t>(~kFlagClosedInverseMarginal);
  if (f.is_constant()) en.flags |= kFlagConstant;
  entries_.push_back(en);
}

void LatencyTable::values(std::span<const double> flow,
                          std::span<double> out) const {
  SR_REQUIRE(flow.size() == size() && out.size() == size(),
             "LatencyTable::values span size mismatch");
  for (std::size_t i = 0; i < size(); ++i) out[i] = value(i, flow[i]);
}

}  // namespace stackroute
