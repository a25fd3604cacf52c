// Flat, cache-friendly compilation of latency functions — the evaluation
// kernel underneath the solver hot loops.
//
// compile() walks each LatencyPtr once, peeling shifted/offset wrappers into
// a short per-entry op chain and packing the primitive family underneath
// into struct-of-arrays slots (family tag + coefficient slots, polynomial
// coefficients in a shared pool). The kernels then evaluate without virtual
// dispatch or shared_ptr chasing. Every family formula is the one in
// kernels.h that the virtual classes call too, so the two representations
// are bit-identical by construction and solvers can switch between them
// freely without perturbing equilibria.
//
// compile() accepts exactly the latencies whose kind() and params()
// round-trip (the families of families.h and their shift/offset chains) and
// throws stackroute::Error on anything else. Inverses without a closed form
// (constants, polynomials, the marginal of a shifted latency) call the
// source object's own implementation.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "stackroute/latency/kernels.h"
#include "stackroute/latency/latency.h"

namespace stackroute {

class LatencyTable {
 public:
  LatencyTable() = default;

  /// Compiles the given latencies, reusing this table's storage. Throws on
  /// a null entry, on an entry whose kind() and params() do not round-trip,
  /// and on a wrapper chain deeper than 64 levels; the table is then left
  /// empty.
  void compile(std::span<const LatencyPtr> lats);

  /// compile(), skipped entirely when `lats` is pointer-identical to the
  /// currently compiled set (same size, same objects elementwise). Latency
  /// objects are immutable, so identical pointers imply an identical
  /// compilation; and because the table keeps shared ownership of the last
  /// compiled set, a *new* object can never coincidentally reuse a still-
  /// compared address. Returns true when a recompilation actually ran —
  /// chained sweeps observe this through revision(). This is the fast path
  /// that lets adjacent grid points differing only in scalar knobs (demand,
  /// preload-free re-solves) reuse the compiled kernel.
  bool ensure_compiled(std::span<const LatencyPtr> lats);

  /// True when `lats` is pointer-identical to the currently compiled set —
  /// the test ensure_compiled short-circuits on, exposed so callers (the
  /// engine's table cache) can probe without risking a compile.
  [[nodiscard]] bool compiled_for(std::span<const LatencyPtr> lats) const;

  /// Takes over `other`'s compiled arrays as the compilation of `lats`,
  /// skipping the compile walk. Sound only when `lats` is *value-equal* to
  /// the set `other` was compiled from — same kinds, parameters and wrapper
  /// chains elementwise — which the caller must guarantee (the engine
  /// checks a content hash plus full structural equality). The sources are
  /// re-pointed at `lats`, so inverse fallbacks dispatch to the new
  /// (equal-valued) objects and subsequent ensure_compiled(lats)
  /// calls take the fast path. Counts as a recompilation for revision().
  void adopt(const LatencyTable& other, std::span<const LatencyPtr> lats);

  /// Monotonic count of actual recompilations of this table — the
  /// instance-revision tag a SolverWorkspace carries across chained solves.
  [[nodiscard]] std::uint64_t revision() const { return revision_; }

  /// Heap bytes held by this compilation (entry/wrapper/coefficient
  /// arrays, source pointers, affine fast-path arrays), by *capacity* —
  /// what the allocator actually holds, not what is in use. This is the
  /// figure the engine's byte-budgeted table cache charges per entry.
  [[nodiscard]] std::size_t footprint_bytes() const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  // ---- Scalar kernels (indexed by compile order) -------------------------

  /// ℓ_i(x).
  [[nodiscard]] double value(std::size_t i, double x) const {
    if (all_affine_) return kernels::affine_value(aff_a_[i], aff_b_[i], x);
    const Entry& en = entries_[i];
    return en.wrap_count == 0 ? prim_value(en, x) : wrapped_value(en, 0, x);
  }

  /// ℓ_i'(x).
  [[nodiscard]] double derivative(std::size_t i, double x) const {
    if (all_affine_) return aff_a_[i];
    const Entry& en = entries_[i];
    return en.wrap_count == 0 ? prim_derivative(en, x)
                              : wrapped_derivative(en, 0, x);
  }

  /// ∫₀ˣ ℓ_i.
  [[nodiscard]] double integral(std::size_t i, double x) const {
    if (all_affine_) return kernels::affine_integral(aff_a_[i], aff_b_[i], x);
    const Entry& en = entries_[i];
    return en.wrap_count == 0 ? prim_integral(en, x)
                              : wrapped_integral(en, 0, x);
  }

  /// ℓ_i(x) + x·ℓ_i'(x) — same combination as LatencyFunction::marginal.
  [[nodiscard]] double marginal(std::size_t i, double x) const {
    if (all_affine_) {
      const double a = aff_a_[i];
      return kernels::affine_value(a, aff_b_[i], x) + x * a;
    }
    return value(i, x) + x * derivative(i, x);
  }

  /// True when every entry is an unwrapped affine latency — the dominant
  /// large-network shape. value() and marginal() then read flat
  /// slope/intercept arrays without the per-entry family dispatch, which
  /// lets hot loops (Frank–Wolfe's line search) run unrolled.
  [[nodiscard]] bool homogeneous_affine() const { return all_affine_; }

  /// Clamped inverse of ℓ_i; closed-form when the whole wrapper chain has
  /// one, otherwise the source object's own (possibly numeric) inverse.
  [[nodiscard]] double inverse(std::size_t i, double target) const {
    const Entry& en = entries_[i];
    if (!(en.flags & kFlagClosedInverse)) return src_[i]->inverse(target);
    return wrapped_inverse(en, 0, target);
  }

  /// Clamped inverse of the marginal cost; closed-form only when no shift
  /// wrapper intervenes (a shifted marginal is not the marginal shifted).
  [[nodiscard]] double inverse_marginal(std::size_t i, double target) const {
    const Entry& en = entries_[i];
    if (!(en.flags & kFlagClosedInverseMarginal)) {
      return src_[i]->inverse_marginal(target);
    }
    return wrapped_inverse_marginal(en, 0, target);
  }

  [[nodiscard]] bool is_constant(std::size_t i) const {
    return (entries_[i].flags & kFlagConstant) != 0;
  }

  /// The latency this entry was compiled from.
  [[nodiscard]] const LatencyPtr& source(std::size_t i) const {
    return src_[i];
  }

  /// out[i] = ℓ_i(flow[i]); both spans must have size().
  void values(std::span<const double> flow, std::span<double> out) const;

 private:
  enum class Fam : std::uint8_t { kConstant, kAffine, kPoly, kBpr, kMm1 };
  enum class Op : std::uint8_t { kShift, kOffset };
  enum Flag : std::uint8_t {
    kFlagConstant = 1,
    kFlagClosedInverse = 2,
    kFlagClosedInverseMarginal = 4,
  };

  struct Wrap {
    Op op;
    double p;
  };

  struct Entry {
    Fam fam = Fam::kConstant;
    std::uint8_t flags = 0;
    std::uint16_t wrap_count = 0;
    std::uint32_t wrap_begin = 0;
    std::uint32_t coeff_begin = 0;
    std::uint32_t coeff_count = 0;
    std::int32_t aux = 0;  // BPR: kernels::bpr_int_power(p)
    // Family slots: Constant {b,-,-,-}, Affine {a,b,-,-},
    // BPR {t0,cap,B,p}, MM1 {mu,-,-,-}; Poly uses the coefficient pool.
    double p0 = 0.0, p1 = 0.0, p2 = 0.0, p3 = 0.0;
  };

  void append_entry(const LatencyFunction& f);

  [[nodiscard]] std::span<const double> poly(const Entry& en) const {
    return {coeffs_.data() + en.coeff_begin, en.coeff_count};
  }

  [[nodiscard]] double prim_value(const Entry& en, double x) const {
    switch (en.fam) {
      case Fam::kConstant:
        return en.p0;
      case Fam::kAffine:
        return kernels::affine_value(en.p0, en.p1, x);
      case Fam::kPoly:
        return kernels::poly_value(poly(en), x);
      case Fam::kBpr:
        return kernels::bpr_value(en.p0, en.p1, en.p2, en.p3, en.aux, x);
      case Fam::kMm1:
        return kernels::mm1_value(en.p0, x);
    }
    return 0.0;  // unreachable: the switch covers every family
  }

  [[nodiscard]] double prim_derivative(const Entry& en, double x) const {
    switch (en.fam) {
      case Fam::kConstant:
        return 0.0;
      case Fam::kAffine:
        return en.p0;
      case Fam::kPoly:
        return kernels::poly_derivative(poly(en), x);
      case Fam::kBpr:
        return kernels::bpr_derivative(en.p0, en.p1, en.p2, en.p3, en.aux, x);
      case Fam::kMm1:
        return kernels::mm1_derivative(en.p0, x);
    }
    return 0.0;
  }

  [[nodiscard]] double prim_integral(const Entry& en, double x) const {
    switch (en.fam) {
      case Fam::kConstant:
        return kernels::constant_integral(en.p0, x);
      case Fam::kAffine:
        return kernels::affine_integral(en.p0, en.p1, x);
      case Fam::kPoly:
        return kernels::poly_integral(poly(en), x);
      case Fam::kBpr:
        return kernels::bpr_integral(en.p0, en.p1, en.p2, en.p3, en.aux, x);
      case Fam::kMm1:
        return kernels::mm1_integral(en.p0, x);
    }
    return 0.0;
  }

  // The inverses are reached only through the closed-form flags, which
  // compile() sets for affine (slope > 0), BPR and M/M/1 alone.

  [[nodiscard]] double prim_inverse(const Entry& en, double target) const {
    switch (en.fam) {
      case Fam::kAffine:
        return kernels::affine_inverse(en.p0, en.p1, target);
      case Fam::kBpr:
        return kernels::bpr_inverse(en.p0, en.p1, en.p2, en.p3, target);
      case Fam::kMm1:
        return kernels::mm1_inverse(en.p0, target);
      default:
        break;
    }
    return 0.0;
  }

  [[nodiscard]] double prim_inverse_marginal(const Entry& en,
                                             double target) const {
    switch (en.fam) {
      case Fam::kAffine:
        return kernels::affine_inverse_marginal(en.p0, en.p1, target);
      case Fam::kBpr:
        return kernels::bpr_inverse_marginal(en.p0, en.p1, en.p2, en.p3,
                                             target);
      case Fam::kMm1:
        return kernels::mm1_inverse_marginal(en.p0, target);
      default:
        break;
    }
    return 0.0;
  }

  // The wrapper ops mirror ShiftedLatency / OffsetLatency (families.h).

  [[nodiscard]] double wrapped_value(const Entry& en, std::uint32_t w,
                                     double x) const {
    if (w == en.wrap_count) return prim_value(en, x);
    const Wrap& wr = wraps_[en.wrap_begin + w];
    if (wr.op == Op::kShift) return wrapped_value(en, w + 1, x + wr.p);
    return wrapped_value(en, w + 1, x) + wr.p;
  }

  [[nodiscard]] double wrapped_derivative(const Entry& en, std::uint32_t w,
                                          double x) const {
    if (w == en.wrap_count) return prim_derivative(en, x);
    const Wrap& wr = wraps_[en.wrap_begin + w];
    if (wr.op == Op::kShift) return wrapped_derivative(en, w + 1, x + wr.p);
    return wrapped_derivative(en, w + 1, x);
  }

  [[nodiscard]] double wrapped_integral(const Entry& en, std::uint32_t w,
                                        double x) const {
    if (w == en.wrap_count) return prim_integral(en, x);
    const Wrap& wr = wraps_[en.wrap_begin + w];
    if (wr.op == Op::kShift) {
      return wrapped_integral(en, w + 1, x + wr.p) -
             wrapped_integral(en, w + 1, wr.p);
    }
    return wrapped_integral(en, w + 1, x) + wr.p * x;
  }

  [[nodiscard]] double wrapped_inverse(const Entry& en, std::uint32_t w,
                                       double target) const {
    if (w == en.wrap_count) return prim_inverse(en, target);
    const Wrap& wr = wraps_[en.wrap_begin + w];
    if (wr.op == Op::kShift) {
      return std::fmax(0.0, wrapped_inverse(en, w + 1, target) - wr.p);
    }
    if (target <= wrapped_value(en, w, 0.0)) return 0.0;
    return wrapped_inverse(en, w + 1, target - wr.p);
  }

  // Reached only for shift-free chains (see inverse_marginal), so every
  // level is an offset.
  [[nodiscard]] double wrapped_inverse_marginal(const Entry& en,
                                                std::uint32_t w,
                                                double target) const {
    if (w == en.wrap_count) return prim_inverse_marginal(en, target);
    if (target <= wrapped_value(en, w, 0.0)) return 0.0;
    const Wrap& wr = wraps_[en.wrap_begin + w];
    return wrapped_inverse_marginal(en, w + 1, target - wr.p);
  }

  std::vector<Entry> entries_;
  std::vector<Wrap> wraps_;
  std::vector<double> coeffs_;
  std::vector<LatencyPtr> src_;
  std::uint64_t revision_ = 0;
  bool all_affine_ = false;
  std::vector<double> aff_a_;  // filled only when all_affine_
  std::vector<double> aff_b_;
};

}  // namespace stackroute
