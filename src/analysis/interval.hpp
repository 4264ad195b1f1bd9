// Interval domain for the static kernel-access analyzer. Every address
// stream the CRSD GPU kernel issues is affine in the work-group id (and,
// within a group, in the diagonal index), so the abstract state a proof
// needs is just a closed integer interval per stream: the least and
// greatest element the stream can touch. Joins are exact here — affine
// images of a contiguous id range are themselves contiguous per coordinate
// — which is why the analyzer proves (not approximates) bounds safety.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

namespace crsd::analysis {

/// Closed integer interval [lo, hi]; lo > hi encodes the empty interval.
struct Interval {
  std::int64_t lo = 0;
  std::int64_t hi = -1;

  static Interval empty() { return Interval{0, -1}; }
  static Interval point(std::int64_t v) { return Interval{v, v}; }

  bool is_empty() const { return lo > hi; }

  /// Affine image: {v + k | v in this}.
  Interval shifted(std::int64_t k) const {
    if (is_empty()) return *this;
    return Interval{lo + k, hi + k};
  }

  /// Least upper bound (exact for the affine streams the analyzer builds).
  Interval join(const Interval& o) const {
    if (is_empty()) return o;
    if (o.is_empty()) return *this;
    return Interval{std::min(lo, o.lo), std::max(hi, o.hi)};
  }

  /// Clamp every element into [bound_lo, bound_hi] — the abstract transfer
  /// function of the kernel's crsd_clampi / CrsdMatrix::clamp_col.
  Interval clamped(std::int64_t bound_lo, std::int64_t bound_hi) const {
    if (is_empty()) return *this;
    return Interval{std::clamp(lo, bound_lo, bound_hi),
                    std::clamp(hi, bound_lo, bound_hi)};
  }

  bool contains(const Interval& o) const {
    return o.is_empty() || (!is_empty() && lo <= o.lo && o.hi <= hi);
  }

  std::string str() const {
    if (is_empty()) return "[]";
    return "[" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
  }
};

}  // namespace crsd::analysis
