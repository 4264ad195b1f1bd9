// Row-segment sharding of one built CRSD container across N devices. A
// shard is one slice of the shared row partition (core/row_partition.hpp):
// a contiguous run of row segments (so each work-group stays whole), the
// scatter rows whose target row falls inside it, plus the x-window the
// shard's kernels read — diagonal clamps and scatter gathers included — so
// only that window is transferred to the device. The partition and its
// validator are the ones the CPU ExecPlan uses; this file only adds the
// x-window.
//
// Shards slice the *built* matrix, never a rebuilt sub-matrix: builder fill
// and coalescing decisions depend on run extents crossing shard boundaries,
// so rebuilding would change per-row accumulation order and break the
// bitwise-identity contract multi_device.hpp advertises.
#pragma once

#include <algorithm>
#include <vector>

#include "check/diagnostics.hpp"
#include "core/crsd_matrix.hpp"
#include "core/row_partition.hpp"
#include "kernels/crsd_gpu.hpp"

namespace crsd::rt {

/// One device's slice of the matrix; `range` feeds gpu_spmv_crsd_range
/// directly.
struct Shard {
  kernels::CrsdGpuRange range;

  index_t x_elems() const { return range.x_end - range.x_begin; }
  index_t y_elems() const { return range.row_end - range.row_begin; }
};

namespace detail {

/// Extends [lo, hi) to cover every x element the diagonal phase of segments
/// [seg_begin, seg_end) touches. Clamp is monotone, so the extremes are the
/// first row with the most negative offset and the last row with the most
/// positive one; the staged AD-group sweeps stay inside the same bounds.
template <Real T>
void widen_for_diagonals(const CrsdMatrix<T>& m, index_t seg_begin,
                         index_t seg_end, index_t* lo, index_t* hi) {
  const index_t mrows = m.mrows();
  const auto& cum = m.cum_segments();
  for (index_t p = 0; p < m.num_patterns(); ++p) {
    const index_t pb = std::max(cum[static_cast<std::size_t>(p)], seg_begin);
    const index_t pe =
        std::min(cum[static_cast<std::size_t>(p) + 1], seg_end);
    if (pb >= pe) continue;
    const auto& pat = m.patterns()[static_cast<std::size_t>(p)];
    if (pat.offsets.empty()) continue;
    const RowRange rows = segment_row_range(pb, pe, mrows, m.num_rows());
    *lo = std::min(*lo, m.clamp_col(rows.begin + pat.offsets.front()));
    *hi = std::max(*hi, m.clamp_col(rows.end - 1 + pat.offsets.back()) + 1);
  }
}

/// Extends [lo, hi) to cover the columns gathered by scatter rows
/// [scatter_begin, scatter_end).
template <Real T>
void widen_for_scatter(const CrsdMatrix<T>& m, index_t scatter_begin,
                       index_t scatter_end, index_t* lo, index_t* hi) {
  if (scatter_begin >= scatter_end) return;
  const std::vector<index_t> scol = m.decoded_scatter_col();
  const index_t nsr = m.num_scatter_rows();
  for (index_t k = 0; k < m.scatter_width(); ++k) {
    for (index_t i = scatter_begin; i < scatter_end; ++i) {
      const index_t c =
          scol[static_cast<size64_t>(k) * nsr + static_cast<size64_t>(i)];
      if (c == kInvalidIndex) continue;
      *lo = std::min(*lo, c);
      *hi = std::max(*hi, c + 1);
    }
  }
}

}  // namespace detail

/// The shard owning segments [seg_begin, seg_end): that slice of the row
/// partition plus the x-window its diagonal and scatter phases read.
template <Real T>
Shard shard_for(const CrsdMatrix<T>& m, index_t seg_begin, index_t seg_end) {
  Shard sh;
  static_cast<SegmentSlice&>(sh.range) = segment_slice(m, seg_begin, seg_end);
  index_t lo = m.num_cols();
  index_t hi = 0;
  detail::widen_for_diagonals(m, seg_begin, seg_end, &lo, &hi);
  detail::widen_for_scatter(m, sh.range.scatter_begin, sh.range.scatter_end,
                            &lo, &hi);
  if (lo >= hi) {  // empty shard reads nothing
    lo = 0;
    hi = 0;
  }
  sh.range.x_begin = lo;
  sh.range.x_end = hi;
  return sh;
}

/// Splits the matrix into `num_shards` slices of the shared row partition
/// (partition_segments: bytes moved per segment, scatter rows priced into
/// the segment that owns their row), each with its x-window.
template <Real T>
std::vector<Shard> plan_shards(const CrsdMatrix<T>& m, int num_shards) {
  std::vector<Shard> shards;
  for (const SegmentSlice& s : partition_segments(m, num_shards)) {
    shards.push_back(shard_for(m, s.seg_begin, s.seg_end));
  }
  return shards;
}

/// The shared partition validator (validate_partition) over the shards'
/// slices. Returns kPlanPartition diagnostics; empty = valid.
template <Real T>
std::vector<check::Diagnostic> validate_shard_partition(
    const CrsdMatrix<T>& m, const std::vector<Shard>& shards) {
  std::vector<SegmentSlice> slices;
  slices.reserve(shards.size());
  for (const Shard& sh : shards) slices.push_back(sh.range);
  return validate_partition(slices, m.num_rows(), m.mrows(),
                            m.num_segments_total(), m.scatter_rows());
}

}  // namespace crsd::rt
