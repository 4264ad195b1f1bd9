// The one row partition of a built CRSD container, shared by the CPU thread
// plan (core/exec_plan.hpp), the simulated-device shards (runtime/shard.hpp)
// and the hybrid CPU/GPU split (hybrid/hybrid_spmv.hpp).
//
// A slice is a contiguous run of row segments plus the scatter rows whose
// target row lies inside those segments. The scatter phase overwrites
// y[row] after the diagonal phase, so whoever computed a row's segment owns
// its scatter row too: a slice runs its diagonal phase and then its own
// scatter rows with no cross-slice ordering.
//
// Slices are balanced on bytes moved: each segment weighs its diagonal
// stream (perf::pattern_segment_cost) plus the ELL row of every scatter row
// it holds (perf::scatter_row_cost).
#pragma once

#include <algorithm>
#include <sstream>
#include <vector>

#include "check/diagnostics.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "core/crsd_matrix.hpp"
#include "perf/cpu_model.hpp"

namespace crsd {

/// One part of a row partition: segments [seg_begin, seg_end), the
/// scatter-row list slice [scatter_begin, scatter_end) whose rows fall in
/// them, and the y rows [row_begin, row_end) they cover.
struct SegmentSlice {
  index_t seg_begin = 0, seg_end = 0;
  index_t scatter_begin = 0, scatter_end = 0;
  index_t row_begin = 0, row_end = 0;

  bool empty() const {
    return seg_begin >= seg_end && scatter_begin >= scatter_end;
  }
};

/// The slice owning segments [seg_begin, seg_end): its rows and the scatter
/// rows (sorted by row number) that target them.
template <Real T>
SegmentSlice segment_slice(const CrsdMatrix<T>& m, index_t seg_begin,
                           index_t seg_end) {
  SegmentSlice s;
  s.seg_begin = seg_begin;
  s.seg_end = seg_end;
  const RowRange rows =
      segment_row_range(seg_begin, seg_end, m.mrows(), m.num_rows());
  s.row_begin = rows.begin;
  s.row_end = rows.end;
  const auto& srow = m.scatter_rows();
  s.scatter_begin = static_cast<index_t>(
      std::lower_bound(srow.begin(), srow.end(), rows.begin) - srow.begin());
  s.scatter_end = static_cast<index_t>(
      std::lower_bound(srow.begin(), srow.end(), rows.end) - srow.begin());
  return s;
}

/// Byte/flop traffic of one slice: its segments' diagonal streams plus its
/// scatter rows.
template <Real T>
perf::SweepCost slice_cost(const CrsdMatrix<T>& m, const SegmentSlice& s) {
  perf::SweepCost cost;
  const int vb = m.value_bytes();
  for (index_t g = s.seg_begin; g < s.seg_end; ++g) {
    const auto& pat =
        m.patterns()[static_cast<std::size_t>(m.pattern_of_segment(g))];
    const auto c = perf::pattern_segment_cost(pat, m.mrows(), vb);
    cost.bytes += c.bytes;
    cost.flops += c.flops;
  }
  const auto c = perf::scatter_row_cost(m.scatter_width(), vb);
  const auto nscatter = static_cast<size64_t>(s.scatter_end - s.scatter_begin);
  cost.bytes += c.bytes * nscatter;
  cost.flops += c.flops * nscatter;
  return cost;
}

/// Splits the segment range into exactly `parts` contiguous slices (some
/// may be empty) balanced by bytes moved per segment, scatter rows priced
/// into the segment that owns their row.
template <Real T>
std::vector<SegmentSlice> partition_segments(const CrsdMatrix<T>& m,
                                             int parts) {
  CRSD_CHECK_MSG(parts >= 1, "a row partition needs >= 1 part");
  const index_t segs = m.num_segments_total();
  const int vb = m.value_bytes();
  // slice_cost(m, segment_slice(m, g, g + 1)).bytes for every segment g, in
  // one pass over the patterns and one over the scatter rows.
  std::vector<double> seg_bytes(static_cast<std::size_t>(segs));
  const auto& cum = m.cum_segments();
  for (std::size_t p = 0; p < m.patterns().size(); ++p) {
    std::fill(seg_bytes.begin() + cum[p], seg_bytes.begin() + cum[p + 1],
              double(perf::pattern_segment_cost(m.patterns()[p], m.mrows(), vb)
                         .bytes));
  }
  const double scatter_bytes =
      double(perf::scatter_row_cost(m.scatter_width(), vb).bytes);
  for (const index_t row : m.scatter_rows()) {
    seg_bytes[static_cast<std::size_t>(row / m.mrows())] += scatter_bytes;
  }
  const ParallelPlan plan =
      ParallelPlan::weighted_partition(0, segs, parts, seg_bytes);

  std::vector<SegmentSlice> slices;
  slices.reserve(static_cast<std::size_t>(parts));
  for (int p = 0; p < plan.num_parts(); ++p) {
    slices.push_back(segment_slice(m, plan.part_begin(p), plan.part_end(p)));
  }
  return slices;
}

/// Checks that `slices` partition a container with `num_rows` rows in
/// segments of `mrows` (`num_segments` in total) whose scatter rows target
/// `scatter_rows`: segments and scatter rows are each covered disjointly and
/// in order, each slice's rows are exactly its segments' rows, and every
/// scatter row a slice holds targets a row inside that slice. Returns
/// kPlanPartition diagnostics (offset = slice index, or -1 for the whole
/// cover); empty = valid.
inline std::vector<check::Diagnostic> validate_partition(
    const std::vector<SegmentSlice>& slices, index_t num_rows, index_t mrows,
    index_t num_segments, const std::vector<index_t>& scatter_rows) {
  std::vector<check::Diagnostic> diags;
  auto fail = [&diags](std::int64_t which, const std::ostringstream& os) {
    check::Diagnostic d;
    d.code = check::Code::kPlanPartition;
    d.severity = check::Severity::kError;
    d.message = os.str();
    d.offset = which;
    diags.push_back(std::move(d));
  };
  const auto nsr = static_cast<index_t>(scatter_rows.size());

  index_t seg_cursor = 0;
  index_t scatter_cursor = 0;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const SegmentSlice& s = slices[i];
    const auto which = static_cast<std::int64_t>(i);
    if (s.seg_begin != seg_cursor || s.seg_end < s.seg_begin) {
      std::ostringstream os;
      os << "slice " << i << " segments [" << s.seg_begin << ", " << s.seg_end
         << ") do not continue the partition at " << seg_cursor;
      fail(which, os);
    }
    if (s.scatter_begin != scatter_cursor || s.scatter_end < s.scatter_begin) {
      std::ostringstream os;
      os << "slice " << i << " scatter rows [" << s.scatter_begin << ", "
         << s.scatter_end << ") do not continue the partition at "
         << scatter_cursor;
      fail(which, os);
    }
    const RowRange want =
        segment_row_range(s.seg_begin, s.seg_end, mrows, num_rows);
    if (s.row_begin != want.begin || s.row_end != want.end) {
      std::ostringstream os;
      os << "slice " << i << " rows [" << s.row_begin << ", " << s.row_end
         << ") do not match its segments (want [" << want.begin << ", "
         << want.end << "))";
      fail(which, os);
    }
    for (index_t k = std::max<index_t>(s.scatter_begin, 0);
         k < std::min(s.scatter_end, nsr); ++k) {
      const index_t row = scatter_rows[static_cast<std::size_t>(k)];
      if (row < s.row_begin || row >= s.row_end) {
        std::ostringstream os;
        os << "slice " << i << " holds scatter row " << k << " (row " << row
           << ") outside its rows [" << s.row_begin << ", " << s.row_end
           << "): another slice writes that row";
        fail(which, os);
        break;
      }
    }
    seg_cursor = std::max(seg_cursor, s.seg_end);
    scatter_cursor = std::max(scatter_cursor, s.scatter_end);
  }
  if (seg_cursor != num_segments) {
    std::ostringstream os;
    os << "slices cover segments [0, " << seg_cursor << ") of [0, "
       << num_segments << ")";
    fail(-1, os);
  }
  if (scatter_cursor != nsr) {
    std::ostringstream os;
    os << "slices cover scatter rows [0, " << scatter_cursor << ") of [0, "
       << nsr << ")";
    fail(-1, os);
  }
  return diags;
}

}  // namespace crsd
