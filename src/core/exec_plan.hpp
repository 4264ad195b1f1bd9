// Inspector half of the inspector–executor split for CPU SpMV/SpMM.
//
// A built CrsdMatrix already knows its structure; what the per-call hot
// loops still decided on every sweep was *how to run it*: which segments
// are interior vs edge, how to slice work across threads, how large the
// AD-group staging windows are, and where each diagonal's x data comes
// from. ExecPlan walks the matrix once and freezes all of those decisions
// into an immutable plan:
//
//  * a static thread partition from the shared row planner
//    (core/row_partition.hpp): contiguous segment runs balanced on bytes
//    moved, each slice owning the scatter rows that target its rows, so a
//    thread runs its diagonal phase and then its own scatter rows with no
//    second dispatch. Replayable through ThreadPool's ParallelPlan overload
//    with a stable part->thread mapping;
//  * per-slice segment runs (edge / interior) in segment order;
//  * precomputed x-window extents: for every diagonal, whether it reads a
//    staged AD-group window (and at which arena offset) or the raw x
//    stream (and at which column shift) — the executor's inner loop makes
//    no grouping decisions;
//  * software-prefetch distances for the diagonal value stream.
//
// The executor (SpmmEngine, kernels/cpu_spmm.hpp) replays a plan every
// iteration. Plans are structure-bound: update_values / replace_values keep
// them valid (values change, structure does not); any rebuild of the matrix
// requires a new plan, enforced by a structure signature checked on entry.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "core/crsd_matrix.hpp"
#include "core/row_partition.hpp"

namespace crsd {

/// Inspector knobs.
struct ExecPlanOptions {
  /// Thread slices the plan is partitioned into. The plan replays on any
  /// pool, but matching pool.num_threads() gives one slice per thread.
  int num_threads = 1;
};

/// Bytes of the diagonal value stream prefetched ahead per segment.
inline constexpr size64_t kPrefetchBytes = 512;

/// Where one diagonal of a pattern reads x in the interior kernel — either
/// a staged AD-group window (arena-relative) or the raw x stream (column-
/// shift-relative). Precomputed so the executor's inner loop is a flat walk.
struct DiagSource {
  bool staged = false;
  index_t arena_off = 0;   ///< window start in the per-RHS staging arena
  index_t window = 0;      ///< staged window length (mrows + group size - 1)
  diag_offset_t delta = 0; ///< staged: lane shift inside the window;
                           ///< direct: the diagonal's column offset
};

/// Per-pattern execution metadata shared by all segments of the pattern.
struct PatternPlan {
  std::vector<DiagSource> diag_src;  ///< one entry per diagonal, in order
  index_t arena_elems = 0;     ///< staging arena elements per right-hand side
  index_t prefetch_lines = 0;  ///< 64-byte lines of the next segment's values
};

/// One contiguous run of segments of a single pattern, one execution kind.
struct PlanStep {
  index_t pattern = 0;
  index_t seg_begin = 0;  ///< global segment ids
  index_t seg_end = 0;
  bool interior = false;  ///< clamp-free SIMD kernel applies
};

/// Everything one thread executes per sweep: its part of the row partition
/// (segments, the scatter rows targeting them, the y rows it writes) and
/// the segment runs that cover those segments.
struct ThreadSlice : SegmentSlice {
  std::vector<PlanStep> steps;  ///< in ascending segment order
};

template <Real T>
class ExecPlan {
 public:
  ExecPlan() = default;

  /// Inspector: walks `m` once and emits the frozen execution plan.
  static ExecPlan inspect(const CrsdMatrix<T>& m,
                          const ExecPlanOptions& opts = {}) {
    CRSD_CHECK_MSG(opts.num_threads >= 1, "plan needs >= 1 thread");
    ExecPlan plan;
    plan.signature_ = structure_signature(m);
    const index_t mrows = m.mrows();
    const int threads = opts.num_threads;

    // Per-pattern metadata: x sources, staging arena layout, prefetch
    // distance.
    plan.patterns_.reserve(m.patterns().size());
    for (const auto& pat : m.patterns()) {
      PatternPlan pp;
      pp.diag_src.resize(static_cast<std::size_t>(pat.num_diagonals()));
      for (const auto& grp : pat.groups) {
        const bool staged =
            grp.type == GroupType::kAdjacent && grp.num_diagonals >= 2;
        const index_t window = mrows + grp.num_diagonals - 1;
        for (index_t gd = 0; gd < grp.num_diagonals; ++gd) {
          const std::size_t d =
              static_cast<std::size_t>(grp.first_diagonal + gd);
          DiagSource& src = pp.diag_src[d];
          if (staged) {
            src.staged = true;
            src.arena_off = pp.arena_elems;
            src.window = window;
            src.delta = gd;
          } else {
            src.staged = false;
            src.delta = pat.offsets[d];
          }
        }
        if (staged) pp.arena_elems += window;
      }
      const size64_t seg_bytes =
          pat.slots_per_segment(mrows) * static_cast<size64_t>(sizeof(T));
      pp.prefetch_lines = static_cast<index_t>(
          std::min<size64_t>(seg_bytes, kPrefetchBytes) / 64);
      plan.max_arena_elems_ = std::max(plan.max_arena_elems_, pp.arena_elems);
      plan.patterns_.push_back(std::move(pp));
    }

    // One slice per thread from the shared row partition, its segments
    // split into the pattern interior/edge runs.
    plan.slices_.reserve(static_cast<std::size_t>(threads));
    for (const SegmentSlice& part : partition_segments(m, threads)) {
      ThreadSlice slice{part, {}};
      for (std::size_t pi = 0;
           pi < m.patterns().size() && m.cum_segments()[pi] < part.seg_end;
           ++pi) {
        const index_t s0 = std::max(part.seg_begin, m.cum_segments()[pi]);
        const index_t s1 = std::min(part.seg_end, m.cum_segments()[pi + 1]);
        if (s0 >= s1) continue;
        const SegmentInterior in =
            m.interior_segments(static_cast<index_t>(pi));
        const index_t ib = std::clamp(in.begin, s0, s1);
        const index_t ie = std::clamp(in.end, ib, s1);
        push_step(slice, static_cast<index_t>(pi), s0, ib, false);
        push_step(slice, static_cast<index_t>(pi), ib, ie, true);
        push_step(slice, static_cast<index_t>(pi), ie, s1, false);
      }
      plan.slices_.push_back(std::move(slice));
    }
    plan.thread_plan_ = ParallelPlan::static_partition(0, threads, threads);
    return plan;
  }

  int num_threads() const { return static_cast<int>(slices_.size()); }
  const ThreadSlice& slice(int t) const {
    return slices_[static_cast<std::size_t>(t)];
  }
  const PatternPlan& pattern_plan(index_t p) const {
    return patterns_[static_cast<std::size_t>(p)];
  }
  /// Largest per-RHS staging arena any pattern needs (sizes the executor's
  /// scratch buffer).
  index_t max_arena_elems() const { return max_arena_elems_; }
  /// One part per thread slice; replay with ThreadPool::parallel_for(plan).
  const ParallelPlan& thread_plan() const { return thread_plan_; }

  /// True iff `m` has the structure this plan was inspected from.
  bool matches(const CrsdMatrix<T>& m) const {
    return signature_ == structure_signature(m);
  }
  /// Executor entry guard: rejects a plan replayed against a matrix with
  /// different structure (values may differ — update_values keeps plans
  /// valid; rebuilds do not).
  void check_matches(const CrsdMatrix<T>& m) const {
    CRSD_CHECK_MSG(matches(m),
                   "ExecPlan does not match this matrix structure; re-run "
                   "ExecPlan::inspect after rebuilding");
  }

  /// Structure fingerprint used for plan invalidation.
  static std::uint64_t structure_signature(const CrsdMatrix<T>& m) {
    std::string buf;
    buf.reserve(64 + m.patterns().size() * 32);
    auto put = [&buf](std::int64_t v) {
      buf.append(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    put(m.num_rows());
    put(m.num_cols());
    put(m.mrows());
    put(static_cast<std::int64_t>(m.nnz()));
    put(m.num_scatter_rows());
    put(m.scatter_width());
    for (const auto& pat : m.patterns()) {
      put(pat.start_row);
      put(pat.num_segments);
      for (diag_offset_t off : pat.offsets) put(off);
      put(-1);  // pattern separator
    }
    return fnv1a64(buf);
  }

 private:
  static void push_step(ThreadSlice& slice, index_t p, index_t b, index_t e,
                        bool interior) {
    if (b < e) slice.steps.push_back({p, b, e, interior});
  }

  std::uint64_t signature_ = 0;
  std::vector<PatternPlan> patterns_;
  std::vector<ThreadSlice> slices_;
  ParallelPlan thread_plan_;
  index_t max_arena_elems_ = 0;
};

}  // namespace crsd
