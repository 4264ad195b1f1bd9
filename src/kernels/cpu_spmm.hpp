// Executor half of the inspector–executor split: batched SpMM
// Y[:, j] = A * X[:, j] for k column-major right-hand sides, replaying a
// frozen ExecPlan (core/exec_plan.hpp). The hot loop makes no decisions —
// segment runs, thread slices, staging-arena layout, per-diagonal x sources
// and prefetch distances all come out of the plan. Each slice owns the
// scatter rows that target its own rows, so apply() is one parallel
// dispatch per call: every thread runs its diagonal phase and then its
// scatter overwrite.
//
// The interior kernel register-blocks the right-hand sides (R in {8,4,2})
// so one pass over the diagonal value stream feeds R accumulators: the
// value load and the y traffic amortize over R vectors, which is where the
// SpMM speedup over k independent SpMV sweeps comes from. AD-group x
// windows are staged once per segment per block of vectors, exactly like
// the single-vector engine stages them per segment. A single remaining
// vector runs the matrix's own kernels (spmv_pattern_interior for interior
// steps, spmv_segments for edge steps): with no columns to amortize over,
// the single-vector body is the one to use, and keeping one copy of it
// keeps k = 1 and spmv() on the same code.
//
// Parity contract: for every output element the floating-point operation
// sequence is `mul` for the pattern's first diagonal then `fmadd` per
// following diagonal, in pattern order — identical to spmv() /
// spmv_scalar(), so column j of apply() is bitwise-equal to a single-vector
// sweep over X[:, j] (the scatter phase reuses the matrix's own scalar
// kernels verbatim).
#pragma once

#include <algorithm>
#include <vector>

#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "core/crsd_matrix.hpp"
#include "core/exec_plan.hpp"

namespace crsd {

namespace detail {

/// Diagonal phase of one plan step's interior segments for an R-vector
/// block (R >= 2). `x`/`y` point at column j0 of the batch; `arena` holds
/// R staging windows per AD group (group-major, vector-minor); `src` is
/// scratch for ndias*R precomputed source pointers.
template <Real T, int R>
  requires(R >= 2)
void spmm_step_interior(const CrsdMatrix<T>& m, const PatternPlan& pp,
                        const PlanStep& step, const T* x, size64_t ldx, T* y,
                        size64_t ldy, T* CRSD_RESTRICT arena,
                        const T** CRSD_RESTRICT src) {
  const auto& pat = m.patterns()[static_cast<std::size_t>(step.pattern)];
  const index_t mrows = m.mrows();
  const index_t ndias = pat.num_diagonals();
  const size64_t slots = pat.slots_per_segment(mrows);
  const index_t seg0 =
      m.cum_segments()[static_cast<std::size_t>(step.pattern)];
  const T* base =
      m.dia_values().data() +
      m.pattern_value_offsets()[static_cast<std::size_t>(step.pattern)];
  constexpr index_t W = simd::kLanes<T>;

  for (index_t g = step.seg_begin; g < step.seg_end; ++g) {
    const T* CRSD_RESTRICT unit =
        base + static_cast<size64_t>(g - seg0) * slots;
    // Pull the next segment's value stream toward the core while this one
    // computes; the distance was fixed by the inspector.
    if (g + 1 < step.seg_end) {
      const char* next = reinterpret_cast<const char*>(unit + slots);
      for (index_t l = 0; l < pp.prefetch_lines; ++l) {
        simd::prefetch(next + static_cast<std::size_t>(l) * 64);
      }
    }

    // Stage every AD-group window once for all R vectors, then resolve each
    // diagonal's source pointer so the lane loop is a flat walk.
    const size64_t row0 = static_cast<size64_t>(g) * mrows;
    for (const auto& grp : pat.groups) {
      if (grp.type != GroupType::kAdjacent || grp.num_diagonals < 2) continue;
      const DiagSource& head =
          pp.diag_src[static_cast<std::size_t>(grp.first_diagonal)];
      const diag_offset_t first =
          pat.offsets[static_cast<std::size_t>(grp.first_diagonal)];
      T* slab = arena + static_cast<size64_t>(head.arena_off) * R;
      for (int r = 0; r < R; ++r) {
        const T* xw = x + static_cast<size64_t>(r) * ldx + row0 + first;
        std::copy(xw, xw + head.window,
                  slab + static_cast<size64_t>(r) * head.window);
      }
    }
    for (index_t d = 0; d < ndias; ++d) {
      const DiagSource& ds = pp.diag_src[static_cast<std::size_t>(d)];
      for (int r = 0; r < R; ++r) {
        src[d * R + r] =
            ds.staged
                ? arena + static_cast<size64_t>(ds.arena_off) * R +
                      static_cast<size64_t>(r) * ds.window + ds.delta
                : x + static_cast<size64_t>(r) * ldx + row0 + ds.delta;
      }
    }

    index_t lane = 0;
    for (; lane + W <= mrows; lane += W) {
      simd::Vec<T> acc[R];
      {
        const simd::Vec<T> a = simd::loadu(unit + lane);
        for (int r = 0; r < R; ++r) {
          acc[r] = simd::mul(a, simd::loadu(src[r] + lane));
        }
      }
      for (index_t d = 1; d < ndias; ++d) {
        const simd::Vec<T> a =
            simd::loadu(unit + static_cast<size64_t>(d) * mrows + lane);
        for (int r = 0; r < R; ++r) {
          acc[r] = simd::fmadd(a, simd::loadu(src[d * R + r] + lane), acc[r]);
        }
      }
      for (int r = 0; r < R; ++r) {
        simd::storeu(y + static_cast<size64_t>(r) * ldy + row0 + lane, acc[r]);
      }
    }
    for (; lane < mrows; ++lane) {
      T acc[R];
      for (int r = 0; r < R; ++r) acc[r] = unit[lane] * src[r][lane];
      for (index_t d = 1; d < ndias; ++d) {
        const T a = unit[static_cast<size64_t>(d) * mrows + lane];
        for (int r = 0; r < R; ++r) acc[r] += a * src[d * R + r][lane];
      }
      for (int r = 0; r < R; ++r) {
        y[static_cast<size64_t>(r) * ldy + row0 + lane] = acc[r];
      }
    }
  }
}

/// Edge segments of one plan step for an R-vector block (R >= 2): the
/// clamped scalar path of spmv_segments, register-blocked over the
/// right-hand sides so the clamp arithmetic and the diagonal value load are
/// paid once per (lane, diagonal) instead of once per column. Each column's
/// accumulation (sum = 0, then += in ascending diagonal order) is exactly
/// the scalar kernel's, so per-column parity stays bitwise.
template <Real T, int R>
  requires(R >= 2)
void spmm_step_edge(const CrsdMatrix<T>& m, const PlanStep& step, const T* x,
                    size64_t ldx, T* y, size64_t ldy) {
  const auto& pat = m.patterns()[static_cast<std::size_t>(step.pattern)];
  const index_t mrows = m.mrows();
  const index_t ndias = pat.num_diagonals();
  const size64_t slots = pat.slots_per_segment(mrows);
  const index_t seg0 =
      m.cum_segments()[static_cast<std::size_t>(step.pattern)];
  const T* base =
      m.dia_values().data() +
      m.pattern_value_offsets()[static_cast<std::size_t>(step.pattern)];
  for (index_t g = step.seg_begin; g < step.seg_end; ++g) {
    const T* CRSD_RESTRICT unit =
        base + static_cast<size64_t>(g - seg0) * slots;
    const index_t row0 = g * mrows;
    const index_t lanes = std::min<index_t>(mrows, m.num_rows() - row0);
    for (index_t lane = 0; lane < lanes; ++lane) {
      const index_t r = row0 + lane;
      T sum[R] = {};
      for (index_t d = 0; d < ndias; ++d) {
        const index_t c =
            m.clamp_col(r + pat.offsets[static_cast<std::size_t>(d)]);
        const T a = unit[static_cast<size64_t>(d) * mrows + lane];
        for (int v = 0; v < R; ++v) {
          sum[v] += a * x[static_cast<size64_t>(v) * ldx + c];
        }
      }
      for (int v = 0; v < R; ++v) {
        y[static_cast<size64_t>(v) * ldy + r] = sum[v];
      }
    }
  }
}

}  // namespace detail

/// Plan-driven batched SpMM engine. Bind a matrix and a matching plan once;
/// apply() replays the plan per sweep with zero per-call inspection.
template <Real T>
class SpmmEngine {
 public:
  SpmmEngine(const CrsdMatrix<T>& m, const ExecPlan<T>& plan)
      : m_(&m), plan_(&plan) {
    CRSD_CHECK_MSG(m.value_precision() == ValuePrecision::kNative,
                   "the batched SpMM engine reads the native value stream "
                   "directly; rebuild without value compaction for SpMM");
    plan.check_matches(m);
    index_t max_ndias = 0;
    for (const auto& pat : m.patterns()) {
      max_ndias = std::max(max_ndias, pat.num_diagonals());
    }
    // One scratch block per plan slice, allocated once: apply() is on the
    // per-sweep hot path and must not touch the allocator (a value-
    // initialized arena costs more than a whole k=1 sweep on small plans).
    // The arena also serves as the single-vector kernel's staging buffer.
    const std::size_t arena_elems = std::max<std::size_t>(
        static_cast<std::size_t>(plan.max_arena_elems()) * kMaxBlock,
        static_cast<std::size_t>(m.stage_window()));
    scratch_.resize(static_cast<std::size_t>(plan.num_threads()));
    for (auto& s : scratch_) {
      s.arena.resize(arena_elems);
      s.src.resize(static_cast<std::size_t>(max_ndias) * kMaxBlock);
    }
  }

  const ExecPlan<T>& plan() const { return *plan_; }

  /// Y[:, j] = A * X[:, j] for j in [0, k): column-major batches with
  /// leading dimensions ldx/ldy (>= num_cols / num_rows). One parallel
  /// dispatch: each thread replays its plan slice's diagonal phase for every
  /// block of vectors and then overwrites its own scatter rows, matching
  /// single-vector semantics per column.
  void apply(ThreadPool& pool, const T* x, size64_t ldx, T* y, size64_t ldy,
             index_t k) const {
    if (k <= 0) return;
    pool.parallel_for(plan_->thread_plan(), [&](index_t t, index_t, int) {
      apply_slice(static_cast<int>(t), x, ldx, y, ldy, k);
    });
  }

  /// Single-threaded apply(): the full plan runs on the calling thread.
  void apply_seq(const T* x, size64_t ldx, T* y, size64_t ldy,
                 index_t k) const {
    if (k <= 0) return;
    for (int t = 0; t < plan_->num_threads(); ++t) {
      apply_slice(t, x, ldx, y, ldy, k);
    }
  }

 private:
  /// One thread slice: the diagonal phase with right-hand sides in register
  /// blocks of 8/4/2/1 and steps in the plan's order, then the scatter
  /// overwrite of the slice's own scatter rows (they target rows this slice
  /// just wrote, so no other slice is ordered against it).
  /// Slice t only ever touches scratch_[t], so the pool threads of one
  /// apply() never share a buffer; two simultaneous apply() calls on the
  /// same engine are not supported.
  void apply_slice(int t, const T* x, size64_t ldx, T* y, size64_t ldy,
                   index_t k) const {
    const ThreadSlice& slice = plan_->slice(t);
    std::vector<T>& arena = scratch_[static_cast<std::size_t>(t)].arena;
    std::vector<const T*>& src = scratch_[static_cast<std::size_t>(t)].src;
    index_t j0 = 0;
    while (j0 < k) {
      const index_t left = k - j0;
      const T* xb = x + static_cast<size64_t>(j0) * ldx;
      T* yb = y + static_cast<size64_t>(j0) * ldy;
      int r = 1;
      if (left >= 8) {
        r = 8;
        run_block<8>(slice, xb, ldx, yb, ldy, arena.data(), src.data());
      } else if (left >= 4) {
        r = 4;
        run_block<4>(slice, xb, ldx, yb, ldy, arena.data(), src.data());
      } else if (left >= 2) {
        r = 2;
        run_block<2>(slice, xb, ldx, yb, ldy, arena.data(), src.data());
      } else {
        run_block<1>(slice, xb, ldx, yb, ldy, arena.data(), src.data());
      }
      j0 += r;
    }
    for (index_t j = 0; j < k; ++j) {
      m_->spmv_scatter(slice.scatter_begin, slice.scatter_end,
                       x + static_cast<size64_t>(j) * ldx,
                       y + static_cast<size64_t>(j) * ldy);
    }
  }

  template <int R>
  void run_block(const ThreadSlice& slice, const T* x, size64_t ldx, T* y,
                 size64_t ldy, T* arena, const T** src) const {
    const CrsdMatrix<T>& m = *m_;
    for (const PlanStep& step : slice.steps) {
      if constexpr (R == 1) {
        // The engine only binds native storage, so the compacted-mode
        // accumulator is never touched.
        if (step.interior) {
          m.spmv_pattern_interior(step.pattern, step.seg_begin, step.seg_end,
                                  x, y, arena, nullptr);
        } else {
          m.spmv_segments(step.seg_begin, step.seg_end, x, y);
        }
      } else if (step.interior) {
        detail::spmm_step_interior<T, R>(
            m, plan_->pattern_plan(step.pattern), step, x, ldx, y, ldy, arena,
            src);
      } else {
        detail::spmm_step_edge<T, R>(m, step, x, ldx, y, ldy);
      }
    }
  }

  static constexpr int kMaxBlock = 8;

  struct Scratch {
    std::vector<T> arena;
    std::vector<const T*> src;
  };

  const CrsdMatrix<T>* m_;
  const ExecPlan<T>* plan_;
  mutable std::vector<Scratch> scratch_;
};

}  // namespace crsd
