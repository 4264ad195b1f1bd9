// Tests for the inspector–executor SpMM subsystem: ParallelPlan
// partitioning and replay, ExecPlan inspection/invalidation, plan-driven
// SpmmEngine parity (bitwise against the single-vector engine per column),
// the register-blocked JIT SpMM codelet, concurrent JIT cache publication,
// and block CG on top of the batched apply.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>
#include <vector>

#include "codegen/crsd_jit_kernel.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/build_api.hpp"
#include "core/exec_plan.hpp"
#include "core/update.hpp"
#include "kernels/cpu_spmm.hpp"
#include "matrix/generators.hpp"
#include "solver/block_cg.hpp"
#include "solver/solvers.hpp"

namespace crsd {
namespace {

codegen::JitCompiler fresh_compiler(const char* tag = "spmm") {
  codegen::JitCompiler::Options opts;
  opts.cache_dir = (std::filesystem::temp_directory_path() /
                    ("crsd-" + std::string(tag) + "-test-cache-" +
                     std::to_string(::getpid())))
                       .string();
  return codegen::JitCompiler(opts);
}

/// Same fixture family as cpu_vec_test: adjacent clusters (AD groups),
/// isolated diagonals, extreme offsets forcing edge segments, hole bands
/// breaking diagonals into multiple patterns, optional scatter rows.
Coo<double> random_pattern_matrix(index_t n, int diag_budget,
                                  std::uint64_t seed, index_t scatter) {
  Rng rng(seed);
  std::set<diag_offset_t> offs;
  offs.insert(0);
  offs.insert(-static_cast<diag_offset_t>(rng.next_index(n / 2, n - 1)));
  offs.insert(static_cast<diag_offset_t>(rng.next_index(n / 2, n - 1)));
  while (static_cast<int>(offs.size()) < diag_budget) {
    if (rng.next_double() < 0.5) {
      const diag_offset_t base =
          static_cast<diag_offset_t>(rng.next_index(-24, 24));
      const index_t len = rng.next_index(2, 4);
      for (index_t k = 0; k < len; ++k) offs.insert(base + k);
    } else {
      offs.insert(static_cast<diag_offset_t>(rng.next_index(-n / 3, n / 3)));
    }
  }
  Coo<double> a(n, n);
  for (diag_offset_t off : offs) {
    const index_t r0 = std::max<index_t>(0, -off);
    const index_t r1 = std::min<index_t>(n, n - off);
    const bool holes = rng.next_double() < 0.4;
    const index_t hole_lo = rng.next_index(r0, std::max(r0, r1 - 1));
    const index_t hole_hi =
        std::min<index_t>(r1, hole_lo + rng.next_index(1, n / 4 + 1));
    for (index_t r = r0; r < r1; ++r) {
      if (holes && r >= hole_lo && r < hole_hi) continue;
      a.add(r, r + off, rng.next_double(-1.0, 1.0));
    }
  }
  if (scatter > 0) inject_scatter(a, scatter, rng);
  a.canonicalize();
  return a;
}

/// Turns the rows on both sides of every segment boundary (g * mrows - 1
/// and g * mrows) into scatter rows: each gets two nonzeros at offsets that
/// vary row to row, so they form no diagonal. Wherever a thread partition
/// cuts, its slices then own scatter rows right at their edges (the caller
/// asserts this).
void scatter_at_segment_edges(Coo<double>& a, index_t mrows) {
  const index_t n = a.num_rows();
  for (index_t edge = mrows; edge < n; edge += mrows) {
    for (const index_t r : {edge - 1, edge}) {
      a.add(r, (7 * r + n / 2 + 3) % n, 0.5);
      a.add(r, (13 * r + n / 3 + 5) % n, -0.25);
    }
  }
  a.canonicalize();
}

template <Real T>
std::vector<T> random_block(index_t len, index_t k, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> x(static_cast<std::size_t>(len) * k);
  for (auto& v : x) v = static_cast<T>(rng.next_double(-1.0, 1.0));
  return x;
}

template <Real T>
void expect_bitwise(const std::vector<T>& got, const std::vector<T>& want,
                    const char* label) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(0, std::memcmp(got.data(), want.data(), got.size() * sizeof(T)))
      << label;
}

// ---------------------------------------------------------------------------
// ParallelPlan

TEST(ParallelPlan, StaticPartitionCoversRangeContiguously) {
  const ParallelPlan plan = ParallelPlan::static_partition(3, 17, 4);
  ASSERT_EQ(plan.num_parts(), 4);
  EXPECT_EQ(plan.part_begin(0), 3);
  EXPECT_EQ(plan.part_end(3), 17);
  for (int p = 0; p + 1 < plan.num_parts(); ++p) {
    EXPECT_EQ(plan.part_end(p), plan.part_begin(p + 1));
    EXPECT_LE(plan.part_begin(p), plan.part_end(p));
  }
}

TEST(ParallelPlan, StaticPartitionKeepsEmptyTrailingParts) {
  // Part index == thread id must stay stable even when work runs out.
  const ParallelPlan plan = ParallelPlan::static_partition(0, 2, 5);
  ASSERT_EQ(plan.num_parts(), 5);
  index_t total = 0;
  for (int p = 0; p < plan.num_parts(); ++p) {
    total += plan.part_end(p) - plan.part_begin(p);
  }
  EXPECT_EQ(total, 2);
  EXPECT_EQ(plan.part_end(4), 2);
}

TEST(ParallelPlan, WeightedPartitionBalancesCost) {
  // One element carries half the total cost; its part should not also
  // absorb a long run of the cheap elements.
  std::vector<double> cost(16, 1.0);
  cost[0] = 16.0;
  const ParallelPlan plan = ParallelPlan::weighted_partition(0, 16, 4, cost);
  ASSERT_EQ(plan.num_parts(), 4);
  EXPECT_EQ(plan.part_begin(0), 0);
  EXPECT_EQ(plan.part_end(3), 16);
  // The expensive element's part stays small in index count.
  EXPECT_LE(plan.part_end(0) - plan.part_begin(0), 3);
}

TEST(ParallelPlan, WeightedPartitionZeroCostFallsBackToStatic) {
  const std::vector<double> cost(10, 0.0);
  const ParallelPlan weighted =
      ParallelPlan::weighted_partition(0, 10, 3, cost);
  const ParallelPlan fallback = ParallelPlan::static_partition(0, 10, 3);
  ASSERT_EQ(weighted.num_parts(), fallback.num_parts());
  for (int p = 0; p < weighted.num_parts(); ++p) {
    EXPECT_EQ(weighted.part_begin(p), fallback.part_begin(p));
    EXPECT_EQ(weighted.part_end(p), fallback.part_end(p));
  }
}

TEST(ParallelPlan, FewerItemsThanPartsStillCoversAll) {
  std::vector<double> cost(3, 1.0);
  const ParallelPlan plan = ParallelPlan::weighted_partition(0, 3, 8, cost);
  ASSERT_EQ(plan.num_parts(), 8);
  index_t total = 0;
  for (int p = 0; p < plan.num_parts(); ++p) {
    EXPECT_LE(plan.part_begin(p), plan.part_end(p));
    total += plan.part_end(p) - plan.part_begin(p);
  }
  EXPECT_EQ(total, 3);
}

TEST(ThreadPoolPlan, ReplayVisitsEveryIndexOnceWithStablePartIds) {
  const ParallelPlan plan = ParallelPlan::static_partition(0, 101, 4);
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(101);
  std::vector<std::atomic<int>> part_of(101);
  for (auto& h : hits) h.store(0);
  for (auto& p : part_of) p.store(-1);
  pool.parallel_for(plan, [&](index_t b, index_t e, int part) {
    for (index_t i = b; i < e; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
      part_of[static_cast<std::size_t>(i)].store(part);
    }
  });
  for (index_t i = 0; i < 101; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
  // Part ids reported to the callback are the plan's part indices, so a
  // replay touches each range with the same id every sweep.
  for (int p = 0; p < plan.num_parts(); ++p) {
    for (index_t i = plan.part_begin(p); i < plan.part_end(p); ++i) {
      EXPECT_EQ(part_of[static_cast<std::size_t>(i)].load(), p);
    }
  }
}

TEST(ThreadPoolPlan, MorePartsThanWorkStillRuns) {
  const ParallelPlan plan = ParallelPlan::static_partition(0, 2, 6);
  ThreadPool pool(3);
  std::atomic<int> visited{0};
  pool.parallel_for(plan, [&](index_t b, index_t e, int) {
    visited.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(visited.load(), 2);
}

// ---------------------------------------------------------------------------
// ExecPlan inspection

TEST(ExecPlan, SlicesCoverEverySegmentExactlyOnce) {
  const auto a = random_pattern_matrix(300, 14, 99, 12);
  const auto m = build(a, CrsdConfig{.mrows = 16});
  ExecPlanOptions opts;
  opts.num_threads = 3;
  const auto plan = ExecPlan<double>::inspect(m, opts);
  ASSERT_EQ(plan.num_threads(), 3);

  std::vector<int> seg_hits(static_cast<std::size_t>(m.num_segments_total()),
                            0);
  index_t scatter_covered = 0;
  for (int t = 0; t < plan.num_threads(); ++t) {
    const ThreadSlice& slice = plan.slice(t);
    scatter_covered += slice.scatter_end - slice.scatter_begin;
    for (const PlanStep& step : slice.steps) {
      ASSERT_LT(step.seg_begin, step.seg_end);
      for (index_t g = step.seg_begin; g < step.seg_end; ++g) {
        ++seg_hits[static_cast<std::size_t>(g)];
        // Interior flag must agree with the matrix's own interior ranges.
        const SegmentInterior in = m.interior_segments(step.pattern);
        EXPECT_EQ(step.interior, g >= in.begin && g < in.end)
            << "segment " << g;
      }
    }
  }
  for (std::size_t g = 0; g < seg_hits.size(); ++g) {
    EXPECT_EQ(seg_hits[g], 1) << "segment " << g;
  }
  EXPECT_EQ(scatter_covered, m.num_scatter_rows());
}

TEST(ExecPlan, DiagSourcesStageAdjacentGroupsOnly) {
  const auto a = random_pattern_matrix(256, 12, 7, 0);
  const auto m = build(a, CrsdConfig{.mrows = 16});
  const auto plan = ExecPlan<double>::inspect(m);
  for (std::size_t pi = 0; pi < m.patterns().size(); ++pi) {
    const auto& pat = m.patterns()[pi];
    const PatternPlan& pp = plan.pattern_plan(static_cast<index_t>(pi));
    ASSERT_EQ(pp.diag_src.size(),
              static_cast<std::size_t>(pat.num_diagonals()));
    index_t arena_used = 0;
    for (const auto& grp : pat.groups) {
      const bool staged =
          grp.type == GroupType::kAdjacent && grp.num_diagonals >= 2;
      for (index_t gd = 0; gd < grp.num_diagonals; ++gd) {
        const std::size_t d = static_cast<std::size_t>(grp.first_diagonal + gd);
        EXPECT_EQ(pp.diag_src[d].staged, staged);
        if (staged) {
          EXPECT_EQ(pp.diag_src[d].window, m.mrows() + grp.num_diagonals - 1);
          EXPECT_EQ(pp.diag_src[d].delta, gd);
          EXPECT_EQ(pp.diag_src[d].arena_off, arena_used);
        } else {
          EXPECT_EQ(pp.diag_src[d].delta, pat.offsets[d]);
        }
      }
      if (staged) arena_used += m.mrows() + grp.num_diagonals - 1;
    }
    EXPECT_EQ(pp.arena_elems, arena_used);
    EXPECT_LE(arena_used, plan.max_arena_elems());
  }
}

TEST(ExecPlan, ValueUpdateKeepsPlanValidRebuildInvalidates) {
  auto a = random_pattern_matrix(200, 10, 21, 8);
  auto m = build(a, CrsdConfig{.mrows = 16});
  const auto plan = ExecPlan<double>::inspect(m);
  EXPECT_TRUE(plan.matches(m));

  // Same structure, new values: the plan stays bound.
  Coo<double> a2(a.num_rows(), a.num_cols());
  a2.reserve(a.nnz());
  for (size64_t i = 0; i < a.nnz(); ++i) {
    a2.add(a.row_indices()[i], a.col_indices()[i], a.values()[i] * 2.5);
  }
  a2.mark_canonical();
  update_values(m, a2);
  EXPECT_TRUE(plan.matches(m));
  EXPECT_NO_THROW(plan.check_matches(m));

  // Structurally different matrix: rejected at executor entry.
  const auto b = random_pattern_matrix(200, 11, 22, 8);
  const auto mb = build(b, CrsdConfig{.mrows = 16});
  EXPECT_FALSE(plan.matches(mb));
  EXPECT_THROW(plan.check_matches(mb), Error);
  EXPECT_THROW(SpmmEngine<double>(mb, plan), Error);
}

// ---------------------------------------------------------------------------
// SpmmEngine parity

class SpmmParity
    : public ::testing::TestWithParam<std::tuple<index_t, index_t, index_t>> {
};

TEST_P(SpmmParity, ColumnsMatchSingleVectorSweepsBitwise) {
  const auto [n, mrows, scatter] = GetParam();
  const auto a = random_pattern_matrix(n, 12, 31u * n + mrows, scatter);
  const auto m = build(a, CrsdConfig{.mrows = mrows});
  // k = 5 exercises the 4-vector and 1-vector register blocks.
  const index_t k = 5;
  const size64_t ldx = static_cast<size64_t>(m.num_cols());
  const size64_t ldy = static_cast<size64_t>(m.num_rows());
  const auto x = random_block<double>(m.num_cols(), k, 11);

  ExecPlanOptions opts;
  opts.num_threads = 3;
  const auto plan = ExecPlan<double>::inspect(m, opts);
  const SpmmEngine<double> engine(m, plan);

  std::vector<double> y(ldy * k, -1.0), want(ldy * k, -2.0);
  engine.apply_seq(x.data(), ldx, y.data(), ldy, k);
  for (index_t j = 0; j < k; ++j) {
    m.spmv(x.data() + static_cast<size64_t>(j) * ldx,
           want.data() + static_cast<size64_t>(j) * ldy);
  }
  // The SpMM interior kernel makes the same mul-then-fmadd sequence per row
  // as the single-vector engine, so parity is bitwise, not approximate.
  expect_bitwise(y, want, "apply_seq vs per-column spmv");

  // The threaded path partitions work but never splits a row's accumulation.
  ThreadPool pool(3);
  std::vector<double> ypar(ldy * k, -3.0);
  engine.apply(pool, x.data(), ldx, ypar.data(), ldy, k);
  expect_bitwise(ypar, want, "apply vs per-column spmv");

  // Scalar engine agreement (documented bitwise twin of spmv()).
  std::vector<double> yscalar(ldy * k, -4.0);
  for (index_t j = 0; j < k; ++j) {
    m.spmv_scalar(x.data() + static_cast<size64_t>(j) * ldx,
                  yscalar.data() + static_cast<size64_t>(j) * ldy);
  }
  expect_bitwise(y, yscalar, "apply_seq vs per-column spmv_scalar");

  // Each thread overwrites only the scatter rows of its own slice, right
  // after its diagonal phase, in the same dispatch: at every thread count
  // and register block, apply() stays bitwise equal to spmv_scalar — also
  // on the same matrix with scatter rows on both sides of every segment
  // boundary, so every slice owns scatter rows at its edges.
  auto a_edges = a;
  scatter_at_segment_edges(a_edges, mrows);
  const auto m_edges = build(a_edges, CrsdConfig{.mrows = mrows});
  for (const CrsdMatrix<double>* mat : {&m, &m_edges}) {
    const auto& srow = mat->scatter_rows();
    for (const int threads : {2, 3, 4}) {
      const auto tplan =
          ExecPlan<double>::inspect(*mat, {.num_threads = threads});
      for (int t = 1; mat == &m_edges && t < tplan.num_threads(); ++t) {
        const index_t edge = tplan.slice(t).row_begin;
        if (edge == 0 || edge == mat->num_rows()) continue;
        ASSERT_TRUE(std::binary_search(srow.begin(), srow.end(), edge - 1) &&
                    std::binary_search(srow.begin(), srow.end(), edge))
            << "no scatter rows on the slice boundary at row " << edge;
      }
      const SpmmEngine<double> tengine(*mat, tplan);
      ThreadPool tpool(threads);
      for (const index_t kk : {1, 3, 8}) {
        const auto xk = random_block<double>(mat->num_cols(), kk, 17);
        std::vector<double> got(ldy * kk, -5.0), ref(ldy * kk, -6.0);
        tengine.apply(tpool, xk.data(), ldx, got.data(), ldy, kk);
        for (index_t j = 0; j < kk; ++j) {
          mat->spmv_scalar(xk.data() + static_cast<size64_t>(j) * ldx,
                           ref.data() + static_cast<size64_t>(j) * ldy);
        }
        expect_bitwise(got, ref, "threaded apply vs per-column spmv_scalar");
      }
    }
  }
}

TEST_P(SpmmParity, FloatColumnsMatchSingleVectorSweepsBitwise) {
  const auto [n, mrows, scatter] = GetParam();
  const auto a64 = random_pattern_matrix(n, 10, 47u * n + mrows, scatter);
  const auto a = a64.cast<float>();
  const auto m = build(a, CrsdConfig{.mrows = mrows});
  const index_t k = 3;  // 2-vector + 1-vector blocks
  const size64_t ldx = static_cast<size64_t>(m.num_cols());
  const size64_t ldy = static_cast<size64_t>(m.num_rows());
  const auto x = random_block<float>(m.num_cols(), k, 13);

  const auto plan = ExecPlan<float>::inspect(m);
  const SpmmEngine<float> engine(m, plan);
  std::vector<float> y(ldy * k, -1.0f), want(ldy * k, -2.0f);
  engine.apply_seq(x.data(), ldx, y.data(), ldy, k);
  for (index_t j = 0; j < k; ++j) {
    m.spmv(x.data() + static_cast<size64_t>(j) * ldx,
           want.data() + static_cast<size64_t>(j) * ldy);
  }
  expect_bitwise(y, want, "float apply_seq vs per-column spmv");
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, SpmmParity,
    ::testing::Values(std::make_tuple(200, 16, 0),    // broken diagonals
                      std::make_tuple(200, 16, 48),   // scatter-heavy
                      std::make_tuple(300, 64, 0),
                      std::make_tuple(300, 64, 64),
                      std::make_tuple(97, 16, 5)));   // non-multiple rows

TEST(SpmmEngine, PlanDrivenSingleVectorMatchesSpmv) {
  const auto a = random_pattern_matrix(250, 12, 3, 20);
  const auto m = build(a, CrsdConfig{.mrows = 16});
  ExecPlanOptions opts;
  opts.num_threads = 2;
  const auto plan = ExecPlan<double>::inspect(m, opts);
  const SpmmEngine<double> engine(m, plan);
  ThreadPool pool(2);

  const auto x = random_block<double>(m.num_cols(), 1, 17);
  std::vector<double> y(static_cast<std::size_t>(m.num_rows()), -1.0);
  std::vector<double> want(y.size(), -2.0);
  engine.apply(pool, x.data(), static_cast<size64_t>(m.num_cols()), y.data(),
               y.size(), 1);
  m.spmv(x.data(), want.data());
  expect_bitwise(y, want, "plan-driven k=1 apply vs direct spmv");
}

TEST(SpmmEngine, WideBatchCoversAllRegisterBlocks) {
  const auto a = random_pattern_matrix(150, 10, 9, 10);
  const auto m = build(a, CrsdConfig{.mrows = 16});
  const auto plan = ExecPlan<double>::inspect(m);
  const SpmmEngine<double> engine(m, plan);
  const index_t k = 15;  // 8 + 4 + 2 + 1
  const size64_t ldx = static_cast<size64_t>(m.num_cols());
  const size64_t ldy = static_cast<size64_t>(m.num_rows());
  const auto x = random_block<double>(m.num_cols(), k, 23);
  std::vector<double> y(ldy * k, -1.0), want(ldy * k, -2.0);
  engine.apply_seq(x.data(), ldx, y.data(), ldy, k);
  for (index_t j = 0; j < k; ++j) {
    m.spmv(x.data() + static_cast<size64_t>(j) * ldx,
           want.data() + static_cast<size64_t>(j) * ldy);
  }
  expect_bitwise(y, want, "k=15 apply_seq vs per-column spmv");
}

// ---------------------------------------------------------------------------
// JIT SpMM codelet

TEST(JitSpmm, AppliesAllBlockSizesWithinTolerance) {
  if (!codegen::JitCompiler::compiler_available()) {
    GTEST_SKIP() << "no C++ compiler available for JIT";
  }
  const auto a = random_pattern_matrix(160, 8, 41, 12);
  const auto m = build(a, CrsdConfig{.mrows = 16});
  auto compiler = fresh_compiler();
  const auto kernel = codegen::make_jit_spmm_kernel(m, compiler);
  ASSERT_TRUE(kernel.has_value()) << "lint rejected generated SpMM source";

  const index_t k = 5;
  const size64_t ldx = static_cast<size64_t>(m.num_cols());
  const size64_t ldy = static_cast<size64_t>(m.num_rows());
  const auto x = random_block<double>(m.num_cols(), k, 29);
  std::vector<double> y(ldy * k, -1.0), want(ldy * k, -2.0);
  kernel->apply(m, x.data(), ldx, y.data(), ldy, k);
  for (index_t j = 0; j < k; ++j) {
    m.spmv_scalar(x.data() + static_cast<size64_t>(j) * ldx,
                  want.data() + static_cast<size64_t>(j) * ldy);
  }
  // JIT codelets may contract mul+add differently than this TU; the repo
  // convention allows a tiny relative tolerance for compiled kernels.
  for (std::size_t i = 0; i < y.size(); ++i) {
    ASSERT_LE(std::abs(y[i] - want[i]), 1e-13 * (1.0 + std::abs(want[i])))
        << "element " << i;
  }
  std::filesystem::remove_all(
      std::filesystem::path(compiler.object_path_for("x")).parent_path());
}

TEST(JitSpmm, LintRejectsSourceForDifferentStructure) {
  const auto a = random_pattern_matrix(160, 8, 41, 12);
  const auto b = random_pattern_matrix(160, 11, 43, 4);
  const auto ma = build(a, CrsdConfig{.mrows = 16});
  const auto mb = build(b, CrsdConfig{.mrows = 16});
  const std::string src_a = codegen::generate_cpu_spmm_codelet_source(ma);
  const std::vector<check::Diagnostic> findings =
      codegen::lint_cpu_spmm_codelet_source(mb, src_a);
  EXPECT_FALSE(findings.empty())
      << "lint accepted a codelet baked for a different structure";
}

TEST(JitSpmm, GeneratedSourcePassesOwnLint) {
  const auto a = random_pattern_matrix(220, 12, 53, 16);
  const auto m = build(a, CrsdConfig{.mrows = 64});
  const std::string src = codegen::generate_cpu_spmm_codelet_source(m);
  const std::vector<check::Diagnostic> findings =
      codegen::lint_cpu_spmm_codelet_source(m, src);
  EXPECT_TRUE(findings.empty()) << check::format_diagnostics(findings);
}

// ---------------------------------------------------------------------------
// JIT cache under concurrency

TEST(JitCache, ConcurrentBuildsOfOneEntryAllSucceed) {
  if (!codegen::JitCompiler::compiler_available()) {
    GTEST_SKIP() << "no C++ compiler available for JIT";
  }
  const std::string source =
      "extern \"C\" int crsd_concurrency_probe(int v) { return v + 41; }\n";
  const std::string cache_dir =
      (std::filesystem::temp_directory_path() /
       ("crsd-jit-race-" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(cache_dir);

  // Seed the canonical source path with garbage from a "killed" earlier
  // run: publication must rename over it, never read it.
  {
    codegen::JitCompiler::Options opts;
    opts.cache_dir = cache_dir;
    const codegen::JitCompiler probe(opts);
    std::filesystem::path src_path(probe.object_path_for(source));
    src_path.replace_extension(".cpp");
    std::filesystem::create_directories(src_path.parent_path());
    std::ofstream(src_path) << "this is not C++";
  }

  constexpr int kThreads = 8;
  std::atomic<int> ok{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      // One compiler per thread: the cache directory is the shared state
      // under test, not the JitCompiler object.
      codegen::JitCompiler::Options opts;
      opts.cache_dir = cache_dir;
      codegen::JitCompiler compiler(opts);
      const codegen::JitLibrary lib = compiler.compile_and_load(source);
      auto fn = lib.symbol_as<int (*)(int)>("crsd_concurrency_probe");
      if (fn(1) == 42) ok.fetch_add(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(ok.load(), kThreads);
  // No temp droppings left behind once every attempt has published.
  for (const auto& entry : std::filesystem::directory_iterator(cache_dir)) {
    EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
        << entry.path();
  }
  std::filesystem::remove_all(cache_dir);
}

// ---------------------------------------------------------------------------
// Block CG on the batched apply

TEST(BlockCg, SolvesSpdSystemForMultipleRhs) {
  // SPD tridiagonal (2D Laplacian stencil collapsed to 1D): diag 4,
  // off-diagonals -1 — well-conditioned, so CG converges fast.
  const index_t n = 200;
  Coo<double> a(n, n);
  for (index_t i = 0; i < n; ++i) {
    a.add(i, i, 4.0);
    if (i + 1 < n) {
      a.add(i, i + 1, -1.0);
      a.add(i + 1, i, -1.0);
    }
  }
  a.canonicalize();
  const auto m = build(a, CrsdConfig{.mrows = 16});
  const auto plan = ExecPlan<double>::inspect(m);
  const SpmmEngine<double> engine(m, plan);

  const index_t k = 3;
  const auto x_true = random_block<double>(n, k, 61);
  std::vector<double> b(static_cast<std::size_t>(n) * k, 0.0);
  engine.apply_seq(x_true.data(), n, b.data(), n, k);

  const solver::BlockApplyFn<double> apply =
      [&](const double* xin, size64_t ldx, double* yout, size64_t ldy,
          index_t kk) { engine.apply_seq(xin, ldx, yout, ldy, kk); };
  std::vector<double> x(static_cast<std::size_t>(n) * k, 0.0);
  solver::SolveOptions opts;
  opts.tolerance = 1e-12;
  const solver::BlockSolveResult result =
      solver::block_conjugate_gradient<double>(n, k, apply, b.data(), x.data(),
                                               opts);
  EXPECT_TRUE(result.converged)
      << "residual " << result.max_residual_norm << " after "
      << result.iterations << " iterations";
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_NEAR(x[i], x_true[i], 1e-8) << "element " << i;
  }
}

TEST(BlockCg, SingleColumnAgreesWithScalarCg) {
  const index_t n = 150;
  Coo<double> a(n, n);
  for (index_t i = 0; i < n; ++i) {
    a.add(i, i, 5.0);
    if (i + 2 < n) {
      a.add(i, i + 2, -1.0);
      a.add(i + 2, i, -1.0);
    }
  }
  a.canonicalize();
  const auto m = build(a, CrsdConfig{.mrows = 16});
  const auto plan = ExecPlan<double>::inspect(m);
  const SpmmEngine<double> engine(m, plan);

  const auto b = random_block<double>(n, 1, 71);
  solver::SolveOptions opts;
  opts.tolerance = 1e-11;

  std::vector<double> x_block(static_cast<std::size_t>(n), 0.0);
  const solver::BlockApplyFn<double> apply =
      [&](const double* xin, size64_t ldx, double* yout, size64_t ldy,
          index_t kk) { engine.apply_seq(xin, ldx, yout, ldy, kk); };
  const auto block_result = solver::block_conjugate_gradient<double>(
      n, 1, apply, b.data(), x_block.data(), opts);

  std::vector<double> x_cg(static_cast<std::size_t>(n), 0.0);
  const solver::ApplyFn<double> apply1 = [&](const double* xin, double* yout) {
    m.spmv(xin, yout);
  };
  const auto cg_result =
      solver::conjugate_gradient<double>(n, apply1, b.data(), x_cg.data(), opts);

  ASSERT_TRUE(block_result.converged);
  ASSERT_TRUE(cg_result.converged);
  for (index_t i = 0; i < n; ++i) {
    ASSERT_NEAR(x_block[static_cast<std::size_t>(i)],
                x_cg[static_cast<std::size_t>(i)], 1e-8);
  }
}

}  // namespace
}  // namespace crsd
