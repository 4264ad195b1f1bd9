// Unit tests for src/common: error macros, RNG determinism, thread pool,
// hashing, tables.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"

namespace crsd {
namespace {

TEST(Error, CheckThrowsWithMessage) {
  EXPECT_NO_THROW(CRSD_CHECK(1 + 1 == 2));
  try {
    CRSD_CHECK_MSG(false, "custom detail " << 42);
    FAIL() << "expected crsd::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail 42"),
              std::string::npos);
  }
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  bool saw_difference = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    if (va != c.next_u64()) saw_difference = true;
  }
  EXPECT_TRUE(saw_difference);
}

TEST(Rng, BoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const index_t v = rng.next_index(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
    const double d = rng.next_double(0.25, 0.75);
    EXPECT_GE(d, 0.25);
    EXPECT_LT(d, 0.75);
  }
}

TEST(Rng, DoubleIsRoughlyUniform) {
  Rng rng(99);
  double sum = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / kSamples, 0.5, 0.02);
}

using LoopFn = std::function<void(index_t, index_t, int)>;

/// The pool's three loop entry points over [0, n): a static range, a plan
/// with more parts than the pool has threads, and a chunked loop.
struct EntryPoint {
  const char* name;
  std::function<void(ThreadPool&, index_t, const LoopFn&)> run;
};

std::vector<EntryPoint> entry_points() {
  return {
      {"range",
       [](ThreadPool& pool, index_t n, const LoopFn& fn) {
         pool.parallel_for(0, n, fn);
       }},
      {"plan",
       [](ThreadPool& pool, index_t n, const LoopFn& fn) {
         pool.parallel_for(
             ParallelPlan::static_partition(0, n, 3 * pool.num_threads()),
             fn);
       }},
      {"chunked",
       [](ThreadPool& pool, index_t n, const LoopFn& fn) {
         pool.parallel_for_chunked(0, n, 7, fn);
       }},
  };
}

TEST(ThreadPool, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  for (const EntryPoint& ep : entry_points()) {
    SCOPED_TRACE(ep.name);
    std::vector<std::atomic<int>> hits(1000);
    ep.run(pool, 1000, [&](index_t b, index_t e, int) {
      for (index_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  int count = 0;
  pool.parallel_for(0, 10, [&](index_t b, index_t e, int tid) {
    EXPECT_EQ(tid, 0);
    count += e - b;
  });
  EXPECT_EQ(count, 10);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](index_t, index_t, int) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(3);
  for (const EntryPoint& ep : entry_points()) {
    SCOPED_TRACE(ep.name);
    // Thrown from a queued task, not the one the caller runs first.
    EXPECT_THROW(ep.run(pool, 100,
                        [&](index_t b, index_t e, int) {
                          if (b <= 60 && 60 < e) throw Error("boom");
                        }),
                 Error);
    // Pool must stay usable afterwards.
    std::atomic<int> total{0};
    ep.run(pool, 10, [&](index_t b, index_t e, int) { total += e - b; });
    EXPECT_EQ(total.load(), 10);
  }
}

TEST(ThreadPool, ReusableAcrossManyCalls) {
  ThreadPool pool(4);
  for (int iter = 0; iter < 50; ++iter) {
    std::atomic<long long> sum{0};
    pool.parallel_for(0, 1000, [&](index_t b, index_t e, int) {
      long long local = 0;
      for (index_t i = b; i < e; ++i) local += i;
      sum += local;
    });
    EXPECT_EQ(sum.load(), 999LL * 1000 / 2);
  }
}

TEST(Hash, StableAndCollisionFreeOnSmallSet) {
  EXPECT_EQ(fnv1a64("hello"), fnv1a64("hello"));
  EXPECT_NE(fnv1a64("hello"), fnv1a64("hellp"));
  EXPECT_EQ(fnv1a64_hex("x").size(), 16u);
  EXPECT_NE(fnv1a64_hex("a"), fnv1a64_hex("b"));
}

TEST(Table, TextAndCsvRendering) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::fmt(1.5, 1)});
  t.add_row({"with,comma", Table::fmt(2LL)});
  std::ostringstream text;
  t.print_text(text);
  EXPECT_NE(text.str().find("alpha"), std::string::npos);
  EXPECT_NE(text.str().find("1.5"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_NE(csv.str().find("\"with,comma\""), std::string::npos);
}

TEST(Table, RowsPaddedToHeaderWidth) {
  Table t({"a", "b", "c"});
  t.add_row({"only-one"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b,c\nonly-one,,\n");
}

TEST(Timer, MeasuresForwardTime) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_GT(t.micros(), 0.0);
}

}  // namespace
}  // namespace crsd
