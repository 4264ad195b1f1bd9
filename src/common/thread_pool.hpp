// A small fixed-size thread pool with a blocking parallel_for. Used by the
// CPU-parallel SpMV kernels and by the GPU simulator to spread work-groups
// over host threads. We roll our own instead of OpenMP so thread count is an
// explicit runtime argument (the paper sweeps 1 vs 8 threads) and so the
// library has no compiler-flag dependency.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"

namespace crsd {

/// A reusable partition of an index range into contiguous sub-ranges, one
/// per task. parallel_for re-slices and re-dispatches its range on every
/// call; hot paths that run the same loop thousands of times (SpMV/SpMM
/// iterations inside a solver) build a ParallelPlan once and replay it —
/// the executor side of the inspector–executor split. Plans can be cut
/// into equal pieces or balanced against a per-index cost estimate, and
/// they are immutable after construction, so one plan can be replayed
/// concurrently from different pools or iterations without re-partitioning.
class ParallelPlan {
 public:
  ParallelPlan() = default;

  /// [begin, end) cut into `parts` nearly-equal contiguous ranges (empty
  /// trailing ranges are kept so part index == thread id stays stable).
  static ParallelPlan static_partition(index_t begin, index_t end, int parts);

  /// Cost-balanced contiguous partition: `cost[i]` estimates the work of
  /// index `begin + i`. Greedy prefix-sum splitting at cost/parts
  /// boundaries — each part gets a contiguous run of indices whose summed
  /// cost is close to the mean, so one expensive run does not serialize
  /// the whole loop behind thread 0.
  static ParallelPlan weighted_partition(index_t begin, index_t end,
                                         int parts,
                                         const std::vector<double>& cost);

  int num_parts() const { return static_cast<int>(bounds_.empty() ? 0 : bounds_.size() - 1); }
  index_t part_begin(int i) const { return bounds_[static_cast<std::size_t>(i)]; }
  index_t part_end(int i) const { return bounds_[static_cast<std::size_t>(i) + 1]; }
  bool empty() const { return bounds_.size() < 2 || bounds_.front() == bounds_.back(); }

 private:
  std::vector<index_t> bounds_;  ///< size num_parts()+1, non-decreasing
};

/// Fixed-size worker pool. Construction spawns `num_threads - 1` workers;
/// the calling thread always takes part in its own loop, so ThreadPool(1)
/// runs everything inline with zero synchronization cost.
///
/// Every entry point lowers its loop to a list of (range, thread id) tasks
/// and hands it to one routine: the first task runs on the calling thread,
/// the rest are queued for the workers, the caller drains the queue
/// alongside them, and the call blocks until every task has finished. The
/// first exception thrown by a task is rethrown to the caller once the
/// loop is done; the pool stays usable. fn signature for all loops:
/// void(index_t chunk_begin, index_t chunk_end, int thread_id). One loop at
/// a time: nested or concurrent loops on the same pool are rejected.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs fn over [begin, end) cut into min(end - begin, num_threads())
  /// contiguous static chunks (SpMV row blocks want static partitioning for
  /// locality): a replay of ParallelPlan::static_partition, so chunk i gets
  /// thread id i.
  void parallel_for(index_t begin, index_t end,
                    const std::function<void(index_t, index_t, int)>& fn);

  /// Dynamically-scheduled variant: [begin, end) is cut into contiguous
  /// chunks of at most `chunk_size` indices and the chunks are claimed by
  /// whichever thread is free, so ranges whose per-index cost varies (e.g.
  /// CRSD segments of patterns with different diagonal counts) load-balance
  /// instead of leaving threads idle behind one expensive static block.
  /// The thread id passed to fn is the claiming thread's (0 = caller).
  void parallel_for_chunked(index_t begin, index_t end, index_t chunk_size,
                            const std::function<void(index_t, index_t, int)>& fn);

  /// Replays a precomputed partition: part i runs as fn(part_begin(i),
  /// part_end(i), i) with no per-call slicing; empty parts are skipped. The
  /// part index is passed as the thread id, so a plan with num_parts() ==
  /// num_threads() gives each range a stable id across replays. Plans may
  /// carry more parts than the pool has threads.
  void parallel_for(const ParallelPlan& plan,
                    const std::function<void(index_t, index_t, int)>& fn);

  /// Runs a set of independent tasks, each claimed by whichever thread is
  /// free (dynamic scheduling — tasks of very different cost, e.g. autotune
  /// candidate builds, load-balance instead of serializing behind one
  /// static block). Same blocking/exception semantics as parallel_for.
  void run_tasks(const std::vector<std::function<void()>>& tasks);

  /// Process-wide pool sized to hardware_concurrency (lazily constructed).
  static ThreadPool& global();

 private:
  struct Task {
    const std::function<void(index_t, index_t, int)>* fn = nullptr;
    index_t begin = 0;
    index_t end = 0;
    int thread_id = 0;  ///< -1: pass the claiming thread's id
  };

  /// The one dispatch routine behind every loop: runs tasks[0] on the
  /// caller, queues the rest, drains, waits, rethrows the first error.
  void run(const std::vector<Task>& tasks);

  /// Runs one task as thread `claimer_id`, recording a thrown exception in
  /// first_error_; returns whether the task completed.
  bool execute(const Task& task, int claimer_id);

  /// Retires one queued task and wakes the caller when the loop is done.
  void finish_queued();

  void worker_loop(int worker_id);

  /// Wake exactly as many workers as there are newly queued tasks: a single
  /// task wakes one worker instead of stampeding the whole pool (the graph
  /// scheduler enqueues many single-node batches).
  void wake_workers(std::size_t pushed);

  int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<Task> pending_;
  int outstanding_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;
};

/// Convenience: chunked parallel loop over [begin, end) on `pool`.
/// body signature: void(index_t i) — invoked for each index.
template <typename Body>
void parallel_for_each(ThreadPool& pool, index_t begin, index_t end,
                       Body&& body) {
  pool.parallel_for(begin, end,
                    [&body](index_t b, index_t e, int /*tid*/) {
                      for (index_t i = b; i < e; ++i) body(i);
                    });
}

/// Deterministic parallel merge sort over [first, last): equal chunks are
/// sorted on the pool, then merged pairwise in log-depth rounds of
/// std::inplace_merge. With a total order over unique keys (the parallel
/// CRSD builder sorts by unique (diagonal, segment) pairs) the result is
/// identical to std::sort at any thread count. Small ranges and 1-thread
/// pools fall through to std::sort.
template <typename It, typename Cmp>
void parallel_sort(ThreadPool& pool, It first, It last, Cmp cmp) {
  const std::ptrdiff_t n = last - first;
  const int parts = pool.num_threads();
  if (parts <= 1 || n < 4096) {
    std::sort(first, last, cmp);
    return;
  }
  std::vector<std::ptrdiff_t> bounds(static_cast<std::size_t>(parts) + 1);
  for (int p = 0; p <= parts; ++p) {
    bounds[static_cast<std::size_t>(p)] = n * p / parts;
  }
  pool.parallel_for(0, static_cast<index_t>(parts),
                    [&](index_t b, index_t e, int) {
                      for (index_t c = b; c < e; ++c) {
                        std::sort(first + bounds[static_cast<std::size_t>(c)],
                                  first + bounds[static_cast<std::size_t>(c) + 1],
                                  cmp);
                      }
                    });
  for (int width = 1; width < parts; width *= 2) {
    std::vector<int> heads;
    for (int c = 0; c + width < parts; c += 2 * width) heads.push_back(c);
    if (heads.empty()) continue;
    pool.parallel_for(
        0, static_cast<index_t>(heads.size()),
        [&](index_t b, index_t e, int) {
          for (index_t i = b; i < e; ++i) {
            const int c = heads[static_cast<std::size_t>(i)];
            const auto lo = first + bounds[static_cast<std::size_t>(c)];
            const auto mid =
                first + bounds[static_cast<std::size_t>(std::min(c + width, parts))];
            const auto hi = first + bounds[static_cast<std::size_t>(
                                        std::min(c + 2 * width, parts))];
            std::inplace_merge(lo, mid, hi, cmp);
          }
        });
  }
}

}  // namespace crsd
