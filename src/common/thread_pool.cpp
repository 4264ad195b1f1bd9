#include "common/thread_pool.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace crsd {

namespace {

// Pool-wide metrics. Relaxed atomic adds — negligible next to the mutex
// traffic the pool already pays per task.
obs::Counter& tasks_executed_counter() {
  static obs::Counter& c = obs::Registry::global().counter("pool.tasks_executed");
  return c;
}

obs::Histogram& queue_depth_histogram() {
  static obs::Histogram& h = obs::Registry::global().histogram("pool.queue_depth");
  return h;
}

// High-watermark of pending_ across the process lifetime. The graph
// scheduler's many-small-node load is where depth spikes show; a gauge makes
// the worst case visible without histogram bucket math.
obs::Gauge& queue_depth_highwater_gauge() {
  static obs::Gauge& g =
      obs::Registry::global().gauge("pool.queue_depth_highwater");
  return g;
}

void record_queue_depth(std::size_t depth) {
  queue_depth_histogram().record(depth);
  obs::Gauge& g = queue_depth_highwater_gauge();
  if (double(depth) > g.value()) g.set(double(depth));
}

}  // namespace

ParallelPlan ParallelPlan::static_partition(index_t begin, index_t end,
                                            int parts) {
  CRSD_CHECK_MSG(parts >= 1, "ParallelPlan needs >= 1 part");
  ParallelPlan plan;
  plan.bounds_.reserve(static_cast<std::size_t>(parts) + 1);
  const index_t n = std::max<index_t>(0, end - begin);
  plan.bounds_.push_back(begin);
  const index_t base = n / parts;
  const index_t extra = n % parts;
  index_t cursor = begin;
  for (int p = 0; p < parts; ++p) {
    cursor += base + (p < extra ? 1 : 0);
    plan.bounds_.push_back(cursor);
  }
  return plan;
}

ParallelPlan ParallelPlan::weighted_partition(index_t begin, index_t end,
                                              int parts,
                                              const std::vector<double>& cost) {
  CRSD_CHECK_MSG(parts >= 1, "ParallelPlan needs >= 1 part");
  const index_t n = std::max<index_t>(0, end - begin);
  CRSD_CHECK_MSG(cost.size() == static_cast<std::size_t>(n),
                 "weighted_partition needs one cost per index");
  double total = 0.0;
  for (double c : cost) total += std::max(0.0, c);
  if (total <= 0.0) return static_partition(begin, end, parts);

  ParallelPlan plan;
  plan.bounds_.reserve(static_cast<std::size_t>(parts) + 1);
  plan.bounds_.push_back(begin);
  double accumulated = 0.0;
  index_t cursor = 0;
  for (int p = 1; p <= parts; ++p) {
    const double target = total * double(p) / double(parts);
    // Advance while the boundary index sits mostly below this part's cost
    // target (midpoint rule: an index straddling the boundary goes to
    // whichever side holds more of it).
    while (cursor < n &&
           accumulated +
                   0.5 * std::max(0.0, cost[static_cast<std::size_t>(cursor)]) <
               target) {
      accumulated += std::max(0.0, cost[static_cast<std::size_t>(cursor)]);
      ++cursor;
    }
    plan.bounds_.push_back(begin + (p == parts ? n : cursor));
  }
  return plan;
}

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  CRSD_CHECK_MSG(num_threads >= 1, "thread pool needs >= 1 thread");
  workers_.reserve(static_cast<std::size_t>(num_threads - 1));
  for (int i = 1; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::parallel_for(
    index_t begin, index_t end,
    const std::function<void(index_t, index_t, int)>& fn) {
  if (begin >= end) return;
  const int parts = static_cast<int>(
      std::min<index_t>(end - begin, static_cast<index_t>(num_threads_)));
  parallel_for(ParallelPlan::static_partition(begin, end, parts), fn);
}

void ThreadPool::parallel_for(
    const ParallelPlan& plan,
    const std::function<void(index_t, index_t, int)>& fn) {
  std::vector<Task> tasks;
  tasks.reserve(static_cast<std::size_t>(plan.num_parts()));
  for (int p = 0; p < plan.num_parts(); ++p) {
    if (plan.part_begin(p) < plan.part_end(p)) {
      tasks.push_back(Task{&fn, plan.part_begin(p), plan.part_end(p), p});
    }
  }
  run(tasks);
}

void ThreadPool::parallel_for_chunked(
    index_t begin, index_t end, index_t chunk_size,
    const std::function<void(index_t, index_t, int)>& fn) {
  if (begin >= end) return;
  chunk_size = std::max<index_t>(1, chunk_size);
  if (num_threads_ == 1) chunk_size = end - begin;
  std::vector<Task> tasks;
  for (index_t lo = begin; lo < end;) {
    const index_t hi = lo + std::min(chunk_size, end - lo);
    tasks.push_back(Task{&fn, lo, hi, -1});  // -1: the claimer's id
    lo = hi;
  }
  run(tasks);
}

void ThreadPool::run_tasks(const std::vector<std::function<void()>>& tasks) {
  parallel_for_chunked(0, static_cast<index_t>(tasks.size()), 1,
                       [&tasks](index_t b, index_t e, int) {
                         for (index_t i = b; i < e; ++i) {
                           tasks[static_cast<std::size_t>(i)]();
                         }
                       });
}

void ThreadPool::run(const std::vector<Task>& tasks) {
  if (tasks.empty()) return;
  if (tasks.size() == 1) {
    // Nothing to share: run inline, exceptions propagate directly.
    const Task& t = tasks.front();
    (*t.fn)(t.begin, t.end, std::max(t.thread_id, 0));
    tasks_executed_counter().add(1);
    return;
  }

  std::size_t pushed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    CRSD_CHECK_MSG(outstanding_ == 0 && pending_.empty(),
                   "nested/concurrent parallel_for on one ThreadPool is not "
                   "supported");
    first_error_ = nullptr;
    // Queued back-to-front so pop_back() hands tasks out in order.
    pending_.assign(tasks.rbegin(), tasks.rend() - 1);
    outstanding_ = static_cast<int>(pending_.size());
    pushed = pending_.size();
    record_queue_depth(pushed);
  }
  wake_workers(pushed);

  // The first task runs on the calling thread, which then drains the queue
  // alongside the workers (plans and chunked loops may carry more tasks
  // than the pool has threads).
  execute(tasks.front(), 0);
  for (;;) {
    Task task;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_.empty()) break;
      task = pending_.back();
      pending_.pop_back();
    }
    execute(task, 0);
    finish_queued();
  }

  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return outstanding_ == 0 && pending_.empty(); });
  if (first_error_) {
    auto err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

bool ThreadPool::execute(const Task& task, int claimer_id) {
  try {
    (*task.fn)(task.begin, task.end,
               task.thread_id >= 0 ? task.thread_id : claimer_id);
    tasks_executed_counter().add(1);
    return true;
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!first_error_) first_error_ = std::current_exception();
    return false;
  }
}

void ThreadPool::finish_queued() {
  std::lock_guard<std::mutex> lock(mu_);
  --outstanding_;
  if (outstanding_ == 0 && pending_.empty()) cv_done_.notify_all();
}

void ThreadPool::wake_workers(std::size_t pushed) {
  if (pushed == 0) return;
  if (pushed == 1) {
    cv_work_.notify_one();
  } else {
    cv_work_.notify_all();
  }
}

void ThreadPool::worker_loop(int worker_id) {
  obs::Counter& my_tasks = obs::Registry::global().counter(
      "pool.worker." + std::to_string(worker_id) + ".tasks");
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [this] { return stopping_ || !pending_.empty(); });
      if (pending_.empty()) return;  // stopping
      task = pending_.back();
      pending_.pop_back();
    }
    if (execute(task, worker_id)) my_tasks.add(1);
    finish_queued();
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(
      std::max(1u, std::thread::hardware_concurrency()));
  return pool;
}

}  // namespace crsd
