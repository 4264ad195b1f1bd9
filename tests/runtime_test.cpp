// Task-graph runtime suite: queue ordering, virtual-timeline determinism,
// futures/callbacks, cycle rejection (explicit and queue-order induced),
// error propagation, and overlap-efficiency accounting. Suite names contain
// "TaskGraph" so the TSan CI job picks them up via its -R filter.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "check/diagnostics.hpp"
#include "common/thread_pool.hpp"
#include "runtime/task_graph.hpp"

namespace crsd::rt {
namespace {

TEST(TaskGraph, QueueRunsNodesInSubmissionOrder) {
  TaskGraph g;
  const QueueId q = g.add_queue("dev0.compute");
  std::mutex mu;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    g.add_node(NodeKind::kLaunch, q, std::string("n").append(std::to_string(i)), [&mu, &order, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
      return 1e-6;
    });
  }
  ThreadPool pool(4);
  GraphExecutor exec(pool, g);
  exec.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(TaskGraph, VirtualTimelineIsDeterministic) {
  // Two-queue pipeline: h2d feeds each launch. The virtual clocks must give
  // textbook pipelining regardless of real thread interleaving: copies and
  // launches overlap, each launch starts at max(queue clock, its copy's
  // finish).
  TaskGraph g;
  const QueueId h2d = g.add_queue("h2d");
  const QueueId compute = g.add_queue("compute");
  std::vector<NodeId> copies, launches;
  for (int i = 0; i < 3; ++i) {
    copies.push_back(g.add_node(NodeKind::kH2D, h2d,
                                "copy" + std::to_string(i),
                                [] { return 1.0; }));
    launches.push_back(g.add_node(NodeKind::kLaunch, compute,
                                  "launch" + std::to_string(i),
                                  [] { return 2.0; }));
    g.add_edge(copies.back(), launches.back());
  }

  for (int rep = 0; rep < 3; ++rep) {
    ThreadPool pool(rep + 1);  // different worker counts, same timeline
    GraphExecutor exec(pool, g);
    const GraphRunStats stats = exec.run();
    // copy i finishes at i+1; launch 0 spans [1,3), launch 1 [3,5),
    // launch 2 [5,7).
    EXPECT_DOUBLE_EQ(stats.nodes[static_cast<std::size_t>(copies[2])]
                         .finish_seconds, 3.0);
    EXPECT_DOUBLE_EQ(stats.nodes[static_cast<std::size_t>(launches[0])]
                         .start_seconds, 1.0);
    EXPECT_DOUBLE_EQ(stats.nodes[static_cast<std::size_t>(launches[2])]
                         .start_seconds, 5.0);
    EXPECT_DOUBLE_EQ(stats.makespan_seconds, 7.0);
    // Overlap: busiest engine (compute, 6s) over makespan 7s.
    EXPECT_DOUBLE_EQ(stats.queue_busy_seconds[static_cast<std::size_t>(
                         compute)], 6.0);
    EXPECT_NEAR(stats.overlap_efficiency(), 6.0 / 7.0, 1e-12);
  }
}

TEST(TaskGraph, EdgesEstablishHappensBefore) {
  // A cross-queue producer/consumer chain: each consumer must observe the
  // producer's write. Run many times; TSan (CI) checks the synchronization.
  for (int rep = 0; rep < 20; ++rep) {
    TaskGraph g;
    const QueueId qa = g.add_queue("a");
    const QueueId qb = g.add_queue("b");
    int value = 0;
    const NodeId produce = g.add_node(NodeKind::kCpuCompute, qa, "produce",
                                      [&value] {
                                        value = 42;
                                        return 1e-6;
                                      });
    int seen = 0;
    const NodeId consume = g.add_node(NodeKind::kCpuCompute, qb, "consume",
                                      [&value, &seen] {
                                        seen = value;
                                        return 1e-6;
                                      });
    g.add_edge(produce, consume);
    ThreadPool pool(4);
    GraphExecutor exec(pool, g);
    exec.run();
    EXPECT_EQ(seen, 42);
  }
}

TEST(TaskGraph, FuturesAndCallbacksFire) {
  TaskGraph g;
  const QueueId q = g.add_queue("q");
  const NodeId a = g.add_node(NodeKind::kCpuCompute, q, "a", [] { return 1.5; });
  const NodeId b = g.add_node(NodeKind::kCpuCompute, q, "b", [] { return 0.5; });
  g.add_edge(a, b);
  std::atomic<int> callbacks{0};
  g.on_complete(b, [&callbacks](NodeId n) {
    EXPECT_EQ(n, 1);
    callbacks.fetch_add(1);
  });

  ThreadPool pool(2);
  GraphExecutor exec(pool, g);
  NodeFuture fa = exec.future(a);
  NodeFuture fb = exec.future(b);
  EXPECT_FALSE(fa.done());
  const GraphRunStats stats = exec.run();
  fa.wait();
  fb.wait();
  EXPECT_TRUE(fa.done());
  EXPECT_TRUE(fa.executed());
  EXPECT_DOUBLE_EQ(fa.finish_seconds(), 1.5);
  EXPECT_DOUBLE_EQ(fb.finish_seconds(), 2.0);
  EXPECT_EQ(callbacks.load(), 1);
  EXPECT_DOUBLE_EQ(stats.makespan_seconds, 2.0);
}

TEST(TaskGraph, BodylessNodesAreInstantaneous) {
  TaskGraph g;
  const QueueId q = g.add_queue("q");
  const NodeId a = g.add_node(NodeKind::kLaunch, q, "work", [] { return 3.0; });
  const NodeId done = g.add_node(NodeKind::kBarrier, q, "done");
  g.add_edge(a, done);
  ThreadPool pool(1);
  GraphExecutor exec(pool, g);
  const GraphRunStats stats = exec.run();
  EXPECT_DOUBLE_EQ(stats.nodes[static_cast<std::size_t>(done)].start_seconds,
                   3.0);
  EXPECT_DOUBLE_EQ(stats.makespan_seconds, 3.0);
}

TEST(TaskGraph, ExplicitCycleIsRejected) {
  TaskGraph g;
  const QueueId q0 = g.add_queue("q0");
  const QueueId q1 = g.add_queue("q1");
  const NodeId a = g.add_node(NodeKind::kLaunch, q0, "a", [] { return 1.0; });
  const NodeId b = g.add_node(NodeKind::kLaunch, q1, "b", [] { return 1.0; });
  g.add_edge(a, b);
  g.add_edge(b, a);
  const auto diags = g.validate();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, check::Code::kGraphCycle);
  EXPECT_THROW(g.validate_or_throw(), check::DiagnosticError);
  ThreadPool pool(2);
  GraphExecutor exec(pool, g);
  EXPECT_THROW(exec.run(), check::DiagnosticError);
}

TEST(TaskGraph, QueueOrderCycleIsRejected) {
  // The explicit edges are acyclic (b -> a), but a precedes b on their
  // shared in-order queue, so a can never start: the implicit queue edge
  // a -> b closes a cycle the validator must catch.
  TaskGraph g;
  const QueueId q = g.add_queue("q");
  const NodeId a = g.add_node(NodeKind::kLaunch, q, "a", [] { return 1.0; });
  const NodeId b = g.add_node(NodeKind::kLaunch, q, "b", [] { return 1.0; });
  g.add_edge(b, a);
  const auto diags = g.validate();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, check::Code::kGraphCycle);
  EXPECT_NE(diags[0].message.find("a"), std::string::npos);
}

TEST(TaskGraph, AcyclicGraphValidates) {
  TaskGraph g;
  const QueueId q0 = g.add_queue("q0");
  const QueueId q1 = g.add_queue("q1");
  const NodeId a = g.add_node(NodeKind::kH2D, q0, "a", [] { return 1.0; });
  const NodeId b = g.add_node(NodeKind::kLaunch, q1, "b", [] { return 1.0; });
  const NodeId c = g.add_node(NodeKind::kD2H, q0, "c", [] { return 1.0; });
  g.add_edge(a, b);
  g.add_edge(b, c);
  EXPECT_TRUE(g.validate().empty());
}

TEST(TaskGraph, BodyErrorAbortsRunAndSkipsUnstarted) {
  TaskGraph g;
  const QueueId q = g.add_queue("q");
  const NodeId bad = g.add_node(NodeKind::kCpuCompute, q, "bad", []() -> double {
    throw std::runtime_error("node failed");
  });
  std::atomic<bool> ran_after{false};
  const NodeId after = g.add_node(NodeKind::kCpuCompute, q, "after",
                                  [&ran_after] {
                                    ran_after.store(true);
                                    return 1.0;
                                  });
  g.add_edge(bad, after);

  ThreadPool pool(2);
  GraphExecutor exec(pool, g);
  NodeFuture f = exec.future(after);
  EXPECT_THROW(exec.run(), std::runtime_error);
  // The dependent node was abandoned, and its future resolved anyway.
  EXPECT_FALSE(ran_after.load());
  f.wait();
  EXPECT_TRUE(f.done());
  EXPECT_FALSE(f.executed());
}

TEST(TaskGraph, ManyNodesManyQueuesStress) {
  // Wide fan-out with cross-queue edges; checks completion, the per-node
  // records, and the nodes-executed metric under real contention.
  TaskGraph g;
  constexpr int kQueues = 6;
  constexpr int kPerQueue = 40;
  std::vector<QueueId> queues;
  for (int q = 0; q < kQueues; ++q) {
    queues.push_back(g.add_queue(std::string("q").append(std::to_string(q))));
  }
  std::atomic<int> executed{0};
  NodeId prev = -1;
  for (int i = 0; i < kQueues * kPerQueue; ++i) {
    const NodeId n = g.add_node(NodeKind::kCpuCompute, queues[static_cast<std::size_t>(i % kQueues)],
                                std::string("n").append(std::to_string(i)),
                                [&executed] {
                                  executed.fetch_add(1);
                                  return 1e-7;
                                });
    if (i % 7 == 0 && prev >= 0) g.add_edge(prev, n);
    prev = n;
  }
  ThreadPool pool(8);
  GraphExecutor exec(pool, g);
  const GraphRunStats stats = exec.run();
  EXPECT_EQ(executed.load(), kQueues * kPerQueue);
  for (const NodeRun& r : stats.nodes) {
    EXPECT_TRUE(r.executed);
    EXPECT_GE(r.finish_seconds, r.start_seconds);
  }
}

}  // namespace
}  // namespace crsd::rt
