// Serving-engine semantics: bitwise parity of coalesced SpMM batches vs
// per-request single-vector SpMV across every storage mode, admission
// control, registry dedup, the batch-verification mutation fixture, and
// async-mode concurrency (the suite name contains "Serve" so the TSan CI
// job runs it).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/build_api.hpp"
#include "matrix/generators.hpp"
#include "obs/metrics.hpp"
#include "serve/serve.hpp"

namespace crsd {
namespace {

using serve::MatrixId;
using serve::MatrixInfo;
using serve::RequestStatus;
using serve::ServeEngine;
using serve::ServeOptions;

struct StorageMode {
  const char* name;
  StorageOptions storage;
};

const std::vector<StorageMode>& storage_modes() {
  static const std::vector<StorageMode> m = {
      {"fp64", {}},
      {"fp64+i16", {ValuePrecision::kNative, true, false}},
      {"fp64+delta", {ValuePrecision::kNative, false, true}},
      {"fp32+i16", {ValuePrecision::kFloat32, true, false}},
      {"fp32+delta", {ValuePrecision::kFloat32, false, true}},
      {"fp16+i16", {ValuePrecision::kFloat16, true, false}},
  };
  return m;
}

/// A band matrix with off-pattern scatter points, so the narrow/delta
/// scatter index modes actually have a scatter stream to encode.
Coo<double> test_matrix() {
  Rng rng(7);
  Coo<double> a = dense_band(96, 4);
  inject_scatter(a, 40, rng);
  return a;
}

std::vector<double> make_x(index_t n, int seed) {
  std::vector<double> x(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] =
        1.0 + 0.001 * double((i * 31 + seed * 17) % 97);
  }
  return x;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Serve, CoalescedMatchesPerRequestAllStorageModes) {
  ThreadPool pool(2);
  const Coo<double> a = test_matrix();
  for (const StorageMode& mode : storage_modes()) {
    SCOPED_TRACE(mode.name);
    ServeEngine engine(pool, ServeOptions{.max_batch = 8});
    const MatrixInfo info = engine.register_matrix(a, mode.storage);
    const bool native =
        mode.storage.value_precision == ValuePrecision::kNative;
    EXPECT_EQ(info.batchable, native);

    std::vector<serve::RequestHandle> handles;
    for (int r = 0; r < 8; ++r) {
      handles.push_back(engine.submit(info.id, "tenant0",
                                      make_x(a.num_cols(), r)));
    }
    const serve::DispatchStats stats = engine.drain();
    EXPECT_EQ(stats.requests, 8);
    if (native) {
      // One k=8 SpMM batch.
      EXPECT_EQ(stats.batches, 1);
      EXPECT_EQ(stats.coalesced_requests, 8);
    } else {
      // Compacted value streams have no SpMM engine: per-request fallback
      // inside the same graph.
      EXPECT_EQ(stats.batches, 0);
      EXPECT_EQ(stats.singles, 8);
    }
    EXPECT_GT(stats.makespan_seconds, 0.0);

    const CrsdMatrix<double>& m = engine.matrix(info.id);
    for (int r = 0; r < 8; ++r) {
      ASSERT_EQ(handles[static_cast<std::size_t>(r)].status(),
                RequestStatus::kDone);
      EXPECT_EQ(handles[static_cast<std::size_t>(r)].served_batch_k(),
                native ? 8 : 1);
      EXPECT_GT(
          handles[static_cast<std::size_t>(r)].virtual_finish_seconds(),
          0.0);
      const std::vector<double> x = make_x(a.num_cols(), r);
      std::vector<double> ref(static_cast<std::size_t>(a.num_rows()));
      m.spmv(x.data(), ref.data());
      EXPECT_TRUE(
          bitwise_equal(handles[static_cast<std::size_t>(r)].result(), ref));
    }
  }
}

TEST(Serve, BackpressureRejectsWithDiagnostic) {
  ThreadPool pool(2);
  ServeEngine engine(pool,
                     ServeOptions{.max_batch = 8, .max_queue_depth = 4});
  const Coo<double> a = test_matrix();
  const MatrixInfo info = engine.register_matrix(a);

  std::vector<serve::RequestHandle> admitted, shed;
  for (int r = 0; r < 6; ++r) {
    serve::RequestHandle h =
        engine.submit(info.id, "tenantB", make_x(a.num_cols(), r));
    (r < 4 ? admitted : shed).push_back(std::move(h));
  }
  EXPECT_EQ(engine.pending(), 4u);
  // Malformed requests throw before admission and leave the queue alone.
  EXPECT_THROW(engine.submit(info.id + 1, "tenantB", make_x(a.num_cols(), 0)),
               Error);
  EXPECT_THROW(engine.submit(info.id, "tenantB", make_x(a.num_cols() + 1, 0)),
               Error);
  EXPECT_EQ(engine.pending(), 4u);
  for (const auto& h : shed) {
    ASSERT_EQ(h.status(), RequestStatus::kRejected);  // resolved immediately
    const check::Diagnostic& d = h.diagnostic();
    EXPECT_EQ(d.code, check::Code::kServeOverload);
    EXPECT_NE(d.message.find("high watermark"), std::string::npos);
    EXPECT_EQ(h.virtual_finish_seconds(), 0.0);
  }

  const serve::DispatchStats stats = engine.drain();
  EXPECT_EQ(stats.requests, 4);
  for (const auto& h : admitted) {
    EXPECT_EQ(h.status(), RequestStatus::kDone);
  }
  // The queue drained: new submissions are admitted again.
  serve::RequestHandle h2 =
      engine.submit(info.id, "tenantB", make_x(a.num_cols(), 9));
  EXPECT_EQ(h2.status(), RequestStatus::kPending);
  engine.drain();
  EXPECT_EQ(h2.status(), RequestStatus::kDone);
}

TEST(Serve, RegistryDedupsByStructureHash) {
  ThreadPool pool(1);
  ServeEngine engine(pool);
  const Coo<double> a = test_matrix();

  const MatrixInfo first = engine.register_matrix(a);
  EXPECT_FALSE(first.dedup_hit);
  EXPECT_NE(first.structure_hash, 0u);
  EXPECT_EQ(engine.registry_size(), 1u);

  // Same matrix, same storage: reuses the entry.
  const MatrixInfo again = engine.register_matrix(a);
  EXPECT_TRUE(again.dedup_hit);
  EXPECT_EQ(again.id, first.id);
  EXPECT_EQ(again.structure_hash, first.structure_hash);
  EXPECT_EQ(engine.registry_size(), 1u);

  // Same structure, different storage mode: its own entry (the built
  // streams differ), but the structure hash matches.
  const MatrixInfo narrow = engine.register_matrix(
      a, StorageOptions{ValuePrecision::kNative, true, false});
  EXPECT_FALSE(narrow.dedup_hit);
  EXPECT_NE(narrow.id, first.id);
  EXPECT_EQ(narrow.structure_hash, first.structure_hash);

  // Same structure, different values: its own entry too.
  Coo<double> b(a.num_rows(), a.num_cols());
  for (size64_t k = 0; k < a.nnz(); ++k) {
    b.add(a.row_indices()[k], a.col_indices()[k], 2.0 * a.values()[k]);
  }
  b.canonicalize();
  const MatrixInfo other = engine.register_matrix(b);
  EXPECT_FALSE(other.dedup_hit);
  EXPECT_NE(other.id, first.id);
  EXPECT_EQ(other.structure_hash, first.structure_hash);
  EXPECT_EQ(engine.registry_size(), 3u);
}

TEST(Serve, MisSlicedBatchDetected) {
  ThreadPool pool(2);
  ServeEngine engine(pool,
                     ServeOptions{.max_batch = 4, .verify_batches = true});
  const Coo<double> a = test_matrix();
  const MatrixInfo info = engine.register_matrix(a);

  engine.inject_batch_fault_for_test();
  std::vector<serve::RequestHandle> handles;
  for (int r = 0; r < 4; ++r) {
    handles.push_back(
        engine.submit(info.id, "tenantC", make_x(a.num_cols(), r)));
  }
  engine.drain();
  for (const auto& h : handles) {
    ASSERT_EQ(h.status(), RequestStatus::kFailed);
    const check::Diagnostic& d = h.diagnostic();
    EXPECT_EQ(d.code, check::Code::kServeBatchMismatch);
    EXPECT_NE(d.message.find("diverged bitwise"), std::string::npos);
  }

  // Verification passes again once the fault is consumed.
  serve::RequestHandle ok =
      engine.submit(info.id, "tenantC", make_x(a.num_cols(), 5));
  engine.drain();
  EXPECT_EQ(ok.status(), RequestStatus::kDone);
}

TEST(Serve, PartialBatchesAndDispatchStats) {
  ThreadPool pool(2);
  // One exec lane: compute nodes serialize, so the makespan bounds below
  // (>= total compute, < fully serialized sum) hold exactly.
  ServeEngine engine(pool, ServeOptions{.max_batch = 4, .exec_lanes = 1});
  const Coo<double> a = test_matrix();
  const MatrixInfo info = engine.register_matrix(a);

  // 9 pending requests with max_batch 4: two k=4 batches and one single.
  std::vector<serve::RequestHandle> handles;
  for (int r = 0; r < 9; ++r) {
    handles.push_back(
        engine.submit(info.id, "tenantD", make_x(a.num_cols(), r)));
  }
  const serve::DispatchStats stats = engine.drain();
  EXPECT_EQ(stats.requests, 9);
  EXPECT_EQ(stats.batches, 2);
  EXPECT_EQ(stats.singles, 1);
  EXPECT_EQ(stats.coalesced_requests, 8);
  EXPECT_GT(stats.compute_seconds, 0.0);
  EXPECT_GT(stats.stage_seconds, 0.0);
  EXPECT_GT(stats.deliver_seconds, 0.0);
  // The virtual timeline pipelines stages, so the makespan is at least the
  // compute time but less than the serialized sum.
  EXPECT_GE(stats.makespan_seconds, stats.compute_seconds);
  EXPECT_LT(stats.makespan_seconds, stats.stage_seconds +
                                        stats.compute_seconds +
                                        stats.deliver_seconds +
                                        1e-12);
  const CrsdMatrix<double>& m = engine.matrix(info.id);
  for (int r = 0; r < 9; ++r) {
    const std::vector<double> x = make_x(a.num_cols(), r);
    std::vector<double> ref(static_cast<std::size_t>(a.num_rows()));
    m.spmv(x.data(), ref.data());
    EXPECT_TRUE(
        bitwise_equal(handles[static_cast<std::size_t>(r)].result(), ref));
  }
}

TEST(Serve, JitSingleVectorFallbackParity) {
  ThreadPool pool(2);
  // max_batch 1 = coalescing off: every request runs alone as a k = 1
  // SpmmEngine node, bitwise-identical to the single-vector kernel.
  ServeEngine engine(pool, ServeOptions{.max_batch = 1});
  const Coo<double> a = test_matrix();
  const MatrixInfo info = engine.register_matrix(a);

  std::vector<serve::RequestHandle> handles;
  for (int r = 0; r < 3; ++r) {
    handles.push_back(
        engine.submit(info.id, "tenantE", make_x(a.num_cols(), r)));
  }
  const serve::DispatchStats stats = engine.drain();
  EXPECT_EQ(stats.batches, 0);
  EXPECT_EQ(stats.singles, 3);
  const CrsdMatrix<double>& m = engine.matrix(info.id);
  for (int r = 0; r < 3; ++r) {
    const std::vector<double> x = make_x(a.num_cols(), r);
    std::vector<double> ref(static_cast<std::size_t>(a.num_rows()));
    m.spmv(x.data(), ref.data());
    ASSERT_EQ(handles[static_cast<std::size_t>(r)].status(),
              RequestStatus::kDone);
    EXPECT_EQ(handles[static_cast<std::size_t>(r)].served_batch_k(), 1);
    EXPECT_TRUE(
        bitwise_equal(handles[static_cast<std::size_t>(r)].result(), ref));
  }
}

TEST(Serve, TenantLatencyMetricsExported) {
  obs::Registry& reg = obs::Registry::global();
  obs::Histogram& h = reg.histogram("serve.tenant.serve_test_slo.latency_us");
  h.reset();

  ThreadPool pool(2);
  ServeEngine engine(pool);
  const Coo<double> a = test_matrix();
  const MatrixInfo info = engine.register_matrix(a);
  for (int r = 0; r < 6; ++r) {
    engine.submit(info.id, "serve_test_slo", make_x(a.num_cols(), r));
  }
  engine.drain();

  EXPECT_EQ(h.count(), 6u);
  // p50/p99 gauges update on every resolution and are quantiles of the
  // histogram above.
  const double p50 = reg.gauge("serve.tenant.serve_test_slo.p50_us").value();
  const double p99 = reg.gauge("serve.tenant.serve_test_slo.p99_us").value();
  EXPECT_GE(p99, p50);
  EXPECT_EQ(p50, h.quantile(0.50));
  EXPECT_EQ(p99, h.quantile(0.99));
}

TEST(Serve, AsyncConcurrentSubmittersCoalesce) {
  ThreadPool pool(4);
  ServeEngine engine(pool, ServeOptions{.max_batch = 8,
                                        .max_queue_depth = 1024,
                                        .coalescing_window_us = 20000,
                                        .async = true});
  const Coo<double> a = test_matrix();
  const MatrixInfo info = engine.register_matrix(a);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::vector<serve::RequestHandle>> handles(kThreads);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int r = 0; r < kPerThread; ++r) {
        handles[static_cast<std::size_t>(t)].push_back(engine.submit(
            info.id, "tenant" + std::to_string(t),
            make_x(a.num_cols(), t * kPerThread + r)));
      }
    });
  }
  for (auto& th : submitters) th.join();

  const CrsdMatrix<double>& m = engine.matrix(info.id);
  index_t coalesced = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int r = 0; r < kPerThread; ++r) {
      serve::RequestHandle& h =
          handles[static_cast<std::size_t>(t)][static_cast<std::size_t>(r)];
      h.wait();
      ASSERT_EQ(h.status(), RequestStatus::kDone);
      if (h.served_batch_k() >= 2) ++coalesced;
      const std::vector<double> x =
          make_x(a.num_cols(), t * kPerThread + r);
      std::vector<double> ref(static_cast<std::size_t>(a.num_rows()));
      m.spmv(x.data(), ref.data());
      EXPECT_TRUE(bitwise_equal(h.result(), ref));
    }
  }
  // 32 near-simultaneous requests against one matrix within a 20ms window:
  // most must have been served inside SpMM batches. (Exact batch shapes
  // depend on arrival interleaving; the parity above is the hard gate.)
  EXPECT_GE(coalesced, 16);
}

TEST(Serve, SameMatrixBatchesSerializeAcrossExecLanes) {
  // Several k >= 2 batches of one matrix in a single cycle share the
  // entry's SpmmEngine scratch arena. With two exec lanes they must still
  // run one at a time, or one batch stages its x into the arena while
  // another reads it. The band is wide and tall enough that each batch
  // runs long and the staged AD-group path is exercised.
  ThreadPool pool(4);
  ServeEngine engine(pool, ServeOptions{.max_batch = 2,
                                        .exec_lanes = 2,
                                        .max_queue_depth = 256});
  Rng rng(21);
  Coo<double> a = dense_band(20000, 12);
  inject_scatter(a, 64, rng);
  const MatrixInfo info = engine.register_matrix(a);
  ASSERT_TRUE(info.batchable);
  const CrsdMatrix<double>& m = engine.matrix(info.id);

  constexpr int kCycles = 6;
  constexpr int kRequests = 16;  // eight k=2 batches per cycle
  for (int c = 0; c < kCycles; ++c) {
    std::vector<serve::RequestHandle> handles;
    for (int r = 0; r < kRequests; ++r) {
      handles.push_back(engine.submit(info.id, "tenantR",
                                      make_x(a.num_cols(), c * 97 + r)));
    }
    const serve::DispatchStats stats = engine.drain();
    EXPECT_EQ(stats.batches, kRequests / 2);
    for (int r = 0; r < kRequests; ++r) {
      const serve::RequestHandle& h = handles[static_cast<std::size_t>(r)];
      ASSERT_EQ(h.status(), RequestStatus::kDone);
      EXPECT_EQ(h.served_batch_k(), 2);
      const std::vector<double> x = make_x(a.num_cols(), c * 97 + r);
      std::vector<double> ref(static_cast<std::size_t>(a.num_rows()));
      m.spmv_scalar(x.data(), ref.data());
      EXPECT_TRUE(bitwise_equal(h.result(), ref))
          << "cycle " << c << " request " << r;
    }
  }
}

TEST(Serve, AsyncSingleRequestFallsBackWithinWindow) {
  ThreadPool pool(2);
  ServeEngine engine(pool, ServeOptions{.max_batch = 8,
                                        .coalescing_window_us = 1000,
                                        .async = true});
  const Coo<double> a = test_matrix();
  const MatrixInfo info = engine.register_matrix(a);

  // One lone request: no batch can form, so after the bounded window it is
  // flushed through the task graph as a k = 1 batch.
  serve::RequestHandle h =
      engine.submit(info.id, "tenantF", make_x(a.num_cols(), 3));
  h.wait();
  ASSERT_EQ(h.status(), RequestStatus::kDone);
  EXPECT_EQ(h.served_batch_k(), 1);
  EXPECT_GT(h.virtual_finish_seconds(), 0.0);

  const CrsdMatrix<double>& m = engine.matrix(info.id);
  const std::vector<double> x = make_x(a.num_cols(), 3);
  std::vector<double> ref(static_cast<std::size_t>(a.num_rows()));
  m.spmv(x.data(), ref.data());
  EXPECT_TRUE(bitwise_equal(h.result(), ref));
}

TEST(Serve, AsyncShutdownFlushesLoneRequestsAndFullBatches) {
  // Two matrices, lone requests and a full batch inside one coalescing
  // window, and the engine destroyed right after the last submit: the
  // shutdown flush must serve every request before the registry goes.
  ThreadPool pool(2);
  auto engine = std::make_unique<ServeEngine>(
      pool, ServeOptions{.max_batch = 8,
                         .coalescing_window_us = 20000,
                         .async = true});
  Rng rng(5);
  Coo<double> b = dense_band(160, 3);
  inject_scatter(b, 24, rng);
  const Coo<double> a = test_matrix();
  const MatrixId ids[] = {engine->register_matrix(a).id,
                          engine->register_matrix(b).id};
  ASSERT_NE(ids[0], ids[1]);

  // One request for b, nine for a (a full batch plus a lone leftover),
  // then a second one for b; request i uses seed i.
  const int which[] = {1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1};
  std::vector<std::vector<double>> refs;
  std::vector<serve::RequestHandle> handles;
  for (int i = 0; i < 11; ++i) {
    const CrsdMatrix<double>& m = engine->matrix(ids[which[i]]);
    std::vector<double> x = make_x(m.num_cols(), i);
    refs.emplace_back(static_cast<std::size_t>(m.num_rows()));
    m.spmv_scalar(x.data(), refs.back().data());
    handles.push_back(engine->submit(ids[which[i]], "tenantS", std::move(x)));
  }
  engine.reset();

  for (std::size_t i = 0; i < handles.size(); ++i) {
    ASSERT_EQ(handles[i].status(), RequestStatus::kDone) << "request " << i;
    EXPECT_TRUE(bitwise_equal(handles[i].result(), refs[i])) << "request " << i;
  }
}

}  // namespace
}  // namespace crsd
