// Workload ingest-cold: for each of seven suite matrices at scale 0.05,
// with empty caches, COO in memory -> build -> plan -> JIT -> first y
// (compared bitwise with CrsdMatrix::spmv_scalar) -> steady single-thread
// JIT SpMV -> one simulated Tesla C2050 launch (kernels::spmv on gpusim).
// Build and codegen do nearly all the work here; the kernels almost none.
// x is drawn from the seed.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "matrix/paper_suite.hpp"
#include "perf/cpu_model.hpp"
#include "pipeline.hpp"
#include "report.hpp"

namespace perfbench {
namespace {

constexpr double kScale = 0.05;
constexpr int kThreads = 4;
// Paper-suite ids: ecology1, kim2, nemeth21, s110_110_68, Lin, wang3,
// us80_80_50 — 1 to 21 diagonal patterns, 13 to 65 KB of codelet source.
constexpr int kMatrices[] = {5, 10, 15, 20, 14, 7, 21};
// Passes over the set per run, at least: setup_s is the median of the
// passes' set-up sums.
constexpr int kMinPasses = 2;
// Steady SpMV: at least this many calls and this much time per matrix.
constexpr int kSteadyCalls = 1000;
constexpr double kSteadySeconds = 0.5;

/// Per-call wall times of the steady JIT SpMV, with or without spans.
std::vector<double> steady_calls(const Prepared& p, const double* x,
                                 double* y) {
  std::vector<double> t;
  const std::uint64_t t0 = now_ns();
  while (t.size() < kSteadyCalls || seconds_since(t0) < kSteadySeconds) {
    Span s("kernels.spmv");
    const std::uint64_t c = now_ns();
    p.kernel->spmv(p.m, x, y);
    t.push_back(seconds_since(c));
  }
  return t;
}

struct MatrixResult {
  std::string name;
  double setup_s = 0, coo_to_y_s = 0;
  double build_s = 0, plan_s = 0, jit_s = 0;
  double call_p50_s = 0, call_p99_s = 0;
  double plain_call_p50_s = 0, traced_call_p50_s = 0;  // traced runs only
  double scalar_s = 0, model_s = 0;
  SimLaunch sim;
  double footprint = 0, nnz = 0, rows = 0, slots = 0, filled = 0;
  double patterns = 0, scatter_rows = 0, source_bytes = 0;
  int jit_cache_hits = 0;
};

}  // namespace

void run_ingest_cold(const Args& args, PrivateCaches& caches, Report& r) {
  std::uint64_t t = now_ns();
  std::vector<crsd::Coo<double>> coos;
  std::vector<std::vector<double>> xs;
  crsd::Rng rng(args.seed * 0x9e3779b97f4a7c15ull + 101);
  std::size_t working_set = 0;
  for (int id : kMatrices) {
    coos.push_back(crsd::paper_matrix(id).generate(kScale));
    std::vector<double> x(static_cast<std::size_t>(coos.back().num_cols()));
    for (double& v : x) v = rng.next_double(-1.0, 1.0);
    xs.push_back(std::move(x));
  }
  r.info("input_gen_s", seconds_since(t), "s", kHostWall);
  crsd::ThreadPool pool(kThreads);

  std::vector<std::vector<MatrixResult>> passes;
  // Steady per-call times pooled over every pass, per matrix.
  std::vector<std::vector<double>> calls(coos.size());
  const std::uint64_t loop0 = now_ns();
  for (int pass = 0; pass < kMinPasses || seconds_since(loop0) < args.seconds;
       ++pass) {
    std::vector<MatrixResult> res;
    for (std::size_t i = 0; i < coos.size(); ++i) {
      const crsd::Coo<double>& a = coos[i];
      const std::vector<double>& x = xs[i];
      const std::string name = crsd::paper_matrix(kMatrices[i]).name;
      MatrixResult mr;
      mr.name = name;
      tracer().set_enabled(args.trace);
      const std::uint64_t t0 = now_ns();
      const Prepared p = prepare_cold(a, pool, caches.fresh_jit_dir());
      mr.setup_s = seconds_since(t0);
      mr.build_s = p.build_s;
      mr.plan_s = p.plan_s;
      mr.jit_s = p.jit_s;
      mr.jit_cache_hits = p.cache_hits;
      if (p.cache_hits != 0) r.wrong(name + ": JIT cache hit in a cold setup");
      if (!p.kernel) {
        r.attempt(false);
        r.wrong(name + ": codelet lint rejected the generated source");
        continue;
      }
      std::vector<double> y(static_cast<std::size_t>(a.num_rows()));
      std::vector<double> ref(y.size());
      {
        Span s("kernels.first_spmv");
        p.kernel->spmv(p.m, x.data(), y.data());
      }
      {
        Span s("bench.verify");
        p.m.spmv_scalar(x.data(), ref.data());
      }
      mr.coo_to_y_s = seconds_since(t0);
      const bool same =
          std::memcmp(y.data(), ref.data(), y.size() * sizeof(double)) == 0;
      r.attempt(same);
      if (!same) r.wrong(name + ": JIT y differs bitwise from spmv_scalar");

      tracer().set_enabled(false);
      const std::vector<double> steady = steady_calls(p, x.data(), y.data());
      calls[i].insert(calls[i].end(), steady.begin(), steady.end());

      // Simulated Tesla C2050 launch of the same container.
      tracer().set_enabled(args.trace);
      mr.sim = simulate_c2050(p.m, x.data(), ref, pool);
      r.attempt(mr.sim.ok);
      if (!mr.sim.ok) r.wrong(name + ": simulated launch y differs from spmv");

      if (args.trace) {
        // Untraced and traced steady calls back to back, for the overhead.
        tracer().set_enabled(false);
        mr.plain_call_p50_s = median(steady_calls(p, x.data(), y.data()));
        tracer().set_enabled(true);
        mr.traced_call_p50_s = median(steady_calls(p, x.data(), y.data()));
        tracer().set_enabled(false);
        std::vector<double> sc;
        for (int k = 0; k < 5; ++k) {
          const std::uint64_t c = now_ns();
          p.m.spmv_scalar(x.data(), ref.data());
          sc.push_back(seconds_since(c));
        }
        mr.scalar_s = median(sc);
      }
      tracer().set_enabled(false);

      const crsd::CrsdStats st = p.m.stats();
      mr.footprint = double(p.m.footprint_bytes());
      mr.nnz = double(a.nnz());
      mr.rows = double(a.num_rows());
      mr.slots = double(st.dia_slots);
      mr.filled = double(st.dia_slots - st.dia_nnz);
      mr.patterns = st.num_patterns;
      mr.scatter_rows = st.num_scatter_rows;
      mr.source_bytes = double(p.source_bytes);
      mr.model_s = crsd::perf::cpu_spmv_seconds(
          crsd::perf::CpuSystemSpec{},
          crsd::perf::crsd_sweep_cost(st, a.num_rows(), sizeof(double)), 1,
          true);
      if (pass == 0) {
        working_set = std::max<std::size_t>(
            working_set, p.m.footprint_bytes() + 2 * sizeof(double) * y.size());
      }
      res.push_back(mr);
    }
    passes.push_back(std::move(res));
    if (!r.correct()) break;
  }
  r.provenance("working_set_bytes", std::to_string(working_set) +
                                        " (largest matrix of the set)");
  if (!r.correct()) return;

  // Sums over the set per pass (median over passes), and per-matrix
  // figures as the geometric mean over the set (from the last pass).
  auto per_pass = [&](double MatrixResult::*f) {
    std::vector<double> sums;
    for (const auto& pr : passes) {
      double s = 0;
      for (const MatrixResult& m : pr) s += m.*f;
      sums.push_back(s);
    }
    return median(sums);
  };
  std::vector<MatrixResult>& last = passes.back();
  for (std::size_t i = 0; i < last.size(); ++i) {
    last[i].call_p50_s = median(calls[i]);
    last[i].call_p99_s = quantile(calls[i], 0.99);
  }
  auto geo = [&](auto fn) {
    std::vector<double> v;
    for (const MatrixResult& m : last) v.push_back(fn(m));
    return geomean(v);
  };
  auto total = [&](auto fn) {
    double s = 0;
    for (const MatrixResult& m : last) s += fn(m);
    return s;
  };

  r.e2e("setup_s", per_pass(&MatrixResult::setup_s), "s", kHostWall);
  r.e2e("result_p50_ms", geo([](auto& m) { return m.call_p50_s; }) * 1e3,
        "ms", kHostWall);
  r.info("call_p99_ms", geo([](auto& m) { return m.call_p99_s; }) * 1e3,
         "ms", kHostWall);
  r.e2e("spmv_gflops",
        geo([](auto& m) { return 2.0 * m.nnz / m.call_p50_s; }) * 1e-9,
        "GFLOP/s", kHostWall);
  r.e2e("peak_rss_mb", peak_rss_mb(), "MB", kHostWall);
  r.info("coo_to_y_s", per_pass(&MatrixResult::coo_to_y_s), "s", kHostWall);
  r.info("sim_gflops", geo([](auto& m) { return m.sim.gflops; }), "GFLOP/s",
         kSimC2050);
  r.info("passes", double(passes.size()), "count", kCount);
  for (const MatrixResult& m : last) {
    r.info("ingest." + m.name + ".setup_s", m.setup_s, "s", kHostWall);
  }
  if (!args.trace) return;

  LayerFigures L;
  L.core_build_s = per_pass(&MatrixResult::build_s);
  L.core_plan_s = per_pass(&MatrixResult::plan_s);
  L.core_bytes_per_nnz = total([](auto& m) { return m.footprint; }) /
                         total([](auto& m) { return m.nnz; });
  L.core_fill_ratio = total([](auto& m) { return m.filled; }) /
                      total([](auto& m) { return m.slots; });
  L.core_patterns = total([](auto& m) { return m.patterns; });
  L.core_scatter_rows = total([](auto& m) { return m.scatter_rows; });
  L.codegen_jit_s = per_pass(&MatrixResult::jit_s);
  L.codegen_source_kb = total([](auto& m) { return m.source_bytes; }) / 1024;
  for (const auto& pr : passes) {
    for (const MatrixResult& m : pr) L.codegen_cache_hits += m.jit_cache_hits;
  }
  L.kernels_spmv_ms =
      geo([](auto& m) { return m.traced_call_p50_s; }) * 1e3;
  // Computed traffic: the stored format streamed once plus x read and y
  // written once per sweep.
  L.kernels_spmv_gbs_computed =
      geo([](auto& m) {
        return (m.footprint + 2.0 * sizeof(double) * m.rows) /
               m.traced_call_p50_s;
      }) *
      1e-9;
  L.kernels_scalar_1t_ms = geo([](auto& m) { return m.scalar_s; }) * 1e3;
  L.kernels_speedup_vs_scalar_1t =
      geo([](auto& m) { return m.scalar_s / m.plain_call_p50_s; });
  L.gpusim_sim_us = total([](auto& m) { return m.sim.sim_s; }) * 1e6;
  L.gpusim_dram_bytes = total([](auto& m) { return m.sim.dram_bytes; });
  L.gpusim_cache_hit_frac =
      ratio_or_zero(total([](auto& m) { return m.sim.cache_hits; }),
                    total([](auto& m) { return m.sim.cache_lookups; }));
  L.gpusim_host_s = total([](auto& m) { return m.sim.host_s; });
  L.gpusim_sim_gflops = geo([](auto& m) { return m.sim.gflops; });
  L.perf_cpu_model_rel_error = geo([](auto& m) {
    return std::abs(m.model_s - m.plain_call_p50_s) / m.plain_call_p50_s;
  });
  L.obs_trace_overhead_frac =
      geo([](auto& m) { return m.traced_call_p50_s / m.plain_call_p50_s; }) -
      1.0;
  report_layers(r, L);
}

}  // namespace perfbench
