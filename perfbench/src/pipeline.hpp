// The cold setup path shared by solve-cg27 and ingest-cold: COO in memory
// -> crsd::build -> ExecPlan::inspect -> codegen::make_jit_kernel, each call
// wrapped in its layer's span and timed on the host wall clock. The JIT
// compiler gets a fresh, empty cache directory every time, so every setup
// pays the full compile.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "codegen/crsd_jit_kernel.hpp"
#include "common/thread_pool.hpp"
#include "core/build_api.hpp"
#include "core/exec_plan.hpp"
#include "gpusim/device.hpp"
#include "kernels/gpu_spmv.hpp"
#include "matrix/coo.hpp"
#include "span_trace.hpp"

namespace perfbench {

struct Prepared {
  crsd::CrsdMatrix<double> m;
  crsd::ExecPlan<double> plan;
  std::optional<crsd::codegen::CrsdJitKernel<double>> kernel;
  double build_s = 0, plan_s = 0, jit_s = 0;
  int cache_hits = 0;
  std::size_t source_bytes = 0;
};

/// Builds, inspects and JIT-compiles `a` on `pool`. The kernel is empty when
/// the codelet lint rejected the generated source.
inline Prepared prepare_cold(const crsd::Coo<double>& a,
                             crsd::ThreadPool& pool,
                             const std::string& jit_dir) {
  Prepared p;
  Span setup("setup");
  std::uint64_t t = now_ns();
  {
    Span s("core.build");
    crsd::BuildOptions opts;
    opts.config.threads = pool.num_threads();
    p.m = crsd::build(a, opts, &pool);
  }
  p.build_s = seconds_since(t);
  t = now_ns();
  {
    Span s("core.plan");
    crsd::ExecPlanOptions popts;
    popts.num_threads = pool.num_threads();
    p.plan = crsd::ExecPlan<double>::inspect(p.m, popts);
  }
  p.plan_s = seconds_since(t);
  t = now_ns();
  {
    Span s("codegen.jit");
    crsd::codegen::JitCompiler::Options jopts;
    jopts.cache_dir = jit_dir;
    crsd::codegen::JitCompiler compiler(jopts);
    p.kernel = crsd::codegen::make_jit_kernel(p.m, compiler);
    p.cache_hits = compiler.cache_hits();
    if (p.kernel) p.source_bytes = p.kernel->source().size();
  }
  p.jit_s = seconds_since(t);
  return p;
}

/// One simulated Tesla C2050 launch of `m` (kernels::spmv on gpusim),
/// with its counters and the host time the simulation took.
struct SimLaunch {
  double sim_s = 0, gflops = 0, host_s = 0;
  double dram_bytes = 0, cache_hits = 0, cache_lookups = 0;
  bool ok = false;  ///< y within 1e-12 (relative to max |ref|) of `ref`
};

inline SimLaunch simulate_c2050(const crsd::CrsdMatrix<double>& m,
                                const double* x,
                                const std::vector<double>& ref,
                                crsd::ThreadPool& pool) {
  std::vector<double> y(ref.size());
  crsd::gpusim::Device dev(crsd::gpusim::DeviceSpec::tesla_c2050());
  SimLaunch s;
  const std::uint64_t t0 = now_ns();
  crsd::gpusim::LaunchResult lr;
  {
    Span span("gpusim.launch");
    lr = crsd::kernels::spmv(dev, m, x, y.data(), {}, &pool);
  }
  s.host_s = seconds_since(t0);
  s.sim_s = lr.seconds;
  s.gflops = lr.gflops(m.nnz());
  s.dram_bytes = double(lr.counters.total_global_bytes());
  s.cache_hits = double(lr.counters.cache_hits);
  s.cache_lookups = double(lr.counters.cache_hits + lr.counters.cache_misses);
  double max_err = 0, max_ref = 0;
  for (std::size_t k = 0; k < ref.size(); ++k) {
    max_err = std::max(max_err, std::abs(y[k] - ref[k]));
    max_ref = std::max(max_ref, std::abs(ref[k]));
  }
  s.ok = max_err <= 1e-12 * std::max(1.0, max_ref);
  return s;
}

}  // namespace perfbench
