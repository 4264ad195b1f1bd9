// Shared plumbing for the benchmark workloads: run arguments, private cold
// caches, statistics, the result report (human-readable lines plus the
// final one-line JSON object), and provenance.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Clock labels every reported figure carries.
inline constexpr const char* kHostWall = "host-wall";
inline constexpr const char* kSimC2050 = "sim-c2050";
inline constexpr const char* kCount = "count";
inline constexpr const char* kModel = "model-vs-host-wall";

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string trace_out;  ///< Chrome-trace path (traced runs)
  std::string scratch;    ///< parent directory for the private caches
};

/// Private, empty JIT / tuning caches and compiler temp directory for one
/// run. Points $CRSD_JIT_CACHE, $CRSD_TUNE_CACHE and $TMPDIR at fresh
/// directories under `parent` and removes them on destruction.
class PrivateCaches {
 public:
  explicit PrivateCaches(const std::string& parent);
  ~PrivateCaches();
  PrivateCaches(const PrivateCaches&) = delete;
  PrivateCaches& operator=(const PrivateCaches&) = delete;

  /// A fresh, empty JIT cache directory for one cold setup.
  std::string fresh_jit_dir();

 private:
  std::string root_;
  int next_ = 0;
};

// ---- statistics -----------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double geomean(const std::vector<double>& v);
/// num / den, or 0 when nothing was counted (den == 0).
inline double ratio_or_zero(double num, double den) {
  return den > 0 ? num / den : 0.0;
}
double peak_rss_mb();

// ---- report ---------------------------------------------------------------

struct Figure {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string clock;
};

class Report {
 public:
  /// End-to-end metric: in the JSON of an untraced run.
  void e2e(const std::string& name, double value, const std::string& unit,
           const std::string& clock);
  /// Per-layer metric: in the JSON of a traced run.
  void layer(const std::string& name, double value, const std::string& unit,
             const std::string& clock);
  /// Printed by name, not part of the JSON metric set.
  void info(const std::string& name, double value, const std::string& unit,
            const std::string& clock);
  /// Free-form provenance entry (printed and written as JSON strings).
  void provenance(const std::string& key, const std::string& value);

  /// Counts one operation; `ok` false marks it failed (rejected, failed or
  /// a wrong result).
  void attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Marks the run's outputs wrong (exit code 1).
  void wrong(const std::string& what);
  bool correct() const { return wrong_.empty(); }

  /// Prints every figure by name with unit and clock, the provenance, and
  /// the final JSON line. Returns the process exit code.
  int finish(bool traced) const;

 private:
  std::vector<Figure> e2e_, layer_, info_;
  std::vector<std::pair<std::string, std::string>> prov_;
  std::vector<std::string> wrong_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// Every per-layer metric, one field each. A layer a workload does not
/// call reports 0 (its time, count or share on that workload really is 0).
/// All times are per repetition of the workload's unit of work (one setup
/// and solve, one pass over the ingest set, one serve run).
struct LayerFigures {
  double core_build_s = 0, core_plan_s = 0, core_bytes_per_nnz = 0,
         core_fill_ratio = 0, core_patterns = 0, core_scatter_rows = 0;
  double codegen_jit_s = 0, codegen_source_kb = 0, codegen_cache_hits = 0;
  double kernels_spmv_ms = 0, kernels_spmv_gbs_computed = 0,
         kernels_spmv_share = 0, kernels_scalar_1t_ms = 0,
         kernels_speedup_vs_scalar_1t = 0;
  double solver_iterations = 0, solver_self_s = 0, solver_rel_residual = 0;
  double serve_register_s = 0, serve_submit_us_p50 = 0,
         serve_submit_us_p99 = 0, serve_batch_k_mean = 0,
         serve_coalesced_frac = 0, serve_rejected = 0,
         serve_gen_late_ms_p99 = 0;
  double gpusim_sim_us = 0, gpusim_dram_bytes = 0, gpusim_cache_hit_frac = 0,
         gpusim_host_s = 0, gpusim_sim_gflops = 0;
  double perf_cpu_model_rel_error = 0;
  double obs_trace_overhead_frac = 0;
};

/// Adds every LayerFigures field as a per-layer metric, plus the span
/// tree's self time per layer as printed figures. The serve fields are
/// reported only by the serve workload (`serve` true).
void report_layers(Report& r, const LayerFigures& f, bool serve = false);

/// Provenance shared by all workloads: compiler, flags, JIT flags, nproc,
/// cache sizes, seed.
void add_common_provenance(Report& r, const Args& a);

// ---- workloads ------------------------------------------------------------

void run_solve_cg27(const Args& a, PrivateCaches& caches, Report& r);
void run_serve_open(const Args& a, PrivateCaches& caches, Report& r);
void run_ingest_cold(const Args& a, PrivateCaches& caches, Report& r);

}  // namespace perfbench
