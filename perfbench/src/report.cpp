#include "report.hpp"

#include "span_trace.hpp"

#include <cpuid.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>

namespace fs = std::filesystem;

namespace perfbench {

PrivateCaches::PrivateCaches(const std::string& parent) {
  fs::create_directories(parent);
  std::string tmpl = (fs::path(parent) / "run-XXXXXX").string();
  if (mkdtemp(tmpl.data()) == nullptr) {
    throw std::runtime_error("cannot create a private cache directory in " +
                             parent);
  }
  root_ = fs::absolute(tmpl).string();
  for (const char* sub : {"jit", "tune", "tmp"}) {
    fs::create_directories(fs::path(root_) / sub);
  }
  setenv("CRSD_JIT_CACHE", (fs::path(root_) / "jit").c_str(), 1);
  setenv("CRSD_TUNE_CACHE", (fs::path(root_) / "tune").c_str(), 1);
  setenv("TMPDIR", (fs::path(root_) / "tmp").c_str(), 1);
}

PrivateCaches::~PrivateCaches() {
  std::error_code ec;
  fs::remove_all(root_, ec);
}

std::string PrivateCaches::fresh_jit_dir() {
  const fs::path dir =
      fs::path(root_) / "jit" / ("setup-" + std::to_string(next_++));
  fs::create_directories(dir);
  return dir.string();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += std::log(x);
  return std::exp(s / double(v.size()));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void Report::e2e(const std::string& name, double value,
                 const std::string& unit, const std::string& clock) {
  e2e_.push_back({name, value, unit, clock});
}
void Report::layer(const std::string& name, double value,
                   const std::string& unit, const std::string& clock) {
  layer_.push_back({name, value, unit, clock});
}
void Report::info(const std::string& name, double value,
                  const std::string& unit, const std::string& clock) {
  info_.push_back({name, value, unit, clock});
}
void Report::provenance(const std::string& key, const std::string& value) {
  prov_.emplace_back(key, value);
}
void Report::wrong(const std::string& what) {
  std::fprintf(stderr, "perfbench: WRONG RESULT: %s\n", what.c_str());
  wrong_.push_back(what);
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void print_figures(const char* kind, const std::vector<Figure>& fs) {
  for (const Figure& f : fs) {
    std::printf("%-9s %-34s %16.9g %-8s [%s]\n", kind, f.name.c_str(),
                f.value, f.unit.c_str(), f.clock.c_str());
  }
}

}  // namespace

int Report::finish(bool traced) const {
  std::printf("provenance {");
  for (std::size_t i = 0; i < prov_.size(); ++i) {
    std::printf("%s\"%s\": \"%s\"", i == 0 ? "" : ", ",
                json_escape(prov_[i].first).c_str(),
                json_escape(prov_[i].second).c_str());
  }
  std::printf("}\n");
  print_figures("e2e", e2e_);
  print_figures("info", info_);
  print_figures("layer", layer_);
  const double failed_frac =
      attempted_ == 0 ? 0.0 : double(failed_) / double(attempted_);
  std::printf("%-9s %-34s %16.9g %-8s [%s]\n", "e2e", "failed_frac",
              failed_frac, "ratio", kCount);

  bool ok = correct() && attempted_ >= 1;
  const std::vector<Figure>& out = traced ? layer_ : e2e_;
  std::string metrics;
  char buf[128];
  for (const Figure& f : out) {
    if (!std::isfinite(f.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   f.name.c_str());
      ok = false;
      continue;
    }
    std::snprintf(buf, sizeof buf, "%.17g", f.value);
    metrics += (metrics.empty() ? "" : ", ") + std::string("\"") + f.name +
               "\": {\"value\": " + buf + ", \"unit\": \"" + f.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      ok ? "true" : "false", static_cast<long long>(attempted_),
      static_cast<long long>(failed_), metrics.c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

void report_layers(Report& r, const LayerFigures& f, bool serve) {
  r.layer("core.build_s", f.core_build_s, "s", kHostWall);
  r.layer("core.plan_s", f.core_plan_s, "s", kHostWall);
  r.layer("core.bytes_per_nnz", f.core_bytes_per_nnz, "B/nnz", kCount);
  r.layer("core.fill_ratio", f.core_fill_ratio, "ratio", kCount);
  r.layer("core.patterns", f.core_patterns, "count", kCount);
  r.layer("core.scatter_rows", f.core_scatter_rows, "count", kCount);
  r.layer("codegen.jit_s", f.codegen_jit_s, "s", kHostWall);
  r.layer("codegen.source_kb", f.codegen_source_kb, "KiB", kCount);
  r.layer("codegen.cache_hits", f.codegen_cache_hits, "count", kCount);
  r.layer("kernels.spmv_ms", f.kernels_spmv_ms, "ms", kHostWall);
  r.layer("kernels.spmv_gbs_computed", f.kernels_spmv_gbs_computed, "GB/s",
          kHostWall);
  r.layer("kernels.spmv_share", f.kernels_spmv_share, "ratio", kHostWall);
  r.layer("kernels.scalar_1t_ms", f.kernels_scalar_1t_ms, "ms", kHostWall);
  r.layer("kernels.speedup_vs_scalar_1t", f.kernels_speedup_vs_scalar_1t,
          "ratio", kHostWall);
  r.layer("solver.iterations", f.solver_iterations, "count", kCount);
  r.layer("solver.self_s", f.solver_self_s, "s", kHostWall);
  r.layer("solver.rel_residual", f.solver_rel_residual, "ratio", kCount);
  if (serve) {
    r.layer("serve.register_s", f.serve_register_s, "s", kHostWall);
    r.layer("serve.submit_us_p50", f.serve_submit_us_p50, "us", kHostWall);
    r.layer("serve.submit_us_p99", f.serve_submit_us_p99, "us", kHostWall);
    r.layer("serve.batch_k_mean", f.serve_batch_k_mean, "count", kCount);
    r.layer("serve.coalesced_frac", f.serve_coalesced_frac, "ratio", kCount);
    r.layer("serve.rejected", f.serve_rejected, "count", kCount);
    r.layer("serve.gen_late_ms_p99", f.serve_gen_late_ms_p99, "ms",
            kHostWall);
  }
  r.layer("gpusim.sim_us", f.gpusim_sim_us, "us", kSimC2050);
  r.layer("gpusim.dram_bytes", f.gpusim_dram_bytes, "B", kSimC2050);
  r.layer("gpusim.cache_hit_frac", f.gpusim_cache_hit_frac, "ratio",
          kSimC2050);
  r.layer("gpusim.host_s", f.gpusim_host_s, "s", kHostWall);
  r.layer("gpusim.sim_gflops", f.gpusim_sim_gflops, "GFLOP/s", kSimC2050);
  r.layer("perf.cpu_model_rel_error", f.perf_cpu_model_rel_error, "ratio",
          kModel);
  r.layer("obs.trace_overhead_frac", f.obs_trace_overhead_frac, "ratio",
          kHostWall);
  for (const auto& [layer, s] : tracer().self_seconds_by_layer()) {
    r.info("self." + layer + "_s", s, "s", kHostWall);
  }
}

namespace {

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

std::string cpu_brand() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char s[49] = {};
  std::memcpy(s, regs, 48);
  std::string out(s);
  out.erase(0, out.find_first_not_of(' '));
  return out;
}

std::string kib(long bytes) {
  return bytes > 0 ? std::to_string(bytes / 1024) + " KiB" : "unknown";
}

}  // namespace

void add_common_provenance(Report& r, const Args& a) {
  r.provenance("workload", a.workload);
  r.provenance("seed", std::to_string(a.seed));
  r.provenance("seconds", std::to_string(a.seconds));
  r.provenance("traced", a.trace ? "1" : "0");
  r.provenance("git_sha", env_or("CRSD_PERFBENCH_GIT_SHA", "unknown"));
  r.provenance("source_digest",
               env_or("CRSD_PERFBENCH_SOURCE_DIGEST", "unknown"));
  r.provenance("compiler", CRSD_PERFBENCH_CXX);
  r.provenance("cxx_flags", CRSD_PERFBENCH_CXX_FLAGS);
  r.provenance("jit_compiler", env_or("CXX", "c++"));
  r.provenance("jit_flags",
               env_or("CRSD_JIT_FLAGS",
                      "-O3 -march=native -ffp-contract=off -shared -fPIC "
                      "-std=c++20 (library default)"));
  r.provenance("cpu", cpu_brand());
  r.provenance("nproc", std::to_string(std::thread::hardware_concurrency()));
  r.provenance("l2", kib(sysconf(_SC_LEVEL2_CACHE_SIZE)));
  r.provenance("l3", kib(sysconf(_SC_LEVEL3_CACHE_SIZE)));
  r.provenance("bandwidth_note",
               "GB/s figures are computed (bytes the format must stream / "
               "measured time), not measured traffic; the working sets do "
               "not exceed 4x the LLC, so no achieved-over-peak ratio is "
               "claimed");
  r.provenance("clocks",
               "host-wall = steady_clock on this host; sim-c2050 = gpusim "
               "timing model of a Tesla C2050; count = exact count; "
               "model-vs-host-wall = perf model error against host wall");
}

}  // namespace perfbench
