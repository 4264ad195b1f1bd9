// Task-graph runtime benchmark: multi-device sharded SpMV scaling and
// transfer/compute overlap on the paper suite, all on the simulator's
// deterministic virtual timeline (gpusim wall model + PCIe transfer model),
// so the reported makespans and the CI gates are noise-free.
//
// Per matrix: the sharded sweep runs on 1, 2, and 4 simulated C2050s, its
// merged y is asserted bitwise-identical to the single-device launch (the
// determinism contract of runtime/multi_device.hpp), and the JSON records
// makespan, per-engine busy time, scaling, and overlap efficiency.
//
// Suite rows at --scale are informational: at reduced size most matrices
// cannot fill even one device, so splitting them further has nothing to
// win (the occupancy model derates every shard). Two gate families make
// the binary exit non-zero on a miss (CI perf-smoke runs it as an
// assertion):
//
//  * dense band: the nemeth trio regenerated at 8x published rows —
//    enough segments that two devices stay saturated — must reach 2-device
//    scaling >= 1.5x and 1-device overlap efficiency >= 0.70;
//  * partially diagonal: a diagonal stripe over a ragged scattered-row
//    tail (matrix/generators.hpp partially_diagonal). Sharded over 4
//    devices with resident vectors, it must reach a geomean >= 1.46x over
//    the one-device CRSD launch, bitwise-identical on every member. This
//    is multi-device *scaling*, not a format win: both sides run the same
//    container on the same simulated device model.
//
// Writes BENCH_taskgraph.json (path overridable via CRSD_BENCH_OUT).
//
// Usage: bench_taskgraph [--scale S] [--mrows M] [--matrix ID]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/build_api.hpp"
#include "kernels/crsd_gpu.hpp"
#include "matrix/generators.hpp"
#include "matrix/paper_suite.hpp"
#include "runtime/multi_device.hpp"
#include "suite_runner.hpp"

namespace crsd::bench {
namespace {

constexpr double kGateMinScaling2 = 1.5;
constexpr double kGateMinOverlap = 0.70;
constexpr int kFamilyDevices = 4;
constexpr double kGateMinFamilyScaling = 1.46;

struct TaskGraphRow {
  int id = 0;  ///< paper-suite id; -1 for the synthetic gate rows
  std::string name;
  bool gate_row = false;
  index_t rows = 0;
  size64_t nnz = 0;
  double t1 = 0.0, t2 = 0.0, t4 = 0.0;  ///< makespan by device count
  double overlap1 = 0.0;                ///< 1-device overlap efficiency
  double h2d = 0.0, compute = 0.0, d2h = 0.0, reduce = 0.0;  ///< 1-device
  bool bitwise_ok = true;

  double scaling2() const { return t2 > 0.0 ? t1 / t2 : 0.0; }
  double scaling4() const { return t4 > 0.0 ? t1 / t4 : 0.0; }
};

/// Runs one matrix through 1/2/4 devices and fills a row. `y_ref` is the
/// single-device full-range launch the sharded sweeps must reproduce
/// bit for bit.
TaskGraphRow run_matrix(const Coo<double>& a, int id, const std::string& name,
                        bool gate_row, index_t mrows, ThreadPool& pool) {
  TaskGraphRow r;
  r.id = id;
  r.name = name;
  r.gate_row = gate_row;
  r.rows = a.num_rows();
  r.nnz = a.nnz();

  CrsdConfig cfg;
  cfg.mrows = mrows;
  const auto m = build(a, cfg);

  std::vector<double> x(static_cast<std::size_t>(a.num_cols()));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 1.0 + 0.001 * double(i % 97);
  }
  std::vector<double> y_ref(static_cast<std::size_t>(a.num_rows()));
  gpusim::Device ref_dev(gpusim::DeviceSpec::tesla_c2050());
  kernels::gpu_spmv_crsd(ref_dev, m, x.data(), y_ref.data());

  for (int nd : {1, 2, 4}) {
    std::vector<gpusim::Device> devs(
        static_cast<std::size_t>(nd),
        gpusim::Device(gpusim::DeviceSpec::tesla_c2050()));
    std::vector<gpusim::Device*> dev_ptrs;
    for (auto& d : devs) dev_ptrs.push_back(&d);

    const rt::MultiDeviceSpmv<double> engine(m, nd);
    std::vector<double> y(static_cast<std::size_t>(a.num_rows()), -1.0);
    const rt::MultiDeviceResult res =
        engine.run(dev_ptrs, x.data(), y.data(), pool);

    for (std::size_t i = 0; i < y.size(); ++i) {
      if (y[i] != y_ref[i]) {
        r.bitwise_ok = false;
        break;
      }
    }
    if (nd == 1) {
      r.t1 = res.makespan_seconds;
      r.overlap1 = res.overlap_efficiency;
      r.h2d = res.h2d_seconds;
      r.compute = res.compute_seconds;
      r.d2h = res.d2h_seconds;
      r.reduce = res.reduce_seconds;
    } else if (nd == 2) {
      r.t2 = res.makespan_seconds;
    } else {
      r.t4 = res.makespan_seconds;
    }
  }
  return r;
}

/// Partially diagonal family member; fixed seed per member.
struct FamilySpec {
  const char* name;
  index_t top_rows;
  index_t bottom_rows;
  index_t band;         ///< extra diagonal pair at +/- band in the stripe
  index_t max_row_nnz;  ///< ragged tail widths in [4, max_row_nnz)
  std::uint64_t seed;
};

struct FamilyRow {
  std::string name;
  index_t rows = 0;
  size64_t nnz = 0;
  index_t scatter_rows = 0;
  double t_crsd = 0.0;     ///< one-device CRSD launch
  double t_sharded = 0.0;  ///< kFamilyDevices shards, resident vectors
  bool bitwise_ok = false;

  double scaling() const { return t_sharded > 0.0 ? t_crsd / t_sharded : 0.0; }
};

/// One family member with the default CRSD build: the one-device launch
/// against the resident-vector sharded sweep of the same container.
FamilyRow run_family_member(const FamilySpec& fs, ThreadPool& pool) {
  FamilyRow r;
  r.name = fs.name;
  Rng rng(fs.seed);
  const auto a = partially_diagonal(fs.top_rows, fs.bottom_rows, fs.band,
                                    fs.max_row_nnz, rng);
  r.rows = a.num_rows();
  r.nnz = a.nnz();
  const auto m = build(a, CrsdConfig{});
  r.scatter_rows = m.num_scatter_rows();

  std::vector<double> x(static_cast<std::size_t>(a.num_cols()));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 1.0 + 0.001 * double(i % 97);
  }
  std::vector<double> y_ref(static_cast<std::size_t>(a.num_rows()));
  gpusim::Device ref_dev(gpusim::DeviceSpec::tesla_c2050());
  r.t_crsd = kernels::gpu_spmv_crsd(ref_dev, m, x.data(), y_ref.data())
                 .seconds;

  std::vector<gpusim::Device> devs(
      static_cast<std::size_t>(kFamilyDevices),
      gpusim::Device(gpusim::DeviceSpec::tesla_c2050()));
  std::vector<gpusim::Device*> dev_ptrs;
  for (auto& d : devs) dev_ptrs.push_back(&d);
  rt::MultiDeviceOptions mopts;
  mopts.transfer_vectors = false;
  const rt::MultiDeviceSpmv<double> engine(m, kFamilyDevices, mopts);
  std::vector<double> y(y_ref.size(), -1.0);
  r.t_sharded = engine.run(dev_ptrs, x.data(), y.data(), pool)
                    .makespan_seconds;
  r.bitwise_ok = y == y_ref;
  return r;
}

void write_json(const std::vector<TaskGraphRow>& rows,
                const std::vector<FamilyRow>& family,
                const SuiteOptions& opts, double min_scaling2,
                double min_overlap, double family_geomean, bool all_bitwise,
                bool gate_pass, const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"taskgraph\",\n  \"precision\": \"double\",\n"
      << "  \"scale\": " << opts.scale << ",\n  \"mrows\": " << opts.mrows
      << ",\n  \"device\": \"tesla_c2050 (simulated)\",\n"
      << "  \"matrices\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"id\": %d, \"name\": \"%s\", \"gate_row\": %s, "
        "\"rows\": %lld, \"nnz\": %llu, \"t1\": %.4e, \"t2\": %.4e, "
        "\"t4\": %.4e, \"scaling_2\": %.3f, \"scaling_4\": %.3f, "
        "\"overlap_1dev\": %.3f, \"h2d\": %.4e, \"compute\": %.4e, "
        "\"d2h\": %.4e, \"reduce\": %.4e, \"bitwise_ok\": %s}%s\n",
        r.id, r.name.c_str(), r.gate_row ? "true" : "false",
        static_cast<long long>(r.rows),
        static_cast<unsigned long long>(r.nnz), r.t1, r.t2, r.t4,
        r.scaling2(), r.scaling4(), r.overlap1, r.h2d, r.compute, r.d2h,
        r.reduce, r.bitwise_ok ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n  \"partially_diagonal\": [\n";
  for (std::size_t i = 0; i < family.size(); ++i) {
    const auto& r = family[i];
    char buf[384];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"name\": \"%s\", \"rows\": %lld, \"nnz\": %llu, "
        "\"scatter_rows\": %lld, \"t_crsd_1dev\": %.4e, "
        "\"t_resident_%ddev\": %.4e, \"scaling\": %.3f, "
        "\"bitwise_ok\": %s}%s\n",
        r.name.c_str(), static_cast<long long>(r.rows),
        static_cast<unsigned long long>(r.nnz),
        static_cast<long long>(r.scatter_rows), r.t_crsd, kFamilyDevices,
        r.t_sharded, r.scaling(), r.bitwise_ok ? "true" : "false",
        i + 1 < family.size() ? "," : "");
    out << buf;
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  ],\n  \"summary\": {\"gate_family\": \"dense band @ 8x\", "
                "\"min_scaling_2\": %.3f, \"gate_min_scaling_2\": %.2f, "
                "\"min_overlap_1dev\": %.3f, \"gate_min_overlap\": %.2f, "
                "\"partially_diagonal_geomean_scaling_%ddev\": %.3f, "
                "\"gate_min_partially_diagonal_geomean\": %.2f, "
                "\"all_bitwise\": %s, \"gate_pass\": %s}\n}\n",
                min_scaling2, kGateMinScaling2, min_overlap, kGateMinOverlap,
                kFamilyDevices, family_geomean, kGateMinFamilyScaling,
                all_bitwise ? "true" : "false", gate_pass ? "true" : "false");
  out << buf;
}

}  // namespace
}  // namespace crsd::bench

int main(int argc, char** argv) {
  using namespace crsd;
  using namespace crsd::bench;
  const auto opts = SuiteOptions::parse(argc, argv);

  std::printf("== Task-graph runtime: multi-device sharded SpMV scaling and "
              "overlap (virtual timeline) ==\n");
  std::printf("scale %.3f, mrows %d\n\n", opts.scale, opts.mrows);
  std::printf("%3s %-16s %9s %11s | %9s %7s %7s %8s  (* = bitwise FAIL)\n",
              "id", "matrix", "rows", "nnz", "t1[s]", "x2dev", "x4dev",
              "overlap");

  ThreadPool pool(4);
  std::vector<TaskGraphRow> rows;

  for (const auto& spec : paper_suite()) {
    if (opts.only_matrix && *opts.only_matrix != spec.id) continue;
    const auto a = spec.generate(opts.scale);
    rows.push_back(
        run_matrix(a, spec.id, spec.name, false, opts.mrows, pool));
  }

  // Gate family: the nemeth dense-band trio at 8x published rows, large
  // enough that every shard of a 2-way split still saturates the device.
  struct GateSpec {
    const char* name;
    index_t rows;
    index_t half_bandwidth;
  };
  const std::vector<GateSpec> gate_specs = {
      {"nemeth15@8x", 76048, 31},
      {"nemeth16@8x", 76048, 36},
      {"nemeth17@8x", 76048, 40},
  };
  if (!opts.only_matrix) {
    for (const auto& gs : gate_specs) {
      const auto a = dense_band(gs.rows, gs.half_bandwidth);
      rows.push_back(run_matrix(a, -1, gs.name, true, opts.mrows, pool));
    }
  }

  // Partially diagonal family: 4-device resident scaling over one device.
  const std::vector<FamilySpec> family_specs = {
      {"pd_band_heavy", 24576, 6144, 24, 48, 11},
      {"pd_balanced", 16384, 8192, 16, 40, 12},
      {"pd_scatter_heavy", 12288, 12288, 8, 56, 13},
      {"pd_wide_tail", 20480, 4096, 32, 64, 14},
      {"pd_narrow_tail", 28672, 4096, 12, 32, 15},
  };
  std::vector<FamilyRow> family;
  if (!opts.only_matrix) {
    for (const auto& fs : family_specs) {
      family.push_back(run_family_member(fs, pool));
    }
  }

  bool all_bitwise = true;
  double min_scaling2 = 0.0, min_overlap = 0.0;
  bool have_gate = false;
  for (const auto& r : rows) {
    std::printf("%3d %-16s %9lld %11llu | %9.3e %6.2fx %6.2fx %7.1f%%%s\n",
                r.id, r.name.c_str(), static_cast<long long>(r.rows),
                static_cast<unsigned long long>(r.nnz), r.t1, r.scaling2(),
                r.scaling4(), r.overlap1 * 100.0, r.bitwise_ok ? "" : " *");
    all_bitwise = all_bitwise && r.bitwise_ok;
    if (r.gate_row) {
      min_scaling2 =
          have_gate ? std::min(min_scaling2, r.scaling2()) : r.scaling2();
      min_overlap =
          have_gate ? std::min(min_overlap, r.overlap1) : r.overlap1;
      have_gate = true;
    }
  }

  double log_sum = 0.0;
  if (!family.empty()) {
    std::printf("\npartially diagonal family: %d devices, resident vectors, "
                "vs one-device CRSD\n",
                kFamilyDevices);
    std::printf("%-18s %9s %10s %8s | %9s %9s %8s\n", "matrix", "rows",
                "nnz", "scatter", "t1[s]", "tN[s]", "scaling");
  }
  for (const auto& r : family) {
    std::printf("%-18s %9lld %10llu %8lld | %9.3e %9.3e %7.2fx%s\n",
                r.name.c_str(), static_cast<long long>(r.rows),
                static_cast<unsigned long long>(r.nnz),
                static_cast<long long>(r.scatter_rows), r.t_crsd,
                r.t_sharded, r.scaling(), r.bitwise_ok ? "" : " *");
    all_bitwise = all_bitwise && r.bitwise_ok;
    log_sum += std::log(std::max(r.scaling(), 1e-300));
  }
  const double family_geomean =
      family.empty() ? 0.0 : std::exp(log_sum / double(family.size()));

  const bool gate_pass =
      all_bitwise &&
      (!have_gate || (min_scaling2 >= kGateMinScaling2 &&
                      min_overlap >= kGateMinOverlap)) &&
      (family.empty() || family_geomean >= kGateMinFamilyScaling);
  if (have_gate) {
    std::printf("\ndense-band gate family (8x rows): min 2-device scaling "
                "%.2fx (gate >= %.2fx), min 1-device overlap %.1f%% "
                "(gate >= %.0f%%)\n",
                min_scaling2, kGateMinScaling2, min_overlap * 100.0,
                kGateMinOverlap * 100.0);
  }
  if (!family.empty()) {
    std::printf("partially diagonal gate family: geomean %d-device "
                "scaling %.2fx (gate >= %.2fx)\n",
                kFamilyDevices, family_geomean, kGateMinFamilyScaling);
  }

  const char* out_env = std::getenv("CRSD_BENCH_OUT");
  const std::string out_path = out_env != nullptr && *out_env != '\0'
                                   ? out_env
                                   : "BENCH_taskgraph.json";
  write_json(rows, family, opts, min_scaling2, min_overlap, family_geomean,
             all_bitwise, gate_pass, out_path);
  std::printf("wrote %s\n", out_path.c_str());

  if (!all_bitwise) {
    std::printf("FAIL: a sharded sweep diverged bitwise from the "
                "single-device launch\n");
    return 1;
  }
  if (!gate_pass) {
    std::printf("FAIL: multi-device scaling or overlap gate violated\n");
    return 1;
  }
  return 0;
}
