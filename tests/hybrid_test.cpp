// Tests for the extension layer: transfer model, hybrid CPU+GPU SpMV,
// auto-tuner, alternative device presets, and row slicing.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "hybrid/hybrid_spmv.hpp"
#include "kernels/crsd_autotune.hpp"
#include "matrix/generators.hpp"
#include "matrix/paper_suite.hpp"

namespace crsd::hybrid {
namespace {

using gpusim::Device;
using gpusim::DeviceSpec;

TEST(Transfer, LatencyPlusBandwidth) {
  PcieSpec pcie;
  pcie.bandwidth_gbps = 10.0;
  pcie.latency_seconds = 1e-5;
  EXPECT_DOUBLE_EQ(transfer_seconds(pcie, 0), 0.0);
  EXPECT_NEAR(transfer_seconds(pcie, 100'000'000), 1e-5 + 0.01, 1e-9);
  // Latency dominates small transfers.
  EXPECT_GT(transfer_seconds(pcie, 8), 1e-5);
}

TEST(HybridSpmv, ComputesCorrectProductAtEverySplit) {
  Rng rng(1);
  const auto a = astro_convection(10, 10, 8, false, rng);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()));
  for (auto& v : x) v = rng.next_double(-1, 1);
  std::vector<double> want(static_cast<std::size_t>(a.num_rows()));
  a.spmv_reference(x.data(), want.data());

  HybridConfig cfg;
  cfg.crsd.mrows = 64;
  for (index_t split : {index_t{0}, index_t{64}, index_t{384},
                        a.num_rows() / 64 * 64, a.num_rows()}) {
    Device dev(DeviceSpec::tesla_c2050());
    const HybridSpmv<double> engine(a, split, cfg);
    std::vector<double> y(want.size(), -1.0);
    const HybridTiming t = engine.run(dev, x.data(), y.data());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_NEAR(y[i], want[i], 1e-12) << "split " << split << " row " << i;
    }
    EXPECT_GT(t.total_seconds(), 0.0);
  }
}

TEST(HybridSpmv, TimingDecomposition) {
  Rng rng(2);
  const auto a = astro_convection(10, 10, 8, false, rng);
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()), 1.0);
  std::vector<double> y(static_cast<std::size_t>(a.num_rows()));
  HybridConfig cfg;
  cfg.crsd.mrows = 64;
  Device dev(DeviceSpec::tesla_c2050());

  const HybridSpmv<double> pure_cpu(a, 0, cfg);
  const HybridTiming t_cpu = pure_cpu.run(dev, x.data(), y.data());
  EXPECT_EQ(t_cpu.gpu_seconds, 0.0);
  EXPECT_EQ(t_cpu.transfer_seconds, 0.0);
  EXPECT_GT(t_cpu.cpu_seconds, 0.0);

  const HybridSpmv<double> pure_gpu(a, a.num_rows(), cfg);
  const HybridTiming t_gpu = pure_gpu.run(dev, x.data(), y.data());
  EXPECT_EQ(t_gpu.cpu_seconds, 0.0);
  EXPECT_GT(t_gpu.gpu_seconds, 0.0);
  EXPECT_GT(t_gpu.transfer_seconds, 0.0);

  HybridConfig resident = cfg;
  resident.transfer_vectors_each_spmv = false;
  const HybridSpmv<double> resident_gpu(a, a.num_rows(), resident);
  EXPECT_EQ(resident_gpu.run(dev, x.data(), y.data()).transfer_seconds, 0.0);
}

TEST(HybridSpmv, ChooseSplitRespondsToTransferCost) {
  // Cheap transfers: the GPU (much faster in the model) should take all or
  // nearly all rows. Absurdly expensive transfers: everything stays on CPU.
  const auto a = paper_matrix(9).generate(0.05);  // kim1-like
  HybridConfig cheap;
  cheap.crsd.mrows = 64;
  cheap.pcie.bandwidth_gbps = 1000.0;
  cheap.pcie.latency_seconds = 1e-9;
  Device dev(DeviceSpec::tesla_c2050());
  const index_t split_cheap =
      HybridSpmv<double>::choose_split(a, dev, cheap);
  EXPECT_GT(split_cheap, a.num_rows() / 2);

  HybridConfig expensive = cheap;
  expensive.pcie.bandwidth_gbps = 0.001;
  expensive.pcie.latency_seconds = 1.0;
  EXPECT_EQ(HybridSpmv<double>::choose_split(a, dev, expensive), 0);
}

TEST(DevicePresets, DistinctAndPlausible) {
  const DeviceSpec gtx = DeviceSpec::geforce_gtx280();
  const DeviceSpec amd = DeviceSpec::amd_cypress();
  EXPECT_EQ(gtx.num_compute_units, 30);
  EXPECT_EQ(gtx.global_mem_bytes, 1ull << 30);
  EXPECT_LT(gtx.peak_gflops_double, 100.0);  // GT200's weak DP
  EXPECT_EQ(amd.wavefront_size, 64);
  EXPECT_GT(amd.peak_gflops_single, 2000.0);
}

TEST(DevicePresets, WavefrontConstraintDiffersOnAmd) {
  const auto a = dense_band(512, 2);
  const auto m = build(a, CrsdConfig{.mrows = 32});
  std::vector<double> x(512, 1.0), y(512);
  Device nvidia(DeviceSpec::tesla_c2050());
  EXPECT_NO_THROW(kernels::gpu_spmv_crsd(nvidia, m, x.data(), y.data()));
  // mrows=32 is illegal on a 64-wide wavefront device.
  Device amd(DeviceSpec::amd_cypress());
  EXPECT_THROW(kernels::gpu_spmv_crsd(amd, m, x.data(), y.data()), Error);
  const auto m64 = build(a, CrsdConfig{.mrows = 64});
  EXPECT_NO_THROW(kernels::gpu_spmv_crsd(amd, m64, x.data(), y.data()));
}

TEST(Autotune, FindsLegalBestAndCoversGrid) {
  const auto a = paper_matrix(18).generate(0.03);
  Device dev(DeviceSpec::tesla_c2050());
  kernels::AutotuneSpace space;
  space.mrows = {32, 48, 64};  // 48 must be skipped (not a wave multiple)
  space.fill_max_gap_segments = {0, 4};
  space.live_min_fill = {0.5};
  space.use_local_memory = {true, false};
  const auto result = kernels::autotune_crsd(dev, a, space);
  EXPECT_EQ(result.trials.size(), 2u * 2u * 1u * 2u);  // 48 skipped
  EXPECT_EQ(result.best_config.mrows % 32, 0);
  EXPECT_GT(result.best_seconds, 0.0);
  for (const auto& trial : result.trials) {
    EXPECT_GE(trial.seconds, result.best_seconds);
  }
}

TEST(Autotune, BestBeatsDefaultOrMatches) {
  const auto a = paper_matrix(5).generate(0.01);  // ecology1-like
  Device dev(DeviceSpec::tesla_c2050());
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()), 1.0);
  std::vector<double> y(static_cast<std::size_t>(a.num_rows()));
  const auto m_default = build(a, CrsdConfig{.mrows = 64});
  const double t_default =
      kernels::gpu_spmv_crsd(dev, m_default, x.data(), y.data()).seconds;
  const auto result = kernels::autotune_crsd(dev, a);
  EXPECT_LE(result.best_seconds, t_default * 1.0001);
}

}  // namespace
}  // namespace crsd::hybrid
