// Tests for the JIT codelet lint: generated source passes clean; textual
// mutations of the baked constants (trip counts, clamp bounds, offsets,
// interior split, pattern dispatch) are each caught by the matching
// diagnostic code; and the lint-gated factories compile clean source but
// refuse mutated source, falling back to the interpreted kernel.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "check/memcheck.hpp"
#include "codegen/crsd_gpu_jit.hpp"
#include "codegen/crsd_jit_kernel.hpp"
#include "common/rng.hpp"
#include "core/build_api.hpp"
#include "kernels/crsd_gpu.hpp"
#include "matrix/generators.hpp"
#include "matrix/paper_suite.hpp"

namespace crsd::codegen {
namespace {

using check::Code;
using check::has_code;

JitCompiler fresh_compiler() {
  JitCompiler::Options opts;
  opts.cache_dir = (std::filesystem::temp_directory_path() /
                    ("crsd-lint-cache-" + std::to_string(::getpid())))
                       .string();
  return JitCompiler(opts);
}

/// 5-point stencil: one pattern {-16, -1, 0, 1, 16} with a real interior
/// range, an AD group, clamped edge offsets — every lint check has a
/// matching construct in its generated source.
CrsdMatrix<double> stencil_matrix() {
  return build(stencil_5pt_2d(16, 8), CrsdConfig{.mrows = 16});
}

/// Replaces the first occurrence of `from`; the mutation must exist in the
/// source or the fixture itself is stale.
std::string mutated(std::string src, const std::string& from,
                    const std::string& to) {
  const auto pos = src.find(from);
  EXPECT_NE(pos, std::string::npos) << "mutation anchor not found: " << from;
  if (pos == std::string::npos) return src;
  return src.replace(pos, from.size(), to);
}

TEST(CodeletLint, CleanOnGeneratedCpuSource) {
  const auto m = stencil_matrix();
  EXPECT_TRUE(lint_cpu_codelet_source(m, generate_cpu_codelet_source(m))
                  .empty());

  Rng rng(3);
  Coo<double> a = astro_convection(24, 8, 8, /*unstructured=*/false, rng);
  inject_scatter(a, 25, rng);
  const auto ms = build(a, CrsdConfig{.mrows = 16});
  EXPECT_TRUE(lint_cpu_codelet_source(ms, generate_cpu_codelet_source(ms))
                  .empty());

  const auto mf =
      build(dense_band(96, 3).cast<float>(), CrsdConfig{.mrows = 16});
  EXPECT_TRUE(lint_cpu_codelet_source(mf, generate_cpu_codelet_source(mf))
                  .empty());
}

TEST(CodeletLint, CleanOnGeneratedGpuSource) {
  const auto m = stencil_matrix();
  EXPECT_TRUE(lint_gpu_codelet_source(m, generate_gpu_codelet_source(m))
                  .empty());
  GpuCodeletOptions no_local;
  no_local.use_local_memory = false;
  EXPECT_TRUE(
      lint_gpu_codelet_source(m, generate_gpu_codelet_source(m, no_local))
          .empty());
}

TEST(CodeletLint, FlagsMissingEntryPoint) {
  const auto m = stencil_matrix();
  const std::string src =
      mutated(generate_cpu_codelet_source(m),
              "extern \"C\" void crsd_codelet_scatter(",
              "extern \"C\" void crsd_codelet_scatter2(");
  EXPECT_TRUE(has_code(lint_cpu_codelet_source(m, src),
                       Code::kLintMissingSymbol));

  // The SpMM codelet declares each register-block width next to both of
  // its entry points; with both markers gone the width is undeclared.
  const std::string marker = "// rhs_block 4 vectors";
  const std::string spmm =
      mutated(mutated(generate_cpu_spmm_codelet_source(m), marker,
                      "// rhs_block vectors"),
              marker, "// rhs_block vectors");
  EXPECT_TRUE(has_code(lint_cpu_spmm_codelet_source(m, spmm),
                       Code::kLintMissingSymbol));
}

TEST(CodeletLint, FlagsWrongLaneTripCount) {
  const auto m = stencil_matrix();
  // Interior lane loops bake mrows (16) as the literal trip count.
  const std::string src =
      mutated(generate_cpu_codelet_source(m),
              "for (std::int32_t lane = 0; lane < 16; ++lane)",
              "for (std::int32_t lane = 0; lane < 15; ++lane)");
  EXPECT_TRUE(has_code(lint_cpu_codelet_source(m, src),
                       Code::kLintTripCount));
}

TEST(CodeletLint, FlagsWrongColumnClampBound) {
  const auto m = stencil_matrix();  // num_cols 128 -> clamp hi 127
  const std::string src = mutated(generate_cpu_codelet_source(m),
                                  ", 0, 127)", ", 0, 126)");
  EXPECT_TRUE(has_code(lint_cpu_codelet_source(m, src),
                       Code::kLintBakedOffset));

  // Dropping the clamp on pattern 0's first edge row reads x[-1].
  const std::string unclamped = mutated(generate_cpu_codelet_source(m),
                                        "x[crsd_clampi(r - 1, 0, 127)]",
                                        "x[r - 1]");
  EXPECT_TRUE(has_code(lint_cpu_codelet_source(m, unclamped),
                       Code::kLintBakedOffset));
  const std::string unclamped_gpu =
      mutated(generate_gpu_codelet_source(m),
              "x[crsd_clampi((row0 + lane) - 1, 0, 127)]",
              "x[(row0 + lane) - 1]");
  EXPECT_TRUE(has_code(lint_gpu_codelet_source(m, unclamped_gpu),
                       Code::kLintBakedOffset));
}

TEST(CodeletLint, FlagsBakedOffsetThatIsNoLiveDiagonal) {
  const auto m = stencil_matrix();
  // The NAD diagonal at -16 appears unclamped in the interior as
  // xx[lane - 16]; shifting it to -17 reads a diagonal the pattern does
  // not own.
  const std::string src = mutated(generate_cpu_codelet_source(m),
                                  "xx[lane - 16]", "xx[lane - 17]");
  EXPECT_TRUE(has_code(lint_cpu_codelet_source(m, src),
                       Code::kLintBakedOffset));

  // The SpMM codelet reads each right-hand side through its own stream.
  const std::string spmm = mutated(generate_cpu_spmm_codelet_source(m),
                                   "xk1[r + 16]", "xk1[r + 15]");
  EXPECT_TRUE(has_code(lint_cpu_spmm_codelet_source(m, spmm),
                       Code::kLintBakedOffset));
}

TEST(CodeletLint, FlagsStagedWindowStartingOffALiveDiagonal) {
  const auto m = stencil_matrix();
  // AD group {-1, 0, 1}: the staged window copy starts at the group's
  // first offset, xbuf[i] = xx[i + -1].
  const std::string src = mutated(generate_cpu_codelet_source(m),
                                  "xx[i + -1]", "xx[i + -3]");
  EXPECT_TRUE(has_code(lint_cpu_codelet_source(m, src),
                       Code::kLintBakedOffset));
}

TEST(CodeletLint, FlagsWrongInteriorSplit) {
  const auto m = stencil_matrix();
  // Pattern 1 is the interior pattern; the edge patterns have empty
  // interiors and emit no split at all.
  const SegmentInterior in = m.interior_segments(1);
  ASSERT_LT(in.begin, in.end) << "fixture needs a non-empty interior";
  const std::string anchor =
      "i0 = crsd_clampi(" + std::to_string(in.begin) + ", g0, g1)";
  const std::string wrong =
      "i0 = crsd_clampi(" + std::to_string(in.begin + 1) + ", g0, g1)";
  const std::string src =
      mutated(generate_cpu_codelet_source(m), anchor, wrong);
  EXPECT_TRUE(has_code(lint_cpu_codelet_source(m, src),
                       Code::kLintInteriorSplit));

  const std::string end_anchor =
      "i1 = crsd_clampi(" + std::to_string(in.end) + ", i0, g1)";
  const std::string end_wrong =
      "i1 = crsd_clampi(" + std::to_string(in.end - 1) + ", i0, g1)";
  const std::string src_end =
      mutated(generate_cpu_codelet_source(m), end_anchor, end_wrong);
  EXPECT_TRUE(has_code(lint_cpu_codelet_source(m, src_end),
                       Code::kLintInteriorSplit));

  // The pattern marker records the split as well.
  const std::string marker_anchor = "interior [" + std::to_string(in.begin) +
                                    ", " + std::to_string(in.end) + ")";
  const std::string marker_wrong = "interior [" +
                                   std::to_string(in.begin + 1) + ", " +
                                   std::to_string(in.end) + ")";
  const std::string src_marker =
      mutated(generate_cpu_codelet_source(m), marker_anchor, marker_wrong);
  EXPECT_TRUE(has_code(lint_cpu_codelet_source(m, src_marker),
                       Code::kLintInteriorSplit));
}

TEST(CodeletLint, FlagsWrongSegmentBound) {
  const auto m = stencil_matrix();  // 8 segments, one pattern
  const std::string src = mutated(generate_cpu_codelet_source(m),
                                  "g1 = seg_end < 8", "g1 = seg_end < 9");
  EXPECT_TRUE(has_code(lint_cpu_codelet_source(m, src),
                       Code::kLintPatternDispatch));

  // Pattern 1 owns segments [1, 7): its lower clamp and its marker.
  const std::string src_g0 =
      mutated(generate_cpu_codelet_source(m), "g0 = seg_begin > 1 ? ",
              "g0 = seg_begin > 2 ? ");
  EXPECT_TRUE(has_code(lint_cpu_codelet_source(m, src_g0),
                       Code::kLintPatternDispatch));
  const std::string src_marker = mutated(
      generate_cpu_codelet_source(m), "segments [1, 7)", "segments [1, 8)");
  EXPECT_TRUE(has_code(lint_cpu_codelet_source(m, src_marker),
                       Code::kLintPatternDispatch));
}

TEST(CodeletLint, FlagsMissingPatternMarker) {
  const auto m = stencil_matrix();
  const std::string src = mutated(generate_cpu_codelet_source(m),
                                  "// pattern 0:", "// pattern zero:");
  EXPECT_TRUE(has_code(lint_cpu_codelet_source(m, src),
                       Code::kLintPatternDispatch));
}

TEST(CodeletLint, FlagsWrongGpuDispatchBound) {
  const auto m = stencil_matrix();
  // The stencil splits into top-edge/interior/bottom-edge patterns; the
  // interior pattern 1 dispatches on the cumulative bound 7.
  const std::string src =
      mutated(generate_gpu_codelet_source(m),
              "if (group_id < 7) {  // pattern 1:",
              "if (group_id < 9) {  // pattern 1:");
  EXPECT_TRUE(has_code(lint_gpu_codelet_source(m, src),
                       Code::kLintPatternDispatch));
}

TEST(CodeletLint, FlagsWrongGpuLaneArrayExtent) {
  const auto m = stencil_matrix();
  const std::string src = mutated(generate_gpu_codelet_source(m),
                                  "T sums[16] = {};", "T sums[8] = {};");
  EXPECT_TRUE(has_code(lint_gpu_codelet_source(m, src),
                       Code::kLintTripCount));
}

TEST(CodeletLint, FlagsMissingGpuEntryPoint) {
  const auto m = stencil_matrix();
  const std::string src =
      mutated(generate_gpu_codelet_source(m),
              "extern \"C\" void crsd_gpu_codelet_group(",
              "extern \"C\" void crsd_gpu_codelet_group2(");
  EXPECT_TRUE(has_code(lint_gpu_codelet_source(m, src),
                       Code::kLintMissingSymbol));
}

TEST(CodeletLint, DiagnosticsCarrySourceLineNumbers) {
  const auto m = stencil_matrix();
  const std::string src = mutated(generate_cpu_codelet_source(m),
                                  ", 0, 127)", ", 0, 126)");
  const auto diags = lint_cpu_codelet_source(m, src);
  ASSERT_FALSE(diags.empty());
  EXPECT_GT(diags.front().offset, 0);  // 1-based line of the finding
}

TEST(CheckedJit, RejectsMutatedSourceWithoutCompiling) {
  const auto m = stencil_matrix();
  JitCompiler compiler = fresh_compiler();
  // Lint rejection happens before any compiler invocation, so this path
  // needs no working toolchain.
  const std::string bad = mutated(generate_cpu_codelet_source(m),
                                  ", 0, 127)", ", 0, 126)");
  EXPECT_FALSE(make_jit_kernel(m, compiler, Checked::kYes, &bad).has_value());
  EXPECT_EQ(compiler.compilations(), 0);

  const std::string bad_gpu =
      mutated(generate_gpu_codelet_source(m),
              "if (group_id < 7) {  // pattern 1:",
              "if (group_id < 9) {  // pattern 1:");
  EXPECT_FALSE(
      make_gpu_jit_kernel(m, compiler, {}, Checked::kYes, &bad_gpu).has_value());
  EXPECT_EQ(compiler.compilations(), 0);
}

TEST(CheckedJit, CleanSourceCompilesAndMatchesScalar) {
  if (!JitCompiler::compiler_available()) GTEST_SKIP();
  const auto m = stencil_matrix();
  JitCompiler compiler = fresh_compiler();
  auto kernel = make_jit_kernel(m, compiler);
  ASSERT_TRUE(kernel.has_value());

  Rng rng(7);
  std::vector<double> x(static_cast<std::size_t>(m.num_cols()));
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);
  std::vector<double> want(static_cast<std::size_t>(m.num_rows()), 0.0);
  std::vector<double> got = want;
  m.spmv_scalar(x.data(), want.data());
  kernel->spmv(m, x.data(), got.data());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-12) << i;
  }
}

TEST(CheckedJit, CleanGpuSourceRunsUnderTheChecker) {
  if (!JitCompiler::compiler_available()) GTEST_SKIP();
  // The GPU kernel requires mrows to be a wavefront multiple (32 on the
  // simulated Tesla C2050), so this fixture uses a wider segment height.
  const auto m = build(stencil_5pt_2d(16, 8), CrsdConfig{.mrows = 32});
  JitCompiler compiler = fresh_compiler();
  auto kernel = make_gpu_jit_kernel(m, compiler);
  ASSERT_TRUE(kernel.has_value());

  Rng rng(13);
  std::vector<double> x(static_cast<std::size_t>(m.num_cols()));
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);
  std::vector<double> want(static_cast<std::size_t>(m.num_rows()), 0.0);
  std::vector<double> got = want;
  m.spmv_scalar(x.data(), want.data());

  gpusim::Device dev(gpusim::DeviceSpec::tesla_c2050());
  check::MemChecker chk(dev.spec());
  kernel->run(dev, m, x.data(), got.data(), /*pool=*/nullptr, &chk);
  EXPECT_TRUE(chk.clean()) << chk.report();
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-12) << i;
  }
}

// --- Storage-mode rules: f16 decoder routing, delta byte-range guard. ----

CrsdMatrix<double> compact_matrix(ValuePrecision vp, bool narrow, bool delta) {
  Rng rng(3);
  Coo<double> a = astro_convection(24, 8, 8, /*unstructured=*/false, rng);
  inject_scatter(a, 25, rng);
  CrsdConfig cfg;
  cfg.mrows = 16;
  cfg.storage = {vp, narrow, delta};
  return build(a, cfg);
}

TEST(CodeletLint, CleanOnCompactStorageModes) {
  for (const StorageOptions s :
       {StorageOptions{ValuePrecision::kFloat16, true, false},
        StorageOptions{ValuePrecision::kNative, false, true},
        StorageOptions{ValuePrecision::kFloat32, false, true}}) {
    const auto m = compact_matrix(s.value_precision, s.narrow_scatter_indices,
                                  s.delta_scatter_indices);
    const auto diags =
        lint_cpu_codelet_source(m, generate_cpu_codelet_source(m));
    EXPECT_TRUE(diags.empty()) << check::format_diagnostics(diags);
  }
}

// Every line shape the generators emit over the paper suite must scan
// clean: generate and lint only, no compile.
TEST(CodeletLint, CleanOnPaperSuiteInEveryStorageMode) {
  const StorageOptions modes[] = {
      {},
      {ValuePrecision::kNative, true, false},
      {ValuePrecision::kNative, false, true},
      {ValuePrecision::kFloat32, true, false},
      {ValuePrecision::kFloat32, false, true},
      {ValuePrecision::kFloat16, true, false},
  };
  for (const MatrixSpec& spec : paper_suite()) {
    const Coo<double> a = spec.generate(0.02);
    for (const StorageOptions& s : modes) {
      CrsdConfig cfg;
      cfg.mrows = 32;
      cfg.storage = s;
      const auto m = build(a, cfg);
      const auto diags =
          lint_cpu_codelet_source(m, generate_cpu_codelet_source(m));
      EXPECT_TRUE(diags.empty())
          << spec.name << " " << value_precision_name(s.value_precision)
          << " " << scatter_index_mode_name(m.scatter_index_mode()) << "\n"
          << check::format_diagnostics(diags);
      if (s.value_precision != ValuePrecision::kNative ||
          m.scatter_index_mode() != ScatterIndexMode::kIndex32) {
        continue;
      }
      const auto spmm =
          lint_cpu_spmm_codelet_source(m, generate_cpu_spmm_codelet_source(m));
      EXPECT_TRUE(spmm.empty())
          << spec.name << " SpMM\n" << check::format_diagnostics(spmm);
      const auto gpu =
          lint_gpu_codelet_source(m, generate_gpu_codelet_source(m));
      EXPECT_TRUE(gpu.empty())
          << spec.name << " GPU\n" << check::format_diagnostics(gpu);
    }
  }
}

TEST(CodeletLint, FlagsHalfDecoderBypass) {
  const auto m = compact_matrix(ValuePrecision::kFloat16, true, false);
  // Drop the decode on one value load: the accumulation would multiply the
  // raw binary16 bit pattern.
  const std::string src = mutated(generate_cpu_codelet_source(m),
                                  "crsd_h2f(unit[", "(unit[");
  EXPECT_TRUE(has_code(lint_cpu_codelet_source(m, src),
                       Code::kLintHalfDecoder));
}

TEST(CodeletLint, FlagsMissingHalfDecoder) {
  const auto m = compact_matrix(ValuePrecision::kFloat16, true, false);
  const std::string src =
      mutated(generate_cpu_codelet_source(m),
              "static inline float crsd_h2f(VT h)",
              "static inline float crsd_h2f_off(VT h)");
  EXPECT_TRUE(has_code(lint_cpu_codelet_source(m, src),
                       Code::kLintHalfDecoder));
}

TEST(CodeletLint, FlagsUnguardedVarintContinuationLoop) {
  const auto m = compact_matrix(ValuePrecision::kNative, false, true);
  // Strip the byte-range guard from the continuation loop: a truncated
  // stream would read past the row's range.
  const std::string src =
      mutated(generate_cpu_codelet_source(m),
              "while ((byte & 0x80u) && pos < end);",
              "while (byte & 0x80u);");
  const auto diags = lint_cpu_codelet_source(m, src);
  EXPECT_TRUE(has_code(diags, Code::kLintDeltaGuard))
      << check::format_diagnostics(diags);
}

TEST(CodeletLint, FlagsMissingDeltaByteRange) {
  const auto m = compact_matrix(ValuePrecision::kNative, false, true);
  const std::string src =
      mutated(generate_cpu_codelet_source(m),
              "const std::int32_t end = row_bytes[i + 1];",
              "const std::int32_t end = 2147483647;");
  EXPECT_TRUE(has_code(lint_cpu_codelet_source(m, src),
                       Code::kLintDeltaGuard));
}

TEST(CheckedJit, RejectsMutatedCompactSourceWithoutCompiling) {
  const auto m = compact_matrix(ValuePrecision::kFloat16, true, false);
  JitCompiler compiler = fresh_compiler();
  const std::string bad = mutated(generate_cpu_codelet_source(m),
                                  "crsd_h2f(unit[", "(unit[");
  EXPECT_FALSE(make_jit_kernel(m, compiler, Checked::kYes, &bad).has_value());
  EXPECT_EQ(compiler.compilations(), 0);
}

TEST(CheckedJit, CleanCompactSourceCompilesAndMatchesScalar) {
  if (!JitCompiler::compiler_available()) GTEST_SKIP();
  const auto m = compact_matrix(ValuePrecision::kFloat32, false, true);
  JitCompiler compiler = fresh_compiler();
  auto kernel = make_jit_kernel(m, compiler);
  ASSERT_TRUE(kernel.has_value());

  Rng rng(7);
  std::vector<double> x(static_cast<std::size_t>(m.num_cols()));
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);
  std::vector<double> want(static_cast<std::size_t>(m.num_rows()), 0.0);
  std::vector<double> got = want;
  m.spmv_scalar(x.data(), want.data());
  kernel->spmv(m, x.data(), got.data());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-12) << i;
  }
}

}  // namespace
}  // namespace crsd::codegen
