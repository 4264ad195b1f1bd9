// Tests for RCM reordering and binary CRSD serialization, including a
// seeded corruption sweep over a serialized container (the ASan/UBSan job
// runs it: a corrupt stream must throw or load a valid container, never
// read out of bounds or allocate from a corrupt length).
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "check/validate.hpp"
#include "common/rng.hpp"
#include "core/build_api.hpp"
#include "core/inspect.hpp"
#include "core/serialize.hpp"
#include "matrix/generators.hpp"
#include "matrix/paper_suite.hpp"
#include "matrix/reorder.hpp"

namespace crsd {
namespace {

TEST(Permutation, InverseRoundTrip) {
  Permutation p{{2, 0, 3, 1}};
  const auto inv = p.inverse();
  for (index_t i = 0; i < 4; ++i) {
    EXPECT_EQ(inv[static_cast<std::size_t>(p.perm[static_cast<std::size_t>(i)])],
              i);
  }
}

TEST(Rcm, ReducesBandwidthOfShuffledBandMatrix) {
  // A banded matrix whose rows were scrambled: RCM must recover (nearly)
  // the band.
  const auto band = dense_band(256, 3);
  Rng rng(7);
  Permutation shuffle{{}};
  shuffle.perm.resize(256);
  for (index_t i = 0; i < 256; ++i) {
    shuffle.perm[static_cast<std::size_t>(i)] = i;
  }
  for (index_t i = 255; i > 0; --i) {
    std::swap(shuffle.perm[static_cast<std::size_t>(i)],
              shuffle.perm[static_cast<std::size_t>(rng.next_index(0, i))]);
  }
  const auto scrambled = permute_symmetric(band, shuffle);
  ASSERT_GT(matrix_bandwidth(scrambled), 50);

  const Permutation rcm = reverse_cuthill_mckee(scrambled);
  const auto restored = permute_symmetric(scrambled, rcm);
  EXPECT_LE(matrix_bandwidth(restored), 8);  // near the original 3
  EXPECT_EQ(restored.nnz(), band.nnz());
}

TEST(Rcm, PermutedSpmvConsistent) {
  // (P A P^T)(P x) = P (A x): solving in the reordered numbering gives the
  // same answers.
  Rng rng(8);
  auto a = broken_diagonals(200, {{5, 0.7, 2}, {-3, 0.9, 1}}, rng);
  const Permutation p = reverse_cuthill_mckee(a);
  const auto b = permute_symmetric(a, p);

  std::vector<double> x(200);
  for (auto& v : x) v = rng.next_double(-1, 1);
  std::vector<double> ax(200), permuted_result(200);
  a.spmv_reference(x.data(), ax.data());
  const auto px = permute_vector(x, p);
  b.spmv_reference(px.data(), permuted_result.data());
  const auto want = permute_vector(ax, p);
  for (int i = 0; i < 200; ++i) {
    EXPECT_NEAR(permuted_result[static_cast<std::size_t>(i)],
                want[static_cast<std::size_t>(i)], 1e-12);
  }
}

TEST(Rcm, HandlesDisconnectedComponentsAndIsolatedRows) {
  Coo<double> a(10, 10);
  // Two separate 3-cliques and four isolated diagonal entries.
  for (index_t i : {0, 1, 2}) {
    for (index_t j : {0, 1, 2}) a.add(i, j, 1.0);
  }
  for (index_t i : {7, 8, 9}) {
    for (index_t j : {7, 8, 9}) a.add(i, j, 1.0);
  }
  for (index_t i : {3, 4, 5, 6}) a.add(i, i, 2.0);
  a.canonicalize();
  const Permutation p = reverse_cuthill_mckee(a);
  // Must be a valid permutation of 0..9.
  std::vector<index_t> sorted = p.perm;
  std::sort(sorted.begin(), sorted.end());
  for (index_t i = 0; i < 10; ++i) {
    EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
  }
  const auto b = permute_symmetric(a, p);
  EXPECT_LE(matrix_bandwidth(b), 2);
}

TEST(Rcm, MakesScatteredMatrixCrsdFriendly) {
  // The end-to-end story: scrambled band -> many scatter rows in CRSD;
  // after RCM -> clean diagonal patterns.
  const auto band = dense_band(512, 2);
  Rng rng(9);
  Permutation shuffle{{}};
  shuffle.perm.resize(512);
  for (index_t i = 0; i < 512; ++i) {
    shuffle.perm[static_cast<std::size_t>(i)] = i;
  }
  for (index_t i = 511; i > 0; --i) {
    std::swap(shuffle.perm[static_cast<std::size_t>(i)],
              shuffle.perm[static_cast<std::size_t>(rng.next_index(0, i))]);
  }
  const auto scrambled = permute_symmetric(band, shuffle);
  const auto before = build(scrambled, CrsdConfig{.mrows = 32}).stats();
  const auto after =
      build(permute_symmetric(scrambled, reverse_cuthill_mckee(scrambled)),
                 CrsdConfig{.mrows = 32})
          .stats();
  EXPECT_LT(after.num_scatter_rows, before.num_scatter_rows / 4);
}

TEST(Serialize, RoundTripPreservesEverything) {
  Rng rng(10);
  auto a = astro_convection(8, 8, 6, true, rng);
  const auto m = build(a, CrsdConfig{.mrows = 32});
  std::stringstream buf;
  write_crsd(buf, m);
  const CrsdMatrix<double> loaded = read_crsd<double>(buf);

  EXPECT_EQ(loaded.num_rows(), m.num_rows());
  EXPECT_EQ(loaded.mrows(), m.mrows());
  EXPECT_EQ(loaded.num_patterns(), m.num_patterns());
  EXPECT_EQ(loaded.dia_values(), m.dia_values());
  EXPECT_EQ(loaded.scatter_rows(), m.scatter_rows());

  // Reconstruction and SpMV identical.
  const auto back = crsd_to_coo(loaded);
  EXPECT_EQ(back.col_indices(), a.col_indices());
  std::vector<double> x(static_cast<std::size_t>(a.num_cols()), 0.7);
  std::vector<double> y1(static_cast<std::size_t>(a.num_rows()));
  std::vector<double> y2(y1.size());
  m.spmv(x.data(), y1.data());
  loaded.spmv(x.data(), y2.data());
  EXPECT_EQ(y1, y2);
}

TEST(Serialize, FloatRoundTripAndPrecisionGuard) {
  const auto a = dense_band(128, 2).cast<float>();
  const auto m = build(a, CrsdConfig{.mrows = 16});
  std::stringstream buf;
  write_crsd(buf, m);
  const std::string payload = buf.str();

  std::stringstream read_back(payload);
  const auto loaded = read_crsd<float>(read_back);
  EXPECT_EQ(loaded.dia_values(), m.dia_values());

  std::stringstream wrong_precision(payload);
  EXPECT_THROW(read_crsd<double>(wrong_precision), Error);
}

TEST(Serialize, RejectsGarbageAndTruncation) {
  std::stringstream junk("not a crsd stream at all");
  EXPECT_THROW(read_crsd<double>(junk), Error);

  const auto a = dense_band(64, 1);
  const auto m = build(a, CrsdConfig{.mrows = 16});
  std::stringstream buf;
  write_crsd(buf, m);
  const std::string payload = buf.str();
  std::stringstream truncated(payload.substr(0, payload.size() / 2));
  EXPECT_THROW(read_crsd<double>(truncated), Error);
}

TEST(Serialize, CorruptWordsThrowOrLoadValidContainers) {
  // A band with scatter rows, so the sweep reaches the pattern table, the
  // value streams, and the scatter ELL arrays. Each 4-byte word in turn is
  // XORed with a seeded nonzero mask. The sweep runs once per storage mode,
  // so it also reaches the u16 and varint-delta scatter column decoders and
  // the f32 value stream.
  struct Mode {
    const char* name;
    StorageOptions storage;
  };
  const Mode modes[] = {
      {"native", {}},
      {"u16", {ValuePrecision::kNative, true, false}},
      {"delta", {ValuePrecision::kNative, false, true}},
      {"f32+delta", {ValuePrecision::kFloat32, false, true}},
  };
  Rng rng(12);
  auto a = dense_band(256, 2);
  inject_scatter(a, 24, rng);
  const std::vector<double> x(static_cast<std::size_t>(a.num_cols()), 0.5);
  std::vector<double> y(static_cast<std::size_t>(a.num_rows()));
  for (const Mode& mode : modes) {
    SCOPED_TRACE(mode.name);
    const auto m = build(a, CrsdConfig{.mrows = 32, .storage = mode.storage});
    ASSERT_GT(m.num_scatter_rows(), 0);
    std::stringstream buf;
    write_crsd(buf, m);
    const std::string payload = buf.str();

    int thrown = 0;
    int loaded = 0;
    for (std::size_t off = 0; off + 4 <= payload.size(); off += 4) {
      std::uint32_t mask = 0;
      while (mask == 0) mask = static_cast<std::uint32_t>(rng.next_u64());
      std::string bad = payload;
      std::uint32_t word = 0;
      std::memcpy(&word, bad.data() + off, 4);
      word ^= mask;
      std::memcpy(bad.data() + off, &word, 4);
      std::stringstream in(bad);
      try {
        const CrsdMatrix<double> got = read_crsd<double>(in);
        ++loaded;
        EXPECT_TRUE(check::validate(got, {.require_scatter_disjoint = false})
                        .empty())
            << "word at byte " << off;
        // Both kernels must stay in bounds on whatever loaded.
        if (got.num_cols() == a.num_cols() && got.num_rows() == a.num_rows()) {
          got.spmv(x.data(), y.data());
          got.spmv_scalar(x.data(), y.data());
        }
      } catch (const Error&) {
        ++thrown;
      }
    }
    // Sanity: the sweep exercised both outcomes.
    EXPECT_GT(thrown, 0);
    EXPECT_GT(loaded, 0);
  }
}

class SerializeSuite : public ::testing::TestWithParam<int> {};

TEST_P(SerializeSuite, SuiteMatricesRoundTrip) {
  const auto a = paper_matrix(GetParam()).generate(0.01);
  const auto m = build(a, CrsdConfig{.mrows = 32});
  std::stringstream buf;
  write_crsd(buf, m);
  const auto loaded = read_crsd<double>(buf);
  EXPECT_EQ(loaded.dia_values(), m.dia_values());
  EXPECT_EQ(loaded.scatter_val(), m.scatter_val());
  EXPECT_EQ(loaded.cum_segments(), m.cum_segments());
}

INSTANTIATE_TEST_SUITE_P(Suite, SerializeSuite,
                         ::testing::Values(3, 5, 9, 18, 21),
                         [](const auto& suite_info) {
                           return paper_matrix(suite_info.param).name;
                         });

}  // namespace
}  // namespace crsd
