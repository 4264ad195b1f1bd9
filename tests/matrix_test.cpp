// Unit tests for COO canonicalization, reference SpMV, Matrix Market I/O,
// and structure statistics.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "matrix/coo.hpp"
#include "matrix/matrix_market.hpp"
#include "matrix/stats.hpp"

namespace crsd {
namespace {

TEST(Coo, CanonicalizeSortsAndMergesDuplicates) {
  Coo<double> a(3, 3);
  a.add(2, 1, 1.0);
  a.add(0, 0, 2.0);
  a.add(2, 1, 3.0);
  a.add(1, 2, -1.0);
  a.canonicalize();
  ASSERT_EQ(a.nnz(), 3u);
  EXPECT_EQ(a.row_indices(), (std::vector<index_t>{0, 1, 2}));
  EXPECT_EQ(a.col_indices(), (std::vector<index_t>{0, 2, 1}));
  EXPECT_DOUBLE_EQ(a.values()[2], 4.0);  // 1 + 3 merged
}

TEST(Coo, CanonicalizeDropsExplicitZeros) {
  Coo<double> a(2, 2);
  a.add(0, 0, 1.0);
  a.add(0, 1, 1.0);
  a.add(0, 1, -1.0);  // cancels to zero
  a.canonicalize();
  EXPECT_EQ(a.nnz(), 1u);
  Coo<double> b(2, 2);
  b.add(0, 1, 1.0);
  b.add(0, 1, -1.0);
  b.canonicalize(/*keep_zeros=*/true);
  EXPECT_EQ(b.nnz(), 1u);
  EXPECT_DOUBLE_EQ(b.values()[0], 0.0);
}

TEST(Coo, ReferenceSpmvMatchesHandComputation) {
  // [2 0 1; 0 3 0] * [1 2 3]^T = [5, 6]
  Coo<double> a(2, 3);
  a.add(0, 0, 2.0);
  a.add(0, 2, 1.0);
  a.add(1, 1, 3.0);
  a.canonicalize();
  const double x[3] = {1, 2, 3};
  double y[2] = {-7, -7};
  a.spmv_reference(x, y);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
}

TEST(Coo, CastPreservesStructure) {
  Coo<double> a(2, 2);
  a.add(0, 1, 1.25);
  a.add(1, 0, -2.5);
  a.canonicalize();
  Coo<float> f = a.cast<float>();
  EXPECT_TRUE(f.is_canonical());
  EXPECT_EQ(f.nnz(), 2u);
  EXPECT_FLOAT_EQ(f.values()[0], 1.25f);
}

TEST(MatrixMarket, RoundTripGeneralReal) {
  Coo<double> a(4, 5);
  a.add(0, 0, 1.5);
  a.add(3, 4, -2.25);
  a.add(1, 2, 1e-3);
  a.canonicalize();
  std::stringstream buf;
  write_matrix_market(buf, a);
  Coo<double> b = read_matrix_market(buf);
  EXPECT_EQ(b.num_rows(), 4);
  EXPECT_EQ(b.num_cols(), 5);
  ASSERT_EQ(b.nnz(), a.nnz());
  for (size64_t k = 0; k < a.nnz(); ++k) {
    EXPECT_EQ(b.row_indices()[k], a.row_indices()[k]);
    EXPECT_EQ(b.col_indices()[k], a.col_indices()[k]);
    EXPECT_DOUBLE_EQ(b.values()[k], a.values()[k]);
  }
}

TEST(MatrixMarket, SymmetricExpansion) {
  std::stringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "% comment line\n"
      "3 3 3\n"
      "1 1 2.0\n"
      "2 1 5.0\n"
      "3 3 1.0\n");
  Coo<double> a = read_matrix_market(in);
  EXPECT_EQ(a.nnz(), 4u);  // (0,0), (1,0), (0,1), (2,2)
  double x[3] = {1, 1, 1};
  double y[3];
  a.spmv_reference(x, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 5.0);
}

TEST(MatrixMarket, SkewSymmetricExpansion) {
  std::stringstream in(
      "%%MatrixMarket matrix coordinate real skew-symmetric\n"
      "2 2 1\n"
      "2 1 3.0\n");
  Coo<double> a = read_matrix_market(in);
  ASSERT_EQ(a.nnz(), 2u);
  EXPECT_DOUBLE_EQ(a.values()[0], -3.0);  // (0,1) mirrored with sign flip
  EXPECT_DOUBLE_EQ(a.values()[1], 3.0);
}

TEST(MatrixMarket, PatternFieldDefaultsToOnes) {
  std::stringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 2\n"
      "2 2\n");
  Coo<double> a = read_matrix_market(in);
  ASSERT_EQ(a.nnz(), 2u);
  EXPECT_DOUBLE_EQ(a.values()[0], 1.0);
}

TEST(MatrixMarket, RejectsMalformedInput) {
  std::stringstream bad1("not a banner\n1 1 0\n");
  EXPECT_THROW(read_matrix_market(bad1), Error);
  std::stringstream bad2(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n");
  EXPECT_THROW(read_matrix_market(bad2), Error);  // index out of range
  std::stringstream bad3(
      "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(bad3), Error);  // truncated
  std::stringstream bad4(
      "%%MatrixMarket matrix array real general\n2 2\n1.0\n");
  EXPECT_THROW(read_matrix_market(bad4), Error);  // dense unsupported
}

TEST(MatrixMarket, HostileHeadersThrow) {
  // Each header once loaded silently as the wrong shape or died outside
  // crsd::Error (bad_alloc / length_error from the up-front reserve).
  for (const char* header : {
           "%%MatrixMarket matrix coordinate real general\n"
           "4294967297 2 1\n1 1 1.0\n",  // rows wrap to 1 in 32 bits
           "%%MatrixMarket matrix coordinate real general\n"
           "2 2 100000000000000\n1 1 1.0\n",
           "%%MatrixMarket matrix coordinate real symmetric\n"
           "2 2 9223372036854775807\n1 1 1.0\n",
       }) {
    std::stringstream in(header);
    EXPECT_THROW(read_matrix_market(in), Error) << header;
  }
}

TEST(MatrixMarket, CorruptBytesThrowOrLoadCanonicalCoo) {
  // XOR each byte of a written stream in turn with a seeded nonzero mask:
  // every case must either throw crsd::Error or return a canonical Coo
  // whose entries lie inside the shape it declares.
  Rng rng(13);
  Coo<double> a(9, 7);
  for (int k = 0; k < 20; ++k) {
    a.add(rng.next_index(0, 8), rng.next_index(0, 6), rng.next_double(-2, 2));
  }
  a.canonicalize();
  std::stringstream buf;
  write_matrix_market(buf, a);
  const std::string payload = buf.str();

  int thrown = 0;
  int loaded = 0;
  for (std::size_t off = 0; off < payload.size(); ++off) {
    unsigned char mask = 0;
    while (mask == 0) mask = static_cast<unsigned char>(rng.next_u64());
    std::string bad = payload;
    bad[off] = static_cast<char>(static_cast<unsigned char>(bad[off]) ^ mask);
    std::stringstream in(bad);
    try {
      const Coo<double> got = read_matrix_market(in);
      ++loaded;
      EXPECT_TRUE(got.is_canonical()) << "byte " << off;
      for (size64_t k = 0; k < got.nnz(); ++k) {
        const index_t r = got.row_indices()[k];
        const index_t c = got.col_indices()[k];
        ASSERT_TRUE(r >= 0 && r < got.num_rows() && c >= 0 &&
                    c < got.num_cols())
            << "byte " << off << " entry " << k;
        if (k > 0) {
          const index_t pr = got.row_indices()[k - 1];
          const index_t pc = got.col_indices()[k - 1];
          ASSERT_TRUE(pr < r || (pr == r && pc < c))
              << "byte " << off << " entry " << k << " out of order";
        }
      }
    } catch (const Error&) {
      ++thrown;
    }
  }
  // Sanity: the sweep exercised both outcomes.
  EXPECT_GT(thrown, 0);
  EXPECT_GT(loaded, 0);
}

TEST(Stats, DiagonalHistogramAndPaddedSizes) {
  // 4x4 with main diagonal full and one superdiagonal with 2 entries.
  Coo<double> a(4, 4);
  for (index_t i = 0; i < 4; ++i) a.add(i, i, 1.0);
  a.add(0, 1, 1.0);
  a.add(2, 3, 1.0);
  a.canonicalize();
  const StructureStats s = compute_stats(a);
  EXPECT_EQ(s.nnz, 6u);
  ASSERT_EQ(s.num_diagonals(), 2u);
  EXPECT_EQ(s.diagonals[0].offset, 0);
  EXPECT_EQ(s.diagonals[0].nnz, 4u);
  EXPECT_EQ(s.diagonals[0].length, 4u);
  EXPECT_EQ(s.diagonals[1].offset, 1);
  EXPECT_EQ(s.diagonals[1].nnz, 2u);
  EXPECT_EQ(s.diagonals[1].length, 3u);
  EXPECT_EQ(s.dia_padded_elements(), 8u);
  EXPECT_EQ(s.max_nnz_per_row, 2);
  EXPECT_EQ(s.min_nnz_per_row, 1);
  EXPECT_EQ(s.ell_padded_elements(), 8u);
  EXPECT_NEAR(s.dia_efficiency(), 0.75, 1e-12);
}

TEST(Stats, DiagonalLengthRectangular) {
  EXPECT_EQ(diagonal_length(3, 5, 0), 3u);
  EXPECT_EQ(diagonal_length(3, 5, 2), 3u);
  EXPECT_EQ(diagonal_length(3, 5, 4), 1u);
  EXPECT_EQ(diagonal_length(3, 5, -2), 1u);
  EXPECT_EQ(diagonal_length(3, 5, -3), 0u);
  EXPECT_EQ(diagonal_length(5, 3, -4), 1u);
}

}  // namespace
}  // namespace crsd
