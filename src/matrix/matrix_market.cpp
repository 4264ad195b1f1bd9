#include "matrix/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace crsd {
namespace {

std::string to_lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

enum class Field { kReal, kInteger, kPattern };
enum class Symmetry { kGeneral, kSymmetric, kSkewSymmetric };

struct Banner {
  Field field = Field::kReal;
  Symmetry symmetry = Symmetry::kGeneral;
};

Banner parse_banner(const std::string& line) {
  std::istringstream is(line);
  std::string tag, object, format, field, symmetry;
  is >> tag >> object >> format >> field >> symmetry;
  CRSD_CHECK_MSG(tag == "%%MatrixMarket",
                 "not a Matrix Market stream (missing banner)");
  CRSD_CHECK_MSG(to_lower(object) == "matrix", "unsupported object: " << object);
  CRSD_CHECK_MSG(to_lower(format) == "coordinate",
                 "only coordinate format is supported, got: " << format);
  Banner b;
  const std::string f = to_lower(field);
  if (f == "real") {
    b.field = Field::kReal;
  } else if (f == "integer") {
    b.field = Field::kInteger;
  } else if (f == "pattern") {
    b.field = Field::kPattern;
  } else {
    throw Error("unsupported Matrix Market field: " + field);
  }
  const std::string s = to_lower(symmetry);
  if (s == "general") {
    b.symmetry = Symmetry::kGeneral;
  } else if (s == "symmetric") {
    b.symmetry = Symmetry::kSymmetric;
  } else if (s == "skew-symmetric") {
    b.symmetry = Symmetry::kSkewSymmetric;
  } else {
    throw Error("unsupported Matrix Market symmetry: " + symmetry);
  }
  return b;
}

}  // namespace

Coo<double> read_matrix_market(std::istream& in) {
  std::string line;
  CRSD_CHECK_MSG(static_cast<bool>(std::getline(in, line)),
                 "empty Matrix Market stream");
  const Banner banner = parse_banner(line);

  // Skip comment lines; first non-comment line is the size header.
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream size_line(line);
  long long rows = -1, cols = -1, entries = -1;
  size_line >> rows >> cols >> entries;
  CRSD_CHECK_MSG(rows >= 0 && cols >= 0 && entries >= 0,
                 "malformed size line: '" << line << "'");
  constexpr long long kMaxDim = std::numeric_limits<index_t>::max();
  CRSD_CHECK_MSG(rows <= kMaxDim && cols <= kMaxDim,
                 "matrix dimensions " << rows << " x " << cols
                                      << " exceed the index range");

  Coo<double> a(static_cast<index_t>(rows), static_cast<index_t>(cols));
  // The header's entry count is untrusted: reserve at most a bounded prefix
  // and let add() grow past it, so a lying header cannot force a huge
  // allocation before a single entry has been read.
  constexpr long long kMaxReserve = 1 << 20;
  a.reserve(static_cast<size64_t>(std::min(entries, kMaxReserve)) *
            (banner.symmetry == Symmetry::kGeneral ? 1 : 2));

  for (long long k = 0; k < entries; ++k) {
    long long r = 0, c = 0;
    double v = 1.0;
    if (!(in >> r >> c)) {
      throw Error("truncated Matrix Market stream: entry " + std::to_string(k));
    }
    if (banner.field != Field::kPattern) {
      if (!(in >> v)) {
        throw Error("missing value at entry " + std::to_string(k));
      }
    }
    CRSD_CHECK_MSG(r >= 1 && r <= rows && c >= 1 && c <= cols,
                   "index out of range at entry " << k << ": (" << r << ", "
                                                  << c << ")");
    const index_t ri = static_cast<index_t>(r - 1);
    const index_t ci = static_cast<index_t>(c - 1);
    a.add(ri, ci, v);
    if (ri != ci) {
      if (banner.symmetry == Symmetry::kSymmetric) {
        a.add(ci, ri, v);
      } else if (banner.symmetry == Symmetry::kSkewSymmetric) {
        a.add(ci, ri, -v);
      }
    }
  }
  a.canonicalize();
  return a;
}

Coo<double> read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  CRSD_CHECK_MSG(in.good(), "cannot open Matrix Market file: " << path);
  return read_matrix_market(in);
}

void write_matrix_market(std::ostream& out, const Coo<double>& a) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << "% written by crsd-spmv\n";
  out << a.num_rows() << ' ' << a.num_cols() << ' ' << a.nnz() << '\n';
  const auto& rows = a.row_indices();
  const auto& cols = a.col_indices();
  const auto& vals = a.values();
  out.precision(17);
  for (size64_t k = 0; k < a.nnz(); ++k) {
    out << rows[k] + 1 << ' ' << cols[k] + 1 << ' ' << vals[k] << '\n';
  }
  CRSD_CHECK_MSG(out.good(), "write failure while emitting Matrix Market data");
}

void write_matrix_market_file(const std::string& path, const Coo<double>& a) {
  std::ofstream out(path);
  CRSD_CHECK_MSG(out.good(), "cannot open for writing: " << path);
  write_matrix_market(out, a);
}

}  // namespace crsd
