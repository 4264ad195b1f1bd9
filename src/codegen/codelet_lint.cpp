#include "codegen/codelet_lint.hpp"

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "codegen/crsd_codegen.hpp"
#include "core/pattern.hpp"

namespace crsd::codegen {
namespace {

using check::Code;
using check::Diagnostic;

/// Precision-independent structural expectations, re-derived from the
/// container exactly the way the generators derive them.
struct LintMeta {
  index_t num_rows = 0;
  index_t num_cols = 0;
  index_t mrows = 0;
  index_t num_scatter_rows = 0;
  ValuePrecision value_precision = ValuePrecision::kNative;
  ScatterIndexMode scol_mode = ScatterIndexMode::kIndex32;
  const std::vector<DiagonalPattern>* patterns = nullptr;
  const std::vector<index_t>* cum_segments = nullptr;
  std::vector<SegmentInterior> interior;
};

template <Real T>
LintMeta make_lint_meta(const CrsdMatrix<T>& m) {
  LintMeta meta;
  meta.num_rows = m.num_rows();
  meta.num_cols = m.num_cols();
  meta.mrows = m.mrows();
  meta.num_scatter_rows = m.num_scatter_rows();
  meta.value_precision = m.value_precision();
  meta.scol_mode = m.scatter_index_mode();
  meta.patterns = &m.patterns();
  meta.cum_segments = &m.cum_segments();
  meta.interior.reserve(m.patterns().size());
  for (index_t p = 0; p < m.num_patterns(); ++p) {
    meta.interior.push_back(m.interior_segments(p));
  }
  return meta;
}

/// Mirror of the generator's offset_in_range: true when diagonal `off`
/// stays inside [0, num_cols) for every row the pattern covers, i.e. when
/// an unclamped x access is legal.
bool offset_in_range(const LintMeta& meta, const DiagonalPattern& p,
                     std::int64_t off) {
  const index_t first_row = p.start_row;
  const index_t last_row = std::min<index_t>(
      meta.num_rows, p.start_row + p.num_segments * meta.mrows) - 1;
  return first_row + off >= 0 &&
         static_cast<std::int64_t>(last_row) + off <= meta.num_cols - 1;
}

bool offset_is_live(const DiagonalPattern& p, std::int64_t off) {
  return std::binary_search(p.offsets.begin(), p.offsets.end(),
                            static_cast<diag_offset_t>(off));
}

void emit(std::vector<Diagnostic>& out, Code code, std::int64_t line_no,
          const std::string& message) {
  Diagnostic d;
  d.code = code;
  d.offset = line_no;  // 1-based source line of the finding
  d.message = message;
  out.push_back(std::move(d));
}

/// Calls fn(line, 1-based line number) for every '\n'-separated line.
template <typename Fn>
void for_each_line(std::string_view source, Fn&& fn) {
  std::int64_t line_no = 0;
  for (std::size_t pos = 0; pos < source.size();) {
    const std::size_t end = std::min(source.find('\n', pos), source.size());
    fn(source.substr(pos, end - pos), ++line_no);
    pos = end + 1;
  }
}

std::string ordinal(std::size_t pattern, std::int64_t value) {
  return "pattern " + std::to_string(pattern) + ": " + std::to_string(value);
}

// --- The scanner. Every line the lint reads is one of the generators'
// fixed shapes: literal text with decimal constants in known places. A
// shape is written as that text with %d standing for an integer that may
// carry a '-' and %u for one that may not; it matches at the leftmost place
// in a line where all of it fits. ---

constexpr std::size_t npos = std::string_view::npos;

/// Consumes a decimal integer at line[pos], with a leading '-' if `sign`.
bool eat_int(std::string_view line, std::size_t& pos, std::int64_t& value,
             bool sign) {
  std::size_t p = pos;
  const bool neg = sign && p < line.size() && line[p] == '-';
  if (neg) ++p;
  const std::size_t first = p;
  std::int64_t v = 0;
  for (; p < line.size() && line[p] >= '0' && line[p] <= '9'; ++p) {
    if (p - first == 18) return false;  // no baked constant is this long
    v = v * 10 + (line[p] - '0');
  }
  if (p == first) return false;
  value = neg ? -v : v;
  pos = p;
  return true;
}

/// Matches `shape` at line[pos]; on a match its integers go to out[0],
/// out[1], ... and pos moves past it.
bool match_at(std::string_view line, std::size_t& pos, std::string_view shape,
              std::int64_t* out = nullptr) {
  std::size_t p = pos;
  for (std::size_t s = 0; s < shape.size(); ++s) {
    if (shape[s] == '%') {
      if (!eat_int(line, p, *out++, shape[++s] == 'd')) return false;
    } else if (p < line.size() && line[p] == shape[s]) {
      ++p;
    } else {
      return false;
    }
  }
  pos = p;
  return true;
}

/// Start of the leftmost match of `shape` in `line` at or after `from`
/// (npos if none); its integers go to `out`.
std::size_t find_shape(std::string_view line, std::string_view shape,
                       std::int64_t* out, std::size_t from = 0) {
  const std::string_view head = shape.substr(0, shape.find('%'));
  for (std::size_t at = line.find(head, from); at != npos;
       at = line.find(head, at + 1)) {
    std::size_t pos = at;
    if (match_at(line, pos, shape, out)) return at;
  }
  return npos;
}

/// Literal lane trip count of `line`: a lane loop's bound, else the extent
/// of the first sums/xg/targets lane array.
bool lane_extent(std::string_view line, std::int64_t& trip) {
  if (find_shape(line, "for (std::int32_t lane = 0; lane < %u; ++lane)",
                 &trip) != npos) {
    return true;
  }
  std::size_t first = npos;
  for (std::string_view array : {"sums[%u]", "xg[%u]", "targets[%u]"}) {
    std::int64_t v = 0;
    const std::size_t at = find_shape(line, array, &v);
    if (at < first) {
      first = at;
      trip = v;
    }
  }
  return first != npos;
}

bool is_ident_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

/// Calls fn(base, offset) for every x-stream access in `line`, left to
/// right: x[r], x[r + 5], x[(row0 + lane) - 3], xx[lane + 2], xx[i + -4],
/// and the SpMM codelets' per-RHS streams xx0[lane + 2] / xk1[r - 3]. The
/// stream name is x plus lowercase letters and digits, does not continue an
/// identifier and is not xbuf; accesses do not overlap. Clamped accesses
/// (x[crsd_clampi(...)]) are the column-clamp rule's.
template <typename Fn>
void for_each_x_access(std::string_view line, Fn&& fn) {
  std::size_t done = 0;  // end of the previous access
  for (std::size_t at = line.find('x'); at != npos;
       at = line.find('x', at + 1)) {
    if (at > 0 && (at - 1 < done || is_ident_start(line[at - 1]))) continue;
    if (line.substr(at + 1).starts_with("buf")) continue;
    std::size_t pos = line.find_first_not_of(
        "abcdefghijklmnopqrstuvwxyz0123456789", at + 1);
    if (pos == npos || line[pos++] != '[') continue;
    for (const char* base : {"r", "i", "lane", "(row0 + lane)"}) {
      std::int64_t up = 0, down = 0;
      if (match_at(line, pos, std::string(base) + "]") ||
          match_at(line, pos, std::string(base) + " + %d]", &up) ||
          match_at(line, pos, std::string(base) + " - %d]", &down)) {
        fn(base, up - down);
        done = pos;
        break;
      }
    }
  }
}

/// Shared per-line checks: literal lane loops / lane-array extents must use
/// mrows, column clamps must use num_cols-1, baked x offsets must be live
/// diagonals of the current pattern (and in range when unclamped).
void check_line(const LintMeta& meta, std::string_view line,
                std::int64_t line_no, std::int64_t pattern,
                const DiagonalPattern* pat, std::vector<Diagnostic>& out) {
  std::int64_t trip = 0;
  if (lane_extent(line, trip) && trip != meta.mrows) {
    emit(out, Code::kLintTripCount, line_no,
         "literal lane trip count " + std::to_string(trip) + " != mrows (" +
             std::to_string(meta.mrows) + ")");
  }
  // Column clamps, crsd_clampi(<expr without a comma>, 0, <hi>).
  for (std::size_t at = line.find("crsd_clampi("); at != npos;
       at = line.find("crsd_clampi(", at + 1)) {
    std::size_t pos = line.find(',', at);
    std::int64_t hi = 0;
    if (pos == npos || !match_at(line, pos, ", 0, %d)", &hi)) continue;
    if (hi != meta.num_cols - 1) {
      emit(out, Code::kLintBakedOffset, line_no,
           "column clamp upper bound " + std::to_string(hi) +
               " != num_cols-1 (" + std::to_string(meta.num_cols - 1) + ")");
    }
    at = pos - 1;  // the next clamp starts after this one
  }
  if (pat == nullptr) return;
  for_each_x_access(line, [&](std::string_view base, std::int64_t off) {
    if (base == "i") {
      // AD-group staging copy: xbuf[i] = xx[i + first]; `first` must be a
      // live diagonal (the group's first offset).
      if (!offset_is_live(*pat, off)) {
        emit(out, Code::kLintBakedOffset, line_no,
             "staged x window starts at offset " + std::to_string(off) +
                 ", not a live diagonal of " +
                 ordinal(static_cast<std::size_t>(pattern), off));
      }
    } else if (!offset_is_live(*pat, off)) {
      emit(out, Code::kLintBakedOffset, line_no,
           "baked x offset " + std::to_string(off) +
               " is not a live diagonal of pattern " +
               std::to_string(pattern));
    } else if ((base == "r" || base == "(row0 + lane)") &&
               !offset_in_range(meta, *pat, off)) {
      // Unclamped row-relative access: legal only when provably in range.
      emit(out, Code::kLintBakedOffset, line_no,
           "unclamped x access at offset " + std::to_string(off) +
               " can leave [0, num_cols) for pattern " +
               std::to_string(pattern));
    }
  });
}

/// Flags every pattern the scan never saw in the generated `where`.
void report_unseen(const std::vector<bool>& seen, const std::string& where,
                   std::vector<Diagnostic>& out) {
  for (std::size_t p = 0; p < seen.size(); ++p) {
    if (!seen[p]) {
      emit(out, Code::kLintPatternDispatch, -1,
           "pattern " + std::to_string(p) + " is missing from the generated " +
               where);
    }
  }
}

/// Per-line structural checks shared by the SpMV and SpMM CPU codelets:
/// markers, segment/interior bound clamps, trip counts, baked offsets.
/// Symbol presence is checked by the per-codelet wrappers (the SpMM codelet
/// carries one symbol pair per register-block size).
void lint_cpu_body(const LintMeta& meta, const std::string& source,
                   std::vector<Diagnostic>& out) {
  const auto& patterns = *meta.patterns;
  const auto& cum = *meta.cum_segments;
  std::vector<bool> seen(patterns.size(), false);
  std::int64_t cur = -1;  // pattern the scanner is inside
  for_each_line(source, [&](std::string_view line, std::int64_t line_no) {
    // The pattern marker: `// pattern <p>: ... segments [<s0>, <s1>),
    // interior [<i0>, <i1>)`, fields {p, s0, s1, i0, i1}.
    std::int64_t f[5];
    const std::size_t at = find_shape(line, "// pattern %u: ", f);
    if (at != npos &&
        find_shape(line, "segments [%d, %d), interior [%d, %d)", f + 1, at) !=
            npos) {
      cur = f[0];
      if (cur >= static_cast<std::int64_t>(patterns.size())) {
        emit(out, Code::kLintPatternDispatch, line_no,
             "marker names pattern " + std::to_string(cur) +
                 " but the container has " + std::to_string(patterns.size()));
        cur = -1;
        return;
      }
      const std::size_t p = static_cast<std::size_t>(cur);
      seen[p] = true;
      if (f[1] != cum[p] || f[2] != cum[p + 1]) {
        emit(out, Code::kLintPatternDispatch, line_no,
             "marker segment range [" + std::to_string(f[1]) + ", " +
                 std::to_string(f[2]) + ") != container's [" +
                 std::to_string(cum[p]) + ", " + std::to_string(cum[p + 1]) +
                 ") for pattern " + std::to_string(cur));
      }
      if (f[3] != meta.interior[p].begin || f[4] != meta.interior[p].end) {
        emit(out, Code::kLintInteriorSplit, line_no,
             "marker interior [" + std::to_string(f[3]) + ", " +
                 std::to_string(f[4]) + ") != pattern_interior_segments' [" +
                 std::to_string(meta.interior[p].begin) + ", " +
                 std::to_string(meta.interior[p].end) + ") for pattern " +
                 std::to_string(cur));
      }
      return;
    }
    const DiagonalPattern* pat =
        cur >= 0 ? &patterns[static_cast<std::size_t>(cur)] : nullptr;
    if (cur >= 0) {
      const std::size_t p = static_cast<std::size_t>(cur);
      std::int64_t v = 0;
      if (find_shape(line, "g0 = seg_begin > %d", &v) != npos && v != cum[p]) {
        emit(out, Code::kLintPatternDispatch, line_no,
             "segment lower bound is " + ordinal(p, v) +
                 ", container expects " + std::to_string(cum[p]));
      } else if (find_shape(line, "g1 = seg_end < %d", &v) != npos &&
                 v != cum[p + 1]) {
        emit(out, Code::kLintPatternDispatch, line_no,
             "segment upper bound is " + ordinal(p, v) +
                 ", container expects " + std::to_string(cum[p + 1]));
      } else if (find_shape(line, "i0 = crsd_clampi(%d, g0, g1)", &v) != npos &&
                 v != meta.interior[p].begin) {
        emit(out, Code::kLintInteriorSplit, line_no,
             "interior begin is " + ordinal(p, v) +
                 ", pattern_interior_segments gives " +
                 std::to_string(meta.interior[p].begin));
      } else if (find_shape(line, "i1 = crsd_clampi(%d, i0, g1)", &v) != npos &&
                 v != meta.interior[p].end) {
        emit(out, Code::kLintInteriorSplit, line_no,
             "interior end is " + ordinal(p, v) +
                 ", pattern_interior_segments gives " +
                 std::to_string(meta.interior[p].end));
      }
    }
    check_line(meta, line, line_no, cur, pat, out);
  });
  report_unseen(seen, "source", out);
}

/// Storage-mode checks for compact-storage codelets (the SpMV CPU generator
/// is the only one that emits them).
///
/// f16 values: the translation unit must carry the binary16 decoder
/// (`crsd_h2f`, exact mirror of crsd::half_to_float) and every accumulation
/// that touches a value stream must route the load through it — a raw
/// `unit[...]`/`scatter_val[...]` product would multiply the bit pattern,
/// which is numerically silent garbage, not a crash.
///
/// Delta-compressed scatter columns: each row decodes a varint byte range
/// [row_bytes[i], row_bytes[i+1]) and both loops must be bounded by that
/// range — the outer per-entry loop by `while (pos < end)` and the inner
/// continuation-byte loop by `(byte & 0x80u) && pos < end`, so a malformed
/// stream (truncated continuation byte) cannot read past the row's range.
void lint_storage_modes(const LintMeta& meta, const std::string& source,
                        std::vector<Diagnostic>& out) {
  if (meta.value_precision == ValuePrecision::kFloat16) {
    if (source.find("static inline float crsd_h2f(VT h)") ==
            npos ||
        source.find("struct VT { std::uint16_t bits; };") ==
            npos) {
      emit(out, Code::kLintHalfDecoder, -1,
           "f16 storage but the crsd_h2f binary16 decoder is missing");
    }
    for_each_line(source, [&](std::string_view line, std::int64_t line_no) {
      // An accumulation (`+= `) that reads a value stream after it.
      const std::size_t acc = line.find("+= ");
      if (acc != npos &&
          (line.find("unit[", acc + 3) != npos ||
           line.find("scatter_val[", acc + 3) != npos) &&
          line.find("crsd_h2f(") == npos) {
        emit(out, Code::kLintHalfDecoder, line_no,
             "f16 value stream accumulated without the crsd_h2f decode");
      }
    });
  }
  if (meta.scol_mode == ScatterIndexMode::kDelta &&
      meta.num_scatter_rows > 0) {
    if (source.find("const std::int32_t end = row_bytes[i + 1];") ==
            npos ||
        source.find("while (pos < end)") == npos) {
      emit(out, Code::kLintDeltaGuard, -1,
           "delta scatter columns but the per-row byte range "
           "[row_bytes[i], row_bytes[i+1]) does not bound the decode loop");
    }
    bool guarded = false;
    for_each_line(source, [&](std::string_view line, std::int64_t line_no) {
      if (line.find("byte & 0x80u") == npos) return;
      if (line.find("(byte & 0x80u) && pos < end") != npos) {
        guarded = true;
      } else if (line.find("while") != npos) {
        emit(out, Code::kLintDeltaGuard, line_no,
             "varint continuation loop lacks the byte-range guard "
             "(`&& pos < end`); a truncated stream would read past the row");
      }
    });
    if (!guarded) {
      emit(out, Code::kLintDeltaGuard, -1,
           "guarded varint decode loop "
           "`while ((byte & 0x80u) && pos < end)` not found");
    }
  }
}

/// Flags every `<stem><suffix>` entry point missing from `source`.
void expect_entry_points(const std::string& source, const std::string& stem,
                         std::initializer_list<const char*> suffixes,
                         std::vector<Diagnostic>& out) {
  for (const char* suffix : suffixes) {
    const std::string decl = "extern \"C\" void " + stem + suffix + "(";
    if (source.find(decl) == npos) {
      emit(out, Code::kLintMissingSymbol, -1,
           "expected entry point " + stem + suffix + " not found");
    }
  }
}

std::vector<Diagnostic> lint_cpu(const LintMeta& meta,
                                 const std::string& source) {
  std::vector<Diagnostic> out;
  expect_entry_points(source, kCpuCodeletSymbol, {"_diag", "_scatter"}, out);
  lint_cpu_body(meta, source, out);
  lint_storage_modes(meta, source, out);
  return out;
}

std::vector<Diagnostic> lint_cpu_spmm(const LintMeta& meta,
                                      const std::string& source) {
  std::vector<Diagnostic> out;
  for (int rhs : kSpmmRhsBlocks) {
    expect_entry_points(
        source, std::string(kCpuSpmmCodeletSymbol) + "_r" + std::to_string(rhs),
        {"_diag", "_scatter"}, out);
    // The baked register-block width must be declared next to each variant;
    // a mismatch means the dispatcher would feed the wrong number of
    // vectors to the unrolled accumulators.
    const std::string marker =
        "// rhs_block " + std::to_string(rhs) + " vectors";
    if (source.find(marker) == npos) {
      emit(out, Code::kLintMissingSymbol, -1,
           "register-block marker \"" + marker + "\" not found");
    }
  }
  lint_cpu_body(meta, source, out);
  return out;
}

std::vector<Diagnostic> lint_gpu(const LintMeta& meta,
                                 const std::string& source) {
  std::vector<Diagnostic> out;
  expect_entry_points(source, kGpuCodeletSymbol, {"_group", "_scatter_group"},
                      out);

  const auto& patterns = *meta.patterns;
  const auto& cum = *meta.cum_segments;
  std::vector<bool> seen(patterns.size(), false);
  std::int64_t cur = -1;
  for_each_line(source, [&](std::string_view line, std::int64_t line_no) {
    std::int64_t v[2];  // {bound, pattern}
    if (find_shape(line, "if (group_id < %d) {  // pattern %u:", v) != npos) {
      cur = v[1];
      if (cur >= static_cast<std::int64_t>(patterns.size())) {
        emit(out, Code::kLintPatternDispatch, line_no,
             "dispatch names pattern " + std::to_string(cur) +
                 " but the container has " + std::to_string(patterns.size()));
        cur = -1;
        return;
      }
      const std::size_t p = static_cast<std::size_t>(cur);
      seen[p] = true;
      if (v[0] != cum[p + 1]) {
        emit(out, Code::kLintPatternDispatch, line_no,
             "dispatch bound is " + ordinal(p, v[0]) +
                 ", container expects " + std::to_string(cum[p + 1]));
      }
      return;
    }
    const DiagonalPattern* pat =
        cur >= 0 ? &patterns[static_cast<std::size_t>(cur)] : nullptr;
    check_line(meta, line, line_no, cur, pat, out);
  });
  report_unseen(seen, "dispatch chain", out);
  return out;
}

}  // namespace

template <Real T>
std::vector<Diagnostic> lint_cpu_codelet_source(const CrsdMatrix<T>& m,
                                                const std::string& source) {
  return lint_cpu(make_lint_meta(m), source);
}

template <Real T>
std::vector<Diagnostic> lint_cpu_spmm_codelet_source(
    const CrsdMatrix<T>& m, const std::string& source) {
  return lint_cpu_spmm(make_lint_meta(m), source);
}

template <Real T>
std::vector<Diagnostic> lint_gpu_codelet_source(const CrsdMatrix<T>& m,
                                                const std::string& source) {
  return lint_gpu(make_lint_meta(m), source);
}

template std::vector<Diagnostic> lint_cpu_codelet_source<double>(
    const CrsdMatrix<double>&, const std::string&);
template std::vector<Diagnostic> lint_cpu_codelet_source<float>(
    const CrsdMatrix<float>&, const std::string&);
template std::vector<Diagnostic> lint_cpu_spmm_codelet_source<double>(
    const CrsdMatrix<double>&, const std::string&);
template std::vector<Diagnostic> lint_cpu_spmm_codelet_source<float>(
    const CrsdMatrix<float>&, const std::string&);
template std::vector<Diagnostic> lint_gpu_codelet_source<double>(
    const CrsdMatrix<double>&, const std::string&);
template std::vector<Diagnostic> lint_gpu_codelet_source<float>(
    const CrsdMatrix<float>&, const std::string&);

}  // namespace crsd::codegen
