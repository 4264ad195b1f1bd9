#include "span_trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>

namespace perfbench {
namespace {

thread_local std::vector<int> t_open;  // ids of spans open on this thread

int thread_id() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

std::string layer_of(const char* name) {
  const std::string s(name);
  const std::size_t dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

int Tracer::open(const char* name) {
  SpanRecord r;
  r.name = name;
  r.parent = t_open.empty() ? -1 : t_open.back();
  r.tid = thread_id();
  std::lock_guard<std::mutex> lk(mu_);
  r.id = static_cast<int>(spans_.size());
  r.start_ns = now_ns();
  spans_.push_back(r);
  t_open.push_back(r.id);
  return r.id;
}

void Tracer::close(int id) {
  const std::uint64_t end = now_ns();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
}

int Tracer::add(const char* name, std::uint64_t start_ns,
                 std::uint64_t end_ns, int parent, std::int64_t request) {
  SpanRecord r;
  r.name = name;
  r.start_ns = start_ns;
  r.end_ns = end_ns;
  r.parent = parent;
  r.request = request;
  r.tid = thread_id();
  std::lock_guard<std::mutex> lk(mu_);
  r.id = static_cast<int>(spans_.size());
  spans_.push_back(r);
  return r.id;
}

int Tracer::current() const { return t_open.empty() ? -1 : t_open.back(); }

std::vector<double> Tracer::durations(const char* name) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> out;
  const std::string want(name);
  for (const SpanRecord& s : spans_) {
    if (want == s.name) out.push_back(double(s.end_ns - s.start_ns) * 1e-9);
  }
  return out;
}

double Tracer::total_seconds(const char* name) const {
  double t = 0;
  for (double d : durations(name)) t += d;
  return t;
}

std::vector<double> Tracer::self_per_span() const {
  // Children intervals per parent, clipped to the parent, then unioned.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans_.size());
  for (const SpanRecord& s : spans_) {
    if (s.parent < 0) continue;
    const SpanRecord& p = spans_[static_cast<std::size_t>(s.parent)];
    const std::uint64_t b = std::max(s.start_ns, p.start_ns);
    const std::uint64_t e = std::min(s.end_ns, p.end_ns);
    if (e > b) kids[static_cast<std::size_t>(s.parent)].emplace_back(b, e);
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, cur_b = 0, cur_e = 0;
    for (const auto& [b, e] : iv) {
      if (cur_e <= b) {
        covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    covered += cur_e - cur_b;
    const std::uint64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    self[i] = double(dur - std::min(dur, covered)) * 1e-9;
  }
  return self;
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::lock_guard<std::mutex> lk(mu_);
  const std::vector<double> self = self_per_span();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[layer_of(spans_[i].name)] += self[i];
  }
  return out;
}

double Tracer::self_seconds(const char* name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const std::vector<double> self = self_per_span();
  const std::string want(name);
  double t = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (want == spans_[i].name) t += self[i];
  }
  return t;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream os(path);
  if (!os) return false;
  std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const SpanRecord& s : spans_) t0 = std::min(t0, s.start_ns);
  os << "{\"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"id\": %d, \"parent\": %d, \"request\": %lld}}",
                  i == 0 ? "" : ",\n", s.name, layer_of(s.name).c_str(), s.tid,
                  double(s.start_ns - t0) * 1e-3,
                  double(s.end_ns - s.start_ns) * 1e-3, s.id, s.parent,
                  static_cast<long long>(s.request));
    os << buf;
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
