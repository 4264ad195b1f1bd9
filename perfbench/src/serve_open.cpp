// Workload serve-open: an async serve::ServeEngine (default options, a pool
// of 2 workers plus the dispatcher) serving four suite matrices at scale
// 0.05 to eight tenants. After a warm-up drain, three phases:
//   low     open-loop Poisson arrivals at kLowRps (batches rarely form),
//   high    open-loop Poisson arrivals at kHighRps (coalescing must engage),
//   backlog rounds of kBacklog requests submitted at once and drained.
// One generator thread sends on schedule and polls outstanding handles
// between sends, so each completion is stamped when its handle resolves,
// in any order. Latency runs from the request's due time. A seeded sample
// of responses is compared bitwise with CrsdMatrix::spmv_scalar.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "matrix/paper_suite.hpp"
#include "report.hpp"
#include "serve/serve.hpp"
#include "span_trace.hpp"

namespace perfbench {
namespace {

constexpr double kScale = 0.05;
// Paper-suite ids: kim2, s110_110_68, nemeth21, ecology1.
constexpr int kMatrices[] = {10, 20, 15, 5};
constexpr int kNumMatrices = 4;
constexpr int kTenants = 8;
constexpr int kVectorsPerMatrix = 8;
constexpr int kPoolThreads = 3;  // the dispatcher's thread + 2 workers
constexpr double kLowRps = 1000;
constexpr double kHighRps = 2000;
constexpr double kHighP99LimitMs = 50;
constexpr int kBacklog = 64;  // ServeOptions::max_queue_depth default
constexpr double kCheckFraction = 0.125;
constexpr int kSetups = 3;

using crsd::serve::RequestStatus;

struct Inputs {
  std::vector<crsd::Coo<double>> coos;
  std::vector<std::vector<std::vector<double>>> xs, refs;  // [matrix][vec]
  std::vector<double> nnz;
};

struct InFlight {
  crsd::serve::RequestHandle h;
  std::int64_t id = 0;
  int matrix = 0, vec = 0;
  bool check = false;
  std::uint64_t due_ns = 0, submit_ns = 0, sent_ns = 0;
};

struct PhaseStats {
  std::vector<double> latency_ms, late_ms, submit_us, batch_k;
  double work_flops = 0;  // 2 * nnz of every completed request
};

class Generator {
 public:
  Generator(crsd::serve::ServeEngine& eng, const Inputs& in,
            const std::vector<crsd::serve::MatrixId>& ids, Report& r,
            std::uint64_t seed)
      : eng_(eng), in_(in), ids_(ids), r_(r), rng_(seed) {}

  /// Sends one request due at `due_ns` (now, if late) and tracks it. A
  /// random tenant sends it unless `tenant` is given; a given tenant's
  /// response is always checked.
  void send(std::uint64_t due_ns, PhaseStats& st, int tenant = -1) {
    InFlight f;
    f.check = tenant >= 0 || rng_.next_bool(kCheckFraction);
    if (tenant < 0) tenant = static_cast<int>(rng_.next_below(kTenants));
    f.matrix = tenant % kNumMatrices;
    f.vec = static_cast<int>(rng_.next_below(kVectorsPerMatrix));
    f.id = next_id_++;
    f.due_ns = due_ns;
    std::vector<double> x = in_.xs[static_cast<std::size_t>(f.matrix)]
                                   [static_cast<std::size_t>(f.vec)];
    f.submit_ns = now_ns();
    f.h = eng_.submit(ids_[static_cast<std::size_t>(f.matrix)],
                      tenant_names_[static_cast<std::size_t>(tenant)],
                      std::move(x));
    f.sent_ns = now_ns();
    st.submit_us.push_back(double(f.sent_ns - f.submit_ns) * 1e-3);
    st.late_ms.push_back(double(f.submit_ns - std::min(f.submit_ns, due_ns)) *
                         1e-6);
    if (f.h.status() == RequestStatus::kRejected) {
      ++rejected_;
      r_.attempt(false);
      return;
    }
    flight_.push_back(std::move(f));
  }

  /// Stamps and checks every resolved handle; returns how many resolved.
  int poll(PhaseStats& st) {
    int done = 0;
    for (std::size_t i = 0; i < flight_.size();) {
      const RequestStatus s = flight_[i].h.status();
      if (s == RequestStatus::kPending) {
        ++i;
        continue;
      }
      finish(flight_[i], s, now_ns(), st);
      flight_[i] = std::move(flight_.back());
      flight_.pop_back();
      ++done;
    }
    return done;
  }

  bool idle() const { return flight_.empty(); }
  std::int64_t rejected() const { return rejected_; }
  crsd::Rng& rng() { return rng_; }
  void set_phase_span(int id) { phase_span_ = id; }

 private:
  void finish(InFlight& f, RequestStatus s, std::uint64_t done_ns,
              PhaseStats& st) {
    bool ok = s == RequestStatus::kDone;
    if (ok && f.check) {
      const std::vector<double>& y = f.h.result();
      const std::vector<double>& ref =
          in_.refs[static_cast<std::size_t>(f.matrix)]
                  [static_cast<std::size_t>(f.vec)];
      ok = y.size() == ref.size() &&
           std::memcmp(y.data(), ref.data(), y.size() * sizeof(double)) == 0;
      if (!ok) {
        std::size_t differ = 0;
        for (std::size_t i = 0; i < std::min(y.size(), ref.size()); ++i) {
          differ += std::memcmp(&y[i], &ref[i], sizeof(double)) != 0;
        }
        r_.wrong("served y of matrix " + std::to_string(f.matrix) +
                 " (batch k = " + std::to_string(f.h.served_batch_k()) +
                 ") differs bitwise from spmv_scalar in " +
                 std::to_string(differ) + " of " + std::to_string(y.size()) +
                 " entries");
      }
    }
    r_.attempt(ok);
    if (!ok) return;
    st.latency_ms.push_back(double(done_ns - f.due_ns) * 1e-6);
    st.batch_k.push_back(double(f.h.served_batch_k()));
    st.work_flops += 2.0 * in_.nnz[static_cast<std::size_t>(f.matrix)];
    if (tracer().enabled()) {
      // One request id from submit to resolve: the request span and its
      // submit child carry it.
      const int req = tracer().add("serve.request", f.submit_ns, done_ns,
                                   phase_span_, f.id);
      tracer().add("serve.submit", f.submit_ns, f.sent_ns, req, f.id);
    }
  }

  crsd::serve::ServeEngine& eng_;
  const Inputs& in_;
  const std::vector<crsd::serve::MatrixId>& ids_;
  Report& r_;
  crsd::Rng rng_;
  std::vector<std::string> tenant_names_ = {"t0", "t1", "t2", "t3",
                                            "t4", "t5", "t6", "t7"};
  std::vector<InFlight> flight_;
  std::int64_t next_id_ = 0, rejected_ = 0;
  int phase_span_ = -1;
};

/// Open-loop Poisson arrivals at `rps` for `seconds`, then waits for every
/// outstanding request.
PhaseStats open_loop(Generator& g, double rps, double seconds) {
  PhaseStats st;
  const std::uint64_t start = now_ns();
  const std::uint64_t end = start + std::uint64_t(seconds * 1e9);
  double next = double(start);
  for (;;) {
    const std::uint64_t now = now_ns();
    while (next <= double(now) && next < double(end)) {
      g.send(std::uint64_t(next), st);
      next += -std::log(1.0 - g.rng().next_double()) / rps * 1e9;
    }
    g.poll(st);
    if (next >= double(end) && g.idle()) break;
    if (next - double(now_ns()) > 100e3) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
  return st;
}

/// kBacklog requests submitted at once, then drained; returns the drain
/// wall time (first submit to last resolution).
double backlog_round(Generator& g, PhaseStats& st) {
  const std::uint64_t start = now_ns();
  for (int i = 0; i < kBacklog; ++i) g.send(now_ns(), st);
  while (!g.idle()) g.poll(st);
  return double(now_ns() - start) * 1e-9;
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / double(v.size());
}

}  // namespace

void run_serve_open(const Args& args, PrivateCaches&, Report& r) {
  std::uint64_t t = now_ns();
  Inputs in;
  crsd::Rng rng(args.seed * 0x9e3779b97f4a7c15ull + 202);
  for (int id : kMatrices) {
    in.coos.push_back(crsd::paper_matrix(id).generate(kScale));
    in.nnz.push_back(double(in.coos.back().nnz()));
    auto& xs = in.xs.emplace_back();
    for (int v = 0; v < kVectorsPerMatrix; ++v) {
      std::vector<double> x(static_cast<std::size_t>(in.coos.back().num_cols()));
      for (double& e : x) e = rng.next_double(-1.0, 1.0);
      xs.push_back(std::move(x));
    }
  }
  r.info("input_gen_s", seconds_since(t), "s", kHostWall);

  crsd::ThreadPool pool(kPoolThreads);
  crsd::serve::ServeOptions opts;
  opts.async = true;

  // Setup = every register_matrix on a fresh engine, repeated; the last
  // engine serves. References come from the first engine's containers.
  // COO -> result ends at the first verified response of every matrix on
  // the serving engine.
  std::vector<double> setup_s;
  std::unique_ptr<crsd::serve::ServeEngine> eng;
  std::vector<crsd::serve::MatrixId> ids;
  std::uint64_t t_setup0 = 0;
  tracer().set_enabled(args.trace);
  for (int s = 0; s < kSetups; ++s) {
    eng.reset();
    ids.clear();
    t_setup0 = now_ns();
    eng = std::make_unique<crsd::serve::ServeEngine>(pool, opts);
    Span span("setup");
    for (const crsd::Coo<double>& a : in.coos) {
      Span reg("serve.register");
      ids.push_back(eng->register_matrix(a).id);
    }
    setup_s.push_back(seconds_since(t_setup0));
    span.end();
    if (s > 0) continue;
    for (std::size_t m = 0; m < in.coos.size(); ++m) {
      const crsd::CrsdMatrix<double>& cm = eng->matrix(ids[m]);
      auto& refs = in.refs.emplace_back();
      for (const std::vector<double>& x : in.xs[m]) {
        std::vector<double> y(static_cast<std::size_t>(cm.num_rows()));
        cm.spmv_scalar(x.data(), y.data());
        refs.push_back(std::move(y));
      }
    }
  }
  LayerFigures L;
  {
    double footprint = 0, nnz = 0, slots = 0, filled = 0;
    for (crsd::serve::MatrixId id : ids) {
      const crsd::CrsdMatrix<double>& cm = eng->matrix(id);
      const crsd::CrsdStats st = cm.stats();
      footprint += double(cm.footprint_bytes());
      nnz += double(cm.nnz());
      slots += double(st.dia_slots);
      filled += double(st.dia_slots - st.dia_nnz);
      L.core_patterns += st.num_patterns;
      L.core_scatter_rows += st.num_scatter_rows;
    }
    L.core_bytes_per_nnz = footprint / nnz;
    L.core_fill_ratio = filled / slots;
    r.provenance("working_set_bytes",
                 std::to_string(std::size_t(footprint)) +
                     " (four containers, without request vectors)");
  }

  Generator g(*eng, in, ids, r, args.seed * 0x9e3779b97f4a7c15ull + 303);
  PhaseStats warm;
  {
    Span span("serve.warmup");
    g.set_phase_span(tracer().current());
    for (int m = 0; m < kNumMatrices; ++m) g.send(now_ns(), warm, m);
    while (!g.idle()) g.poll(warm);
  }
  const double coo_to_result_s = seconds_since(t_setup0);
  {
    Span span("serve.warmup");
    g.set_phase_span(tracer().current());
    backlog_round(g, warm);
  }

  const double budget = args.seconds;
  PhaseStats low, high, sat;
  {
    Span span("serve.phase.low");
    g.set_phase_span(tracer().current());
    low = open_loop(g, kLowRps, 0.3 * budget);
  }
  {
    Span span("serve.phase.high");
    g.set_phase_span(tracer().current());
    high = open_loop(g, kHighRps, 0.4 * budget);
  }
  std::vector<double> round_rps, round_gflops, traced_round_s, plain_round_s;
  {
    const std::uint64_t t0 = now_ns();
    for (int round = 0; round < 4 || seconds_since(t0) < 0.2 * budget;
         ++round) {
      // Traced runs alternate traced and untraced rounds.
      const bool traced = args.trace && round % 2 == 1;
      tracer().set_enabled(traced);
      PhaseStats st;
      Span span("serve.phase.backlog");
      g.set_phase_span(tracer().current());
      const double s = backlog_round(g, st);
      span.end();
      (traced ? traced_round_s : plain_round_s).push_back(s);
      round_rps.push_back(double(st.latency_ms.size()) / s);
      round_gflops.push_back(st.work_flops / s * 1e-9);
      sat.batch_k.insert(sat.batch_k.end(), st.batch_k.begin(),
                         st.batch_k.end());
      sat.submit_us.insert(sat.submit_us.end(), st.submit_us.begin(),
                           st.submit_us.end());
    }
  }
  tracer().set_enabled(false);
  eng.reset();

  const double high_p99 = quantile(high.latency_ms, 0.99);
  r.e2e("setup_s", median(setup_s), "s", kHostWall);
  r.info("coo_to_result_s", coo_to_result_s, "s", kHostWall);
  r.e2e("result_p50_ms", median(high.latency_ms), "ms", kHostWall);
  r.e2e("spmv_gflops", median(round_gflops), "GFLOP/s", kHostWall);
  r.e2e("peak_rss_mb", peak_rss_mb(), "MB", kHostWall);
  r.info("serve.low.p50_ms", median(low.latency_ms), "ms", kHostWall);
  r.info("serve.low.p99_ms", quantile(low.latency_ms, 0.99), "ms", kHostWall);
  r.info("serve.high.p50_ms", median(high.latency_ms), "ms", kHostWall);
  r.info("serve.high.p99_ms", high_p99, "ms", kHostWall);
  r.info("serve.high.p99_limit_ms", kHighP99LimitMs, "ms", kHostWall);
  r.info("serve.high.p99_limit_met", high_p99 <= kHighP99LimitMs ? 1 : 0,
         "bool", kHostWall);
  r.info("serve.sat_rps", median(round_rps), "1/s", kHostWall);
  r.info("serve.low.samples", double(low.latency_ms.size()), "count", kCount);
  r.info("serve.high.samples", double(high.latency_ms.size()), "count",
         kCount);
  r.info("serve.low.batch_k_mean", mean(low.batch_k), "count", kCount);
  r.info("serve.sat.batch_k_mean", mean(sat.batch_k), "count", kCount);
  r.info("serve.low_rps", kLowRps, "1/s", kHostWall);
  r.info("serve.high_rps", kHighRps, "1/s", kHostWall);
  if (!args.trace) return;

  std::vector<double> submit_us = low.submit_us;
  submit_us.insert(submit_us.end(), high.submit_us.begin(),
                   high.submit_us.end());
  submit_us.insert(submit_us.end(), sat.submit_us.begin(),
                   sat.submit_us.end());
  std::vector<double> late = low.late_ms;
  late.insert(late.end(), high.late_ms.begin(), high.late_ms.end());
  L.serve_register_s = tracer().total_seconds("serve.register") / kSetups;
  L.serve_submit_us_p50 = median(submit_us);
  L.serve_submit_us_p99 = quantile(submit_us, 0.99);
  L.serve_batch_k_mean = mean(high.batch_k);
  L.serve_coalesced_frac =
      double(std::count_if(high.batch_k.begin(), high.batch_k.end(),
                           [](double k) { return k >= 2; })) /
      double(std::max<std::size_t>(1, high.batch_k.size()));
  L.serve_rejected = double(g.rejected());
  L.serve_gen_late_ms_p99 = quantile(late, 0.99);
  L.obs_trace_overhead_frac = median(traced_round_s) / median(plain_round_s) -
                              1.0;
  report_layers(r, L, /*serve=*/true);
}

}  // namespace perfbench
