// crsd_perfbench — the repository's end-to-end benchmark program.
//
//   crsd_perfbench --workload <solve-cg27|serve-open|ingest-cold>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <file.json>] [--scratch <dir>]
//
// Every flag is checked: an unknown flag, a missing required flag or a
// malformed value is an error (exit 2), never silently ignored. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics — end-to-end metrics for --trace 0,
// per-layer metrics (from a traced run) for --trace 1. A wrong result
// exits 1. See perfbench/README.md for the workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.hpp"
#include "span_trace.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "crsd_perfbench: %s\n"
               "usage: crsd_perfbench --workload "
               "<solve-cg27|serve-open|ingest-cold> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>] [--scratch <dir>]\n",
               why.c_str());
  std::exit(2);
}

long long parse_int(const std::string& flag, const std::string& v, long long lo,
                    long long hi) {
  std::size_t used = 0;
  long long x = 0;
  try {
    x = std::stoll(v, &used);
  } catch (const std::exception&) {
    usage(flag + " expects an integer, got '" + v + "'");
  }
  if (used != v.size() || x < lo || x > hi) {
    usage(flag + " out of range or malformed: '" + v + "'");
  }
  return x;
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("flag " + flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      if (v != "solve-cg27" && v != "serve-open" && v != "ingest-cold") {
        usage("unknown workload '" + v + "'");
      }
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = static_cast<std::uint64_t>(
          parse_int(flag, v, 0, (1LL << 62)));
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = static_cast<int>(parse_int(flag, v, 1, 600));
      have_seconds = true;
    } else if (flag == "--trace") {
      a.trace = parse_int(flag, v, 0, 1) == 1;
      have_trace = true;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else if (flag == "--scratch") {
      a.scratch = v;
    } else {
      usage("unknown flag '" + flag + "'");
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (a.scratch.empty()) a.scratch = ".bench_build/scratch";
  if (a.trace && a.trace_out.empty()) {
    a.trace_out = ".bench_build/trace-" + a.workload + ".json";
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  perfbench::Report report;
  perfbench::add_common_provenance(report, args);
  try {
    perfbench::PrivateCaches caches(args.scratch);
    if (args.workload == "solve-cg27") {
      perfbench::run_solve_cg27(args, caches, report);
    } else if (args.workload == "serve-open") {
      perfbench::run_serve_open(args, caches, report);
    } else {
      perfbench::run_ingest_cold(args, caches, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "crsd_perfbench: %s\n", e.what());
    return 3;
  }
  if (args.trace) {
    if (!perfbench::tracer().write_chrome_trace(args.trace_out)) {
      std::fprintf(stderr, "crsd_perfbench: cannot write %s\n",
                   args.trace_out.c_str());
      return 3;
    }
    report.provenance("trace_file", args.trace_out);
  }
  return report.finish(args.trace);
}
