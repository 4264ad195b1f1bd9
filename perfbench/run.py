#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark package (perfbench/,
which compiles the library from src/) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs one workload. Every flag is
required and unknown flags are rejected. Build output goes to stderr; the
last line of stdout is the result as one JSON object. See
perfbench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("solve-cg27", "ingest-cold", "serve-open")
RUN_TIMEOUT_S = 170


def parse_args():
    p = argparse.ArgumentParser(allow_abbrev=False, description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seed < 0 or not 1 <= a.seconds <= 600:
        p.error("--seed must be >= 0 and --seconds in [1, 600]")
    return a


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def source_digest():
    """sha256 over the library and benchmark sources (path + content)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for f in sorted((ROOT / top).rglob("*")):
            if f.is_file() and f.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True, check=False)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def build(out):
    """Configures (once) and builds the benchmark; output to stderr."""
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "-j", "4"],
                   stdout=sys.stderr, check=True)
    return out / "crsd_perfbench"


def main():
    a = parse_args()
    out = build_dir() / "perfbench"
    try:
        exe = build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    env = dict(os.environ,
               CRSD_PERFBENCH_GIT_SHA=git_sha(),
               CRSD_PERFBENCH_SOURCE_DIGEST=source_digest())
    cmd = [str(exe), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--scratch", str(out / "scratch"),
           "--trace-out", str(out / f"trace-{a.workload}-{a.seed}.json")]
    sys.stdout.flush()
    child = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {a.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        child.kill()
        child.wait()
        return 4
    except KeyboardInterrupt:
        child.kill()
        child.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
