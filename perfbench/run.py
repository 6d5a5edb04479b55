#!/usr/bin/env python3
"""netclus benchmark runner.

One workload (the form the benchmark contract uses):

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 15 --trace 0

builds perfbench/ (CMake, Release) into $CARGO_TARGET_DIR or .bench_build,
runs the workload, appends a result row with its provenance to
.bench_results/results.jsonl and prints, as its last line, one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics. The exit code is non-zero when the build fails, the run
fails, or any correctness check fails.

Every workload:

    python3 perfbench/run.py --all [--seed 1] [--seconds S] [--trace 0|1]

runs each workload of perfbench/workloads.json in turn, prints every
end-to-end metric by name with its unit (and the per-workload details),
and exits non-zero on any correctness mismatch.
"""

import argparse
import fnmatch
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "netclus.h")):
        log("run.py: netclus sources not found next to perfbench/ "
            "(expected src/netclus.h); nothing to build")
        return None
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: cmake configure failed")
            return None
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", bdir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("run.py: build failed")
        return None
    return os.path.join(bdir, "netclus_perfbench")


def source_digest():
    """sha256 over src/ and perfbench/: the code identity when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def layer_tag(config, metric):
    """'moves <end-to-end metric> on <workload>' for a per-layer metric."""
    for tag in config["layer_tags"]:
        if any(fnmatch.fnmatch(metric, g) for g in tag["metrics"]):
            return "moves %s on %s" % (tag["moves"], tag["workload"])
    return "untagged"


def run_one(binary, bench, config, name, seed, seconds, trace, results_path):
    """Runs one workload; returns (row, exit_ok)."""
    wl = config["workloads"][name]
    work = os.path.join(RESULTS_DIR, "work-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work, "--setup-reps", str(wl["setup_reps"])]
    for key, value in wl["params"].items():
        cmd += ["--set", "%s=%s" % (key, value)]
    started = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: %s timed out after %d s" % (name, RUN_TIMEOUT_S))
        return None, False
    finally:
        # Keep trace files; drop temporaries (WAL directories).
        for entry in os.listdir(work) if os.path.isdir(work) else []:
            path = os.path.join(work, entry)
            if entry.startswith("trace-"):
                os.replace(path, os.path.join(RESULTS_DIR, entry))
            elif os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
            else:
                os.remove(path)
        shutil.rmtree(work, ignore_errors=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        log("run.py: %s printed no result (exit %d)" % (name, proc.returncode))
        return None, False
    try:
        out = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("run.py: %s printed a malformed result" % name)
        return None, False

    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    names = [m["name"] for m in wanted]
    missing = [n for n in names if n not in out["metrics"]]
    if missing:
        log("run.py: %s did not report %s" % (name, ", ".join(missing)))
        return None, False
    metrics = {n: out["metrics"][n] for n in names}

    prov = dict(out["provenance"])
    prov.update({"git_sha": git_sha(), "source_digest": source_digest(),
                 "nproc": os.cpu_count(), "why": wl["why"],
                 "threads": wl["threads"], "params": wl["params"],
                 "wall_s": round(time.time() - started, 3),
                 "date": time.strftime("%Y-%m-%dT%H:%M:%S")})
    row = {"workload": name, "seed": seed, "trace": trace,
           "correct": bool(out["correct"]) and proc.returncode == 0,
           "attempted": int(out["attempted"]), "failed": int(out["failed"]),
           "metrics": metrics, "detail": out["detail"],
           "problems": out["problems"], "spans": out["spans"],
           "provenance": prov}
    if trace:
        row["tags"] = {n: layer_tag(config, n) for n in names}
    os.makedirs(os.path.dirname(results_path), exist_ok=True)
    with open(results_path, "a") as f:
        f.write(json.dumps(row) + "\n")
    return row, proc.returncode == 0


def fmt(v):
    return "%.6g" % v


def print_row(row):
    print("== %s  seed %d  trace %d  correct %s  attempted %d  failed %d"
          % (row["workload"], row["seed"], row["trace"], row["correct"],
             row["attempted"], row["failed"]))
    for name, m in row["metrics"].items():
        tag = row.get("tags", {}).get(name, "")
        print("  %-34s %14s %-6s %s" % (name, fmt(m["value"]), m["unit"], tag))
    for name, m in row["detail"].items():
        print("  detail %-27s %14s %s" % (name, fmt(m["value"]), m["unit"]))
    for p in row["problems"]:
        print("  PROBLEM: %s" % p)


def final_line(row):
    return json.dumps({"correct": row["correct"], "attempted": row["attempted"],
                       "failed": row["failed"], "metrics": row["metrics"]})


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results",
                    default=os.path.join(RESULTS_DIR, "results.jsonl"),
                    help="JSONL file the result rows are appended to")
    args = ap.parse_args()
    if bool(args.all) == bool(args.workload):
        ap.error("give exactly one of --workload NAME or --all")

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    config_path = os.path.join(HERE, "workloads.json")
    if not os.path.isfile(bench_path) or not os.path.isfile(config_path):
        log("run.py: BENCHMARK.json or perfbench/workloads.json missing")
        return 2
    bench = load_json(bench_path)
    config = load_json(config_path)
    seconds = args.seconds if args.seconds else bench["run_seconds"]
    names = list(config["workloads"]) if args.all else [args.workload]
    for n in names:
        if n not in config["workloads"]:
            log("run.py: unknown workload '%s'" % n)
            return 2

    binary = build()
    if binary is None:
        return 1
    os.makedirs(RESULTS_DIR, exist_ok=True)

    all_ok = True
    last = None
    for n in names:
        row, ok = run_one(binary, bench, config, n, args.seed, seconds,
                          args.trace, args.results)
        if row is None:
            return 1
        print_row(row)
        all_ok = all_ok and ok and row["correct"]
        last = row
    if not args.all:
        print(final_line(last), flush=True)
    else:
        print("all workloads correct" if all_ok else "CORRECTNESS FAILURES",
              flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
