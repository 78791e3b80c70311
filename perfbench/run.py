#!/usr/bin/env python3
"""Runs one leancon benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload fig1-paper --seed 7 --seconds 20 --trace 0

Builds perfbench/ (the library from src/ plus the perfbench program) with
CMake in Release mode under $CARGO_TARGET_DIR (default .bench_build), runs
the workload, checks its outputs and prints three JSON lines: provenance,
details, and last the result, with exactly the keys correct, attempted,
failed and metrics. --trace 0 reports BENCHMARK.json's end_to_end metrics,
--trace 1 its per_layer metrics. A failed check exits nonzero and prints no
result. See perfbench/README.md.

    python3 perfbench/run.py --write-reference BENCH_fig1_mean_round.json

rewrites perfbench/reference.json: the grid hash of every workload at the
default seed, and the per-cell values of bench/fig1_mean_round's default run
(its --json output, given as the argument).
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig1-paper", "fig1-small", "general-loop")
DEFAULT_SEED = 20000625
# Set-up lasts milliseconds, so each untraced run samples it this many times
# (fresh processes) and reports the median.
SETUP_SAMPLES = 15
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


class BenchError(Exception):
    """A build step or an output check failed; no result is reported."""


def median_and_tail(values):
    """The median plus the highest nearest-rank percentile that still has at
    least ten samples beyond it, with the sample count. The tail is None
    below eleven samples."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    out = {"n": n, "median": statistics.median(xs), "tail_pct": None,
           "tail": None}
    if n >= 11:
        rank = n - 10  # 1-based; exactly ten samples rank above it
        out["tail_pct"] = 100.0 * rank / n
        out["tail"] = xs[rank - 1]
    return out


def result_line(values, specs, attempted, failed):
    """The result object: every metric of `specs` (BENCHMARK.json entries)
    from `values`, with its unit. A missing, extra or non-finite metric is
    an error."""
    names = [spec["name"] for spec in specs]
    missing = [name for name in names if name not in values]
    extra = sorted(set(values) - set(names))
    if missing or extra:
        raise BenchError(f"measured metrics do not match BENCHMARK.json: "
                         f"missing {missing}, unlisted {extra}")
    metrics = {}
    for spec in specs:
        value = values[spec["name"]]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"metric {spec['name']} is not a finite number")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return {"correct": True, "attempted": int(attempted),
            "failed": int(failed), "metrics": metrics}


def check_outputs(workload, seed, out, reference):
    """At the default seed the grid hash must equal the stored reference, and
    fig1-paper's cells must equal bench/fig1_mean_round's default output."""
    if seed != DEFAULT_SEED:
        return
    want = reference["grid_hash"][workload]
    if out["hash"] != want:
        raise BenchError(f"{workload} at seed {seed}: grid hash {out['hash']} "
                         f"!= reference {want}")
    if workload != "fig1-paper":
        return
    ref_cells = reference["fig1_mean_round"]["cells"]
    if len(out["cells"]) != len(ref_cells):
        raise BenchError("fig1-paper: cell count differs from fig1_mean_round")
    for got, ref in zip(out["cells"], ref_cells):
        for key in ("n", "trials", "mean_round", "ci95"):
            if got[key] != ref[key]:
                raise BenchError(
                    f"fig1-paper {got['scenario']} n={got['n']}: {key} "
                    f"{got[key]!r} != fig1_mean_round's {ref[key]!r}")


def nproc():
    return len(os.sched_getaffinity(0))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def _build_step(cmd):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise BenchError("build step failed: " + " ".join(cmd))


def build():
    """Configures (once) and builds the Release benchmark; returns its build
    directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("the library sources (src/) are not next to "
                         "perfbench/; run from a full checkout")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        _build_step(["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=Release"])
    _build_step(["cmake", "--build", bdir, "-j", str(nproc())])
    return bdir


def read_cmake_cache(bdir):
    cache = {}
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith(("#", "//")) or "=" not in line:
                continue
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    return cache


def _output(cmd, env=None):
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=60, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def git_state():
    """(sha, dirty) of the checkout, or (None, None) when it is not a git
    work tree of its own."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    top = _output(["git", "-C", ROOT, "rev-parse", "--show-toplevel"], env)
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return None, None
    sha = _output(["git", "-C", ROOT, "rev-parse", "HEAD"], env)
    status = _output(["git", "-C", ROOT, "status", "--porcelain",
                      "--untracked-files=no"], env)
    return sha, None if status is None else status != ""


def source_digest():
    """sha256 over src/ and perfbench/, which identifies the measured code
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(bdir, workload, seed, threads):
    cache = read_cmake_cache(bdir)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    if build_type != "Release":
        raise BenchError(f"refusing to report numbers from a "
                         f"{build_type or 'untyped'} build; configure with "
                         f"-DCMAKE_BUILD_TYPE=Release")
    sha, dirty = git_state()
    cxx = cache.get("CMAKE_CXX_COMPILER", "")
    version = _output([cxx, "--version"]) if cxx else None
    flags = " ".join(f for f in (cache.get("CMAKE_CXX_FLAGS", ""),
                                 cache.get("CMAKE_CXX_FLAGS_RELEASE", ""))
                     if f)
    return {"workload": workload, "seed": seed, "threads": threads,
            "nproc": nproc(), "cpu_model": cpu_model(), "git_sha": sha,
            "git_dirty": dirty, "source_sha256": source_digest(),
            "build_type": build_type, "compiler": cxx,
            "compiler_version": version.splitlines()[0] if version else None,
            "cxx_flags": flags}


def run_binary(binary, args, env):
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, env=env,
                          timeout=RUN_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise BenchError(f"perfbench {' '.join(args)} exited with "
                         f"{proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"perfbench {' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def load_json(path):
    with open(path) as f:
        return json.load(f)


def untraced(binary, common, seconds, env):
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        start = time.monotonic_ns()
        ready = run_binary(binary, common + ["--mode=setup"], env)["ready_ns"]
        setups.append((ready - start) / 1e9)
    start = time.monotonic_ns()
    out = run_binary(binary, common + ["--mode=run", f"--seconds={seconds}"],
                     env)
    setups.append((out["ready_ns"] - start) / 1e9)
    if out["obs_enabled"]:
        raise BenchError("obs::enabled() was true in the untraced run")
    walls = [rep["wall_s"] for rep in out["reps"]]
    cores = [rep["core_s"] for rep in out["reps"]]
    values = {"wall_s": statistics.median(walls),
              "core_s": statistics.median(cores),
              "setup_s": statistics.median(setups),
              "peak_rss_mb": out["peak_rss_mib"]}
    details = {"wall_s": median_and_tail(walls),
               "core_s": median_and_tail(cores),
               "setup_s": median_and_tail(setups),
               "core_ns_per_op": 1e9 * values["core_s"] / out["sim_ops"],
               "warmup_wall_s": out["warmup_wall_s"],
               "sim_ops": out["sim_ops"], "grid_trials": out["grid_trials"],
               "failed_frac": out["failed"] / out["attempted"],
               "hash": out["hash"]}
    return out, values, details


def run(args):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    bdir = build()
    binary = os.path.join(bdir, "perfbench")
    threads = nproc()
    print(json.dumps({"provenance": provenance(bdir, args.workload, args.seed,
                                               threads)}))
    env = {k: v for k, v in os.environ.items() if k != "LEANCON_TRACE"}
    common = [f"--workload={args.workload}", f"--seed={args.seed}",
              f"--threads={threads}"]
    if args.trace:
        scratch = os.path.join(os.path.dirname(bdir), "perfbench-scratch")
        os.makedirs(scratch, exist_ok=True)
        out = run_binary(binary, common + ["--mode=trace",
                                           f"--scratch={scratch}"], env)
        values, details, specs = out["metrics"], out["details"], \
            bench["per_layer"]
    else:
        out, values, details = untraced(binary, common, args.seconds, env)
        specs = bench["end_to_end"]
    check_outputs(args.workload, args.seed, out,
                  load_json(os.path.join(HERE, "reference.json")))
    result = result_line(values, specs, out["attempted"], out["failed"])
    print(json.dumps({"details": details}))
    return result


def write_reference(fig1_json):
    bdir = build()
    binary = os.path.join(bdir, "perfbench")
    env = {k: v for k, v in os.environ.items() if k != "LEANCON_TRACE"}
    grid_hash = {}
    cells = None
    for workload in WORKLOADS:
        out = run_binary(binary, [f"--workload={workload}",
                                  f"--seed={DEFAULT_SEED}",
                                  f"--threads={nproc()}", "--mode=run",
                                  "--seconds=0"], env)
        grid_hash[workload] = out["hash"]
        if workload == "fig1-paper":
            cells = out["cells"]
    # fig1_mean_round writes one series per distribution (catalog order),
    # points by ascending n; fig1-paper's cells are n-major, distributions
    # inner.
    series = load_json(fig1_json)["series"]
    ref_cells = []
    for i in range(len(cells)):
        dist = series[i % len(series)]
        point = dist["points"][i // len(series)]
        ref_cells.append({"distribution": dist["name"], "n": point["x"],
                          "trials": point["trials"],
                          "mean_round": point["mean_round"],
                          "ci95": point["ci95"]})
    reference = {
        "seed": DEFAULT_SEED,
        "grid_hash": grid_hash,
        "fig1_mean_round": {
            "command": "bench/fig1_mean_round --json=<path> (defaults)",
            "cells": ref_cells},
    }
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", metavar="FIG1_JSON")
    args = parser.parse_args(argv)
    try:
        if args.write_reference:
            write_reference(args.write_reference)
            return 0
        if args.workload is None or args.seed is None or args.seed < 0:
            parser.error("--workload and a non-negative --seed are required")
        result = run(args)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
