#!/usr/bin/env python3
"""Builds the FliX benchmark binary from this checkout and runs it.

    python3 flixbench/run.py --workload dblp-hybrid --seed 1 --seconds 30 --trace 0
    python3 flixbench/run.py --self-test

The binary is compiled from flixbench/ and the library sources in src/
(Release, CMake) into $CARGO_TARGET_DIR, or .bench_build when that is unset,
relative to the checkout root. Arguments other than --self-test go to the
binary unchanged; its last stdout line is the result object. Build output
goes to stderr. Exits non-zero, printing no result, when the build fails.

--self-test runs every workload at a tiny scale and checks that each prints
every metric of BENCHMARK.json with its unit, that no op fails, and that one
seed gives identical op and answer digests twice while another seed gives a
different op list.
"""
import ctypes
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


ADDR_NO_RANDOMIZE = 0x0040000  # <linux/personality.h>


def fixed_layout():
    """Turns off address-space layout randomization for the benchmark process.

    Runs in the child between fork and exec, so only the benchmark is
    affected. With randomized layouts, runs of one seed spread about twice
    as far (README.md, "Timing"). Without the personality call (not Linux)
    the benchmark runs with the default layout.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures and builds the binary; returns its path or None."""
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", out, "--target", "flixbench", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    os.makedirs(os.path.join(out, "work"), exist_ok=True)
    return os.path.join(out, "flixbench")


def run_binary(binary, args, capture=False):
    cmd = [binary] + args + ["--work-dir", os.path.join(build_dir(), "work")]
    return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                          text=True, preexec_fn=fixed_layout)


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def run(workload, seed, trace):
        proc = run_binary(binary, ["--workload", workload, "--seed", str(seed),
                                   "--seconds", "1", "--trace", str(trace),
                                   "--pubs", "150"], capture=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            problems.append(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
            return None, {}
        digests = [l for l in lines if l.startswith("# digest ")]
        result = json.loads(lines[-1])
        expected = spec["per_layer" if trace else "end_to_end"]
        for m in expected:
            got = result["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                problems.append(f"{workload} trace {trace}: metric {m['name']} missing or wrong unit")
        extra = set(result["metrics"]) - {m["name"] for m in expected}
        if extra:
            problems.append(f"{workload} trace {trace}: unlisted metrics {sorted(extra)}")
        if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
            problems.append(f"{workload} trace {trace}: correct={result['correct']} "
                            f"failed={result['failed']} attempted={result['attempted']}")
        return (digests[0] if digests else None), result

    for w in spec["workloads"]:
        name = w["name"]
        first, _ = run(name, 5, 0)
        second, _ = run(name, 5, 0)
        other, _ = run(name, 6, 0)
        run(name, 5, 1)
        if first is None or first != second:
            problems.append(f"{name}: digests differ across two runs of seed 5: {first} / {second}")
        if first is not None and other is not None and first.split()[2] == other.split()[2]:
            problems.append(f"{name}: seeds 5 and 6 gave the same op list")
        print(f"{name}: {first}", flush=True)
    for p in problems:
        print("FAIL", p)
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main():
    binary = build()
    if binary is None:
        print("flixbench: build failed", file=sys.stderr)
        return 1
    if sys.argv[1:] == ["--self-test"]:
        return self_test(binary)
    return run_binary(binary, sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
