"""Run every workload of BENCHMARK.json untraced and traced, and check the output.

    python3 benchmarks/suite.py --tiny      # smoke pass, a few seconds per run
    python3 benchmarks/suite.py --seed 1    # full pass, writes benchmarks/record.json

Each run is its own process (benchmarks/run.py), so peak RSS belongs to
one workload.  The suite checks that every run exits 0, reports no failed
operation, and emits exactly the metrics BENCHMARK.json names, each with
its unit.  It prints every metric and the tracing overhead per workload.
The full pass also writes benchmarks/record.json: the machine, the git
commit and ``src/`` line count, and per workload its rationale, figures
and the digest (full-bags) or p-value (eval-compare) it produced for
the seed, which run.py compares against on later runs with that seed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 tiny: bool) -> tuple[dict, str]:
    argv = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        argv.append("--tiny")
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} trace {trace} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    output = next((line.split(" ", 1)[1].split(" (")[0] for line in lines
                   if line.startswith(("digest ", "p-value "))), None)
    return json.loads(lines[-1]), output


def check(name: str, trace: int, result: dict, expected: dict[str, str]) -> list[str]:
    """Problems with one run's result line, as messages."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metrics differ from BENCHMARK.json: missing "
                        f"{sorted(set(expected) - set(metrics))}, extra "
                        f"{sorted(set(metrics) - set(expected))}")
    for key, m in metrics.items():
        if key in expected and m.get("unit") != expected[key]:
            problems.append(f"{key}: unit {m.get('unit')!r}, expected {expected[key]!r}")
    return [f"{name} trace {trace}: {p}" for p in problems]


def environment() -> dict:
    """Machine and library facts the figures depend on, with BLAS pinned as
    run.py pins it."""
    run.pin_blas_threads()
    import ctypes
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "blas" in line.lower()}
    for path in sorted(p for p in libs if p.startswith("/")):
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads": threads}


def git_commit() -> str | None:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke pass: tiny workloads, 1 s each, no record")
    args = parser.parse_args(argv)

    spec = json.loads(BENCHMARK.read_text())
    seconds = 1 if args.tiny else spec["run_seconds"]
    units = [{m["name"]: m["unit"] for m in spec[key]}
             for key in ("end_to_end", "per_layer")]
    problems = []
    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        entry = workloads[name] = {"why": w["why"]}
        for trace in (0, 1):
            try:
                result, output = run_workload(name, args.seed, seconds, trace,
                                              args.tiny)
            except (RuntimeError, subprocess.TimeoutExpired, ValueError,
                    IndexError) as exc:
                problems.append(f"{name} trace {trace}: {exc}")
                continue
            problems += check(name, trace, result, units[trace])
            entry["failed_frac"] = result["failed"] / result["attempted"]
            entry["outputs"] = {str(args.seed): output}
            entry["end_to_end" if trace == 0 else "per_layer"] = {
                k: m["value"] for k, m in result["metrics"].items()}
            print(f"{name} (trace {trace}, {result['attempted']} operations, "
                  f"{result['failed']} failed)")
            for key, m in result["metrics"].items():
                print(f"  {key:<32} {m['value']:.6g} {m['unit']}")
        overhead = entry.get("per_layer", {}).get("trace.overhead_frac")
        if overhead is not None:
            print(f"{name}: tracing overhead {overhead * 100:+.1f}% of an "
                  f"untraced operation")

    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    if problems:
        return 1
    if not args.tiny:
        src_lines = sum(len(p.read_text().splitlines())
                        for p in sorted((run.ROOT / "src").rglob("*.py")))
        record = {"commit": git_commit(), "src_lines": src_lines,
                  "environment": environment(), "seed": args.seed,
                  "run_seconds": seconds, "workloads": workloads}
        run.RECORD.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {run.RECORD.relative_to(run.ROOT)}")
    print("all workloads passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
