#!/usr/bin/env python3
"""Builds the cdsbench program from source and runs one benchmark workload.

Usage (from the repository root):

    python3 cdsbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory: a CMake build of cdsbench/ (which pulls in the cdsflow
library from the parent directory), Release. Later runs rebuild only what
changed; configuring again each time costs about a second. The workload
runs in <build>/run, where it keeps its sockets and, for traced runs, its
span files.

The program's result line is checked against BENCHMARK.json before it is
printed again as the last line: a traced run must report every per_layer
metric it measures and gets 0 for the ones its workload does not exercise;
an untraced run must report exactly the end_to_end metrics. Exit code: the
program's (0 when every output passed its correctness gate), 2 when the
build or the result check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_SECONDS = 170


def fail(message: str) -> None:
    print(f"cdsbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir: Path) -> Path:
    cmake_dir = build_dir / "cmake"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's temporary files stay inside the build directory too.
    tmp = build_dir / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(cmake_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(cmake_dir), "--target", "cdsbench", "-j", jobs],
    ]
    with log.open("w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              env=env).returncode:
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(step)} (log: {log})")
    return cmake_dir / "cdsbench"


def commit_id() -> str:
    """HEAD of the repository this benchmark belongs to, else "unknown"."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, cwd=HERE,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or Path(lines[0]) != HERE.parent:
        return "unknown"
    return lines[1]


def checked_result(line: str, spec: dict, trace: bool) -> dict:
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result keys are {sorted(result)}")
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if name not in declared:
            fail(f"metric {name} is not declared in BENCHMARK.json")
        if metric["unit"] != declared[name]:
            fail(f"metric {name} has unit {metric['unit']}, "
                 f"BENCHMARK.json says {declared[name]}")
    missing = [name for name in declared if name not in metrics]
    if missing and not trace:
        fail(f"end-to-end metrics missing: {missing}")
    ordered = {}
    for name, unit in declared.items():
        ordered[name] = metrics.get(name, {"value": 0, "unit": unit})
    result["metrics"] = ordered
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = HERE.parent / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path.name} not found next to {HERE.name}/")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")

    build_dir = Path.cwd() / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)
    run_dir = build_dir / "run"
    run_dir.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--commit", commit_id()]
    try:
        proc = subprocess.run(command, cwd=run_dir, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_SECONDS} s")
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"{args.workload} exited with code {proc.returncode}")
    result = checked_result(lines[-1], spec, bool(args.trace))
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
