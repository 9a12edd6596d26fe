"""Self-test of the benchmark: every workload, very briefly, in both modes.

Usage (from the repository root): python3 perfbench/smoke.py

Checks that BENCHMARK.json is well formed, that each workload's last
output line names exactly the declared metrics with their declared units,
that every output check passes, and that the benchmark refuses to run,
without printing a result, when DAMPEDNS_FFT_WORKERS is set or when the
program's source is missing. Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_spec(spec: dict) -> list[str]:
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    problems += [f"bad or repeated name {n!r}" for n in names
                 if not NAME.fullmatch(n) or names.count(n) > 1]
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w['name']}: needs exactly name and a one-line why")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            problems.append(f"end-to-end metric {m['name']}: bad keys or bound")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"per-layer metric {m['name']}: bad keys")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.fullmatch(m["unit"]) or m["better"] not in ("lower", "higher"):
            problems.append(f"metric {m['name']}: bad unit or direction")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must exist and carry the largest bound")
    if not 1 <= spec["run_seconds"] <= 60 or not 2 <= len(spec["workloads"]) <= 8:
        problems.append("run_seconds or workload count out of range")
    return problems


def run(cwd: Path, args: list[str], env=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=str(cwd), env=env,
                          capture_output=True, text=True, timeout=600)


def check_result(proc, declared: list[dict]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"output checks failed: {proc.stdout.splitlines()[-2]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    metrics = result.get("metrics", {})
    if list(metrics) != [m["name"] for m in declared]:
        problems.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in declared})}")
    for m in declared:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r} != {m['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r} is not a finite number")
    return problems


def refused(proc) -> bool:
    lines = proc.stdout.strip().splitlines()
    return proc.returncode != 0 and not (lines and lines[-1].startswith('{"correct"'))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = [f"spec: {p}" for p in check_spec(spec)]
    # every workload the benchmark defines, also those BENCHMARK.json leaves out
    for name in WORKLOADS:
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            proc = run(ROOT, ["--workload", name, "--seconds", "0", "--trace", trace, "--smoke"])
            problems = check_result(proc, declared)
            failures += [f"{name} trace={trace}: {p}" for p in problems]
            print(f"{name} trace={trace}: {'ok' if not problems else 'FAILED'}", flush=True)

    first = spec["workloads"][0]["name"]
    env = {**os.environ, "DAMPEDNS_FFT_WORKERS": "1"}
    if not refused(run(ROOT, ["--workload", first, "--smoke"], env=env)):
        failures.append("ran with DAMPEDNS_FFT_WORKERS set")
    if not refused(run(ROOT, ["--workload", "no-such-workload", "--smoke"])):
        failures.append("ran an unknown workload")
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        if not refused(run(bare, ["--workload", first, "--smoke"])):
            failures.append("ran without the program's source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print(f"FAIL {f}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failure(s)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
