"""The benchmark's own test.

    python3 perfbench/selftest.py

Runs every workload once at the shortest run length (two untraced
repetitions and one traced one) and checks that:

- every end-to-end and per-layer metric named in BENCHMARK.json is emitted
  with its unit, and the result line has exactly the keys correct,
  attempted, failed and metrics;
- the correctness checks pass on the code under test;
- a traced repetition writes the same metrics.csv as the untraced ones;
- a wrapped name that no longer exists is reported absent, not fatal;
- in a directory holding only BENCHMARK.json and the benchmark, run.py exits
  with a non-zero code and prints no result.

Takes about a minute on two cores.
"""

import json
import shutil
import subprocess
import sys

from run import HERE, OUT, ROOT, WORKLOADS
import tracer


def run_bench(cwd, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_workload(workload: str, spec: dict) -> list:
    problems = []
    proc = run_bench(ROOT, workload, 1)
    if proc.returncode != 0:
        return [f"{workload}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload}: result keys {sorted(line)}")
    if not line["correct"] or line["failed"] != 0 or line["attempted"] < 3:
        problems.append(f"{workload}: correct={line['correct']} attempted={line['attempted']} failed={line['failed']}")
    report = json.loads((OUT / workload / "report.json").read_text(encoding="utf-8"))
    emitted = {
        "end_to_end": {k: {"value": m["median"], "unit": m["unit"]} for k, m in report["end_to_end"].items()},
        "per_layer": line["metrics"],
    }
    for kind in ("end_to_end", "per_layer"):
        for metric in spec[kind]:
            got = emitted[kind].get(metric["name"])
            if got is None:
                problems.append(f"{workload}: {kind} metric {metric['name']} missing")
            elif got["unit"] != metric["unit"] or not isinstance(got["value"], (int, float)):
                problems.append(f"{workload}: {metric['name']} emitted as {got}")
        extra = set(emitted[kind]) - {m["name"] for m in spec[kind]}
        if extra:
            problems.append(f"{workload}: {kind} metrics not in BENCHMARK.json: {sorted(extra)}")
    for name in ("ticks_per_s", "setup_s", "peak_rss_mb"):
        if name in emitted["end_to_end"] and not emitted["end_to_end"][name]["value"] > 0:
            problems.append(f"{workload}: {name} is not positive")
    if report["absent"]:
        problems.append(f"{workload}: absent layers {report['absent']}")
    return problems


def check_absent_target() -> list:
    t = tracer.Tracer()
    t.install((tracer.Target("engine.merged_away", "dbfnet.engine", "no_such_function"),))
    if t.absent != ["engine.merged_away (dbfnet.engine.no_such_function)"]:
        return [f"absent target reported as {t.absent}"]
    return []


def check_bare_directory() -> list:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(bare, WORKLOADS[0], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    problems = check_absent_target() + check_bare_directory()
    for workload in WORKLOADS:
        found = check_workload(workload, spec)
        print(f"{workload}: {'ok' if not found else 'FAILED'}")
        problems.extend(found)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
