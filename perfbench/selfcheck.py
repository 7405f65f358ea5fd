"""Self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

1. Tiny cache-cli runs (the first few invocations of a pass) with --trace 0
   and --trace 1: the last line of stdout is one JSON object with exactly the
   keys correct, attempted, failed and metrics, holding every end_to_end (or
   per_layer) metric of BENCHMARK.json with its unit, and nothing failed.
2. A tiny products-ext run against a copy of expected.json with one wrong
   value: exactly that operation is counted in `failed`.
3. Tracing a function or module that glq no longer has reports it as
   absent instead of failing.
4. In a directory holding only BENCHMARK.json and the benchmark's files,
   run.py exits non-zero without printing a result.

Prints one line per check and exits 0 when all pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import tracer
from run import HERE, ROOT, SRC, WORK

TIMEOUT_S = 300
TINY = ["--seed", "3", "--seconds", "1", "--max-ops", "3"]


def _run(args: list, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else "", proc.stderr


def _schema_problems(line: str, declared: list) -> list:
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return [f"last line is not JSON: {line[:80]!r}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if not (type(result.get("attempted")) is int and result["attempted"] >= 1
            and type(result.get("failed")) is int):
        problems.append("attempted/failed are not whole numbers")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in declared}:
        problems.append("metric names differ from BENCHMARK.json")
    for m in declared:
        got = metrics.get(m["name"], {})
        if set(got) != {"value", "unit"} or got["unit"] != m["unit"] or \
                not isinstance(got["value"], (int, float)):
            problems.append(f"metric {m['name']} is {got}")
    return problems


def _absent_problems() -> list:
    sys.path.insert(0, str(SRC))
    gone = (("matfq", "removed_function", False),
            ("removed_module", "removed_function", False))
    saved = tracer.TARGETS
    tracer.TARGETS = saved + gone
    probe = tracer.Tracer()
    try:
        probe.install()
        probe.remove()
    except Exception as exc:
        return [f"install raised {type(exc).__name__}: {exc}"]
    finally:
        tracer.TARGETS = saved
    names = [f"{module}.{fn}" for module, fn, _ in gone]
    problems = [] if probe.absent == names else [f"absent {probe.absent}"]
    if probe.metrics().get("matfq.removed_function.calls") != 0:
        problems.append("no zero count for the absent function")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    failures = 0

    def verdict(name: str, problems: list) -> None:
        nonlocal failures
        failures += bool(problems)
        print(f"{'ok  ' if not problems else 'FAIL'} {name}"
              + "".join(f"\n     {p}" for p in problems), flush=True)

    for trace, declared in (("0", bench["end_to_end"]),
                            ("1", bench["per_layer"])):
        code, line, err = _run(["--workload", "cache-cli", "--trace", trace,
                                *TINY])
        problems = [f"exit {code}: {err[-500:]}"] if code else []
        verdict(f"schema of a tiny cache-cli run, --trace {trace}",
                problems + _schema_problems(line, declared))

    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    wrong_id = next(k for k in expected["ops"] if k.startswith("mul q=4"))
    expected["ops"][wrong_id] += "|0,1"
    wrong = WORK / "expected-wrong.json"
    wrong.write_text(json.dumps(expected), encoding="utf-8")
    code, line, err = _run(["--workload", "products-ext", "--trace", "0",
                            "--expected", str(wrong), "--seed", "3",
                            "--seconds", "1", "--max-ops", "2"])
    result = json.loads(line) if line.startswith("{") else {}
    verdict("a wrong expected value is counted in error_rate",
            [] if (code == 0 and result.get("failed") == 1
                   and result.get("attempted") == 2
                   and result.get("correct") is False)
            else [f"exit {code}, result {line[:200]!r} {err[-300:]}"])

    verdict("an absent function is reported, not fatal", _absent_problems())

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, line, _ = _run(["--workload", "stable", "--trace", "0", *TINY],
                         cwd=bare, script=bare / HERE.name / "run.py")
    shutil.rmtree(bare)
    verdict("without the glq sources the run fails and prints no result",
            [] if code != 0 and not line.startswith("{")
            else [f"exit {code}, last line {line[:200]!r}"])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
