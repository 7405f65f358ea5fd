"""glq benchmark: end-to-end and per-layer figures for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it uses the checkout's
src/glq.  Workloads: products-prime, products-ext, stable, cache-cli (or
`all`, which runs each in turn).  Every timed pass is a fresh worker process
started after the previous one ended, so glq's in-process caches start cold
as they do for a CLI user; operations run at the default jobs=1.

--trace 0 reports wall_s (median over the passes that fill --seconds; at
least one), setup_s (median over SETUP_PROBES set-ups plus those of the
passes) and peak_rss_mb.  --trace 1 makes one untraced and one traced pass
and reports the per-layer metrics of tracer.py and the tracing overhead.
Every output is checked against expected.json; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import fixture
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_PROBES = 11
WORKER_TIMEOUT_S = 170
POOL_TIMEOUT_S = 600

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# run metadata
# ---------------------------------------------------------------------------

def git_sha() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _sources() -> list:
    return sorted((SRC / "glq").glob("*.py"))


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in _sources():
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metadata() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "unknown"
    loc = sum(1 for path in _sources()
              for line in path.read_text(encoding="utf-8").splitlines()
              if line.strip())
    return {"git_sha": git_sha(), "glq_source_sha256": source_hash(),
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "glq_nonblank_source_lines": loc}


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(argv: list, timeout: float) -> None:
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise HarnessError(f"{' '.join(argv)} exited {proc.returncode}:\n"
                           + proc.stderr[-2000:])


def run_worker(spec: dict, tag: str) -> dict:
    spec_path = WORK / f"spec-{tag}.json"
    result_path = WORK / f"result-{tag}.json"
    result_path.unlink(missing_ok=True)
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    _spawn([str(HERE / "worker.py"), str(spec_path), str(result_path)],
           WORKER_TIMEOUT_S)
    return json.loads(result_path.read_text(encoding="utf-8"))


def prepare(workload: str, seed: int, expected: dict, expected_path: Path,
            max_ops: int | None) -> dict:
    """The worker spec for one workload: operations, fields, expected
    outputs and, for cache-cli, the seeded fixture (neither step timed)."""
    spec = {"workload": workload, "trace": False}
    if workload == "cache-cli":
        ops = fixture.plan(expected, seed)
        pool_hash = hashlib.sha256(
            (source_hash() + json.dumps(expected["cache_cli"]["records"]))
            .encode()).hexdigest()[:16]
        pool = WORK / f"pool-{pool_hash}.tsv"
        if not pool.exists():
            _spawn([str(HERE / "fixture.py"), "--pool", str(pool),
                    "--expected", str(expected_path)], POOL_TIMEOUT_S)
        spec["fixture"] = str(WORK / "fixture.tsv")
        spec["cache_copy"] = str(WORK / "cache-copy.tsv")
        fixture.corrupt(pool, Path(spec["fixture"]), seed)
        spec["fields"] = sorted({rec["q"] for rec in
                                 expected["cache_cli"]["records"]
                                 + expected["cache_cli"]["misses"]})
    else:
        ops = workloads.fixed_ops(workload, expected)
        spec["fields"] = workloads.fields_of(ops)
    spec["ops"] = ops[:max_ops] if max_ops else ops
    spec["expected"] = {op["id"]: expected["ops"][op["id"]]
                        for op in spec["ops"] if op["kind"] != "cli"}
    return spec


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def _latency_p50_ms(passes: list, expect: str) -> float:
    latencies = [op["latency_s"] for p in passes for op in p["ops"]
                 if op["expect"] == expect]
    return 1000.0 * statistics.median(latencies) if latencies else 0.0


def _failures(passes: list) -> list:
    return [op for p in passes for op in p["ops"] if op["error"] is not None]


def measure(workload: str, seed: int, seconds: int, trace: bool,
            spec: dict) -> dict:
    # one untimed set-up first, so byte-compiling glq is not measured
    run_worker(dict(spec, setup_only=True), "warmup")
    if not trace:
        setups = [run_worker(dict(spec, setup_only=True), "setup")["setup_s"]
                  for _ in range(SETUP_PROBES)]
        passes = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < seconds:
            passes.append(run_worker(spec, "pass"))
        setups += [p["setup_s"] for p in passes]
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        units = dict(END_TO_END)
        detail = {"passes": len(passes), "setups": len(setups)}
    else:
        plain = run_worker(spec, "pass")
        traced = run_worker(dict(spec, trace=True, trace_out=str(
            WORK / f"trace-{workload}-seed{seed}.json")), "traced")
        passes = [plain, traced]
        metrics = dict(traced["trace"]["metrics"])
        metrics["cli.hit_ms_p50"] = _latency_p50_ms([plain], "hit")
        metrics["cli.miss_ms_p50"] = _latency_p50_ms([plain], "miss")
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        metrics["trace.absent_functions"] = len(traced["trace"]["absent"])
        units = per_layer_units()
        detail = {"untraced_wall_s": plain["wall_s"],
                  "traced_wall_s": traced["wall_s"],
                  "spans": traced["trace"]["spans"],
                  "absent": traced["trace"]["absent"]}
    attempted = sum(len(p["ops"]) for p in passes)
    failures = _failures(passes)
    if workload == "cache-cli" and not trace:
        detail["hit_ms_p50"] = _latency_p50_ms(passes, "hit")
        detail["miss_ms_p50"] = _latency_p50_ms(passes, "miss")
    return {"workload": workload, "metrics": metrics, "units": units,
            "attempted": attempted, "failures": failures, "detail": detail}


def per_layer_units() -> dict:
    return dict(tracer.metric_units(),
                **{"cli.hit_ms_p50": "ms", "cli.miss_ms_p50": "ms",
                   "trace.overhead_s": "s", "trace.absent_functions": "count"})


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def report(outcome: dict, seed: int, trace: bool) -> dict:
    """Print the human-readable report and return the result object."""
    attempted, failures = outcome["attempted"], outcome["failures"]
    print(f"== {outcome['workload']}  seed={seed}  trace={int(trace)}")
    for name, value in outcome["metrics"].items():
        print(f"  {name:<44} {value:>14.6g} {outcome['units'][name]}")
    print(f"  {'error_rate':<44} {len(failures) / attempted:>14.6g} "
          f"({len(failures)} of {attempted} operations)")
    for op in failures[:10]:
        print(f"  FAILED {op['id']}: {op['error']}")
    print("meta " + json.dumps(dict(outcome["detail"], **metadata())))
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": outcome["units"][name]}
                        for name, value in outcome["metrics"].items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--expected", type=Path, default=workloads.EXPECTED_PATH,
                    help="expected outputs (the harness self-check swaps in "
                         "a wrong one)")
    ap.add_argument("--max-ops", type=int, default=None,
                    help="issue only the first N operations of each pass")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not (SRC / "glq" / "__init__.py").is_file():
        print(f"no glq sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    expected = workloads.load_expected(args.expected)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            spec = prepare(name, args.seed, expected, args.expected,
                           args.max_ops)
            outcome = measure(name, args.seed, args.seconds, bool(args.trace),
                              spec)
            result = report(outcome, args.seed, bool(args.trace))
            print(json.dumps(result), flush=True)
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
