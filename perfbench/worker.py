"""One timed pass of a workload in a fresh single-threaded process.

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC names the workload, its operations, the expected outputs and whether to
trace.  The worker times its set-up (import glq, build the fields), issues
the operations one after another in a closed loop, reads its peak resident
memory, and only then renders and checks every output.  It writes one JSON
result and exits 0 unless the harness itself failed; a failing operation is
counted, not raised.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import workloads


def _import_glq(with_cli: bool) -> dict:
    import glq  # noqa: F401  (the package import is part of set-up)
    from glq import classcalc, field, gltype, stablecenter
    modules = {"classcalc": classcalc, "field": field, "gltype": gltype,
               "stablecenter": stablecenter}
    if with_cli:
        from glq import cli
        modules["cli"] = cli
    return modules


def _cli_problem(op: dict, code, stdout: str, copy: Path) -> str | None:
    if code != 0:
        return f"exit code {code}"
    if stdout != op["stdout"]:
        return "stdout differs from the recorded output"
    if op["expect"] == "miss":
        with open(copy, encoding="utf-8", errors="replace") as handle:
            if not any(line.startswith(op["key"] + "\t") for line in handle):
                return "a miss was not written to the cache"
    return None


def run(spec: dict) -> dict:
    ops = spec["ops"]
    cli_mode = spec["workload"] == "cache-cli"

    start = time.perf_counter()
    glq_modules = _import_glq(cli_mode)
    tracer = None
    if spec["trace"]:  # traced from the first field built on
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    fields = {q: glq_modules["field"].field_of_order(q) for q in spec["fields"]}
    setup_s = time.perf_counter() - start
    if spec.get("setup_only"):
        return {"setup_s": setup_s}

    if cli_mode:
        import warnings
        # a fresh CLI process prints every skipped-record warning
        warnings.simplefilter("always")
        fixture = Path(spec["fixture"])
        copy = Path(spec["cache_copy"])

    records = []
    for op in ops:
        if cli_mode:
            shutil.copyfile(fixture, copy)
            op = dict(op, argv=op["argv"] + ["--cache", str(copy),
                                             "--format", "machine"])
            out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.begin_op(op["id"])
        error = result = None
        t0 = time.perf_counter()
        try:
            if cli_mode:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    result = workloads.issue(op, fields, glq_modules)
            else:
                result = workloads.issue(op, fields, glq_modules)
        except SystemExit as exc:  # argparse rejected a command line
            error = f"SystemExit: {exc.code}"
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if tracer:
            tracer.end_op()
        if cli_mode and error is None:
            error = _cli_problem(op, result, out.getvalue(), copy)
            result = None
        records.append({"id": op["id"], "latency_s": latency,
                        "expect": op.get("expect"), "error": error,
                        "result": result})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    trace = None
    if tracer:
        tracer.remove()
        trace = {"metrics": tracer.metrics(), "absent": tracer.absent,
                 "spans": len(tracer.spans)}
        tracer.dump(Path(spec["trace_out"]))

    # checking happens after timing, against the untraced functions
    gltype = glq_modules["gltype"]
    expected = spec["expected"]
    for op, rec in zip(ops, records):
        result = rec.pop("result")
        if rec["error"] is not None or result is None:
            continue
        try:
            if workloads.render(op, result, gltype) != expected[op["id"]]:
                rec["error"] = "output differs from the recorded output"
            else:
                rec["error"] = workloads.cross_check(op, result, fields,
                                                     gltype)
        except Exception as exc:
            rec["error"] = f"check raised {type(exc).__name__}: {exc}"

    return {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
            "wall_s": sum(r["latency_s"] for r in records),
            "ops": records, "trace": trace}


if __name__ == "__main__":
    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    try:
        outcome = run(spec)
    except Exception:
        traceback.print_exc()
        sys.exit(1)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(outcome, handle)
