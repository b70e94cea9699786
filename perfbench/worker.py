"""One measuring interpreter.  run.py starts it fresh for every task, sends
the task as JSON on stdin and reads one JSON line back from stdout.

Tasks:
  {"kind": "setup"}                       time `import superdegen` + load_catalog()
  {"kind": "cli", "argv": [...]}          time superdegen.cli.main(argv)
  {"kind": "fuzz", "points": [...], ...}  transport/fingerprint passes
Every task carries "src", the checkout's src/ directory, which is put first
on sys.path; the worker refuses to run a superdegen imported from anywhere
else.  "trace" is "none", "spans" or "counts" (see layers.py).
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import platform
import resource
import sys
from contextlib import redirect_stdout
from time import perf_counter, process_time

import checks
from layers import Tracer
from run import another_pass


def _import_superdegen(src: str, with_cli=True):
    sys.path.insert(0, src)
    import superdegen
    if with_cli:  # the package does not import its CLI module
        import superdegen.cli  # noqa: F401
    here = os.path.realpath(superdegen.__file__)
    if os.path.commonpath([here, os.path.realpath(src)]) != os.path.realpath(src):
        raise SystemExit(f"superdegen was imported from {here}, not from {src}")
    return superdegen


def _tracer(task):
    mode = task.get("trace", "none")
    return None if mode == "none" else Tracer(mode).install()


def run_setup(task):
    t0 = perf_counter()
    sd = _import_superdegen(task["src"], with_cli=False)
    sd.load_catalog()
    return {"setup_s": perf_counter() - t0}


def run_cli(task):
    sd = _import_superdegen(task["src"])
    tracer = _tracer(task)
    out, error = io.StringIO(), None
    t0, c0 = perf_counter(), process_time()
    with redirect_stdout(out):
        try:
            code = sd.cli.main(task["argv"])
        except Exception as exc:  # a crash is a failed operation, reported by run.py
            code, error = None, repr(exc)
    elapsed, cpu = perf_counter() - t0, process_time() - c0
    return {"elapsed": elapsed, "cpu": cpu, "exit_code": code, "error": error,
            "stdout": out.getvalue(), "trace": tracer.report() if tracer else None}


def run_fuzz(task):
    sd = _import_superdegen(task["src"])
    from superdegen.linalg import Matrix
    from superdegen.structure import forget_grading, transport_algebra

    tracer = _tracer(task)
    catalog = sd.load_catalog()
    if tracer:
        tracer.active = False
    points, refs = [], {}
    for p in task["points"]:
        sc = catalog.get(p["label"])
        field = sc.field
        g = Matrix.from_rows([[field.lift(v) for v in row] for row in p["g"]], field)
        points.append((p["label"], sc, g))
        if p["label"] not in refs:
            refs[p["label"]] = dataclasses.asdict(sd.fingerprint(sc))

    def one_pass(first: bool):
        seconds, cpu, records, failed = 0.0, 0.0, [], 0
        for label, sc, g in points:
            t0, c0 = perf_counter(), process_time()
            try:
                moved = sd.transport(g, sc)
                fp = dataclasses.asdict(sd.fingerprint(moved))
                agrees = forget_grading(moved) == transport_algebra(g, sc.alpha, sc.field)
            except Exception as exc:  # a crash is a failed operation, reported by run.py
                seconds += perf_counter() - t0
                cpu += process_time() - c0
                failed += 1
                records.append({"label": label, "error": repr(exc)})
                continue
            seconds += perf_counter() - t0
            cpu += process_time() - c0
            rec = {"label": label, "entry": refs[label], "moved": fp, "algebra_agrees": agrees}
            if first and not tracer:
                # moved points are the same on every pass and in the traced
                # runs, so the independent equation check runs once per
                # untraced run, outside the timed region
                rec["equation_violations"] = checks.equation_violations(moved)
            records.append(rec)
        return seconds, cpu, records, failed

    passes, first_records = [], None
    start = perf_counter()
    while len(passes) < task["max_passes"] and another_pass(perf_counter() - start, len(passes),
                                                            task["seconds"]):
        if tracer:
            tracer.active = True
        seconds, cpu, records, failed = one_pass(first_records is None)
        if tracer:
            tracer.active = False
        if first_records is None:
            first_records = records
        for rec, first in zip(records, first_records):
            rec.setdefault("equation_violations", first.get("equation_violations", 0))
        passes.append({"seconds": seconds, "cpu": cpu, "failed": failed, "records": records})
    return {"passes": passes, "trace": tracer.report() if tracer else None}


def main():
    task = json.load(sys.stdin)
    result = {"cli": run_cli, "setup": run_setup, "fuzz": run_fuzz}[task["kind"]](task)
    import superdegen
    result.update(superdegen_file=os.path.realpath(superdegen.__file__),
                  python=platform.python_version(),
                  maxrss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
