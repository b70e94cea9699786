"""Benchmark of superdegen, measured from outside the program.

    python3 perfbench/run.py --workload atlas --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; it measures the superdegen under that
checkout's src/.  Every measurement runs in a fresh interpreter started by
this script (one at a time, see worker.py).  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
The whole record of a run (every pass, every sample, the raw trace) goes
to perfbench/out/.  README.md describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import inputs
import layers
from reference import CERT_SETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
OUT = HERE / "out"
WORKLOADS = ("atlas", "fuzz-fixed", "fuzz-family")
# setup_s is the median of this many fresh interpreters, after one warm-up
# interpreter whose imports write the bytecode cache; half of them run
# before the passes and half after, so that they sample the host's speed at
# both ends of the run
SETUP_PROBES = 12
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def another_pass(elapsed: float, done: int, seconds: float) -> bool:
    """Whole passes only: start one more while it is expected to end within
    the measuring time, judged by the mean pass so far; at least one."""
    return done == 0 or elapsed + elapsed / done <= seconds


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("SUPERDEGEN_CATALOG", "PYTHONPATH", "PYTHONSTARTUP")}
        self.env["PYTHONHASHSEED"] = "0"
        self.rss_kib = 0
        self.origins, self.pythons = set(), set()
        self.attempted = self.failed = 0
        self.problems = []
        self.record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}

    def worker(self, task: dict) -> dict:
        task = dict(task, src=str(SRC))
        try:
            proc = subprocess.run([sys.executable, str(WORKER)], input=json.dumps(task),
                                  capture_output=True, text=True, env=self.env, cwd=ROOT,
                                  timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{task['kind']} worker ran past {WORKER_TIMEOUT_S} s") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"{task['kind']} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        self.rss_kib = max(self.rss_kib, result["maxrss_kib"])
        self.origins.add(result["superdegen_file"])
        self.pythons.add(result["python"])
        return result

    def problem(self, *found):
        self.problems += [p for p in found if p not in self.problems]

    # ------------------------------------------------------------- atlas

    def atlas_records(self):
        records = {}
        for name in CERT_SETS:
            with open(SRC / "superdegen" / "data" / f"{name}.json", encoding="utf-8") as fh:
                data = json.load(fh)
            records[name] = data["certs"] if isinstance(data, dict) else data
        self.problem(*checks.check_erratum(records))
        return records

    def atlas_pass(self, order, records, trace="none"):
        commands = []
        for argv in order:
            r = self.worker({"kind": "cli", "argv": argv, "trace": trace})
            self.attempted += 1
            items = 0
            if r["error"]:
                self.failed += 1
            else:
                self.problem(*checks.check_command(argv, r, records))
                try:
                    items = checks.report_items(argv, r["stdout"])
                except (ValueError, KeyError, IndexError):
                    pass  # check_command has reported the unreadable output
            commands.append({"argv": argv, "elapsed": r["elapsed"], "cpu": r["cpu"], "items": items,
                             "error": r["error"], "trace": r["trace"]})
        return {"seconds": sum(c["elapsed"] for c in commands), "cpu": sum(c["cpu"] for c in commands),
                "items": sum(c["items"] for c in commands), "commands": commands,
                "traces": [c["trace"] for c in commands if c["trace"]]}

    def atlas(self, trace="none"):
        order = inputs.atlas_commands(self.seed)
        records = self.atlas_records()
        self.record["commands"] = order
        if trace != "none":
            return [self.atlas_pass(order, records, trace)]
        passes, start = [], perf_counter()
        while another_pass(perf_counter() - start, len(passes), self.seconds):
            passes.append(self.atlas_pass(order, records))
        return passes

    # ------------------------------------------------------------- fuzz

    def fuzz(self, trace="none"):
        points = inputs.fuzz_points(self.workload, self.seed)
        self.record["points"] = points
        r = self.worker({"kind": "fuzz", "points": points, "seconds": self.seconds, "trace": trace,
                         "max_passes": 1 if trace != "none" else 10 ** 6})
        out = []
        for p in r["passes"]:
            self.attempted += len(p["records"])
            self.failed += p["failed"]
            ok = [rec for rec in p["records"] if "error" not in rec]
            for rec in ok:
                self.problem(*checks.check_point(rec))
            out.append({"seconds": p["seconds"], "cpu": p["cpu"], "items": len(ok),
                        "errors": [rec for rec in p["records"] if "error" in rec]})
        if r["trace"]:
            out[0]["traces"] = [r["trace"]]
        return out

    # ------------------------------------------------------------- metrics

    def passes(self, trace="none"):
        return self.atlas(trace) if self.workload == "atlas" else self.fuzz(trace)

    def measure(self):
        warm = self.worker({"kind": "setup"})
        self.record["warmup_setup_s"] = warm["setup_s"]
        probes = 0 if self.trace else SETUP_PROBES
        setup = [self.worker({"kind": "setup"})["setup_s"] for _ in range(probes // 2)]
        passes = self.passes()
        setup += [self.worker({"kind": "setup"})["setup_s"] for _ in range(probes - probes // 2)]
        self.record["passes"] = passes
        pass_s = statistics.median([p["seconds"] for p in passes])
        if not self.trace:
            self.record["setup_samples"] = setup
            return {
                "setup_s": (statistics.median(setup), "s"),
                "pass_s": (pass_s, "s"),
                "items_per_s": (statistics.median([p["items"] / p["seconds"] for p in passes]), "1/s"),
                "peak_rss_mb": (self.rss_kib / 1024, "MiB"),
            }
        traced = self.passes("spans")[0]
        counted = self.passes("counts")[0]
        self.record.update(traced_pass=traced, counted_pass=counted)
        spans, counts = layers.combine(traced["traces"]), layers.combine(counted["traces"])
        silent = layers.silent_wrappers(self.workload, spans, counts)
        self.record["silent_wrappers"] = silent
        if silent:
            print(f"# trace: these wrappers saw no call on {self.workload}: {', '.join(silent)}")
        metrics = {k: (v, layers.unit_of(k)) for k, v in layers.layer_metrics(spans, counts).items()}
        metrics["cpu.pass_s"] = (statistics.median([p["cpu"] for p in passes]), "s")
        metrics["trace.overhead_s"] = (traced["seconds"] - pass_s, "s")
        return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measure passes for this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "superdegen" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no superdegen sources under {SRC}; run from the root of a checkout\n")
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        metrics = run.measure()
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    if len(run.origins) != 1:
        run.problem(f"measured more than one superdegen: {sorted(run.origins)}")
    run.record.update(superdegen=sorted(run.origins), python=sorted(run.pythons), problems=run.problems,
                      metrics={k: v for k, (v, _) in metrics.items()})
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(run.record, indent=1) + "\n", encoding="utf-8")
    print(f"# superdegen {', '.join(sorted(run.origins))} on Python {', '.join(sorted(run.pythons))}")
    print(f"# full record: {out_file.relative_to(ROOT)}")
    for p in run.problems[:20]:
        print(f"# incorrect: {p}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
