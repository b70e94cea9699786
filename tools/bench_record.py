#!/usr/bin/env python3
"""Write BENCH_<n>.json from perfbench run records.

perfbench/run.py leaves one record per run in perfbench/out/, named
<workload>-seed<N>-trace<T>.json.  Measure the parent and the change in two
checkouts on the same seeds, then point this tool at both out/ directories:

    python3 tools/bench_record.py 6 --parent ../parent/perfbench/out --change perfbench/out \\
        --seeds atlas=711-720 --seeds fuzz-fixed=721-730 --traced-seed 101 \\
        --summary "what changed" --layers-moved structure.check_axioms \\
        --tier1-parent "168 passed in 36.2 s" --tier1-change "..." --machine "2-vCPU VM"

For every workload it pairs the --trace 0 runs seed by seed and records,
for each end-to-end metric, both sides' runs, medians and quartiles
(statistics.quantiles, n=4), the number of pairs the change wins (ties count
for neither side) and the ratio of the medians, plus each run's pass count
(peak_rss_mb on the fuzz workloads grows with it).  Where the passes list
their commands (atlas), it also records each command's median `elapsed`
over every pass of each side's runs, and the ratio of the two.  The
--trace 1 runs of --traced-seed, where present, give the per-layer metrics
of both sides.  Only the run records are read.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

# the end-to-end metrics of BENCHMARK.json and which way is better
END_TO_END = {"setup_s": "lower", "pass_s": "lower", "items_per_s": "higher", "peak_rss_mb": "lower"}
BACKEND = "python-int: Cyclo8 over Python ints, one denominator"


def _seeds(text):
    workload, _, spec = text.partition("=")
    seeds = []
    for part in spec.split(","):
        first, _, last = part.partition("-")
        seeds += list(range(int(first), int(last or first) + 1))
    if not workload or not seeds:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=FIRST-LAST, got {text!r}")
    return workload, seeds


def _load(out_dir: Path, workload, seed, trace):
    path = out_dir / f"{workload}-seed{seed}-trace{trace}.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SystemExit(f"bench_record: no run record {path}") from None


def _failed(record) -> int:
    passes = record.get("passes", []) + [record[k] for k in ("traced_pass", "counted_pass") if k in record]
    return sum(sum(1 for c in p.get("commands", []) if c.get("error")) + len(p.get("errors", []))
               for p in passes)


def _clean(record) -> bool:
    return not record["problems"] and _failed(record) == 0


def _stats(runs):
    q1, _, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else runs * 3
    return {"median": round(statistics.median(runs), 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(r, 4) for r in runs]}


def compare(parent_runs, change_runs, better):
    """Both sides' statistics, pair wins and the median ratio of one metric."""
    sign = 1 if better == "lower" else -1
    wins = sum(1 for p, c in zip(parent_runs, change_runs) if sign * (p - c) > 0)
    ratio = statistics.median(change_runs) / statistics.median(parent_runs)
    return {"parent": _stats(parent_runs), "change": _stats(change_runs),
            "change_better_in_pairs": f"{wins} of {len(parent_runs)}",
            "change_over_parent_median": round(ratio, 4)}


def command_medians(records) -> dict:
    """Median `elapsed` of each command (argv joined by spaces) over every
    pass of the runs; commands that raised are left out."""
    times = {}
    for record in records:
        for p in record["passes"]:
            for c in p.get("commands", []):
                if "argv" in c and not c.get("error"):
                    times.setdefault(" ".join(c["argv"]), []).append(c["elapsed"])
    return {cmd: statistics.median(runs) for cmd, runs in times.items()}


def end_to_end(parent_dir, change_dir, workload, seeds):
    sides = {side: [_load(d, workload, s, 0) for s in seeds]
             for side, d in (("parent", parent_dir), ("change", change_dir))}
    out = {"seeds": seeds, "all_correct_0_failed": all(_clean(r) for rs in sides.values() for r in rs),
           "passes": {side: [len(r["passes"]) for r in rs] for side, rs in sides.items()}}
    for metric, better in END_TO_END.items():
        out[metric] = compare(*[[r["metrics"][metric] for r in sides[side]] for side in ("parent", "change")],
                              better)
    parent, change = command_medians(sides["parent"]), command_medians(sides["change"])
    for cmd in sorted(parent.keys() | change.keys()):
        row = {side: round(m[cmd], 4) if cmd in m else None for side, m in (("parent", parent), ("change", change))}
        if None not in row.values():
            row["change_over_parent"] = round(change[cmd] / parent[cmd], 4)
        out.setdefault("command_elapsed_s", {})[cmd] = row
    return out


def traced(parent_dir, change_dir, workload, seed):
    out = {}
    for side, d in (("parent", parent_dir), ("change", change_dir)):
        record = _load(d, workload, seed, 1)
        out[side] = {k: round(v, 3) if isinstance(v, float) else v for k, v in record["metrics"].items()}
        out[side]["silent_wrappers"] = record.get("silent_wrappers", [])
        out[side]["correct_0_failed"] = _clean(record)
    return out


def build(args) -> dict:
    parent_dir, change_dir = Path(args.parent), Path(args.change)
    workloads = dict(args.seeds)
    e2e = {w: end_to_end(parent_dir, change_dir, w, seeds) for w, seeds in workloads.items()}
    workload, seeds = next(iter(workloads.items()))
    first = _load(change_dir, workload, seeds[0], 0)
    record = {
        "change": args.summary,
        "layers_moved": args.layers_moved,
        "python": ", ".join(first["python"]),
        "arithmetic_backend": BACKEND,
        "machine": args.machine,
        "command": f"python3 perfbench/run.py --workload <w> --seed <n> --seconds {first['seconds']:g} "
                   "--trace 0|1",
        "end_to_end": {
            "method": f"pairs of {first['seconds']:g} s runs, parent and change on the same seed, "
                      "alternating which runs first; quartiles by statistics.quantiles(n=4)",
            "workloads": e2e,
        },
    }
    if args.traced_seed is not None:
        record["traced"] = {
            "method": f"one --trace 1 run per side and workload, seed {args.traced_seed}; *_s are "
                      "inclusive seconds of the traced pass, counts from the counting pass",
            "workloads": {w: traced(parent_dir, change_dir, w, args.traced_seed) for w in workloads},
        }
    record["tier1"] = {"command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors",
                       "parent": args.tier1_parent, "change": args.tier1_change}
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("number", type=int, help="n of the BENCH_<n>.json to write")
    ap.add_argument("--parent", required=True, help="perfbench/out directory of the parent checkout")
    ap.add_argument("--change", required=True, help="perfbench/out directory of the changed checkout")
    ap.add_argument("--seeds", type=_seeds, action="append", required=True,
                    help="WORKLOAD=FIRST-LAST (or a comma list): the seeds run on both sides")
    ap.add_argument("--traced-seed", type=int, help="seed of the --trace 1 runs, if any")
    ap.add_argument("--summary", required=True, help="one sentence: what the change does")
    ap.add_argument("--layers-moved", nargs="+", default=[], help="layers the change moved")
    ap.add_argument("--tier1-parent", default="", help="Tier-1 result at the parent")
    ap.add_argument("--tier1-change", default="", help="Tier-1 result with the change")
    ap.add_argument("--machine", default="", help="hardware the runs were made on")
    ap.add_argument("--out-dir", default=".", help="directory for BENCH_<n>.json (default: here)")
    args = ap.parse_args(argv)
    path = Path(args.out_dir) / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(build(args), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
