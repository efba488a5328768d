"""Fold the benchmark result files of a parent commit and a change into one
``BENCH_<pr>.json``, the committed record of the performance trajectory.

Usage, from the repository root:

    python3 tools/bench_fold.py --pr N --parent PATH... --change PATH... [-o FILE] [--claim W/M]...

Each PATH is a result file written by ``perfbench/run.py`` or a directory of
them.  Only untraced runs (``trace`` 0) count.  A parent run and a change run
with the same workload and seed form a pair; runs without a partner are
listed on stderr and left out.  For every workload the output holds the pair
count, the seeds, and, for each end-to-end metric of ``BENCHMARK.json``, the
median, quartiles and IQR of each side, the change's number of wins (ties
count for neither), and the operations attempted and failed on each side.
The ``machine`` block of the result files is copied once per distinct value.

Every (workload, metric) whose change median is worse than the parent's by
more than the metric's ``bound`` in ``BENCHMARK.json`` (a fraction of the
parent's median) is listed under ``flags``.  Every (workload, metric) whose
change IQR is wider than that same bound is listed under ``unresolved``: its
runs spread too widely to tell whether the median moved within the bound,
unless every change run is better than every parent run.
Each ``--claim WORKLOAD/METRIC`` is checked and listed under ``claims``: it
holds when the change is better in at least 9 of every 10 pairs, its median
beats the parent's by more than the parent's IQR, and no larger share of its
operations failed than of the parent's.  The exit status is 1 when a metric
is flagged or a claim fails, 2 when nothing pairs up, 0 otherwise; an
unresolved metric is printed and wants more runs, not a verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_runs(paths: list) -> dict:
    """{(workload, seed): result} of the untraced result files under ``paths``."""
    runs = {}
    for path in map(Path, paths):
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for f in files:
            if f.name.endswith(".spans.json"):
                continue
            result = json.loads(f.read_text())
            if result.get("trace") != 0:
                continue
            key = (result["workload"]["name"], result["workload"]["seed"])
            if key in runs:
                raise SystemExit(f"error: two results for workload {key[0]} seed {key[1]} ({f})")
            runs[key] = result
    return runs


def spread(values: list) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def fold(parent: dict, change: dict, end_to_end: list) -> dict:
    for side, runs, other in (("parent", parent, change), ("change", change, parent)):
        for key in sorted(set(runs) - set(other)):
            print(f"unpaired {side} run left out: workload {key[0]} seed {key[1]}", file=sys.stderr)
    workloads = {}
    for name in sorted({w for w, _ in set(parent) & set(change)}):
        seeds = sorted(s for w, s in set(parent) & set(change) if w == name)
        pairs = [(parent[(name, s)], change[(name, s)]) for s in seeds]
        metrics = {}
        for metric in end_to_end:
            key, sign = metric["name"], 1 if metric["better"] == "lower" else -1
            before = [p["metrics"][key]["value"] for p, _ in pairs]
            after = [c["metrics"][key]["value"] for _, c in pairs]
            metrics[key] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "parent": spread(before),
                "change": spread(after),
                "change_wins": sum(sign * (b - a) > 0 for b, a in zip(before, after)),
            }
        workloads[name] = {
            "pairs": len(pairs),
            "seeds": seeds,
            "metrics": metrics,
            "ops": {
                side: {
                    "attempted": sum(r[i]["attempted"] for r in pairs),
                    "failed": sum(r[i]["failed"] for r in pairs),
                }
                for i, side in enumerate(("parent", "change"))
            },
        }
    machines = []
    for result in list(parent.values()) + list(change.values()):
        if result["machine"] not in machines:
            machines.append(result["machine"])
    return {"workloads": workloads, "machine": machines}


def unresolved(workloads: dict, end_to_end: list) -> list:
    """The (workload, metric) pairs whose change IQR is wider than the
    metric's bound, a fraction of the parent's median, and whose change runs
    are not all better than every parent run."""
    out = []
    for name, w in workloads.items():
        for metric in end_to_end:
            m = w["metrics"][metric["name"]]
            width = metric["bound"] * abs(m["parent"]["median"])
            sign = 1 if metric["better"] == "lower" else -1
            all_better = max(sign * v for v in m["change"]["runs"]) < min(sign * v for v in m["parent"]["runs"])
            if m["change"]["iqr"] > width and not all_better:
                out.append({"workload": name, "metric": metric["name"], "change_iqr": m["change"]["iqr"],
                            "bound_width": width})
    return out


def flags(workloads: dict, end_to_end: list) -> list:
    """The (workload, metric) pairs whose change median is worse than the
    parent's by more than the metric's bound, a fraction of the parent's median."""
    out = []
    for name, w in workloads.items():
        for metric in end_to_end:
            m = w["metrics"][metric["name"]]
            before, after = m["parent"]["median"], m["change"]["median"]
            worse = (after - before) if metric["better"] == "lower" else (before - after)
            if worse > metric["bound"] * abs(before):
                out.append({"workload": name, "metric": metric["name"], "parent": before, "change": after,
                            "bound": metric["bound"], "worse_by": worse / abs(before) if before else float("inf")})
    return out


def check_claim(workloads: dict, claim: str) -> dict:
    """Whether the change wins ``claim`` = "WORKLOAD/METRIC": better in at least
    9 of every 10 pairs, with a median gap wider than the parent's IQR, and no
    larger share of failed operations than the parent."""
    name, _, key = claim.partition("/")
    if name not in workloads or key not in workloads[name]["metrics"]:
        raise SystemExit(f"error: no folded metric {claim!r}")
    w = workloads[name]
    m = w["metrics"][key]
    sign = 1 if m["better"] == "lower" else -1
    gap = sign * (m["parent"]["median"] - m["change"]["median"])
    failed = {side: ops["failed"] / ops["attempted"] if ops["attempted"] else 0.0 for side, ops in w["ops"].items()}
    return {
        "workload": name,
        "metric": key,
        "wins": m["change_wins"],
        "pairs": w["pairs"],
        "gap": gap,
        "parent_iqr": m["parent"]["iqr"],
        "failed_share": failed,
        "holds": 10 * m["change_wins"] >= 9 * w["pairs"] and gap > m["parent"]["iqr"]
        and failed["change"] <= failed["parent"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("-o", "--output", default=None, help="default: BENCH_<pr>.json at the repository root")
    ap.add_argument("--claim", action="append", default=[], metavar="WORKLOAD/METRIC")
    args = ap.parse_args(argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    doc = {"pr": args.pr, **fold(load_runs(args.parent), load_runs(args.change), end_to_end)}
    if not doc["workloads"]:
        print("error: no parent/change pairs", file=sys.stderr)
        return 2
    doc["flags"] = flags(doc["workloads"], end_to_end)
    doc["unresolved"] = unresolved(doc["workloads"], end_to_end)
    doc["claims"] = [check_claim(doc["workloads"], c) for c in args.claim]
    out = Path(args.output) if args.output else ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for name, w in doc["workloads"].items():
        for key, m in w["metrics"].items():
            print(
                f"{name} {key}: {m['parent']['median']:.4g} -> {m['change']['median']:.4g} {m['unit']}"
                f" (parent IQR {m['parent']['iqr']:.3g}), change better in {m['change_wins']}/{w['pairs']}"
            )
    for f in doc["flags"]:
        print(f"FLAG {f['workload']} {f['metric']}: worse by {f['worse_by']:.1%}, bound {f['bound']:.0%}")
    for u in doc["unresolved"]:
        print(
            f"UNRESOLVED {u['workload']} {u['metric']}: change IQR {u['change_iqr']:.3g}"
            f" is wider than the bound's {u['bound_width']:.3g}"
        )
    for c in doc["claims"]:
        print(
            f"claim {c['workload']}/{c['metric']} {'holds' if c['holds'] else 'FAILS'}: better in"
            f" {c['wins']}/{c['pairs']}, median gap {c['gap']:.4g} against parent IQR {c['parent_iqr']:.3g},"
            f" failed ops {c['failed_share']['parent']:.2%} -> {c['failed_share']['change']:.2%}"
        )
    return 1 if doc["flags"] or not all(c["holds"] for c in doc["claims"]) else 0


if __name__ == "__main__":
    sys.exit(main())
