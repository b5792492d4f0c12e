"""``python -m perfbench compare PARENT.jsonl CHANGE.jsonl``.

Both files hold untraced run records as ``run --out`` appends them.  Runs
pair up by (workload, seed); run the two commits alternately, parent
first on odd pairs, change first on even ones.  For each workload and
end-to-end metric this prints one row with each side's median and
quartiles, the pairs the change won, and a verdict:

* ``REGRESSION`` — the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``gain`` — the change won at least 9 of every 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's IQR;
* ``unresolved`` — either side's relative IQR is wider than the bound,
  and not every change run beats every parent run;
* ``no regression`` — otherwise.

Failed operations are compared separately: a change with more failures
than the parent claims no gain.
"""

from __future__ import annotations

import json
import statistics

MIN_PAIRS = 10


def load_runs(path: str) -> "dict[tuple[str, int], dict]":
    runs = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs[(record["workload"], record["seed"])] = record
    return runs


def verdict(parent, change, bound: float, higher: bool) -> dict:
    """Apply the gain / regression / unresolved rules to paired values."""
    sign = 1.0 if higher else -1.0
    pq1, pmed, pq3 = statistics.quantiles(parent, n=4)
    cq1, cmed, cq3 = statistics.quantiles(change, n=4)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gap = sign * (cmed - pmed)  # > 0: the change is better
    spread = max((pq3 - pq1) / abs(pmed), (cq3 - cq1) / abs(cmed))
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if -gap / abs(pmed) > bound:
        status = "REGRESSION"
    elif wins >= 0.9 * len(parent) and gap > pq3 - pq1:
        status = "gain"
    elif spread > bound and not all_better:
        status = "unresolved"
    else:
        status = "no regression"
    return {
        "parent": (pq1, pmed, pq3),
        "change": (cq1, cmed, cq3),
        "wins": wins,
        "pairs": len(parent),
        "spread": spread,
        "status": status,
    }


def compare(parent_runs: dict, change_runs: dict, benchmark: dict) -> "list[dict]":
    rows = []
    workloads = sorted({w for w, _ in parent_runs} | {w for w, _ in change_runs})
    for workload in workloads:
        seeds = sorted(
            seed for w, seed in parent_runs
            if w == workload and (w, seed) in change_runs
        )
        parent = [parent_runs[(workload, s)] for s in seeds]
        change = [change_runs[(workload, s)] for s in seeds]
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            row = {"workload": workload, "metric": name, "unit": metric["unit"]}
            if len(seeds) < MIN_PAIRS:
                row.update(status=f"too few pairs ({len(seeds)}, need {MIN_PAIRS})")
            else:
                row.update(verdict(
                    [r["metrics"][name] for r in parent],
                    [r["metrics"][name] for r in change],
                    metric["bound"],
                    metric["better"] == "higher",
                ))
            rows.append(row)
        failed = [sum(r["failed"] for r in side) for side in (parent, change)]
        attempted = [sum(r["attempted"] for r in side) for side in (parent, change)]
        rows.append({
            "workload": workload,
            "metric": "failed/attempted",
            "parent_errors": (failed[0], attempted[0]),
            "change_errors": (failed[1], attempted[1]),
            "status": "more failures" if failed[1] > failed[0] else "no more failures",
        })
    return rows


def format_row(row: dict) -> str:
    head = f"{row['workload']:<12} {row['metric']:<16}"
    if "parent_errors" in row:
        (pf, pa), (cf, ca) = row["parent_errors"], row["change_errors"]
        return f"{head} parent {pf}/{pa}  change {cf}/{ca}  {row['status']}"
    if "parent" not in row:
        return f"{head} {row['status']}"

    def side(q):
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"

    return (
        f"{head} parent {side(row['parent'])}  change {side(row['change'])} "
        f"{row['unit']}  wins {row['wins']}/{row['pairs']}  "
        f"spread {row['spread']:.1%}  {row['status']}"
    )


def main(parent_path: str, change_path: str, benchmark: dict) -> int:
    """Print one row per workload x metric; exit 1 on any regression."""
    rows = compare(load_runs(parent_path), load_runs(change_path), benchmark)
    for row in rows:
        print(format_row(row))
    regressed = any(row["status"] in ("REGRESSION", "more failures") for row in rows)
    return 1 if regressed else 0
