#!/usr/bin/env python3
"""Compare two combined records: ``compare.py A.json B.json``.

``A`` is the reference (the parent commit, or the first of two runs of
one commit), ``B`` the candidate; both come from ``run.py`` in
all-workload mode.  For every workload × end-to-end metric the verdict
follows the rule of the choosing-metrics guide:

* ``regressed`` — B's median is worse than A's by more than the metric's
  bound (BENCHMARK.json) and the repeats' interquartile ranges are
  disjoint;
* ``unresolved`` — the medians differ by more than the bound but the
  interquartile ranges overlap, or the run-to-run spread on either side
  is wider than the bound, so a change of the bound's size cannot be
  told from noise (unless every repeat of B beats every repeat of A);
* ``within`` — otherwise.

Counts (per-layer metrics with unit ``count``) and ``failed_share``
repeat exactly for one seed, so any difference is reported as
``differs``.  Exits 1 on any ``regressed`` or ``differs``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

from contract import END_TO_END


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    change = (b - a) / a
    return change if better == "lower" else -change


def spread(metric: dict[str, Any]) -> float:
    """Interquartile range as a share of the median."""
    return (metric["q3"] - metric["q1"]) / metric["value"]


def all_better(a: dict[str, Any], b: dict[str, Any], better: str) -> bool:
    """Does every repeat of ``b`` read better than every repeat of ``a``?"""
    if better == "lower":
        return max(b["samples"]) < min(a["samples"])
    return min(b["samples"]) > max(a["samples"])


def verdict(a: dict[str, Any], b: dict[str, Any], better: str, bound: float) -> str:
    """``within``, ``unresolved`` or ``regressed`` for one metric."""
    worse = worsening(a["value"], b["value"], better)
    disjoint = a["q3"] < b["q1"] or b["q3"] < a["q1"]
    if worse > bound:
        return "regressed" if disjoint else "unresolved"
    if max(spread(a), spread(b)) > bound and not all_better(a, b, better):
        return "unresolved"
    return "within"


def compare(a: dict[str, Any], b: dict[str, Any]) -> list[tuple[str, ...]]:
    """One row per workload × metric: names, both medians, change, verdict."""
    rows: list[tuple[str, ...]] = []
    for name, left in a["workloads"].items():
        right = b["workloads"].get(name, {"status": "missing"})
        if left["status"] != "ok" or right["status"] != "ok":
            rows.append((name, "-", "-", "-", "-", f"{left['status']}/{right['status']}"))
            continue
        for metric, rule in END_TO_END.items():
            one = left["end_to_end"]["metrics"][metric]
            two = right["end_to_end"]["metrics"][metric]
            worse = worsening(one["value"], two["value"], rule["better"])
            rows.append(
                (
                    name,
                    metric,
                    f"{one['value']:.6g}",
                    f"{two['value']:.6g}",
                    f"{abs(worse):.1%} {'worse' if worse > 0 else 'better'}"
                    f" (bound {rule['bound']:.0%})",
                    verdict(one, two, rule["better"], rule["bound"]),
                )
            )
        for side in ("end_to_end", "per_layer"):
            if left[side]["failed_share"] != right[side]["failed_share"]:
                rows.append((name, "failed_share", "-", "-", "-", "differs"))
        for metric, one in left["per_layer"]["metrics"].items():
            two = right["per_layer"]["metrics"][metric]
            if one["unit"] == "count" and one["value"] != two["value"]:
                rows.append(
                    (name, metric, f"{one['value']:g}", f"{two['value']:g}", "-", "differs")
                )
    return rows


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in sys.argv[1:])
    if not (a["comparable"] and b["comparable"]):
        print("note: a --quick record is not comparable; verdicts are for show")
    if a["seed"] != b["seed"]:
        print("note: different seeds — counts are expected to differ")
    rows = compare(a, b)
    widths = [max(len(row[i]) for row in rows) for i in range(6)]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    bad = [row for row in rows if row[5] in ("regressed", "differs")]
    unresolved = sum(row[5] == "unresolved" for row in rows)
    print(f"{len(bad)} regressed or differing, {unresolved} unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
