"""BENCHMARK.json: the one place the workload names, the metric names,
units and bounds, and the run length are written down."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

CONTRACT: dict[str, Any] = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
WORKLOAD_NAMES: tuple[str, ...] = tuple(w["name"] for w in CONTRACT["workloads"])
#: End-to-end metric name → its entry (unit, better, bound).
END_TO_END: dict[str, dict[str, Any]] = {
    metric["name"]: metric for metric in CONTRACT["end_to_end"]
}
#: Per-layer metric name → unit, in report order.
PER_LAYER: dict[str, str] = {
    metric["name"]: metric["unit"] for metric in CONTRACT["per_layer"]
}
RUN_SECONDS: int = CONTRACT["run_seconds"]
