"""BENCHMARK.json and the benchmark code name the same workloads and
metrics, with the same units and directions.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import report  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_match():
    listed = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
    coded = {name: (unit, better)
             for name, (unit, better, _how) in report.END_TO_END.items()}
    assert listed == coded


def test_per_layer_metrics_match():
    listed = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert listed == report.PER_LAYER


def test_bounds():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
