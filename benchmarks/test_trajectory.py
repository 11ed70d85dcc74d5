"""Self-test of the shared ``BENCH_*.json`` trajectory gate (fast).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_trajectory.py -q
"""

from __future__ import annotations

import json

import pytest
import trajectory

BASELINE = {"smoke": False, "speedup": 4.0, "recovery": {"ms_per_job": 0.2}}


@pytest.fixture
def bench_file(tmp_path):
    path = tmp_path / "BENCH_test.json"
    path.write_text(json.dumps(BASELINE, indent=2) + "\n")
    return path


def _gates(path, speedup, ms_per_job, smoke=False):
    baseline = trajectory.load_baseline(path, smoke, "speedup") or {}
    recovery = trajectory.load_baseline(
        path, smoke, "ms_per_job", section="recovery"
    ) or {}
    return [
        trajectory.at_least("speedup", speedup, baseline.get("speedup"), 0.20),
        trajectory.at_most(
            "replay", ms_per_job, recovery.get("ms_per_job"), 5.0
        ),
    ]


@pytest.mark.parametrize(
    "speedup, ms_per_job", [(3.1, 0.2), (4.0, 1.1)], ids=["ratio", "cost"]
)
def test_regression_raises_and_leaves_file_unchanged(bench_file, speedup, ms_per_job):
    before = bench_file.read_bytes()
    with pytest.raises(AssertionError, match="regressed"):
        trajectory.commit(
            bench_file,
            {"smoke": False, "speedup": speedup},
            _gates(bench_file, speedup, ms_per_job),
        )
    assert bench_file.read_bytes() == before


def test_improvement_refreshes_file(bench_file):
    # Inside the band (3.3 >= 0.8 * 4.0) counts as passing too.
    for speedup in (3.3, 5.0):
        payload = {"smoke": False, "speedup": speedup}
        trajectory.commit(bench_file, payload, _gates(bench_file, speedup, 0.9))
        assert trajectory.read_results(bench_file) == payload


def test_smoke_runs_and_baselines_never_gate(bench_file):
    # A smoke run writes whatever it measured ...
    trajectory.commit(
        bench_file,
        {"smoke": True, "speedup": 0.1},
        _gates(bench_file, 0.1, 100.0, smoke=True),
    )
    # ... and a smoke baseline, or one without the gated key, never gates.
    assert trajectory.load_baseline(bench_file, False, "speedup") is None
    bench_file.write_text(json.dumps({"smoke": False}))
    assert trajectory.load_baseline(bench_file, False, "speedup") is None
    assert trajectory.read_results(bench_file.with_name("absent.json")) == {}
