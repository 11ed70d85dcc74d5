"""The trajectory gate shared by the ``BENCH_*.json`` benchmarks.

A committed ``BENCH_<name>.json`` holds the last accepted full-scale
numbers of its benchmark and doubles as the regression baseline: a new
run compares its machine-independent ratios against the stored ones
and fails when one regressed beyond its band.  The file is rewritten
only after every gate passed, so a regressing run leaves the committed
baseline byte-identical and re-running it fails again; improvements
refresh the file.  Smoke runs never gate (their timings are CI jitter)
but still write, so CI can upload the numbers as artifacts.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Optional


def read_results(path: Path) -> dict:
    """The file's current contents; empty when absent or unreadable."""
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}


def load_baseline(
    path: Path, smoke: bool, key: str, section: Optional[str] = None
) -> Optional[dict]:
    """The committed numbers a run can gate against, or None.

    A smoke run never gates, and neither does a smoke baseline or one
    written by an older schema that lacks ``key``.  ``section`` selects
    a nested table written by another benchmark into the same file.
    """
    if smoke:
        return None
    baseline = read_results(path)
    if section is not None:
        baseline = baseline.get(section) or {}
    if baseline.get("smoke") or key not in baseline:
        return None
    return baseline


def at_least(name: str, new: float, old: Optional[float], tolerance: float) -> Optional[str]:
    """A higher-is-better ratio may drop to ``old * (1 - tolerance)``.

    Returns the failure message, or None when the ratio is inside its
    band or there is no baseline to compare against.
    """
    if not old or new is None:
        return None
    floor = old * (1.0 - tolerance)
    if new >= floor:
        return None
    return (
        f"{name} regressed: {new:.2f}x vs committed baseline {old:.2f}x "
        f"(tolerance floor {floor:.2f}x)"
    )


def at_most(name: str, new: float, old: Optional[float], factor: float) -> Optional[str]:
    """A lower-is-better cost may rise to ``old * factor``."""
    if not old or new is None:
        return None
    ceiling = old * factor
    if new <= ceiling:
        return None
    return (
        f"{name} regressed: {new:.3g} vs committed baseline {old:.3g} "
        f"(ceiling {ceiling:.3g})"
    )


def commit(path: Path, payload: dict, failures: Iterable[Optional[str]]) -> None:
    """Write ``payload`` to ``path`` only when no gate failed.

    ``failures`` are the results of :func:`at_least` / :func:`at_most`;
    any message raises AssertionError and leaves the file untouched.
    """
    failed = [message for message in failures if message]
    assert not failed, (
        "; ".join(failed)
        + f" -- investigate before refreshing {path.name}"
    )
    path.write_text(json.dumps(payload, indent=2) + "\n")
