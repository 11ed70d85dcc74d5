"""Self-tests of the benchmark: reference answers, span arithmetic,
import-time parsing, determinism, and refusal outside a checkout.

Run from the root of the repository::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys

import pytest

import programs
import startup

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _conftest_literals():
    """The module-level constants of ``benchmarks/conftest.py``."""
    with open(os.path.join(ROOT, "benchmarks", "conftest.py")) as handle:
        tree = ast.parse(handle.read())
    values = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            try:
                values[node.targets[0].id] = ast.literal_eval(node.value)
            except (ValueError, AttributeError):
                continue
    return values


def test_sources_and_adjacency_match_the_paper_benchmarks():
    literals = _conftest_literals()
    assert tuple(map(tuple, literals["AUSTRALIA_ADJACENT"])) == programs.AUSTRALIA_ADJACENT
    assert tuple(literals["AUSTRALIA_REGIONS"]) == programs.AUSTRALIA_REGIONS
    for name in ("LISTING_6_MULT", "LISTING_7_AUSTRALIA", "LISTING_5_CIRCSAT",
                 "LISTING_3_COUNTER"):
        assert literals[name] == getattr(programs, name)


def test_brute_forced_references():
    assert programs.CIRCSAT_ANSWERS == {(1, 1, 0)}
    assert programs.COUNTER_ANSWERS == {(1, 1)}


def _bits(base, value, width):
    return {f"{base}[{i}]": bool(value >> i & 1) for i in range(width)}


def _program(name):
    return next(p for p in programs.PROGRAMS if p.name == name)


def test_factor_reads_are_judged_by_arithmetic():
    factor = _program("factor143")
    good = {**_bits("A", 11, 4), **_bits("B", 13, 4), **_bits("C", 143, 8)}
    bad = {**_bits("A", 3, 4), **_bits("B", 5, 4), **_bits("C", 143, 8)}
    assert factor.judge([good]) == (False, True)
    assert factor.judge([good, bad]) == (True, True)
    assert factor.judge([]) == (False, False)


def test_colourings_are_judged_against_the_borders():
    australia = _program("australia")
    proper = {"NSW": 0, "QLD": 1, "SA": 2, "VIC": 1, "WA": 0, "NT": 3, "ACT": 1}
    read = {"valid": True}
    for region, colour in proper.items():
        read.update(_bits(region, colour, 2))
    assert australia.judge([read]) == (False, True)
    read.update(_bits("ACT", proper["NSW"], 2))  # ACT borders NSW
    assert australia.judge([read]) == (True, False)


def test_counter_and_circsat_reads():
    counter = _program("counter")
    read = {"inc@0": True, "inc@1": True, **_bits("out@2", 2, 6)}
    assert counter.judge([read]) == (False, True)
    assert counter.judge([{**read, "inc@1": False}]) == (True, False)
    circsat = _program("circsat")
    assert circsat.judge([{"a": True, "b": True, "c": False, "y": True}]) == (
        False,
        True,
    )
    assert circsat.judge([{"a": True, "b": False, "c": False, "y": True}])[0]


def test_parse_importtime():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 | numpy.core",
            "import time:        50 |        150 | numpy",
            "import time:       300 |        300 |   scipy.sparse",
            "import time:        20 |        470 | repro",
        ]
    )
    parsed = startup.parse_importtime(text)
    assert parsed["numpy"] == pytest.approx(150e-6)
    assert parsed["scipy"] == pytest.approx(300e-6)
    assert parsed["networkx"] == 0.0
    assert parsed["total"] == pytest.approx(470e-6)


def test_self_time_subtracts_children():
    sys.path.insert(0, SRC)
    import spans

    tracer = spans.Tracer()
    with tracer.span("op"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
    op, a, b = tracer.spans
    own = tracer.self_times()
    assert own[0] == pytest.approx(op.duration - a.duration)
    assert own[1] == pytest.approx(a.duration - b.duration)
    assert own[2] == pytest.approx(b.duration)
    assert (a.parent, b.parent) == (0, 1)


#: A short run of the two small programs, with a start-up probe after
#: each counter op, in a fresh interpreter with the benchmark's fixed
#: hash seed, printing the run's JSON.
_SHORT_RUN = """
import json, sys
sys.path[:0] = [{src!r}, {here!r}]
import paper, programs
paper.MIX = tuple(p for p in paper.MIX if p.name in ("circsat", "counter"))
paper.PROBE_AFTER = ("counter",)
print(json.dumps(paper.run_workload("paper-cold", {seed}, 0, {trace}, {src!r}, {root!r})))
"""

QUALITY = ("certified_frac", "answer_frac", "physical_qubits")
HARDWARE = (
    "hardware.physical_qubits",
    "hardware.max_chain",
    "hardware.physical_couplers",
    "hardware.embed_restarts",
)


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {metric["name"] for metric in json.load(handle)[kind]}


def _short_run(seed, trace, keys):
    code = _SHORT_RUN.format(src=SRC, here=HERE, root=ROOT, seed=seed, trace=trace)
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    outcome = json.loads(done.stdout.strip().splitlines()[-1])
    assert outcome["correct"] and outcome["failed"] == 0
    assert set(outcome["metrics"]) == _declared("per_layer" if trace else "end_to_end")
    return {key: outcome["metrics"][key]["value"] for key in keys}


def test_quality_and_hardware_counts_repeat_per_seed():
    first = _short_run(1, False, QUALITY)
    assert _short_run(1, False, QUALITY) == first
    assert _short_run(2, False, QUALITY) != first
    assert _short_run(1, True, HARDWARE) == _short_run(1, True, HARDWARE)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
