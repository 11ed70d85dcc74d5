"""Cold-process start: ``python -m repro --help`` in a fresh interpreter."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

#: Top-level packages whose import cost is reported on its own.
IMPORT_PACKAGES = ("numpy", "scipy", "networkx")

CHILD_TIMEOUT_S = 60.0


def _help_command(importtime: bool) -> List[str]:
    flags = ["-X", "importtime"] if importtime else []
    return [sys.executable, *flags, "-m", "repro", "--help"]


def _env(src_dir: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    return env


def _wall_s(command: List[str], src_dir: str, cwd: str) -> float:
    """Wall time of one subprocess, from spawn to exit.

    A wait with a timeout polls the child with sleeps of up to 50 ms,
    which would round every time up to the next poll.  So the wait
    blocks, and a timer kills a child that hangs.
    """
    start = time.perf_counter()
    child = subprocess.Popen(
        command,
        cwd=cwd,
        env=_env(src_dir),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    killer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
    killer.start()
    try:
        code = child.wait()
    finally:
        killer.cancel()
        killer.join()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, command)
    return elapsed


def cli_start_s(src_dir: str, cwd: str) -> Tuple[float, float]:
    """Wall times of ``python -m repro --help`` and, right after it, of
    a bare ``python -c pass`` in the same environment.

    Process start on a shared machine speeds up and slows down from
    one second to the next, and the two starts move together, so their
    ratio is steady where either time alone is not.
    """
    cli = _wall_s(_help_command(importtime=False), src_dir, cwd)
    bare = _wall_s([sys.executable, "-c", "pass"], src_dir, cwd)
    return cli, bare


def parse_importtime(text: str) -> Dict[str, float]:
    """Seconds of import work, in total and per top-level package.

    ``-X importtime`` prints ``import time: self | cumulative | name``
    per module, indented by nesting depth.  Summing the self column
    over a package's modules counts each module once, wherever in the
    import tree it was first pulled in.
    """
    totals = {"total": 0.0, **{name: 0.0 for name in IMPORT_PACKAGES}}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        self_s = int(fields[0]) / 1e6
        module = fields[2].strip()
        totals["total"] += self_s
        package = module.split(".", 1)[0]
        if package in totals and package != "total":
            totals[package] += self_s
    return totals


def import_breakdown(src_dir: str, cwd: str) -> Dict[str, float]:
    """One ``python -X importtime -m repro --help`` run, parsed."""
    done = subprocess.run(
        _help_command(importtime=True),
        cwd=cwd,
        env=_env(src_dir),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return parse_importtime(done.stderr)
