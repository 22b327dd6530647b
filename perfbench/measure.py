"""Measurement helpers shared by the workloads: seeds, statistics, set-up
probes in fresh interpreters, resident memory and the host-noise probe."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

#: The repository checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"
#: Scratch space for run records, spans and daemon roots (git-ignored).
OUT_DIR = ROOT / ".perfbench-out"


def search_seed(workload: str, workload_seed: int, index: int | str) -> int:
    """The seed of the ``index``-th search of a run, derived from its seed."""
    digest = hashlib.sha256(
        f"{workload}/{workload_seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def program_env() -> dict[str, str]:
    """Environment for a child interpreter that imports the checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE)] + [part for part in [env.get("PYTHONPATH")] if part])
    return env


def import_probes(network: str, count: int) -> list[dict[str, float]]:
    """Set up ``count`` times in fresh interpreters, one after another.

    Each probe runs ``perfbench/setup_probe.py``, which imports ``repro``
    and builds ``network``.  ``ready_s`` is measured here, from spawning the
    interpreter until it reports the network built; ``import_s`` is the
    child's own timing of ``import repro``.
    """
    probes = []
    for _ in range(count):
        started = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
                 network],
                cwd=ROOT, env=program_env(), stdout=subprocess.PIPE,
                text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter() - started
            child.stdout.read()
            if child.wait(timeout=60) != 0 or not line:
                raise RuntimeError(f"set-up probe for {network} exited with "
                                   f"code {child.returncode}")
        probes.append({"ready_s": ready, **json.loads(line)})
    return probes


def host_probe() -> float:
    """Seconds for a fixed pure-Python plus NumPy workload.

    It does not touch the program; timed before and after each run it tells
    a slower host apart from a slower program.
    """
    started = time.perf_counter()
    total = 0
    for value in range(800_000):
        total += value * value % 7
    array = np.linspace(1.0, 2.0, 200_000)
    for _ in range(80):
        array = np.sqrt(array * array + 1.0) - 0.5
    if total < 0 or not np.isfinite(array).all():
        raise RuntimeError("host probe computed nonsense")
    return time.perf_counter() - started


def own_peak_rss_mb() -> float:
    """Peak resident memory of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of peak resident memory over ``pid`` and its live descendants."""
    parents: dict[int, int] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited while we scanned
        # The command name may hold spaces; fields resume after its ')'.
        parents[int(entry.name)] = int(stat.rsplit(")", 1)[1].split()[1])
    tree, frontier = {pid}, [pid]
    while frontier:
        parent = frontier.pop()
        for child, its_parent in parents.items():
            if its_parent == parent and child not in tree:
                tree.add(child)
                frontier.append(child)
    total_kib = 0
    for member in tree:
        try:
            status = Path(f"/proc/{member}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
    return total_kib / 1024.0


@dataclass
class RunResult:
    """What one run reports: the contract's summary plus a detailed record."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    #: Everything else worth keeping (per-search times, probes, spans'
    #: location); written next to the run's metrics, never printed.
    record: dict[str, Any] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)
