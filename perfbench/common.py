"""Helpers shared by the benchmark's parent process and its workers.

Standard library only: the parent (``run.py``) must stay a light process
that imports neither numpy nor treeshift, so that every measured import
happens in a child it starts.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics

#: the README's CLI examples run by cli-cold (argv after the program name)
CLI_COMMANDS = {
    "check": ["check", "--A", "G", "--M", "G", "--ray", "f1^inf", "--n", "2:6"],
    "entropy": ["entropy", "--A", "G", "--M", "G", "--n", "1:20"],
    "strip": ["strip", "--A", "G", "--M", "G", "--ray", "f2(f1 f2)^inf", "--n", "2:10"],
    "converge": [
        "converge", "--A", "G", "--M", "crt:3", "--ray", "(f1 f2 f3)^inf",
        "--n", "2:12", "--format", "json",
    ],
}

#: a tail percentile needs at least this many ops beyond it
TAIL_BEYOND = 10


def digest(obj) -> str:
    """Short stable hash of a JSON-able description of the inputs."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def tail(latencies) -> float:
    """The highest percentile that still has ``TAIL_BEYOND`` samples beyond
    it: the (TAIL_BEYOND + 1)-th largest latency, or the largest when there
    are too few samples."""
    ordered = sorted(latencies)
    return ordered[-1] if len(ordered) <= TAIL_BEYOND else ordered[-TAIL_BEYOND - 1]


def tail_percentile(samples: int) -> float:
    """The percentile that ``tail`` reads from this many samples."""
    return 100.0 * (samples - TAIL_BEYOND) / samples if samples > TAIL_BEYOND else 100.0


class BestOfRun:
    """The end-to-end time metrics of a run, from the best of its passes.

    Every pass runs the same ops in the same cache states.  On a shared host
    the speed of a whole pass swings by up to 2x, in spells that last from
    seconds to minutes, and that noise only ever adds time.  So each op's
    latency is taken as its best over the run's passes (the rule of
    ``timeit``), and so is the time a pass spends outside its ops.  A run's
    figures then follow the program rather than the share of slow spells the
    run happened to get:

    - ``ops_per_s``: ops that passed their check, per second of a pass made
      of those best times;
    - ``op_p50_ms``: the median of the ops' best latencies;
    - ``op_tail_ms``: ``tail`` of the ops' best latencies.
    """

    def __init__(self) -> None:
        self.best: list[float] | None = None
        self.rest = math.inf
        self.attempted = self.ok = 0
        self.walls: list[float] = []

    def add(self, latencies: list[float], wall: float, ok: int) -> None:
        """One untraced pass: its op latencies, always in the same op order,
        its wall time, and how many of its ops passed their check."""
        self.best = list(latencies) if self.best is None else list(map(min, self.best, latencies))
        self.rest = min(self.rest, max(wall - math.fsum(latencies), 0.0))
        self.attempted += len(latencies)
        self.ok += ok
        self.walls.append(wall)

    def metrics(self) -> dict:
        ops = len(self.best)
        return {
            "ops_per_s": ops * self.ok / self.attempted / (math.fsum(self.best) + self.rest),
            "op_p50_ms": statistics.median(self.best) * 1e3,
            "op_tail_ms": tail(self.best) * 1e3,
            "tail_percentile": tail_percentile(ops),
        }


