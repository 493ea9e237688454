"""Fixed reference computation that puts every time on one host-speed scale.

On a shared host the raw wall time of the same work drifts by 10% or more
between runs. The reference unit below is a fixed piece of pure-Python work
in the style of the program's own (build small dicts, walk and encode them
recursively, format floats, sort, SHA-256). The benchmark runs it in blocks
between operations, in its own process. An operation that took ``t`` while
the median unit time of the blocks around it was ``u`` is reported as
``t * (NOMINAL_UNIT_MS / u) ** HOST_SENSITIVITY``: its time "at reference
speed", on a host where one unit takes exactly :data:`NOMINAL_UNIT_MS`.
Drift in host speed moves the operation and the reference together and
cancels. The median, not the mean, keeps a unit that was pre-empted from
moving the scale.
"""

from __future__ import annotations

import hashlib
import statistics
import time

# Median unit time on the host where the bounds were set (2-vCPU x86-64
# VM, CPython 3.11), so scaled figures read close to raw ones there.
NOMINAL_UNIT_MS = 2.2

# How far an operation's time moves per unit move of the reference's, on a
# log scale. The reference is a small hot loop and gains more from a quiet
# host than the program's code does: over 40 runs of the four workloads
# the slope of log(operation time) on log(unit time) was 0.6 to 0.75, and
# scaling with this power instead of proportionally cut the run-to-run
# spread of the simulator workloads from 12% and 9% to 6% (see README.md).
HOST_SENSITIVITY = 0.7

# Units on each side of an operation that set its scale.
WINDOW_UNITS = 10

_WORDS = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa")


def _encode(obj, out: list) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for key in sorted(obj):
            out.append(repr(key))
            out.append(":")
            _encode(obj[key], out)
            out.append(",")
        out.append("}")
    elif isinstance(obj, list):
        out.append("[")
        for item in obj:
            _encode(item, out)
        out.append("]")
    elif isinstance(obj, float):
        out.append("%.6g" % obj)
    else:
        out.append(str(obj))


def _unit() -> str:
    digest = hashlib.sha256()
    for r in range(30):
        tree = {
            word: {"score": (r * 7 + i) / 97.0, "weight": 1.0 / (i + 1), "tags": [word.upper(), word[::-1]], "n": i}
            for i, word in enumerate(_WORDS)
        }
        out: list = []
        _encode(tree, out)
        digest.update("".join(out).encode())
        sorted(((node["score"], word) for word, node in tree.items()), reverse=True)
    return digest.hexdigest()


class Clock:
    """Reference blocks between operations, and the scale of each operation."""

    def __init__(self, units_per_block: int):
        self.units = units_per_block
        self.walls: list[list[float]] = []  # per block, per-unit wall seconds
        self.cpus: list[list[float]] = []
        self.block()

    def block(self) -> None:
        walls, cpus = [], []
        for _ in range(self.units):
            w0, c0 = time.perf_counter(), time.process_time()
            _unit()
            walls.append(time.perf_counter() - w0)
            cpus.append(time.process_time() - c0)
        self.walls.append(walls)
        self.cpus.append(cpus)

    @staticmethod
    def _side(blocks: list[list[float]]) -> list[float]:
        """Unit times of the nearest blocks, at least WINDOW_UNITS of them."""
        picked: list[float] = []
        for block in blocks:
            picked += block
            if len(picked) >= WINDOW_UNITS:
                break
        return picked

    def _around(self, series: list[list[float]], op: int) -> float:
        """Median unit time on both sides of operation ``op`` (between blocks op and op + 1)."""
        return statistics.median(self._side(series[op::-1]) + self._side(series[op + 1:]))

    def scales(self) -> list[tuple[float, float, float]]:
        """Per operation: wall factor, CPU factor and the unit wall seconds used."""
        nominal = NOMINAL_UNIT_MS / 1e3
        out = []
        for op in range(len(self.walls) - 1):
            wall, cpu = self._around(self.walls, op), self._around(self.cpus, op)
            out.append(((nominal / wall) ** HOST_SENSITIVITY, (nominal / cpu) ** HOST_SENSITIVITY, wall))
        return out
