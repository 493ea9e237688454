"""TDP-based energy estimation and CO2eq accounting for federation phases.

Energy is estimated, not measured: a phase drawing ``tdp`` watts at a given
utilization for ``duration`` seconds consumes
``tdp * utilization * duration / 3.6e6`` kWh, and emits
``energy_kwh * grid_intensity`` grams of CO2eq. Rows accumulate in an
:class:`EmissionsLog`: batches of rounds of drawn clients, each round closed by
the one server row, and records added one by one. The persisted CSV is in
``(round, role, node_id, phase)`` order so the file bytes are deterministic
no matter in which order rows were added. An :class:`EmissionRecord` is immutable.
"""

from __future__ import annotations

import io
import math
import operator
from collections.abc import Sequence
from itertools import chain, groupby
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .config import EnergyModel, FrozenRecord
from .refdata import HardwareProfile

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "EmissionRecord",
    "EmissionsError",
    "EmissionsLog",
    "NodeIds",
    "PHASES",
    "ROLES",
    "ROW_FIELDS",
    "energy_to_co2",
    "estimate_energy",
    "track_phase",
]

ROLES = ("client", "server")
PHASES = ("training", "aggregation", "communication")

CSV_HEADER = "round,role,node_id,phase,duration_s,energy_kwh,intensity_gco2_kwh,co2eq_g"
# A row of EmissionsLog in CSV column order; without the CO2eq, its sort key.
ROW_FIELDS = ("round", "role", "node_id", "phase", "duration_s", "energy_kwh", "intensity", "co2eq_g")
_ENERGY = ROW_FIELDS.index("energy_kwh")
_CO2 = ROW_FIELDS.index("co2eq_g")
_SORT_KEY = operator.itemgetter(*range(_CO2))
_ROUND = operator.itemgetter(0)
# A priced row holds the fields after round, role and node id.
_PRICED_ENERGY = _ENERGY - 3
_PRICED_CO2 = _CO2 - 3

# kWh per watt-second.
_WS_PER_KWH = 3.6e6


class EmissionsError(ValueError):
    """Invalid emissions-model input."""


def _check(value: float, what: str, minimum: float = 0.0) -> float:
    value = float(value)
    if not math.isfinite(value) or value < minimum:
        raise EmissionsError(f"{what} must be finite and >= {minimum}, got {value!r}")
    return value


def estimate_energy(tdp: float, utilization: float, duration: float) -> float:
    """Energy in kWh of running at ``tdp * utilization`` watts for ``duration`` seconds."""
    tdp = _check(tdp, "tdp")
    if tdp <= 0.0:
        raise EmissionsError(f"tdp must be > 0, got {tdp}")
    utilization = _check(utilization, "utilization")
    if utilization > 1.0:
        raise EmissionsError(f"utilization must lie in [0, 1], got {utilization}")
    duration = _check(duration, "duration")
    return tdp * utilization * duration / _WS_PER_KWH


def energy_to_co2(energy_kwh: float, intensity: float) -> float:
    """Grams of CO2eq for ``energy_kwh`` on a grid of ``intensity`` gCO2eq/kWh."""
    return _check(energy_kwh, "energy") * _check(intensity, "intensity")


class EmissionRecord(FrozenRecord):
    """One tracked phase of one node in one round."""

    __slots__ = ("node_id", "role", "phase", "round", "duration_s", "energy_kwh", "intensity", "co2eq_g")

    def __init__(self, node_id: str, role: str, phase: str, round: int, duration_s: float,
                 energy_kwh: float, intensity: float, co2eq_g: float) -> None:
        if role not in ROLES:
            raise EmissionsError(f"unknown role {role!r}")
        if phase not in PHASES:
            raise EmissionsError(f"unknown phase {phase!r}")
        if round < 0:
            raise EmissionsError(f"round must be >= 0, got {round}")
        _check(duration_s, "duration")
        _check(energy_kwh, "energy")
        _check(intensity, "intensity")
        init = object.__setattr__
        init(self, "node_id", node_id)
        init(self, "role", role)
        init(self, "phase", phase)
        init(self, "round", round)
        init(self, "duration_s", duration_s)
        init(self, "energy_kwh", energy_kwh)
        init(self, "intensity", intensity)
        init(self, "co2eq_g", co2eq_g)


def track_phase(
    log: "EmissionsLog",
    node_id: str,
    role: str,
    phase: str,
    round_index: int,
    model: EnergyModel,
    hardware: HardwareProfile,
    duration_s: float,
    intensity: float,
) -> EmissionRecord:
    """Estimate one phase, append the record to ``log``, and return it."""
    energy = estimate_energy(hardware.tdp, model.effective_utilization(), duration_s)
    record = EmissionRecord(
        node_id=node_id,
        role=role,
        phase=phase,
        round=round_index,
        duration_s=float(duration_s),
        energy_kwh=energy,
        intensity=float(intensity),
        co2eq_g=energy_to_co2(energy, intensity),
    )
    log.add(record)
    return record


class NodeIds(Sequence):
    """Read-only sequence of 16-character ids held as one text, not as one ``str`` each:
    item ``i`` is the id at position ``ranks[i]`` of the text, or at ``i`` without ``ranks``,
    a permutation of the positions. ``in`` searches the text, so it makes no ``str`` per id."""

    __slots__ = ("text", "ranks")

    def __init__(self, text: str, ranks: np.ndarray | None = None) -> None:
        self.text, self.ranks = text, ranks

    def __len__(self) -> int:
        return len(self.text) >> 4

    def __getitem__(self, index):  # a range and an array raise IndexError past either end
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        at = 16 * (range(len(self))[index] if self.ranks is None else int(self.ranks[index]))
        return self.text[at:at + 16]

    def __contains__(self, value) -> bool:
        if not isinstance(value, str) or len(value) != 16:
            return False
        at = self.text.find(value)
        while at > 0 and at % 16:  # a match across two ids is none
            at = self.text.find(value, at + 1)
        return at >= 0

    def ascending(self) -> bool:
        """Whether the ids strictly ascend, compared as one array of 16-byte strings."""
        import numpy as np

        ids = np.frombuffer(self.text.encode("ascii"), dtype="S16")
        ids = ids if self.ranks is None else ids[self.ranks]
        return bool((ids[1:] > ids[:-1]).all())


class EmissionsLog:
    """Emission rows stored as batches of rounds, and records added one by one.

    A log made from a run's prices holds a client per id of ``node_ids``, a
    :class:`NodeIds` text without ranks. Client ``c`` logs its price group's rows
    ``group_rows[groups[c]]``, each ``(phase, duration_s, energy_kwh, intensity,
    co2eq_g)``, as many in every group, and the server its one row ``server_row``.
    All are kept, not copied, and only shapes are checked: rows must be in CSV order
    and priced by :func:`estimate_energy` and :func:`energy_to_co2`. A batch is a
    first round, an int32 array of client indices with a row per round, and how many
    rounds a row stands for; each round logs its clients' rows, then the server row.
    :meth:`add` keeps a record apart, as a ``ROW_FIELDS`` tuple, after every batch.
    When the client node ids strictly ascend, learned once, a batch whose rows
    strictly ascend and which starts after the last batch's rounds is in CSV order;
    otherwise, or once a record is added, the CSV is sorted.

    The length, the totals and ``co2eq_by("phase" | "role")`` come from each logged
    price group's rows and the number of times its clients were logged, counted a
    batch at a time: ``math.fsum`` is exactly rounded, so the sum of that multiset
    does not depend on row order, and it takes one term per power of two in a count.
    The CSV is written a round at a time, one join of line text made once per logged
    client, its rows' text once per logged group. Everything else expands the rows
    on demand.
    """

    def __init__(self, node_ids: NodeIds = NodeIds(""), groups=(), group_rows: Sequence[tuple] = (),
                 server_row: tuple | None = None) -> None:
        import numpy as np

        groups, widths = np.asarray(groups), sorted({*map(len, group_rows)})
        if not isinstance(node_ids, NodeIds) or node_ids.ranks is not None:
            raise EmissionsError("the node ids must be a NodeIds text without ranks")
        if len(widths) > 1:
            raise EmissionsError(f"price groups hold unequal row counts {widths}")
        if groups.shape != (len(node_ids),) or groups.size and (
                groups.dtype.kind not in "iu" or groups.min() < 0 or groups.max() >= len(group_rows)):
            raise EmissionsError(f"expected a price group in [0, {len(group_rows)}) for each of {len(node_ids)} "
                                 f"clients, got shape {groups.shape} of {groups.dtype}")
        self._ids, self._rows, self._server = node_ids, group_rows, server_row
        self._groups = groups.astype(np.intp, copy=False)  # as np.bincount takes them, () included
        # whether every batch continued CSV order; a round's clients can do so only when
        # the client node ids strictly ascend, which is learned here, once
        self._ordered = node_ids.ascending()
        self._blocks: list[tuple[int, np.ndarray, int]] = []  # (first round, clients, rounds a row)
        self._next_round = 0  # the round after the last batch's
        self._added: list[tuple] = []  # the added records' rows
        self._tallied: tuple = (None, None)  # (batches and records tallied, tally)

    def add(self, record: EmissionRecord) -> None:
        self._added.append(operator.attrgetter(*ROW_FIELDS)(record))
        self._ordered = False

    def add_rounds(self, first_round: int, clients) -> None:
        """Log rounds from ``first_round``: row ``i`` of ``clients``, a ``(rounds, m)`` integer
        array of indices into ``node_ids``, holds the clients whose rows round ``first_round +
        i`` logs before the server row. Rows strictly ascending, as the simulator's, need no
        sort for the CSV; a client listed twice is logged twice. The array is kept, not copied;
        one row broadcast down it (``np.broadcast_to``) is checked and counted once."""
        import numpy as np

        nodes, n = np.asarray(clients), len(self._ids)
        if nodes.ndim != 2 or nodes.size and nodes.dtype.kind not in "iu" or first_round < 0:
            raise EmissionsError(f"expected a round >= 0 and a (rounds, m) integer array, got "
                                 f"{first_round} and shape {nodes.shape} of {nodes.dtype}")
        nodes, repeats = (nodes[:1], len(nodes)) if len(nodes) > 1 and nodes.strides[0] == 0 else (nodes, 1)
        if nodes.size and (nodes.min() < 0 or nodes.max() >= n):
            row, column = np.argwhere((nodes < 0) | (nodes >= n))[0].tolist()
            raise EmissionsError(f"round {first_round + row}: client index {nodes[row, column]} "
                                 f"is not in [0, {n})")
        if self._server is None:
            raise EmissionsError(f"round {first_round}: the log was made without a server row")
        if len(nodes):
            ascending = bool((nodes[:, 1:] > nodes[:, :-1]).all())
            self._ordered = self._ordered and ascending and first_round >= self._next_round
            self._next_round = first_round + len(nodes) * repeats
            self._blocks.append((first_round, nodes.astype(np.int32, copy=False), repeats))

    def times_logged(self) -> list[int]:
        """The rounds each client is logged in, by index into the log's node ids, then the
        server's; a simulator log's client ``r`` is ``clients.node_order[r]``, counted in
        ``clients.counts[r]``."""
        return self._tally()[0].tolist()

    def _tally(self) -> tuple[np.ndarray, list[tuple[str, tuple, int]]]:
        """``(times, priced)``: the rounds each client and the server are logged in, and ``(role, priced
        row, times logged)`` of each logged group's rows, the server's and the added; kept until new rows."""
        import numpy as np

        tallied = (len(self._blocks), len(self._added))
        if self._tallied[0] != tallied:
            times = np.zeros(len(self._ids) + 1, dtype=np.int64)  # the clients', then the server's
            for _, nodes, repeats in self._blocks:
                np.add.at(times, nodes.ravel(), repeats)
                times[-1] += len(nodes) * repeats
            # a group's rows are logged as often as its clients together, counted exactly in float64
            logged = np.flatnonzero(times[:-1])
            counts = np.bincount(self._groups[logged], times[logged], len(self._rows)).tolist()
            priced = [("client", row, int(count)) for rows, count in zip(self._rows, counts) if count
                      for row in rows]
            priced += [("server", self._server, int(times[-1]))] if times[-1] else []
            priced += [(row[1], row[3:], 1) for row in self._added]
            self._tallied = (tallied, (times, priced))
        return self._tallied[1]

    def _expanded(self):
        """Every row as a ``ROW_FIELDS`` tuple: the batches' in the order logged, then the added."""
        ids, rows, server = self._ids, self._rows, ("server", "server", *(self._server or ()))
        for first, nodes, repeats in self._blocks:
            for i, (clients, groups) in enumerate(zip(nodes.tolist(), self._groups[nodes].tolist())):
                lines = [("client", ids[c], *row) for c, g in zip(clients, groups) for row in rows[g]] + [server]
                for t in range(first + i * repeats, first + (i + 1) * repeats):
                    yield from ((t, *line) for line in lines)
        yield from self._added

    def _csv_rows(self):
        # numeric fields break ties so file bytes never depend on insertion order
        return self._expanded() if self._ordered else sorted(self._expanded(), key=_SORT_KEY)

    def __len__(self) -> int:
        _, priced = self._tally()
        return sum(times for _, _, times in priced)

    @property
    def records(self) -> list[EmissionRecord]:
        return [EmissionRecord(**dict(zip(ROW_FIELDS, row))) for row in self._expanded()]

    def sorted_records(self) -> list[EmissionRecord]:
        return [EmissionRecord(**dict(zip(ROW_FIELDS, row))) for row in self._csv_rows()]

    def _fsum(self, index: int) -> float:
        _, priced = self._tally()
        return math.fsum(chain.from_iterable(_repeated(row[index], times) for _, row, times in priced))

    def total_energy_kwh(self) -> float:
        return self._fsum(_PRICED_ENERGY)

    def total_co2eq_g(self) -> float:
        return self._fsum(_PRICED_CO2)

    def running_totals(self) -> tuple[float, float]:
        """(energy kWh, CO2eq g) accumulated row by row: the batches' rows in the order
        logged, then the added records' in the order added."""
        rows = list(self._expanded())
        return sum(row[_ENERGY] for row in rows), sum(row[_CO2] for row in rows)

    def co2eq_by(self, key) -> dict:
        """Group CO2eq grams by a column (``"phase"``) or by ``key(row)``, where
        ``row`` is one reused view with the record's field names as attributes."""
        if key == "role" or key == "phase":
            _, priced = self._tally()
            values = ((role if key == "role" else row[0], _repeated(row[_PRICED_CO2], times))
                      for role, row, times in priced)
        else:
            if isinstance(key, str) and key not in ROW_FIELDS:
                raise EmissionsError(f"unknown column {key!r}; expected one of {', '.join(ROW_FIELDS)}")
            view, group = SimpleNamespace(), operator.attrgetter(key) if isinstance(key, str) else key
            values = ((vars(view).update(zip(ROW_FIELDS, row)) or group(view), (row[_CO2],))
                      for row in self._expanded())
        groups: dict = {}
        for k, co2 in values:
            groups.setdefault(k, []).append(co2)
        return {k: math.fsum(chain.from_iterable(v)) for k, v in groups.items()}

    def to_csv_bytes(self) -> bytes:
        import numpy as np

        if not self._ordered:
            rounds = ((t, [f"{r[1]},{r[2]},{r[3]},{_numbers(r[4:])}\n" for r in group])
                      for t, group in groupby(self._csv_rows(), key=_ROUND))
        else:
            logged = np.flatnonzero(self._tally()[0][:-1])
            groups, ids = self._groups[logged].tolist(), self._ids.text
            texts = {g: [f"{r[0]},{_numbers(r[1:])}\n" for r in self._rows[g]] for g in dict.fromkeys(groups)}
            lines = np.array([f"client,{ids[16 * c:16 * c + 16]},{line}" for c, g in zip(logged.tolist(), groups)
                              for line in texts[g]], dtype=object).reshape(len(logged), -1 if len(logged) else 0)
            at = np.empty(len(self._ids), dtype=np.int32)  # a logged client's row of lines
            at[logged] = np.arange(len(logged))
            server = [f"server,server,{self._server[0]},{_numbers(self._server[1:])}\n"] if self._blocks else []
            # a batch row by row, never all its lines at once; a row's lines made once for its rounds
            rounds = ((t, text) for first, nodes, repeats in self._blocks
                      for i, drawn in enumerate(nodes) for text in [lines[at[drawn]].ravel().tolist() + server]
                      for t in range(first + i * repeats, first + (i + 1) * repeats))
        out = io.BytesIO()
        out.write(f"{CSV_HEADER}\n".encode("utf-8"))
        for round_index, text in rounds:  # one round at a time: never the whole file as one str
            head = f"{round_index},"
            out.write((head + head.join(text)).encode("utf-8"))
        return out.getvalue()


def _repeated(value: float, times: int) -> list[float]:
    """Floats summing exactly to ``times`` copies of ``value``: ``value`` scaled by each
    power of two in ``times``. Scaling by a power of two is exact while the product
    is finite, so ``math.fsum`` of them gives the bits of ``fsum([value] * times)``."""
    return [value * (1 << bit) for bit in range(times.bit_length()) if times >> bit & 1]


def _numbers(values) -> str:
    return ",".join([format(x, ".6g") for x in values])
