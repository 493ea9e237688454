"""TDP-based energy estimation and CO2eq accounting for federation phases.

Energy is estimated, not measured: a phase drawing ``tdp`` watts at a given
utilization for ``duration`` seconds consumes
``tdp * utilization * duration / 3.6e6`` kWh, and emits
``energy_kwh * grid_intensity`` grams of CO2eq. Rows accumulate in an
:class:`EmissionsLog` of round blocks; the persisted CSV is in
``(round, role, node_id, phase)`` order so the file bytes are deterministic
no matter in which order rows were added.
"""

from __future__ import annotations

import io
import math
import operator
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import chain, groupby
from types import SimpleNamespace

from .config import EnergyModel
from .refdata import HardwareProfile

__all__ = [
    "EmissionRecord",
    "EmissionsError",
    "EmissionsLog",
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


@dataclass(frozen=True)
class EmissionRecord:
    """One tracked phase of one node in one round."""

    node_id: str
    role: str
    phase: str
    round: int
    duration_s: float
    energy_kwh: float
    intensity: float
    co2eq_g: float

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise EmissionsError(f"unknown role {self.role!r}")
        if self.phase not in PHASES:
            raise EmissionsError(f"unknown phase {self.phase!r}")
        if self.round < 0:
            raise EmissionsError(f"round must be >= 0, got {self.round}")
        _check(self.duration_s, "duration")
        _check(self.energy_kwh, "energy")
        _check(self.intensity, "intensity")


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


class EmissionsLog:
    """Emission rows stored as round blocks.

    A node is a role, a node id and one or more priced rows ``(phase,
    duration_s, energy_kwh, intensity, co2eq_g)``. A log made from a run's
    prices holds one node per client, ``node_ids[c]`` with ``client_rows[c]``,
    and the server node with ``server_row``; these rows are not checked, so
    each client's must be in CSV order and every row priced by
    :func:`estimate_energy` and :func:`energy_to_co2`. :meth:`add_round` logs
    a round as its index and its drawn clients: each client's rows, then the
    server row. :meth:`add` logs one validated record as a one-row block.
    Whether the client node ids strictly ascend is learned once, when the log
    is made: then a round given in ascending node indices is in CSV order, and
    otherwise (ids out of order, or two clients sharing an id) the CSV is
    sorted.

    The length, the totals and ``co2eq_by("phase" | "role")`` come from each
    distinct priced row and the number of times it was logged: ``math.fsum``
    is exactly rounded, so the sum of that multiset does not depend on row
    order, and it takes one term per power of two in a count. The CSV is
    written block by block from line text made once per logged node, and
    sorted only when rows were logged out of CSV order. Everything else
    expands the rows on demand.
    """

    def __init__(self, node_ids: Sequence[str] = (), client_rows: Sequence[tuple] = (),
                 server_row: tuple | None = None) -> None:
        if len(node_ids) != len(client_rows):
            raise EmissionsError(f"{len(node_ids)} node ids for {len(client_rows)} clients' rows")
        self._roles = ["client"] * len(node_ids)
        self._node_ids = list(node_ids)
        self._rows = list(client_rows)
        # whether every block continued CSV order; a round's clients can do so only when
        # the client node ids strictly ascend, which is learned here, once
        self._ordered = all(map(operator.lt, self._node_ids, self._node_ids[1:]))
        self._server = None if server_row is None else self._node("server", "server", (server_row,))
        self._blocks: list[tuple[int, tuple[int, ...]]] = []  # (round, nodes)
        self._last_key: tuple = ()  # sort key of the last row logged
        self._tallied: tuple = (-1, None)  # (blocks tallied, tally)
        self._last_round: tuple = (None,)  # the last add_round's (clients, nodes, in CSV order)

    def _node(self, role: str, node_id: str, rows: tuple) -> int:
        self._roles.append(role)
        self._node_ids.append(node_id)
        self._rows.append(rows)
        return len(self._rows) - 1

    def _log(self, round_index: int, nodes: tuple[int, ...], ordered: bool) -> None:
        first, last = nodes[0], nodes[-1]
        first_key = (round_index, self._roles[first], self._node_ids[first], *self._rows[first][0][:4])
        self._ordered = self._ordered and ordered and self._last_key <= first_key
        self._last_key = (round_index, self._roles[last], self._node_ids[last], *self._rows[last][-1][:4])
        self._blocks.append((round_index, nodes))

    def add(self, record: EmissionRecord) -> None:
        row = (record.phase, record.duration_s, record.energy_kwh, record.intensity, record.co2eq_g)
        self._log(record.round, (self._node(record.role, record.node_id, (row,)),), True)

    def add_round(self, round_index: int, clients: Sequence[int]) -> None:
        """Log round ``round_index``: the rows of each client in ``clients``, distinct
        indices into ``node_ids``, in that order, then the server row. Given in
        ascending order, as the simulator gives them, into strictly ascending
        node ids, the rows need no sort to be written as CSV; the check compares
        indices, not node ids. Clients equal to the last round's reuse its block,
        so a block repeated round after round is checked and stored once."""
        if round_index < 0:
            raise EmissionsError(f"round must be >= 0, got {round_index}")
        clients = tuple(clients)
        if clients != self._last_round[0]:
            nodes = (*clients, self._server)
            # client nodes strictly ascending, from 0 and below the server's index: a repeated
            # client would interleave its rows
            self._last_round = (clients, nodes, self._ordered and all(map(operator.lt, (-1, *nodes), nodes)))
        self._log(round_index, *self._last_round[1:])

    def times_logged(self) -> list[int]:
        """The blocks each node is in, by index into the log's node ids; a simulator log's
        node ``r`` is client ``clients.node_order[r]``, whose count is also ``clients.counts``."""
        times = [0] * len(self._rows)
        for node, count in self._tally()[0].items():
            times[node] = count
        return times

    def set_client_counts(self, times: Mapping[int, int]) -> None:
        """Tally the blocks so far, all logged by :meth:`add_round`, from ``times``, client
        node -> blocks it is in, as the caller counted them; a later block drops it."""
        self._tally({**times, self._server: len(self._blocks)})

    def _tally(self, logged: Mapping[int, int] | None = None) -> tuple[Mapping, list[tuple[str, tuple, int]]]:
        """``(logged, priced)``: the blocks each logged node is in, unless given, and each
        distinct ``(role, priced row, times logged)``; counted again only after new blocks.
        A block logged more than once is counted once, times its repeats."""
        if logged is None and self._tallied[0] != len(self._blocks):
            logged = Counter()
            for nodes, times in Counter(nodes for _, nodes in self._blocks).items():
                logged.update(nodes if times == 1 else {n: k * times for n, k in Counter(nodes).items()})
        if logged is not None:
            priced: dict[tuple, list] = {}
            for node, times in logged.items():
                role = self._roles[node]
                for row in self._rows[node]:
                    priced.setdefault((role, id(row)), [role, row, 0])[2] += times
            self._tallied = (len(self._blocks), (logged, [tuple(e) for e in priced.values()]))
        return self._tallied[1]

    def _expanded(self):
        """Every row as a ``ROW_FIELDS`` tuple, in the order logged."""
        roles, node_ids, rows = self._roles, self._node_ids, self._rows
        return ((round_index, roles[node], node_ids[node], *row)
                for round_index, nodes in self._blocks for node in nodes for row in rows[node])

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
        """(energy kWh, CO2eq g) accumulated row by row in insertion order."""
        rows = list(self._expanded())
        return sum(row[_ENERGY] for row in rows), sum(row[_CO2] for row in rows)

    def co2eq_by(self, key) -> dict:
        """Group CO2eq grams by a column (``"phase"``) or by ``key(row)``, where
        ``row`` is one reused view with the record's field names as attributes."""
        if key == "role" or key == "phase":
            _, priced = self._tally()
            values = ((role if key == "role" else row[0], _repeated(row[_PRICED_CO2], times))
                      for role, row, times in priced)
        elif isinstance(key, str):
            column = ROW_FIELDS.index(key)
            values = ((row[column], (row[_CO2],)) for row in self._expanded())
        else:
            view = SimpleNamespace()
            values = ((vars(view).update(zip(ROW_FIELDS, row)) or key(view), (row[_CO2],))
                      for row in self._expanded())
        groups: dict = {}
        for k, co2 in values:
            groups.setdefault(k, []).append(co2)
        return {k: math.fsum(chain.from_iterable(v)) for k, v in groups.items()}

    def to_csv_bytes(self) -> bytes:
        if self._ordered:
            lines = self._node_lines()
            rounds = ((t, chain.from_iterable(map(lines.__getitem__, nodes))) for t, nodes in self._blocks)
        else:
            rounds = ((t, [f"{r[1]},{r[2]},{r[3]},{_numbers(r[4:])}\n" for r in rows])
                      for t, rows in groupby(self._csv_rows(), key=_ROUND))
        out = io.BytesIO()
        out.write(f"{CSV_HEADER}\n".encode("utf-8"))
        for round_index, text in rounds:  # one round at a time: never the whole file as one str
            head = f"{round_index},"
            out.write((head + head.join(text)).encode("utf-8"))
        return out.getvalue()

    def _node_lines(self) -> dict[int, tuple[str, ...]]:
        """Each logged node's CSV lines without the round, one per row."""
        logged, priced = self._tally()
        # formatted once per priced row, keyed by identity: 0.0 == -0.0, but they print apart
        numbers = {id(row): _numbers(row[1:]) for _, row, _ in priced}
        roles, node_ids, rows = self._roles, self._node_ids, self._rows
        return {node: tuple(f"{roles[node]},{node_ids[node]},{row[0]},{numbers[id(row)]}\n"
                            for row in rows[node])
                for node in logged}


def _repeated(value: float, times: int) -> list[float]:
    """Floats summing exactly to ``times`` copies of ``value``: ``value`` scaled by each
    power of two in ``times``. Scaling by a power of two is exact while the product
    is finite, so ``math.fsum`` of them gives the bits of ``fsum([value] * times)``."""
    return [value * (1 << bit) for bit in range(times.bit_length()) if times >> bit & 1]


def _numbers(values) -> str:
    return ",".join([format(x, ".6g") for x in values])
