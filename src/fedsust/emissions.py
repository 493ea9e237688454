"""TDP-based energy estimation and CO2eq accounting for federation phases.

Energy is estimated, not measured: a phase drawing ``tdp`` watts at a given
utilization for ``duration`` seconds consumes
``tdp * utilization * duration / 3.6e6`` kWh, and emits
``energy_kwh * grid_intensity`` grams of CO2eq. Rows accumulate in an
:class:`EmissionsLog`, a columnar table; the persisted CSV is sorted by
``(round, role, node_id, phase)`` so the file bytes are deterministic no
matter in which order rows were added.
"""

from __future__ import annotations

import io
import itertools
import math
import operator
from dataclasses import dataclass
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
    """Columnar table of emission rows, one list per field of ``ROW_FIELDS``.

    ``add`` appends a validated :class:`EmissionRecord`; the simulator
    appends whole rounds of rows it priced itself. Totals ``math.fsum`` the
    columns: exactly rounded, so no row order changes them; plain running
    sums cross-check them. Only the CSV and ``sorted_records`` sort, and only
    when rows were not appended in CSV order.
    """

    def __init__(self) -> None:
        self._columns: tuple[list, ...] = tuple([] for _ in ROW_FIELDS)

    def add(self, record: EmissionRecord) -> None:
        self._extend([tuple(getattr(record, name) for name in ROW_FIELDS)])

    def _extend(self, rows: list[tuple]) -> None:
        """Append rows in ``ROW_FIELDS`` order, unchecked: each must hold a role
        in ``ROLES``, a phase in ``PHASES``, a round >= 0 and numbers priced by
        :func:`estimate_energy` and :func:`energy_to_co2`."""
        for column, values in zip(self._columns, zip(*rows)):
            column.extend(values)

    def __len__(self) -> int:
        return len(self._columns[0])

    def _csv_rows(self):
        # the simulator appends in CSV order: sorting would copy each row and its key
        following = itertools.islice(zip(*self._columns), 1, None)
        if all(map(operator.le, zip(*self._columns), following)):
            return zip(*self._columns)
        # numeric fields break ties so file bytes never depend on insertion order
        return sorted(zip(*self._columns), key=_SORT_KEY)

    @property
    def records(self) -> list[EmissionRecord]:
        return [EmissionRecord(**dict(zip(ROW_FIELDS, row))) for row in zip(*self._columns)]

    def sorted_records(self) -> list[EmissionRecord]:
        return [EmissionRecord(**dict(zip(ROW_FIELDS, row))) for row in self._csv_rows()]

    def total_energy_kwh(self) -> float:
        return math.fsum(self._columns[_ENERGY])

    def total_co2eq_g(self) -> float:
        return math.fsum(self._columns[_CO2])

    def running_totals(self) -> tuple[float, float]:
        """(energy kWh, CO2eq g) accumulated row by row in insertion order."""
        return sum(self._columns[_ENERGY]), sum(self._columns[_CO2])

    def co2eq_by(self, key) -> dict:
        """Group CO2eq grams by a column (``"phase"``) or by ``key(row)``, where
        ``row`` is one reused view with the record's field names as attributes."""
        if isinstance(key, str):
            keys = self._columns[ROW_FIELDS.index(key)]
        else:
            view = SimpleNamespace()
            keys = (vars(view).update(zip(ROW_FIELDS, row)) or key(view) for row in zip(*self._columns))
        groups: dict = {}
        for k, co2 in zip(keys, self._columns[_CO2]):
            groups.setdefault(k, []).append(co2)
        return {k: math.fsum(v) for k, v in groups.items()}

    def to_csv_bytes(self) -> bytes:
        # a client's four numbers repeat in every round it is drawn: format them once
        numbers: dict[tuple, str] = {}
        out = io.BytesIO()
        out.write(f"{CSV_HEADER}\n".encode("utf-8"))
        for row in self._csv_rows():
            tail = row[4:]
            text = numbers.get(tail)
            if text is None:
                text = ",".join(format(x, ".6g") for x in tail)
                if all(tail):  # 0.0 == -0.0 as a key, but they print differently
                    numbers[tail] = text
            out.write(f"{row[0]},{row[1]},{row[2]},{row[3]},{text}\n".encode("utf-8"))
        return out.getvalue()
