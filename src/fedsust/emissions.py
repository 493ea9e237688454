"""TDP-based energy estimation and CO2eq accounting for federation phases.

Energy is estimated, not measured: a phase drawing ``tdp`` watts at a given
utilization for ``duration`` seconds consumes
``tdp * utilization * duration / 3.6e6`` kWh, and emits
``energy_kwh * grid_intensity`` grams of CO2eq. Records accumulate in an
:class:`EmissionsLog`; the persisted CSV is sorted by
``(round, role, node_id, phase)`` so the file bytes are deterministic no
matter how records were produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .config import EnergyModel
from .refdata import HardwareProfile

__all__ = [
    "EmissionRecord",
    "EmissionsError",
    "EmissionsLog",
    "PHASES",
    "ROLES",
    "energy_to_co2",
    "estimate_energy",
    "track_phase",
]

ROLES = ("client", "server")
PHASES = ("training", "aggregation", "communication")

CSV_HEADER = "round,role,node_id,phase,duration_s,energy_kwh,intensity_gco2_kwh,co2eq_g"

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
    """Order-independent accumulator of emission records.

    ``add`` keeps running totals; ``total_co2eq_g``/``total_energy_kwh``
    recompute from the records so the two views cross-check each other.
    Totals and groupings ``math.fsum`` the records in insertion order:
    ``fsum`` is exactly rounded, so no order can change them. Only the CSV
    is sorted.
    """

    def __init__(self) -> None:
        self._records: list[EmissionRecord] = []
        self._running_energy = 0.0
        self._running_co2 = 0.0

    def add(self, record: EmissionRecord) -> None:
        self._records.append(record)
        self._running_energy += record.energy_kwh
        self._running_co2 += record.co2eq_g

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> list[EmissionRecord]:
        return list(self._records)

    def sorted_records(self) -> list[EmissionRecord]:
        # numeric fields break ties so file bytes never depend on insertion order
        return sorted(
            self._records,
            key=lambda r: (r.round, r.role, r.node_id, r.phase,
                           r.duration_s, r.energy_kwh, r.intensity),
        )

    def total_energy_kwh(self) -> float:
        return math.fsum(r.energy_kwh for r in self._records)

    def total_co2eq_g(self) -> float:
        return math.fsum(r.co2eq_g for r in self._records)

    def running_totals(self) -> tuple[float, float]:
        """(energy kWh, CO2eq g) accumulated record by record at add time."""
        return self._running_energy, self._running_co2

    def co2eq_by(self, key) -> dict:
        """Group CO2eq grams by ``key(record)`` (e.g. ``lambda r: r.phase``)."""
        groups: dict = {}
        for record in self._records:
            groups.setdefault(key(record), []).append(record.co2eq_g)
        return {k: math.fsum(v) for k, v in groups.items()}

    def to_csv_bytes(self) -> bytes:
        lines = [CSV_HEADER]
        for r in self.sorted_records():
            lines.append(
                f"{r.round},{r.role},{r.node_id},{r.phase},"
                f"{r.duration_s:.6g},{r.energy_kwh:.6g},{r.intensity:.6g},{r.co2eq_g:.6g}"
            )
        return ("\n".join(lines) + "\n").encode("utf-8")

    def write_csv(self, path: str | Path) -> None:
        from .report import write_atomic

        write_atomic(Path(path), self.to_csv_bytes())
