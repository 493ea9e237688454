"""Bundled reference tables and their loaders.

Three small CSV datasets ship with the package (``fedsust/data/``) and can
be replaced wholesale by pointing the ``FEDSUST_DATA_DIR`` environment
variable at a directory with the same file names:

``grid_intensity.csv``
    ``country_code,intensity_gco2_per_kwh,source,comment`` -- national grid
    carbon intensity in gCO2eq per kWh, keyed by ISO 3166-1 alpha-2 code.
``hardware.csv``
    ``model,kind,benchmark_mark,tdp_watts,power_performance`` -- processor
    benchmark mark, thermal design power in watts, and their ratio
    (marks per watt). Model strings are matched case-insensitively after
    whitespace collapse.
``locations.csv``
    ``prefix,country_code`` -- address-prefix to country mapping used to
    resolve node addresses without any network call.

Loading is total: every row parses or the loader raises naming the file,
row number, and column. The records are immutable ``typing.NamedTuple``s.
"""

from __future__ import annotations

import csv
import math
import os
from pathlib import Path
from typing import NamedTuple

__all__ = [
    "GridIntensityTable",
    "HardwareProfile",
    "HardwareTable",
    "LocationResolver",
    "ReferenceDataError",
    "ReferenceTables",
    "UnknownGridError",
    "UnknownHardwareError",
    "UnresolvableLocationError",
    "default_data_dir",
    "normalize_model_name",
    "power_performance",
]

# Theoretical grid bounds: an all-wind grid vs. an all-coal grid (gCO2eq/kWh).
MIN_THEORETICAL_INTENSITY = 11.0
MAX_THEORETICAL_INTENSITY = 820.0


class ReferenceDataError(Exception):
    """Reference dataset problem: unreadable row or failed lookup."""


class UnknownGridError(ReferenceDataError):
    """No grid intensity is known for the requested country code."""


class UnknownHardwareError(ReferenceDataError):
    """No processor profile is known for the requested model string."""


class UnresolvableLocationError(ReferenceDataError):
    """A node address matched neither a country code nor a mapped prefix."""


def power_performance(benchmark: float, tdp: float) -> float:
    """Benchmark marks per watt of thermal design power."""
    benchmark = float(benchmark)
    tdp = float(tdp)
    if not (math.isfinite(benchmark) and benchmark > 0.0):
        raise ReferenceDataError(f"benchmark mark must be > 0, got {benchmark!r}")
    if not (math.isfinite(tdp) and tdp > 0.0):
        raise ReferenceDataError(f"TDP watts must be > 0, got {tdp!r}")
    return benchmark / tdp


def normalize_model_name(model: str) -> str:
    """Collapse whitespace and lowercase, the matching key for hardware rows."""
    return " ".join(model.split()).lower()


class HardwareProfile(NamedTuple):
    """One processor row: benchmark mark, TDP watts, and marks per watt."""

    model: str
    kind: str
    benchmark: float
    tdp: float
    power_performance: float


class GridIntensityTable:
    """Country code -> grid carbon intensity (gCO2eq/kWh)."""

    def __init__(self, entries: dict[str, float]):
        if not entries:
            raise ReferenceDataError("grid intensity table is empty")
        for code, value in entries.items():
            if not MIN_THEORETICAL_INTENSITY <= value <= MAX_THEORETICAL_INTENSITY:
                raise ReferenceDataError(
                    f"grid intensity for {code} is {value}, outside "
                    f"[{MIN_THEORETICAL_INTENSITY}, {MAX_THEORETICAL_INTENSITY}]"
                )
        self._entries = dict(entries)

    def lookup_intensity(self, country: str) -> float:
        code = country.strip().upper()
        try:
            return self._entries[code]
        except KeyError:
            raise UnknownGridError(f"unknown grid: no intensity for country code {code!r}") from None

    def __contains__(self, country: str) -> bool:
        return country.strip().upper() in self._entries

    def items(self):
        return self._entries.items()


class HardwareTable:
    """Processor model -> :class:`HardwareProfile`."""

    def __init__(self, profiles: dict[str, HardwareProfile]):
        if not profiles:
            raise ReferenceDataError("hardware table is empty")
        self._profiles = dict(profiles)

    def lookup(self, model: str) -> HardwareProfile:
        key = normalize_model_name(model)
        try:
            return self._profiles[key]
        except KeyError:
            raise UnknownHardwareError(f"unknown hardware model {model!r}") from None

    def profiles(self) -> list[HardwareProfile]:
        return [self._profiles[k] for k in sorted(self._profiles)]


class LocationResolver:
    """Resolve node addresses to country codes via longest-prefix match.

    A value that already is a country code present in the grid table passes
    through unchanged. Anything else must match a mapped prefix; there is no
    silent default.
    """

    def __init__(self, prefixes: list[tuple[str, str]]):
        self._prefixes = sorted(prefixes, key=lambda item: len(item[0]), reverse=True)

    def resolve(self, addr: str, grid: GridIntensityTable) -> str:
        candidate = addr.strip()
        if candidate.upper() in grid:
            return candidate.upper()
        for prefix, code in self._prefixes:
            if candidate.startswith(prefix):
                return code
        raise UnresolvableLocationError(f"unresolvable location {addr!r}")


class ReferenceTables(NamedTuple):
    """The three loaded datasets, immutable after load."""

    grid: GridIntensityTable
    hardware: HardwareTable
    locations: LocationResolver

    @classmethod
    def load(cls, data_dir: str | Path | None = None) -> "ReferenceTables":
        base = Path(data_dir) if data_dir is not None else default_data_dir()
        return cls(
            grid=load_grid_intensity(base / "grid_intensity.csv"),
            hardware=load_hardware(base / "hardware.csv"),
            locations=load_locations(base / "locations.csv"),
        )


def default_data_dir() -> Path:
    """Reference-data directory: ``FEDSUST_DATA_DIR`` or the bundled copy."""
    env = os.environ.get("FEDSUST_DATA_DIR")
    if env:
        return Path(env)
    return Path(__file__).with_name("data")


def _rows(path: Path, expected_header: list[str]):
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise ReferenceDataError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ReferenceDataError(f"{path}: file is empty") from None
        if [h.strip() for h in header] != expected_header:
            raise ReferenceDataError(
                f"{path}: header {header!r} does not match expected {expected_header!r}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(expected_header):
                raise ReferenceDataError(
                    f"{path}: row {line_no} has {len(row)} fields, expected {len(expected_header)}"
                )
            yield line_no, row


def _parse_float(path: Path, line_no: int, column: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ReferenceDataError(
            f"{path}: row {line_no}, column {column!r}: {text!r} is not a number"
        ) from None


def load_grid_intensity(path: str | Path) -> GridIntensityTable:
    path = Path(path)
    entries: dict[str, float] = {}
    for line_no, row in _rows(path, ["country_code", "intensity_gco2_per_kwh", "source", "comment"]):
        code = row[0].strip().upper()
        if len(code) != 2 or not code.isalpha():
            raise ReferenceDataError(
                f"{path}: row {line_no}, column 'country_code': {row[0]!r} is not an alpha-2 code"
            )
        if code in entries:
            raise ReferenceDataError(f"{path}: row {line_no}: duplicate country code {code}")
        entries[code] = _parse_float(path, line_no, "intensity_gco2_per_kwh", row[1])
    return GridIntensityTable(entries)


# Stored and recomputed performance-per-watt must agree to 4 significant digits.
_PP_FORMAT = "%.4g"


def load_hardware(path: str | Path) -> HardwareTable:
    path = Path(path)
    profiles: dict[str, HardwareProfile] = {}
    for line_no, row in _rows(path, ["model", "kind", "benchmark_mark", "tdp_watts", "power_performance"]):
        model = " ".join(row[0].split())
        if not model:
            raise ReferenceDataError(f"{path}: row {line_no}, column 'model': empty model name")
        kind = row[1].strip().upper()
        if kind not in ("CPU", "GPU"):
            raise ReferenceDataError(
                f"{path}: row {line_no}, column 'kind': {row[1]!r} must be CPU or GPU"
            )
        benchmark = _parse_float(path, line_no, "benchmark_mark", row[2])
        tdp = _parse_float(path, line_no, "tdp_watts", row[3])
        stored_pp = _parse_float(path, line_no, "power_performance", row[4])
        derived = power_performance(benchmark, tdp)
        if _PP_FORMAT % derived != _PP_FORMAT % stored_pp:
            raise ReferenceDataError(
                f"{path}: row {line_no}, column 'power_performance': stored {stored_pp} "
                f"disagrees with benchmark/tdp = {derived!r} at 4 significant digits"
            )
        key = normalize_model_name(model)
        if key in profiles:
            raise ReferenceDataError(f"{path}: row {line_no}: duplicate model {model!r}")
        profiles[key] = HardwareProfile(
            model=model, kind=kind, benchmark=benchmark, tdp=tdp, power_performance=derived
        )
    return HardwareTable(profiles)


def load_locations(path: str | Path) -> LocationResolver:
    path = Path(path)
    prefixes: list[tuple[str, str]] = []
    seen: set[str] = set()
    for line_no, row in _rows(path, ["prefix", "country_code"]):
        prefix = row[0].strip()
        code = row[1].strip().upper()
        if not prefix:
            raise ReferenceDataError(f"{path}: row {line_no}, column 'prefix': empty prefix")
        if len(code) != 2 or not code.isalpha():
            raise ReferenceDataError(
                f"{path}: row {line_no}, column 'country_code': {row[1]!r} is not an alpha-2 code"
            )
        if prefix in seen:
            raise ReferenceDataError(f"{path}: row {line_no}: duplicate prefix {prefix!r}")
        seen.add(prefix)
        prefixes.append((prefix, code))
    return LocationResolver(prefixes)
