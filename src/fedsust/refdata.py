"""Bundled reference tables, their loader, and a scenario's rows in them.

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
    resolve node addresses without any network call. Prefixes match
    case-insensitively.

Loading is total: every row parses or the load raises naming the file, row
number, and column. :meth:`ReferenceTables.resolve` looks up a scenario's
rows once. The records are immutable ``typing.NamedTuple``s.

Every load reads the three files, but parses each only once per process for
each distinct ``(path, text)`` pair: the parsed tables sit in a small bounded
cache keyed by the file's contents, not its modification time, so an edited
file takes effect on the next load. A parse that fails is not cached and
raises again on the next load. The tables never change after they are
built, so loads of the same text share them.
"""

from __future__ import annotations

import csv
import functools
import io
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
    "ResolvedFleet",
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
    ratio = benchmark / tdp
    if not math.isfinite(ratio):
        raise ReferenceDataError(f"benchmark/tdp = {benchmark!r}/{tdp!r} is not a finite float")
    return ratio


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
    through unchanged. Anything else must match a mapped prefix, whatever
    the letter case of either; there is no silent default.
    """

    def __init__(self, prefixes: list[tuple[str, str]]):
        self._prefixes = sorted(((p.lower(), code) for p, code in prefixes), key=lambda item: -len(item[0]))

    def resolve(self, addr: str, grid: GridIntensityTable) -> str:
        candidate = addr.strip()
        if candidate.upper() in grid:
            return candidate.upper()
        candidate = candidate.lower()
        for prefix, code in self._prefixes:
            if candidate.startswith(prefix):
                return code
        raise UnresolvableLocationError(f"unresolvable location {addr!r}")


class ResolvedFleet(NamedTuple):
    """A scenario's reference rows: each client mix entry's, in mix order, and the server's."""

    client_hardware: tuple[tuple[float, HardwareProfile], ...]  # (share, profile)
    client_intensity: tuple[tuple[float, float], ...]  # (share, gCO2eq/kWh)
    server_hardware: HardwareProfile
    server_intensity: float


class ReferenceTables(NamedTuple):
    """The three loaded datasets, immutable after load."""

    grid: GridIntensityTable
    hardware: HardwareTable
    locations: LocationResolver

    @classmethod
    def load(cls, data_dir: str | Path | None = None) -> "ReferenceTables":
        base = Path(data_dir) if data_dir is not None else default_data_dir()
        return cls(
            grid=_parse_grid_intensity(*_read(base / "grid_intensity.csv")),
            hardware=_parse_hardware(*_read(base / "hardware.csv")),
            locations=_parse_locations(*_read(base / "locations.csv")),
        )

    def resolve(self, config) -> ResolvedFleet:
        """The rows of the scenario ``config``, each looked up once. A miss raises for the first bad
        client location, then the server location, then client model, then the server model."""
        grid, hardware, locations = self
        client_intensity = tuple((share, grid.lookup_intensity(locations.resolve(loc, grid)))
                                 for share, loc in config.client_locations)
        server_intensity = grid.lookup_intensity(locations.resolve(config.server_location, grid))
        return ResolvedFleet(tuple((share, hardware.lookup(m)) for share, m in config.client_hardware),
                             client_intensity, hardware.lookup(config.server_hardware), server_intensity)


_BUNDLED_DATA_DIR = Path(__file__).with_name("data")


def default_data_dir() -> Path:
    """Reference-data directory: ``FEDSUST_DATA_DIR`` or the bundled copy."""
    env = os.environ.get("FEDSUST_DATA_DIR")
    if env:
        return Path(env)
    return _BUNDLED_DATA_DIR


def _read(path: Path) -> tuple[str, str]:
    """``(path as messages name it, file text)``: the arguments of a parse."""
    try:
        with open(path, "rb", buffering=0) as fh:
            raw = fh.read()
    except OSError as exc:
        raise ReferenceDataError(f"cannot read {path}: {exc}") from exc
    try:
        return str(path), raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ReferenceDataError(f"{path}: file is not UTF-8 text: {exc}") from None


# Parsed tables kept per file kind, keyed by (path, file text): the bundled
# directory plus a few FEDSUST_DATA_DIR overrides in one process.
_PARSE_CACHE_SIZE = 8
_parse_cache = functools.lru_cache(maxsize=_PARSE_CACHE_SIZE)


def _rows(path: str, text: str, expected_header: list[str]):
    reader = csv.reader(io.StringIO(text, newline=""))
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


def _parse_float(path: str, line_no: int, column: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ReferenceDataError(
            f"{path}: row {line_no}, column {column!r}: {text!r} is not a number"
        ) from None


@_parse_cache
def _parse_grid_intensity(path: str, text: str) -> GridIntensityTable:
    entries: dict[str, float] = {}
    for line_no, row in _rows(path, text, ["country_code", "intensity_gco2_per_kwh", "source", "comment"]):
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


@_parse_cache
def _parse_hardware(path: str, text: str) -> HardwareTable:
    profiles: dict[str, HardwareProfile] = {}
    for line_no, row in _rows(path, text, ["model", "kind", "benchmark_mark", "tdp_watts", "power_performance"]):
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
        try:
            derived = power_performance(benchmark, tdp)
        except ReferenceDataError as exc:
            raise ReferenceDataError(f"{path}: row {line_no}, column 'power_performance': {exc}") from None
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


@_parse_cache
def _parse_locations(path: str, text: str) -> LocationResolver:
    prefixes: dict[str, str] = {}  # lowercased prefix -> code, as the resolver matches them
    for line_no, row in _rows(path, text, ["prefix", "country_code"]):
        prefix = row[0].strip()
        code = row[1].strip().upper()
        if not prefix:
            raise ReferenceDataError(f"{path}: row {line_no}, column 'prefix': empty prefix")
        if len(code) != 2 or not code.isalpha():
            raise ReferenceDataError(
                f"{path}: row {line_no}, column 'country_code': {row[1]!r} is not an alpha-2 code"
            )
        if prefix.lower() in prefixes:
            raise ReferenceDataError(f"{path}: row {line_no}: duplicate prefix {prefix!r}")
        prefixes[prefix.lower()] = code
    return LocationResolver(list(prefixes.items()))
