"""Scenario configuration: schema, parsing, validation, derived quantities.

A scenario file is a UTF-8 JSON object whose keys mirror
:class:`FederationConfig`. Minimal example::

    {
      "name": "small-run",
      "num_clients": 5,
      "total_rounds": 10,
      "selection_rate": 0.2,
      "local_rounds": 1,
      "dataset_size": 100,
      "model_size": 98000,
      "client_hardware": "Intel Core i7-1250U",
      "client_locations": "AL",
      "server_hardware": "Intel Core i7-1250U",
      "server_location": "AL",
      "seed": 42
    }

``client_hardware`` / ``client_locations`` accept a single string, a list of
per-client strings, or a list of ``{"share": .., "model"/"location": ..}``
objects for large mixed fleets. Either ``selection_rate`` or ``sample_size``
must be present; when both are given they must agree to 1e-9. Optional keys:
``energy_model`` (see :class:`EnergyModel`), ``score_overrides`` (dot-path ->
score in [0, 1], pinning any scoring-tree node), ``num_label_classes``,
``statistics`` (pass-through evaluation fields echoed into the factsheet),
``description`` and ``notes``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import NamedTuple

__all__ = [
    "ConfigError",
    "EnergyModel",
    "FederationConfig",
    "check_seed",
    "check_weights",
    "config_digest",
    "load_scenario",
    "parse_config",
    "read_json",
    "require_number",
]

# every group of weights or shares sums to 1 within this (math.fsum)
WEIGHT_SUM_TOL = 1e-9
RATE_TOL = 1e-9
MAX_SEED = 2**64 - 1
# ImageNet-1k's class count
MAX_LABEL_CLASSES = 1000
# the count anchors of the complexity score stop at 10^6 clients and rounds; simulate holds a
# client as a few machine words and its 16 characters of node-id text, and draws rounds in batches
MAX_CLIENTS = 10**6
MAX_ROUNDS = 10**6
# simulate's num_clients x num_label_classes label array takes 8 bytes a cell, drawn in blocks
# of a few MB: MAX_CLIENTS clients at the default 10 classes, about 80 MB
MAX_LABEL_CELLS = MAX_CLIENTS * 10
# the size anchors of the complexity score stop at 10^10 samples; above ~10^16 the
# float64 label split of simulate no longer sums to dataset_size, and at 2^63 it overflows
MAX_DATASET_SIZE = 10**10
# deepest container nesting accepted in a scenario file
MAX_JSON_DEPTH = 100


class ConfigError(ValueError):
    """Invalid scenario configuration; the message names the offending field."""


class FrozenRecord:
    """Base of an immutable record held in ``__slots__``: its ``__init__`` sets each field
    once through ``object.__setattr__``, and it compares, hashes and prints by its fields."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setstate__(self, state: tuple) -> None:  # copy and pickle restore the fields here
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"


class EnergyModel(NamedTuple):
    """Knobs of the TDP-based energy estimator; :func:`parse_config` checks a scenario's.

    ``cpu_utilization`` scales TDP during training and aggregation (1.0 is
    the conservative ceiling). ``idle_fraction`` is the TDP fraction drawn by
    the non-utilized remainder. ``comm_energy_per_byte`` prices model
    exchange in kWh/byte; 0 disables communication records. The two time
    coefficients turn workload into simulated seconds:
    training seconds = ``train_seconds_per_unit x local_rounds x dataset_size
    x (model_size / 1e6)`` per selected client and round, and aggregation
    seconds = ``agg_seconds_per_unit x sample_size x (model_size / 1e6)``
    per round.
    """

    cpu_utilization: float = 1.0
    comm_energy_per_byte: float = 0.0
    idle_fraction: float = 0.0
    train_seconds_per_unit: float = 1e-3
    agg_seconds_per_unit: float = 1e-4

    def effective_utilization(self) -> float:
        base = self.cpu_utilization
        return min(1.0, base + self.idle_fraction * (1.0 - base))


class FederationConfig(NamedTuple):
    """A complete federation scenario, as :func:`parse_config` validated it.

    ``client_hardware`` and ``client_locations`` are share-weighted mixes,
    each a tuple of ``(share, value)`` pairs with shares summing to 1.
    """

    name: str
    num_clients: int
    total_rounds: int
    local_rounds: int
    sample_size: int
    selection_rate: float
    dataset_size: int
    model_size: int
    client_hardware: tuple[tuple[float, str], ...]
    client_locations: tuple[tuple[float, str], ...]
    server_hardware: str
    server_location: str
    seed: int
    energy_model: EnergyModel
    score_overrides: dict[str, float]
    num_label_classes: int
    statistics: dict
    description: str


def load_scenario(path: str | Path) -> FederationConfig:
    """Load and validate a scenario file."""
    path = Path(path)
    what = f"scenario file {path}"
    try:
        data = read_json(path, what, ConfigError, parse_float=_finite_number, parse_constant=_finite_number)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must contain a JSON object")
    _check_writable(data, what, depth=1)
    return parse_config(data, default_name=path.stem)


def read_json(path: str | Path, what: str, error: type[ValueError], **hooks):
    """Parse the JSON file ``path``; malformed content raises ``error`` naming ``what``.

    Malformed means bytes that are not UTF-8, text that is not JSON, or
    nesting too deep for the parser. ``OSError`` propagates. ``hooks`` are
    passed to :func:`json.loads`.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{what} is not UTF-8 text: {exc}") from None
    try:
        return json.loads(text, **hooks)
    except ValueError as exc:
        raise error(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise error(f"{what} nests too deeply to parse") from None


def _check_writable(container: dict | list, what: str, depth: int) -> None:
    """Reject scenario content the outputs could not be written with.

    Names and ``statistics`` are echoed into the reports, whose writers
    recurse once per level and encode to UTF-8: nesting deeper than
    ``MAX_JSON_DEPTH`` and lone surrogate escapes (``"\\ud800"``) are errors.
    """
    if depth > MAX_JSON_DEPTH:
        raise ConfigError(f"{what} nests deeper than {MAX_JSON_DEPTH} levels")
    if isinstance(container, dict):
        strings, items = [*container], container.values()
    else:
        strings, items = [], container
    for item in items:
        if isinstance(item, str):
            strings.append(item)
        elif isinstance(item, (dict, list)):
            _check_writable(item, what, depth + 1)
    text = "".join(strings)
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise ConfigError(f"{what} holds a lone surrogate escape, which is not valid Unicode") from None


def _finite_number(text: str) -> float:
    # JSON has no NaN or Infinity; Python's parser takes them, and 1e999 overflows
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def parse_config(data: dict, default_name: str = "scenario") -> FederationConfig:
    """Validate a scenario mapping and return the immutable config: the one place that
    checks scenario values, those of the energy model included."""
    unknown = sorted(set(data) - {*FederationConfig._fields, "notes"})
    if unknown:
        raise ConfigError(f"unknown field(s) in scenario: {', '.join(map(repr, unknown))}")

    num_clients = _int_field(data, "num_clients", minimum=1, maximum=MAX_CLIENTS)
    total_rounds = _int_field(data, "total_rounds", minimum=1, maximum=MAX_ROUNDS)
    local_rounds = _int_field(data, "local_rounds", minimum=1)
    dataset_size = _int_field(data, "dataset_size", minimum=1, maximum=MAX_DATASET_SIZE)
    model_size = _int_field(data, "model_size", minimum=1)

    sample_size, selection_rate = _sampling_fields(data, num_clients)

    seed = check_seed(data.get("seed", 0))

    num_label_classes = _int_field(data, "num_label_classes", minimum=1, maximum=MAX_LABEL_CLASSES,
                                   default=10)
    if num_clients * num_label_classes > MAX_LABEL_CELLS:
        raise ConfigError(
            f"fields 'num_clients' x 'num_label_classes' ({num_clients} x {num_label_classes}) "
            f"must be <= {MAX_LABEL_CELLS}"
        )

    energy_raw = data.get("energy_model", {})
    if not isinstance(energy_raw, dict):
        raise ConfigError("field 'energy_model' must be an object")
    unknown = sorted(set(energy_raw) - set(EnergyModel._fields))
    if unknown:
        raise ConfigError(
            f"field 'energy_model' has unknown sub-field(s): {', '.join(map(repr, unknown))}")
    for key, value in energy_raw.items():
        require_number(value, f"field 'energy_model.{key}'", ConfigError)
    energy = EnergyModel(**energy_raw)
    for name in ("cpu_utilization", "idle_fraction"):
        value = getattr(energy, name)
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"field 'energy_model.{name}' must lie in [0, 1], got {value!r}")
    for name in ("comm_energy_per_byte", "train_seconds_per_unit", "agg_seconds_per_unit"):
        if not 0.0 <= getattr(energy, name) < math.inf:
            raise ConfigError(f"field 'energy_model.{name}' must be >= 0")

    overrides_raw = data.get("score_overrides", {})
    if not isinstance(overrides_raw, dict):
        raise ConfigError("field 'score_overrides' must be an object")
    score_overrides: dict[str, float] = {}
    for key, value in overrides_raw.items():
        what = f"field {f'score_overrides.{key}'!r}"
        score = require_number(value, what, ConfigError)
        if not 0.0 <= score <= 1.0:
            raise ConfigError(f"{what} must lie in [0, 1], got {value!r}")
        score_overrides[str(key)] = score

    statistics = data.get("statistics", {})
    if not isinstance(statistics, dict):
        raise ConfigError("field 'statistics' must be an object")

    return FederationConfig(
        name=str(data.get("name", default_name)),
        num_clients=num_clients,
        total_rounds=total_rounds,
        local_rounds=local_rounds,
        sample_size=sample_size,
        selection_rate=selection_rate,
        dataset_size=dataset_size,
        model_size=model_size,
        client_hardware=_parse_mix(data, "client_hardware", "model", num_clients),
        client_locations=_parse_mix(data, "client_locations", "location", num_clients),
        server_hardware=_nonblank(data.get("server_hardware"), "server_hardware"),
        server_location=_nonblank(data.get("server_location"), "server_location"),
        seed=seed,
        energy_model=energy,
        score_overrides=score_overrides,
        num_label_classes=num_label_classes,
        statistics=dict(statistics),
        description=str(data.get("description", "")),
    )


def _sampling_fields(data: dict, num_clients: int) -> tuple[int, float]:
    has_m = "sample_size" in data
    has_rate = "selection_rate" in data
    if not has_m and not has_rate:
        raise ConfigError("one of fields 'sample_size' or 'selection_rate' is required")
    if has_m:
        sample_size = _int_field(data, "sample_size", minimum=1)
        if sample_size > num_clients:
            raise ConfigError(
                f"field 'sample_size' ({sample_size}) exceeds 'num_clients' ({num_clients})"
            )
    if has_rate:
        rate = require_number(data["selection_rate"], "field 'selection_rate'", ConfigError)
        if not 0.0 < rate <= 1.0:
            raise ConfigError(f"field 'selection_rate' must lie in (0, 1], got {rate}")
    if has_m and has_rate:
        if abs(rate - sample_size / num_clients) > RATE_TOL:
            raise ConfigError(
                f"field 'selection_rate' ({rate}) disagrees with sample_size/num_clients "
                f"({sample_size}/{num_clients} = {sample_size / num_clients!r})"
            )
        return sample_size, rate
    if has_m:
        return sample_size, sample_size / num_clients
    # Only the rate was given: derive the per-round draw, keeping the
    # configured rate as the scored raw value even when it is not an exact
    # multiple of 1/num_clients.
    sample_size = min(num_clients, max(1, round(rate * num_clients)))
    return sample_size, rate


def _int_field(data: dict, name: str, minimum: int, maximum: int | None = None,
               default: int | None = None) -> int:
    if name not in data:
        if default is not None:
            return default
        raise ConfigError(f"field {name!r} is required")
    value = data[name]
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"field {name!r} must be an integer, got {value!r}")
    require_number(value, f"field {name!r}", ConfigError)
    if value < minimum:
        raise ConfigError(f"field {name!r} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"field {name!r} must be <= {maximum}, got {value}")
    return value


def require_number(value, what: str, error: type[ValueError]) -> float:
    """``value`` as a float if it is a JSON number (an int or float, not a bool)
    that fits one, a negative zero read as zero; otherwise ``error`` naming ``what``."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise error(f"{what} must be a number, got {value!r}")
    try:
        return float(value) + 0.0
    except OverflowError:  # an int beyond ~1.8e308
        raise error(f"{what} is too large for a float: a {value.bit_length()}-bit integer") from None


def check_weights(weights: list[float], what: str, error: type[ValueError],
                  renormalize: bool = False) -> list[float]:
    """The rule of every weight group: each weight finite and >= 0, and the
    ``math.fsum`` of the group within ``WEIGHT_SUM_TOL`` of 1.

    A group off 1 raises ``error`` naming ``what``; with ``renormalize`` it is
    returned divided by its sum instead, and a zero sum raises. A group that
    passes is returned as given.
    """
    for i, w in enumerate(weights):
        if not (math.isfinite(w) and w >= 0.0):
            raise error(f"{what} must be finite and >= 0, got {w!r} at position {i}")
    total = math.fsum(weights)
    if abs(total - 1.0) <= WEIGHT_SUM_TOL:
        return weights
    if not renormalize:
        raise error(f"{what} sum to {total!r}, expected 1.0")
    if total <= 0.0:
        raise error(f"{what} sum to zero; cannot renormalize")
    return [w / total for w in weights]


def check_seed(seed) -> int:
    """``seed`` if it is an integer in [0, 2^64); otherwise a ConfigError."""
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed <= MAX_SEED:
        raise ConfigError(f"field 'seed' must be an integer in [0, 2^64), got {seed!r}")
    return seed


def _nonblank(value, field: str) -> str:
    """``value`` stripped, if it is a string that is not blank; else a ConfigError naming ``field``."""
    if not isinstance(value, str) or not value.strip():
        raise ConfigError(f"field '{field}' must be a non-empty string")
    return value.strip()


def _parse_mix(data: dict, name: str, value_key: str, num_clients: int) -> tuple[tuple[float, str], ...]:
    raw = data.get(name)
    if raw is None:
        raise ConfigError(f"field {name!r} is required")
    if isinstance(raw, str):
        return ((1.0, _nonblank(raw, name)),)
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"field {name!r} must be a string or a non-empty list")
    if all(isinstance(item, str) for item in raw):
        # Per-client list: group equal values, shares by population count.
        if len(raw) != num_clients:
            raise ConfigError(
                f"field {name!r} lists {len(raw)} clients but 'num_clients' is {num_clients}"
            )
        counts: dict[str, int] = {}
        for i, item in enumerate(raw):
            value = _nonblank(item, f"{name}[{i}]")
            counts[value] = counts.get(value, 0) + 1
        return tuple((count / num_clients, value) for value, count in counts.items())
    mix: list[tuple[float, str]] = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict) or value_key not in item or "share" not in item:
            raise ConfigError(
                f"field '{name}[{i}]' must be an object with 'share' and {value_key!r}"
            )
        share = require_number(item["share"], f"field '{name}[{i}].share'", ConfigError)
        if not 0.0 < share <= 1.0:
            raise ConfigError(f"field '{name}[{i}].share' must lie in (0, 1], got {share!r}")
        mix.append((share, _nonblank(item[value_key], f"{name}[{i}].{value_key}")))
    check_weights([share for share, _ in mix], f"shares of field {name!r}", ConfigError)
    return tuple(mix)


def config_digest(config: FederationConfig) -> str:
    """Stable SHA-256 digest of the validated configuration."""
    payload = {**config._asdict(), "energy_model": config.energy_model._asdict()}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()
