"""The run's factsheet and the canonical serialization of the trust report.

Reports are written in a canonical form -- sorted keys, two-space indent,
a trailing newline, scores rendered both as two-decimal display strings and
as full-precision ``*_raw`` floats -- so equal inputs always produce equal
bytes; the module's own writer gives exactly the bytes of ``json.dumps`` with
those settings. Files are written atomically (temp file + rename), and no raw
client identifier ever appears in the output: clients and labels show up only
under per-run salted hashes.
"""

from __future__ import annotations

import io
import math
import os
from collections.abc import Callable, Mapping
from decimal import ROUND_HALF_EVEN, Decimal
from functools import partial
from json.encoder import encode_basestring
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO

from . import __version__
from .config import FederationConfig, check_weights, config_digest, read_json, require_number
# hash_client_id is unused here; bench/tracer.py patches report.hash_client_id
from .fedsim import ClientTable, FederationState, SelectionCounts, hash_client_id  # noqa: F401
from .scoring import KIND_METRIC, ScoreError, ScoreNode, trust_score

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "EXTERNAL_PILLAR_IDS",
    "build_trust_report",
    "completeness",
    "display_score",
    "external_pillars",
    "load_pillar_fixture",
    "populate_factsheet",
    "render_report",
    "resolve_pillar_value",
    "write_atomic",
    "write_report",
]

# The six pillars whose scores are produced outside this package and fed in.
EXTERNAL_PILLAR_IDS = (
    "accountability",
    "explainability",
    "fairness",
    "federation",
    "privacy",
    "robustness",
)

SELF_CONSISTENCY_TOL = 1e-9


def display_score(value: float) -> str:
    """Render a score for display: half-even rounding to two decimals.

    Rounding is display-only; aggregation always consumes full-precision
    values.
    """
    if not math.isfinite(value):
        raise ScoreError(f"cannot display non-finite score {value!r}")
    return str(Decimal(repr(float(value))).quantize(Decimal("0.01"), rounding=ROUND_HALF_EVEN))


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a temp file and rename; never a partial file."""
    _write_atomically(path, lambda fh: fh.write(data))


def write_report(path: str | Path, report: dict) -> None:
    """Write :func:`render_report`'s bytes of ``report`` to ``path`` as :func:`write_atomic`
    does, each row block straight into the temp file, so the document is never held whole.
    A render that fails partway raises as :func:`render_report` would and leaves ``path``
    as it was."""
    _write_atomically(path, partial(_render, report))


def _write_atomically(path: str | Path, fill: Callable[[BinaryIO], object]) -> None:
    """Call ``fill`` on a new temp file beside ``path``, then rename it to ``path``; on any
    exception the temp file is removed and ``path`` keeps its bytes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # os.open applies the umask to 0o666, as open(path, "wb") would; mkstemp gives 0o600
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fill(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def external_pillars(scores: dict[str, float]) -> dict[str, float]:
    """Validate externally supplied pillar scores.

    Ids must come from :data:`EXTERNAL_PILLAR_IDS`; the computed
    sustainability pillar is merged in separately by the caller.
    """
    validated: dict[str, float] = {}
    for pillar, value in scores.items():
        if pillar not in EXTERNAL_PILLAR_IDS:
            raise ScoreError(
                f"unknown external pillar {pillar!r}; expected one of {', '.join(EXTERNAL_PILLAR_IDS)}"
            )
        value = float(value)
        if not math.isfinite(value) or not 0.0 <= value <= 1.0:
            raise ScoreError(f"external pillar {pillar!r} score {value!r} outside [0, 1]")
        validated[pillar] = value
    return validated


def resolve_pillar_value(value, pillar: str) -> float:
    """Resolve a pillar fixture entry to a full-precision score.

    An entry is either a plain number or an object
    ``{"notions": {name: score}, "weights": {name: w}?}``; notion form is
    averaged (equal weights unless given) so the pillar keeps full precision
    instead of a pre-rounded number.
    """
    if not isinstance(value, dict):
        return require_number(value, f"pillar {pillar!r}", ScoreError)
    notions = value.get("notions")
    if not isinstance(notions, dict) or not notions:
        raise ScoreError(f"pillar {pillar!r}: 'notions' must be a non-empty object")
    names = sorted(notions)
    weights_map = value.get("weights") or {}
    if not isinstance(weights_map, dict):
        raise ScoreError(f"pillar {pillar!r}: 'weights' must be an object")
    if weights_map:
        missing = sorted(set(names) - set(weights_map))
        if missing:
            raise ScoreError(f"pillar {pillar!r}: weights missing for {', '.join(map(repr, missing))}")
        unknown = sorted(set(weights_map) - set(names))
        if unknown:
            raise ScoreError(
                f"pillar {pillar!r}: weights name unknown notion(s): {', '.join(map(repr, unknown))}")
        weights = [require_number(weights_map[n], f"pillar {pillar!r}: weight of {n!r}", ScoreError)
                   for n in names]
        check_weights(weights, f"pillar {pillar!r}: notion weights", ScoreError)
    else:
        weights = [1.0 / len(names)] * len(names)
    return trust_score([require_number(notions[n], f"pillar {pillar!r}: notion {n!r}", ScoreError)
                        for n in names], weights)


def load_pillar_fixture(path: str | Path) -> dict[str, float]:
    """Load an external-pillar file and resolve every entry to a score.

    Schema: ``{"pillars": {pillar-id: <number | {"notions": ...}>}}``. Extra
    top-level keys are allowed (description fields, reference values for
    other tooling) and ignored here.
    """
    path = Path(path)
    try:
        data = read_json(path, f"pillar file {path}", ScoreError)
    except OSError as exc:
        raise ScoreError(f"cannot read pillar file {path}: {exc}") from exc
    if not isinstance(data, dict) or "pillars" not in data or not isinstance(data["pillars"], dict):
        raise ScoreError(f"pillar file {path} must contain a 'pillars' object")
    resolved = {
        pillar: resolve_pillar_value(value, pillar) for pillar, value in data["pillars"].items()
    }
    return external_pillars(resolved)


# The factsheet fields that must be populated, by section.
_MANDATORY = {
    "pre_training": (
        "num_clients", "total_rounds", "sample_size", "selection_rate",
        "client_locations", "server_location", "client_hardware", "server_hardware",
    ),
    "during_training": ("selection_counts", "class_distribution", "emissions_by_phase_g_raw"),
    "post_training": ("client_statistics",),
}


def completeness(sheet: dict) -> dict:
    """The factsheet's ``completeness`` block: the fraction of mandatory fields
    populated, and the absent ones as ``section.field``."""
    absent = [f"{section}.{name}" for section, names in _MANDATORY.items() for name in names
              if _empty(sheet[section].get(name))]
    total = sum(map(len, _MANDATORY.values()))
    return {"fraction": (total - len(absent)) / total, "absent": absent}


def _empty(value) -> bool:
    # by length: a client table compared with {} would first be copied entry by entry
    return value is None or (isinstance(value, (list, Mapping, ClientTable)) and not len(value))


def populate_factsheet(config: FederationConfig, state: FederationState) -> dict:
    """The accountability record of one run: its three lifecycle sections, filled
    from the scenario and the finished run, and their :func:`completeness`.

    The per-client blocks, ``selection_counts`` and ``client_statistics``, are
    the run's :class:`~fedsust.fedsim.SelectionCounts` and
    :class:`~fedsust.fedsim.ClientTable`, which :func:`render_report` writes
    from their columns. A non-empty ``config.statistics`` is echoed as
    ``post_training.evaluation``.
    """
    post_training = {"client_statistics": state.clients}
    if config.statistics:
        post_training["evaluation"] = dict(config.statistics)
    sheet = {
        "pre_training": {
            "name": config.name,
            "num_clients": config.num_clients,
            "total_rounds": config.total_rounds,
            "sample_size": config.sample_size,
            "selection_rate": config.selection_rate,
            "local_rounds": config.local_rounds,
            "dataset_size": config.dataset_size,
            "model_size": config.model_size,
            "client_locations": [{"share": s, "location": v} for s, v in config.client_locations],
            "server_location": config.server_location,
            "client_hardware": [{"share": s, "model": v} for s, v in config.client_hardware],
            "server_hardware": config.server_hardware,
            "seed": config.seed,
        },
        "during_training": {
            "rounds_completed": state.round,
            "selection_counts": state.selection_counts,
            "class_distribution": state.class_distribution,
            "emissions_by_phase_g_raw": state.emissions.co2eq_by("phase"),
        },
        "post_training": post_training,
    }
    sheet["completeness"] = completeness(sheet)
    return sheet


def build_trust_report(
    config: FederationConfig,
    pillar_node: ScoreNode,
    externals: dict[str, float] | None = None,
    pillar_weights: dict[str, float] | None = None,
    allow_partial: bool = False,
) -> dict:
    """Assemble the report mapping from a scored pillar tree.

    ``externals`` are validated external pillar scores; when present, the
    root trust score is the weighted mean over them plus the computed
    sustainability pillar, with equal weights unless a weight file's
    ``pillar_weights`` are given. Those must cover the pillars present and
    sum to 1 over them (:func:`~fedsust.config.check_weights`), or are
    renormalized with ``allow_partial``. Without externals ``trust`` is
    ``null``: a single computed pillar is not presented as a federation-wide
    trust score.
    """
    metrics: dict[str, dict] = {}
    notions: dict[str, dict] = {}
    renormalized: list[str] = []
    for node in pillar_node.walk():
        if node.renormalized:
            renormalized.append(node.id)
        entry = {
            "score": None if node.score is None else display_score(node.score),
            "score_raw": node.score,
            "weight": node.weight,
            "overridden": node.overridden,
        }
        if node.kind == KIND_METRIC:
            entry["raw"] = node.raw
            computed = node.rule.apply(node.raw) if (node.rule and node.raw is not None) else None
            entry["computed_raw"] = computed
            metrics[node.id] = entry
        elif node.id != pillar_node.id:
            notions[node.id] = entry

    pillars: dict[str, dict] = {
        pillar_node.id: {
            "score": display_score(pillar_node.score),
            "score_raw": pillar_node.score,
            "source": "computed",
            "overridden": pillar_node.overridden,
        }
    }
    trust: dict | None = None
    if externals:
        for pillar, value in sorted(externals.items()):
            pillars[pillar] = {
                "score": display_score(value),
                "score_raw": value,
                "source": "external",
                "overridden": False,
            }
        ordered = sorted(pillars)
        weights = [1.0 / len(ordered)] * len(ordered)
        if pillar_weights:
            missing = [p for p in ordered if p not in pillar_weights]
            if missing:
                raise ScoreError(f"weight file lacks pillar weights for: {', '.join(missing)}")
            weights = check_weights([float(pillar_weights[p]) for p in ordered],
                                    f"pillar weights for {', '.join(ordered)}", ScoreError,
                                    renormalize=allow_partial)
        root = trust_score([pillars[p]["score_raw"] for p in ordered], weights)
        trust = {
            "score": display_score(root),
            "score_raw": root,
            "pillar_weights": dict(zip(ordered, weights)),
        }

    report = {
        "version": __version__,
        "config": {"name": config.name, "digest": config_digest(config)},
        "metrics": metrics,
        "notions": notions,
        "pillars": pillars,
        "trust": trust,
        "emissions": None,  # simulate fills it in after the run
        "renormalized": sorted(renormalized),
        "partial": bool(renormalized),
    }
    _check_self_consistency(report)
    return report


def _check_self_consistency(report: dict) -> None:
    trust = report.get("trust")
    if not trust:
        return
    weights = trust["pillar_weights"]
    scores = [report["pillars"][p]["score_raw"] for p in sorted(weights)]
    recomputed = trust_score(scores, [weights[p] for p in sorted(weights)])
    if abs(recomputed - trust["score_raw"]) > SELF_CONSISTENCY_TOL:
        raise ScoreError(
            f"trust score {trust['score_raw']!r} does not match re-aggregation {recomputed!r}"
        )


def render_report(report: dict) -> bytes:
    """UTF-8 of ``json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False,
    allow_nan=False)`` and a newline. A :class:`~fedsust.fedsim.SelectionCounts`
    is written as the dict it reads as, and a :class:`~fedsust.fedsim.ClientTable`
    as the dict of its clients' factsheet entries keyed by node id, both rendered
    in row blocks (:func:`_write_clients`, which alone loads numpy). The bytes are
    built in one buffer, for the small documents and the tests; :func:`write_report`
    writes the same bytes straight to a file. A non-finite float raises
    ``ValueError``; a non-``str`` key or any other type than these and exact dict,
    list, tuple, str, int, float, bool and ``None`` raises ``TypeError``."""
    out = io.BytesIO()
    _render(report, out)
    return out.getvalue()


def _render(report: dict, out: BinaryIO) -> None:
    """Write the bytes of :func:`render_report` to ``out``: the text before each per-client
    block, then each of its row blocks as it is made, then the rest."""
    chunks: list[str] = []
    _write_json(report, chunks, "\n", out)
    chunks.append("\n")
    out.write("".join(chunks).encode("utf-8"))


def _finite_repr(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


# How each scalar is written; strings go through json's own (C) escaper.
_SCALARS = {str: encode_basestring, int: int.__repr__, float: _finite_repr,
            bool: lambda v: "true" if v else "false", type(None): lambda _: "null"}


def _write_json(value, chunks: list[str], newline: str, out: BinaryIO) -> None:
    """Append the JSON of ``value``, laid out at the padding of ``newline``, to ``chunks``;
    a per-client block first writes the text in ``chunks`` to ``out`` and empties it."""
    kind = type(value)
    write = _SCALARS.get(kind)
    if write is not None:
        chunks.append(write(value))
    elif kind is dict and value:
        inner = newline + "  "
        emit, scalar = chunks.append, _SCALARS.get
        separator, comma = "{" + inner, "," + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            prefix = f"{separator}{encode_basestring(key)}: "
            separator = comma
            item = value[key]
            write = scalar(type(item))
            if write is None:
                emit(prefix)
                _write_json(item, chunks, inner, out)
            else:
                emit(prefix + write(item))
        emit(newline + "}")
    elif (kind is list or kind is tuple) and value:
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            chunks.append(separator)
            _write_json(item, chunks, inner, out)
            separator = "," + inner
        chunks.append(newline + "]")
    elif kind is dict or kind is list or kind is tuple:
        chunks.append("{}" if kind is dict else "[]")
    elif kind is SelectionCounts or kind is ClientTable:
        _write_clients(value, chunks, newline, out)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


# Most text cells a per-client block builds at once, bounding its temporaries.
_BLOCK_CELLS = 1 << 14


def _index(values: np.ndarray) -> tuple[list[int], Callable[[np.ndarray], np.ndarray]]:
    """``(distinct, key)`` of an array of non-negative integers: its distinct values,
    ascending, and a function giving each element of a part of the array its position
    among them. A presence table over ``[0, max]`` finds them when that range is no
    larger than the array; a wider one (``dataset_size`` reaches 10**10) is sorted."""
    import numpy as np

    top = int(values.max(initial=0))
    if top < values.size:
        present = np.zeros(top + 1, dtype=bool)
        present[values] = True
        return np.flatnonzero(present).tolist(), (np.cumsum(present) - 1).__getitem__
    distinct = np.unique(values)
    return distinct.tolist(), partial(np.searchsorted, distinct)


def _write_clients(value: SelectionCounts | ClientTable, chunks: list[str], newline: str, out: BinaryIO) -> None:
    """Write a per-client block in node-id order, in row blocks of at most ``_BLOCK_CELLS``
    text cells: the text so far in ``chunks`` is encoded and written to ``out``, then each
    row block's cells are made, joined, encoded and written to ``out`` before the next. A
    row is the separator and quote, the node id sliced from the table's text of hex ids (no
    escape needed), and the entry's cells from the closing quote. The counts are indexed
    (:func:`_index`), so each entry's cells are made once per distinct count, and the class
    counts' digits once per distinct value."""
    table = value.table if type(value) is SelectionCounts else value
    n = len(table)
    if not n:
        chunks.append("{}")
        return
    import numpy as np

    inner, field = newline + "  ", newline + "    "
    counts = np.asarray(table.counts)
    distinct, count_key = _index(counts)
    ids = table.node_ids.text
    if table is value:
        heads, tails = [], []
        seconds, summed = 0.0, 0
        for count in distinct:
            while summed < count:  # the repeated sum, not train_s: (0.1 + 0.1 + 0.1) / 3 != 0.1
                seconds += table.train_s
                summed += 1
            heads.append(f'": {{{field}"avg_training_time_s": {_finite_repr(seconds / (count or 1))},'
                         f'{field}"class_balance": {{{field}  ')
            tails.append(f'{field}}},{field}"dataset_size": {int.__repr__(table.dataset_size)},'
                         f'{field}"participation_rate": {_finite_repr(count / table.rounds)}{inner}}}')
        heads, tails = np.array(heads, dtype=object), np.array(tails, dtype=object)
        k = len(table.labels)
        by_label = sorted(range(k), key=table.labels.__getitem__)
        names = [encode_basestring(table.labels[j]) + ": " for j in by_label]
        # class j's label cell at a zero count, at its row's first non-zero count and at a later
        # one: forms[3 * j], [3 * j + 1] and [3 * j + 2]
        forms = np.array([form for name in names for form in ("", name, f",{field}  {name}")], dtype=object)
        values, digit_key = _index(table.class_counts)
        digits = np.array([int.__repr__(v) if v else "" for v in values], dtype=object)
        order, by_label, columns = table.node_order, np.array(by_label), 3 * np.arange(k)
        width = 2 * k + 4
    else:
        entries = np.array(['": ' + int.__repr__(c) for c in distinct], dtype=object)
        width = 3
    out.write("".join(chunks).encode("utf-8"))
    chunks.clear()
    step = max(1, _BLOCK_CELLS // width)
    for first in range(0, n, step):
        last = min(first + step, n)
        at = count_key(counts[first:last])
        cells = np.empty((last - first, width), dtype=object)
        cells[:, 0] = "," + inner + '"'
        cells[:, 1] = np.array([ids[16 * first:16 * last]]).view("<U16")
        if table is value:
            rows = table.class_counts.take(order[first:last], axis=0)[:, by_label]
            nonzero = rows != 0
            form = np.minimum(nonzero.cumsum(axis=1, dtype=np.intp), 2)
            form *= nonzero
            form += columns
            cells[:, 2] = heads[at]
            cells[:, 3:-1:2] = forms.take(form)
            cells[:, 4:-1:2] = digits[digit_key(rows)]
            cells[:, -1] = tails[at]
        else:
            cells[:, 2] = entries[at]
        if not first:
            cells[0, 0] = "{" + inner + '"'
        cells = cells.ravel().tolist()  # the array is freed before the join
        out.write("".join(cells).encode("utf-8"))
    chunks.append(newline + "}")


def emissions_summary(state: FederationState) -> dict:
    """Emissions block of the trust report, full-precision values."""
    log = state.emissions
    return {
        "records": len(log),
        "total_energy_kwh_raw": log.total_energy_kwh(),
        "total_co2eq_g_raw": log.total_co2eq_g(),
        "co2eq_by_phase_g_raw": log.co2eq_by("phase"),
        "co2eq_by_role_g_raw": log.co2eq_by("role"),
    }
