"""Normalization rules and weighted hierarchical score aggregation.

The scoring model is a tree: metric leaves carry raw values that a
normalization rule maps into [0, 1], and every interior node (notion,
pillar, root) scores the weighted mean of its children. All arithmetic
runs at full float precision; two-decimal rounding happens only when a
value is rendered for display (see :func:`fedsust.report.display_score`).
Nodes and rules are ``__slots__`` classes that check their fields when made.

Normalization variants:

``linear-inverse``
    ``clamp((hi - value) / (hi - lo))`` -- lower raw values are better
    (e.g. grid carbon intensity in gCO2eq/kWh over [20, 795]).
``linear-direct``
    ``clamp((value - lo) / (hi - lo))`` -- higher raw values are better
    (e.g. processor performance per watt over [20, 1447]).
``log-bucket``
    piecewise-linear in log10 between anchor points, clamped to the first
    and last anchor outside their range (round counts and sizes).
``selection-rate``
    ``clamp((1 - rate) / 0.9)`` -- fraction of clients drawn per round.
``identity``
    value is already a score; clamped into [0, 1].
"""

from __future__ import annotations

import math

from .config import FrozenRecord, check_weights, read_json, require_number

__all__ = [
    "CARBON_INTENSITY_RULE",
    "COUNT_ANCHORS",
    "COUNT_RULE",
    "IDENTITY_RULE",
    "KIND_METRIC",
    "KIND_NOTION",
    "KIND_PILLAR",
    "KIND_ROOT",
    "MissingMetricError",
    "NormalizationRule",
    "POWER_PERFORMANCE_RULE",
    "SELECTION_RULE",
    "SIZE_ANCHORS",
    "SIZE_RULE",
    "ScoreError",
    "ScoreNode",
    "aggregate",
    "apply_weights",
    "load_weight_config",
    "normalize_linear_direct",
    "normalize_linear_inverse",
    "normalize_log_buckets",
    "normalize_selection_rate",
    "trust_score",
]

KIND_METRIC = "metric"
KIND_NOTION = "notion"
KIND_PILLAR = "pillar"
KIND_ROOT = "root"

_KINDS = (KIND_METRIC, KIND_NOTION, KIND_PILLAR, KIND_ROOT)
_VARIANTS = ("linear-inverse", "linear-direct", "log-bucket", "selection-rate", "identity")


class ScoreError(ValueError):
    """Invalid scoring input: bad rule domain, weights, or tree structure."""


class MissingMetricError(ScoreError):
    """A metric leaf was aggregated without a raw value."""


def _require_finite(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ScoreError(f"{what} must be finite, got {value!r}")
    return value


def _clamp01(value: float) -> float:
    return 0.0 if value < 0.0 else 1.0 if value > 1.0 else value


def normalize_linear_inverse(value: float, lo: float, hi: float) -> float:
    """Map ``value`` onto [0, 1], decreasing: ``lo`` scores 1, ``hi`` scores 0."""
    value = _require_finite(value, "value")
    if not lo < hi:
        raise ScoreError(f"invalid bounds: lo ({lo}) must be < hi ({hi})")
    return _clamp01((hi - value) / (hi - lo))


def normalize_linear_direct(value: float, lo: float, hi: float) -> float:
    """Map ``value`` onto [0, 1], increasing: ``lo`` scores 0, ``hi`` scores 1."""
    value = _require_finite(value, "value")
    if not lo < hi:
        raise ScoreError(f"invalid bounds: lo ({lo}) must be < hi ({hi})")
    return _clamp01((value - lo) / (hi - lo))


def normalize_log_buckets(value: float, anchors: tuple[tuple[float, float], ...]) -> float:
    """Interpolate ``value`` piecewise-linearly in log10 between anchor points.

    Values at an anchor return that anchor's score exactly; values outside
    the anchored range clamp to the first/last anchor score.
    """
    value = _require_finite(value, "value")
    if value <= 0.0:
        raise ScoreError(f"log-bucket input must be > 0, got {value}")
    _check_anchors(anchors)
    for raw, norm in anchors:
        if value == raw:
            return norm
    if value < anchors[0][0]:
        return anchors[0][1]
    if value > anchors[-1][0]:
        return anchors[-1][1]
    for (lo_raw, lo_norm), (hi_raw, hi_norm) in zip(anchors, anchors[1:]):
        if lo_raw < value < hi_raw:
            t = (math.log10(value) - math.log10(lo_raw)) / (math.log10(hi_raw) - math.log10(lo_raw))
            return _clamp01(lo_norm + t * (hi_norm - lo_norm))
    raise ScoreError(f"value {value} not bracketed by anchors")  # pragma: no cover


def normalize_selection_rate(rate: float) -> float:
    """Score a per-round client selection rate: ``clamp((1 - rate) / 0.9)``."""
    rate = _require_finite(rate, "rate")
    if not 0.0 <= rate <= 1.0:
        raise ScoreError(f"selection rate must lie in [0, 1], got {rate}")
    return _clamp01((1.0 - rate) / 0.9)


def _check_anchors(anchors: tuple[tuple[float, float], ...]) -> None:
    if len(anchors) < 2:
        raise ScoreError("log-bucket rule needs at least two anchors")
    for (a_raw, a_norm), (b_raw, _) in zip(anchors, anchors[1:]):
        if not a_raw < b_raw:
            raise ScoreError(f"anchor raw values must increase strictly ({a_raw} >= {b_raw})")
        if not 0.0 <= a_norm <= 1.0:
            raise ScoreError(f"anchor score {a_norm} outside [0, 1]")
    if not 0.0 <= anchors[-1][1] <= 1.0:
        raise ScoreError(f"anchor score {anchors[-1][1]} outside [0, 1]")


class NormalizationRule(FrozenRecord):
    """One of the named mappings from a raw metric value into [0, 1]."""

    __slots__ = ("variant", "lo", "hi", "anchors")

    def __init__(self, variant: str, lo: float = 0.0, hi: float = 1.0,
                 anchors: tuple[tuple[float, float], ...] = ()) -> None:
        if variant not in _VARIANTS:
            raise ScoreError(f"unknown normalization variant {variant!r}")
        if variant in ("linear-inverse", "linear-direct") and not lo < hi:
            raise ScoreError(f"invalid bounds: lo ({lo}) must be < hi ({hi})")
        if variant == "log-bucket":
            _check_anchors(anchors)
        init = object.__setattr__
        init(self, "variant", variant)
        init(self, "lo", lo)
        init(self, "hi", hi)
        init(self, "anchors", anchors)

    def apply(self, value: float) -> float:
        if self.variant == "linear-inverse":
            return normalize_linear_inverse(value, self.lo, self.hi)
        if self.variant == "linear-direct":
            return normalize_linear_direct(value, self.lo, self.hi)
        if self.variant == "log-bucket":
            return normalize_log_buckets(value, self.anchors)
        if self.variant == "selection-rate":
            return normalize_selection_rate(value)
        return _clamp01(_require_finite(value, "value"))


# Grid carbon intensity spans the least/most carbon-intensive national
# grids (gCO2eq/kWh); performance per watt spans the observed processor
# range (marks/W).
CARBON_INTENSITY_RULE = NormalizationRule("linear-inverse", lo=20.0, hi=795.0)
POWER_PERFORMANCE_RULE = NormalizationRule("linear-direct", lo=20.0, hi=1447.0)

COUNT_ANCHORS: tuple[tuple[float, float], ...] = (
    (10.0, 1.0), (1e2, 0.8), (1e3, 0.6), (1e4, 0.4), (1e5, 0.2), (1e6, 0.0),
)
SIZE_ANCHORS: tuple[tuple[float, float], ...] = (
    (1e5, 1.0), (1e6, 0.8), (1e7, 0.6), (1e8, 0.4), (1e9, 0.2), (1e10, 0.0),
)
COUNT_RULE = NormalizationRule("log-bucket", anchors=COUNT_ANCHORS)
SIZE_RULE = NormalizationRule("log-bucket", anchors=SIZE_ANCHORS)
SELECTION_RULE = NormalizationRule("selection-rate")
IDENTITY_RULE = NormalizationRule("identity")


class ScoreNode:
    """A node of the metric -> notion -> pillar -> trust tree.

    ``id`` is the node's dot-path (e.g. ``sustainability.carbon_intensity.client``),
    which is also the key used by weight files and score overrides.
    """

    __slots__ = ("id", "kind", "weight", "rule", "children", "raw", "score", "overridden", "renormalized")

    def __init__(self, id: str, kind: str, weight: float = 1.0, rule: NormalizationRule | None = None,
                 children: list[ScoreNode] | None = None, raw: float | None = None,
                 score: float | None = None, overridden: bool = False, renormalized: bool = False) -> None:
        if kind not in _KINDS:
            raise ScoreError(f"unknown node kind {kind!r} for {id!r}")
        if not 0.0 <= weight <= 1.0:
            raise ScoreError(f"weight of {id!r} must lie in [0, 1], got {weight}")
        if kind == KIND_METRIC and children:
            raise ScoreError(f"metric node {id!r} cannot have children")
        self.id = id
        self.kind = kind
        self.weight = weight
        self.rule = rule
        self.children = [] if children is None else children
        self.raw = raw
        self.score = score
        self.overridden = overridden
        self.renormalized = renormalized

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, node_id: str) -> "ScoreNode | None":
        for node in self.walk():
            if node.id == node_id:
                return node
        return None


def _check_override(value: float, node_id: str) -> float:
    value = _require_finite(value, f"override for {node_id!r}")
    if not 0.0 <= value <= 1.0:
        raise ScoreError(f"override for {node_id!r} must lie in [0, 1], got {value}")
    return value


def aggregate(
    node: ScoreNode,
    *,
    overrides: dict[str, float] | None = None,
    allow_partial: bool = False,
) -> ScoreNode:
    """Score ``node`` bottom-up and return a scored copy (the input is untouched).

    Metric leaves score ``rule(raw)``; interior nodes score the weighted mean
    of their children, computed on full-precision child scores. ``overrides``
    pins the score of any node by id (the pinned subtree tolerates missing
    raw values). Without ``allow_partial``, a missing, un-pinned metric raw
    raises :class:`MissingMetricError` naming the metric; with it, siblings
    are renormalized and the parent is flagged ``renormalized``.
    """
    scored = _score(node, overrides or {}, allow_partial, tolerant=False)
    if scored.score is None:
        raise MissingMetricError(f"no metric under {node.id!r} could be scored")
    return scored


def _score(node: ScoreNode, overrides: dict[str, float], allow_partial: bool, tolerant: bool) -> ScoreNode:
    override = overrides.get(node.id)
    pinned = override is not None
    if pinned:
        override = _check_override(override, node.id)

    if node.kind == KIND_METRIC:
        if pinned:
            return _copy(node, [], node.weight, override, True)
        if node.raw is None:
            if tolerant or allow_partial:
                return _copy(node, [], node.weight, None, node.overridden)
            raise MissingMetricError(f"metric {node.id!r} has no raw value")
        if node.rule is None:
            raise ScoreError(f"metric {node.id!r} has no normalization rule")
        return _copy(node, [], node.weight, node.rule.apply(node.raw), node.overridden)

    if not node.children:
        raise ScoreError(f"{node.kind} node {node.id!r} has no children")

    check_weights([child.weight for child in node.children], f"child weights of {node.id!r}", ScoreError)

    kids = [_score(child, overrides, allow_partial, tolerant or pinned) for child in node.children]
    out = _copy(node, kids, node.weight, node.score, node.overridden)
    if pinned:
        out.score = override
        out.overridden = True
        return out

    scored_kids = [k for k in kids if k.score is not None]
    if len(scored_kids) == len(kids):
        out.score = math.fsum(k.weight * k.score for k in kids)
        return out
    if not scored_kids:
        if tolerant:
            out.score = None
            return out
        missing = ", ".join(repr(k.id) for k in kids if k.score is None)
        raise MissingMetricError(f"all children of {node.id!r} are unscored: {missing}")
    if not allow_partial and not tolerant:
        missing = ", ".join(repr(k.id) for k in kids if k.score is None)
        raise MissingMetricError(f"unscored children under {node.id!r}: {missing}")
    partial_weight = math.fsum(k.weight for k in scored_kids)
    if partial_weight <= 0.0:
        raise ScoreError(f"scored children of {node.id!r} carry zero total weight")
    out.score = math.fsum(k.weight * k.score for k in scored_kids) / partial_weight
    out.renormalized = True
    return out


def trust_score(pillar_scores: list[float], weights: list[float]) -> float:
    """Weighted mean of pillar scores, the root of the scoring tree."""
    if len(pillar_scores) != len(weights):
        raise ScoreError(
            f"got {len(pillar_scores)} pillar scores but {len(weights)} weights"
        )
    if not pillar_scores:
        raise ScoreError("trust score needs at least one pillar")
    check_weights(weights, "pillar weights", ScoreError)
    for s in pillar_scores:
        s = _require_finite(s, "pillar score")
        if not 0.0 <= s <= 1.0:
            raise ScoreError(f"pillar score {s} outside [0, 1]")
    return math.fsum(w * s for w, s in zip(weights, pillar_scores))


def load_weight_config(path) -> dict[str, float]:
    """Read a weight file: a JSON object mapping node dot-paths to weights."""
    try:
        data = read_json(path, f"weight file {path}", ScoreError)
    except OSError as exc:
        raise ScoreError(f"cannot read weight file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ScoreError(f"weight file {path}: expected a JSON object")
    weights: dict[str, float] = {}
    for key, value in data.items():
        if not isinstance(key, str):
            raise ScoreError(f"weight file {path}: non-string key {key!r}")
        w = require_number(value, f"weight file {path}: weight for {key!r}", ScoreError)
        if w < 0.0 or not math.isfinite(w):
            raise ScoreError(f"weight file {path}: weight for {key!r} must be >= 0 and finite")
        weights[key] = w
    return weights


def apply_weights(node: ScoreNode, weights: dict[str, float]) -> ScoreNode:
    """Return a copy of the tree with weights replaced where the id matches.

    Per-parent groups must still sum to 1; :func:`aggregate` enforces that,
    and this function checks eagerly so configuration errors surface at load
    time rather than at scoring time.
    """
    out = _reweight(node, weights)
    for parent in out.walk():
        if parent.children:
            check_weights([child.weight for child in parent.children],
                          f"after applying weight config, child weights of {parent.id!r}", ScoreError)
    return out


def _reweight(node: ScoreNode, weights: dict[str, float]) -> ScoreNode:
    out = _copy(node, node.children, weights.get(node.id, node.weight), node.score, node.overridden)
    out.children = [_reweight(child, weights) for child in node.children]
    return out


def _copy(node: ScoreNode, children: list, weight: float, score: float | None, overridden: bool) -> ScoreNode:
    """``node`` with these fields replaced, checked as a new node is."""
    return ScoreNode(node.id, node.kind, weight, node.rule, children, node.raw, score, overridden,
                     node.renormalized)
