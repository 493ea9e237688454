"""Tests for the normalization rules and the weighted aggregation tree."""

import copy
import json
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsust.report import display_score
from fedsust.scoring import (
    CARBON_INTENSITY_RULE,
    COUNT_ANCHORS,
    COUNT_RULE,
    IDENTITY_RULE,
    KIND_METRIC,
    KIND_NOTION,
    KIND_PILLAR,
    POWER_PERFORMANCE_RULE,
    SELECTION_RULE,
    SIZE_ANCHORS,
    SIZE_RULE,
    MissingMetricError,
    NormalizationRule,
    ScoreError,
    ScoreNode,
    aggregate,
    apply_weights,
    load_weight_config,
    normalize_linear_direct,
    normalize_linear_inverse,
    normalize_log_buckets,
    normalize_selection_rate,
    trust_score,
)


# ── linear rules ──────────────────────────────────────────────────────────


class TestLinearInverse:
    def test_reference_points(self):
        assert normalize_linear_inverse(709, 20, 795) == pytest.approx(0.1109677419, abs=1e-9)
        assert display_score(normalize_linear_inverse(709, 20, 795)) == "0.11"
        assert normalize_linear_inverse(795, 20, 795) == 0.0
        assert normalize_linear_inverse(20, 20, 795) == 1.0
        assert normalize_linear_inverse(734.5, 20, 795) == pytest.approx(0.0780645161, abs=1e-9)
        assert display_score(normalize_linear_inverse(734.5, 20, 795)) == "0.08"

    def test_clamps_outside_domain(self):
        assert normalize_linear_inverse(1000, 20, 795) == 0.0
        assert normalize_linear_inverse(5, 20, 795) == 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(ScoreError):
            normalize_linear_inverse(float("nan"), 20, 795)
        with pytest.raises(ScoreError):
            normalize_linear_inverse(float("inf"), 20, 795)
        with pytest.raises(ScoreError):
            normalize_linear_inverse(100, 795, 20)
        with pytest.raises(ScoreError):
            normalize_linear_inverse(100, 20, 20)

    def test_strictly_decreasing_on_domain(self):
        rng = random.Random(101)
        for _ in range(2000):
            a = rng.uniform(20, 795)
            b = rng.uniform(20, 795)
            if a == b:
                continue
            lo_v, hi_v = min(a, b), max(a, b)
            assert normalize_linear_inverse(lo_v, 20, 795) > normalize_linear_inverse(hi_v, 20, 795)


class TestLinearDirect:
    def test_reference_points(self):
        assert normalize_linear_direct(1268, 20, 1447) == pytest.approx(0.8745620182, abs=1e-9)
        assert display_score(normalize_linear_direct(1268, 20, 1447)) == "0.87"
        assert normalize_linear_direct(1447, 20, 1447) == 1.0
        assert display_score(normalize_linear_direct(1447, 20, 1447)) == "1.00"
        assert normalize_linear_direct(30.76, 20, 1447) == pytest.approx(0.0075402943, abs=1e-9)
        assert display_score(normalize_linear_direct(30.76, 20, 1447)) == "0.01"

    def test_rejects_bad_input(self):
        with pytest.raises(ScoreError):
            normalize_linear_direct(float("nan"), 20, 1447)
        with pytest.raises(ScoreError):
            normalize_linear_direct(100, 1447, 20)

    def test_strictly_increasing_on_domain(self):
        rng = random.Random(102)
        for _ in range(2000):
            a, b = sorted((rng.uniform(20, 1447), rng.uniform(20, 1447)))
            if a == b:
                continue
            assert normalize_linear_direct(a, 20, 1447) < normalize_linear_direct(b, 20, 1447)


# ── log-bucket rule ───────────────────────────────────────────────────────


class TestLogBuckets:
    @pytest.mark.parametrize("anchors", [COUNT_ANCHORS, SIZE_ANCHORS])
    def test_every_anchor_is_exact(self, anchors):
        for raw, norm in anchors:
            assert normalize_log_buckets(raw, anchors) == norm

    def test_midpoint_interpolates_in_log10(self):
        # 316.2278 = 10^2.5: halfway between the 10^2 and 10^3 anchors.
        assert normalize_log_buckets(316.2278, COUNT_ANCHORS) == pytest.approx(0.7, abs=1e-6)

    def test_clamps_outside_anchor_range(self):
        assert normalize_log_buckets(5, COUNT_ANCHORS) == 1.0
        assert normalize_log_buckets(2e6, COUNT_ANCHORS) == 0.0
        assert normalize_log_buckets(10, SIZE_ANCHORS) == 1.0
        assert normalize_log_buckets(1e12, SIZE_ANCHORS) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ScoreError):
            normalize_log_buckets(0, COUNT_ANCHORS)
        with pytest.raises(ScoreError):
            normalize_log_buckets(-3, COUNT_ANCHORS)

    def test_non_increasing_property(self):
        rng = random.Random(103)
        for anchors in (COUNT_ANCHORS, SIZE_ANCHORS):
            for _ in range(5000):
                a = 10 ** rng.uniform(-1, 8)
                b = 10 ** rng.uniform(-1, 8)
                lo_v, hi_v = min(a, b), max(a, b)
                assert normalize_log_buckets(lo_v, anchors) >= normalize_log_buckets(hi_v, anchors)

    def test_output_range(self):
        rng = random.Random(104)
        for _ in range(5000):
            v = 10 ** rng.uniform(-3, 12)
            assert 0.0 <= normalize_log_buckets(v, COUNT_ANCHORS) <= 1.0


# ── selection-rate rule ───────────────────────────────────────────────────


class TestSelectionRate:
    def test_reference_points(self):
        assert normalize_selection_rate(0.2) == pytest.approx(0.8888888889, abs=1e-9)
        assert display_score(normalize_selection_rate(0.2)) == "0.89"
        assert normalize_selection_rate(1.0) == 0.0
        assert display_score(normalize_selection_rate(1.0)) == "0.00"
        assert normalize_selection_rate(0.8) == pytest.approx(0.2222222222, abs=1e-9)
        assert display_score(normalize_selection_rate(0.8)) == "0.22"
        assert normalize_selection_rate(0.3) == pytest.approx(0.7777777778, abs=1e-9)

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(ScoreError):
            normalize_selection_rate(-0.1)
        with pytest.raises(ScoreError):
            normalize_selection_rate(1.1)
        with pytest.raises(ScoreError):
            normalize_selection_rate(float("nan"))

    def test_strictly_decreasing(self):
        # strict on the clamp-free region [0.1, 1], non-increasing below it
        rng = random.Random(105)
        for _ in range(2000):
            a, b = sorted((rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)))
            if a == b:
                continue
            assert normalize_selection_rate(a) > normalize_selection_rate(b)
        for _ in range(500):
            a, b = sorted((rng.random(), rng.random()))
            assert normalize_selection_rate(a) >= normalize_selection_rate(b)


# ── rule objects ──────────────────────────────────────────────────────────


class TestNormalizationRule:
    def test_dispatch_matches_functions(self):
        assert CARBON_INTENSITY_RULE.apply(709) == normalize_linear_inverse(709, 20, 795)
        assert POWER_PERFORMANCE_RULE.apply(1268) == normalize_linear_direct(1268, 20, 1447)

    def test_identity_clamps(self):
        rule = NormalizationRule("identity")
        assert rule.apply(0.4) == 0.4
        assert rule.apply(1.7) == 1.0
        assert rule.apply(-0.2) == 0.0

    def test_invalid_rules_rejected(self):
        with pytest.raises(ScoreError):
            NormalizationRule("linear-direct", lo=5, hi=5)
        with pytest.raises(ScoreError):
            NormalizationRule("log-bucket", anchors=((10.0, 1.0),))
        with pytest.raises(ScoreError):
            NormalizationRule("log-bucket", anchors=((10.0, 1.0), (5.0, 0.5)))
        with pytest.raises(ScoreError):
            NormalizationRule("log-bucket", anchors=((10.0, 1.5), (100.0, 0.5)))
        with pytest.raises(ScoreError):
            NormalizationRule("no-such-variant")

    def test_rules_are_immutable_values(self):
        rule = NormalizationRule("linear-direct", lo=20.0, hi=1447.0)
        with pytest.raises(AttributeError):
            rule.hi = 2.0
        assert rule == POWER_PERFORMANCE_RULE and hash(rule) == hash(POWER_PERFORMANCE_RULE)
        assert rule != NormalizationRule("linear-direct", lo=20.0, hi=1446.0)
        assert repr(rule) == "NormalizationRule(variant='linear-direct', lo=20.0, hi=1447.0, anchors=())"
        tree = ScoreNode(id="n", kind=KIND_NOTION, children=[leaf("n.a", 1.0, 0.5, rule)])
        assert copy.deepcopy(tree).children[0].rule == rule == pickle.loads(pickle.dumps(rule))


# The program's rules: each with its documented direction (+1 non-decreasing,
# -1 non-increasing) and raw values that reach past both ends of its domain.
_PROGRAM_RULES = {
    "carbon_intensity": (CARBON_INTENSITY_RULE, -1, st.floats(-1e4, 1e4)),
    "power_performance": (POWER_PERFORMANCE_RULE, +1, st.floats(-1e4, 1e4)),
    "count": (COUNT_RULE, -1, st.floats(1e-3, 1e12, exclude_min=True)),
    "size": (SIZE_RULE, -1, st.floats(1e-3, 1e15, exclude_min=True)),
    "selection_rate": (SELECTION_RULE, -1, st.floats(0.0, 1.0)),
    "identity": (IDENTITY_RULE, +1, st.floats(-10.0, 10.0)),
}


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(name=st.sampled_from(sorted(_PROGRAM_RULES)), data=st.data())
def test_every_rule_stays_in_unit_interval_and_is_monotone(name, data):
    rule, direction, raw_values = _PROGRAM_RULES[name]
    low, high = sorted((data.draw(raw_values), data.draw(raw_values)))
    at_low, at_high = rule.apply(low), rule.apply(high)
    assert 0.0 <= at_low <= 1.0 and 0.0 <= at_high <= 1.0
    assert direction * (at_high - at_low) >= 0.0, (low, high, at_low, at_high)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(bounds=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2, unique=True),
       values=st.lists(st.floats(-2e6, 2e6), min_size=2, max_size=2))
def test_linear_rules_on_any_bounds_stay_in_unit_interval_and_are_monotone(bounds, values):
    lo, hi = sorted(bounds)
    low, high = sorted(values)
    for variant, direction in (("linear-direct", +1), ("linear-inverse", -1)):
        rule = NormalizationRule(variant, lo=lo, hi=hi)
        at_low, at_high = rule.apply(low), rule.apply(high)
        assert 0.0 <= at_low <= 1.0 and 0.0 <= at_high <= 1.0
        assert direction * (at_high - at_low) >= 0.0, (variant, lo, hi, low, high)


# ── aggregation ───────────────────────────────────────────────────────────


def leaf(node_id, weight, raw=None, rule=None):
    return ScoreNode(id=node_id, kind=KIND_METRIC, weight=weight,
                     rule=rule or NormalizationRule("identity"), raw=raw)


def test_aggregate_weighted_mean_reference():
    node = ScoreNode(
        id="carbon", kind=KIND_NOTION,
        children=[leaf("carbon.client", 0.5, 0.0781), leaf("carbon.server", 0.5, 0.1110)],
    )
    scored = aggregate(node)
    assert scored.score == pytest.approx(0.09455, abs=1e-9)
    assert display_score(scored.score) == "0.09"


def test_aggregate_pillar_reference():
    node = ScoreNode(
        id="pillar", kind=KIND_PILLAR,
        children=[
            leaf("pillar.a", 0.5, 0.1110),
            leaf("pillar.b", 0.25, 0.9373),
            leaf("pillar.c", 0.25, 0.96),
        ],
    )
    scored = aggregate(node)
    assert scored.score == pytest.approx(0.529825, abs=1e-9)
    assert display_score(scored.score) == "0.53"


def test_aggregate_idempotent_on_equal_children():
    rng = random.Random(106)
    for _ in range(500):
        s = rng.random()
        w = rng.uniform(0.05, 0.95)
        node = ScoreNode(
            id="n", kind=KIND_NOTION,
            children=[leaf("n.a", w, s), leaf("n.b", 1.0 - w, s)],
        )
        assert aggregate(node).score == pytest.approx(s, abs=1e-12)


def test_aggregate_bounded_by_children():
    rng = random.Random(107)
    for _ in range(500):
        scores = [rng.random() for _ in range(4)]
        weights = [rng.uniform(0.1, 1.0) for _ in range(4)]
        total = sum(weights)
        weights = [w / total for w in weights]
        node = ScoreNode(
            id="n", kind=KIND_NOTION,
            children=[leaf(f"n.{i}", w, s) for i, (w, s) in enumerate(zip(weights, scores))],
        )
        got = aggregate(node).score
        assert min(scores) - 1e-12 <= got <= max(scores) + 1e-12


def test_aggregate_scores_every_node_and_keeps_input_unscored():
    inner = ScoreNode(id="p.n", kind=KIND_NOTION, weight=1.0,
                      children=[leaf("p.n.a", 0.5, 0.2), leaf("p.n.b", 0.5, 0.4)])
    root = ScoreNode(id="p", kind=KIND_PILLAR, children=[inner])
    scored = aggregate(root)
    assert all(n.score is not None for n in scored.walk())
    assert all(n.score is None for n in root.walk())


def test_aggregate_missing_metric_names_the_node():
    node = ScoreNode(
        id="n", kind=KIND_NOTION,
        children=[leaf("n.a", 0.5, 0.2), leaf("n.missing", 0.5, None)],
    )
    with pytest.raises(MissingMetricError, match="n.missing"):
        aggregate(node)


def test_aggregate_allow_partial_renormalizes_and_flags():
    node = ScoreNode(
        id="n", kind=KIND_NOTION,
        children=[leaf("n.a", 0.5, 0.2), leaf("n.missing", 0.5, None)],
    )
    scored = aggregate(node, allow_partial=True)
    assert scored.score == pytest.approx(0.2, abs=1e-12)
    assert scored.renormalized
    with pytest.raises(MissingMetricError):
        aggregate(ScoreNode(id="n", kind=KIND_NOTION, children=[leaf("n.a", 1.0, None)]),
                  allow_partial=True)


def test_aggregate_override_pins_node_and_tolerates_gaps_below():
    node = ScoreNode(
        id="n", kind=KIND_NOTION,
        children=[leaf("n.a", 0.5, None), leaf("n.b", 0.5, 0.4)],
    )
    scored = aggregate(node, overrides={"n": 0.96})
    assert scored.score == 0.96
    assert scored.overridden
    # an override outside [0, 1] is a configuration error
    with pytest.raises(ScoreError):
        aggregate(node, overrides={"n": 1.2})


def test_aggregate_metric_override_feeds_parent():
    node = ScoreNode(
        id="n", kind=KIND_NOTION,
        children=[leaf("n.a", 0.5, 0.9), leaf("n.b", 0.5, 0.1)],
    )
    scored = aggregate(node, overrides={"n.b": 0.3})
    assert scored.score == pytest.approx(0.6, abs=1e-12)
    assert scored.children[1].overridden


def test_aggregate_rejects_bad_weight_sum():
    node = ScoreNode(
        id="n", kind=KIND_NOTION,
        children=[leaf("n.a", 0.5, 0.2), leaf("n.b", 0.6, 0.4)],
    )
    with pytest.raises(ScoreError, match="sum"):
        aggregate(node)


def test_full_precision_propagation_not_display_rounding():
    # 0.0075 and 0.0222 display as 0.01 and 0.02; their true mean 0.0149
    # displays as 0.01, not as the displayed-value mean 0.015.
    node = ScoreNode(
        id="hw", kind=KIND_NOTION,
        children=[leaf("hw.client", 0.5, 0.0075), leaf("hw.server", 0.5, 0.0222)],
    )
    scored = aggregate(node)
    assert scored.score == pytest.approx(0.01485, abs=1e-12)
    assert display_score(scored.score) == "0.01"
    assert display_score(scored.score) != display_score((0.01 + 0.02) / 2)


def test_aggregated_scores_stay_in_unit_interval():
    rng = random.Random(108)
    for _ in range(300):
        n_children = rng.randint(1, 6)
        weights = [rng.uniform(0.01, 1.0) for _ in range(n_children)]
        total = sum(weights)
        node = ScoreNode(
            id="n", kind=KIND_NOTION,
            children=[leaf(f"n.{i}", w / total, rng.random()) for i, w in enumerate(weights)],
        )
        assert 0.0 <= aggregate(node).score <= 1.0


# ── trust score ───────────────────────────────────────────────────────────


class TestTrustScore:
    def test_seven_pillar_reference(self):
        scores = [0.33, 0.55, 0.16, 0.90, 0.73, 0.79, 0.25]
        assert trust_score(scores, [1 / 7] * 7) == pytest.approx(0.53, abs=1e-9)

    def test_six_pillar_reference(self):
        scores = [0.33, 0.55, 0.16, 0.90, 0.73, 0.79]
        got = trust_score(scores, [1 / 6] * 6)
        assert got == pytest.approx(0.5766667, abs=1e-6)
        assert display_score(got) == "0.58"

    def test_seven_pillar_reference_b(self):
        scores = [0.30, 0.49, 0.59, 0.90, 0.73, 0.79, 0.79]
        assert trust_score(scores, [1 / 7] * 7) == pytest.approx(0.6557143, abs=1e-6)

    def test_rejects_length_mismatch_and_bad_weights(self):
        with pytest.raises(ScoreError):
            trust_score([0.5, 0.5], [1.0])
        with pytest.raises(ScoreError):
            trust_score([0.5, 0.5], [0.7, 0.5])
        with pytest.raises(ScoreError):
            trust_score([0.5, 1.5], [0.5, 0.5])
        with pytest.raises(ScoreError):
            trust_score([], [])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_weights_and_names_them(self, bad):
        with pytest.raises(ScoreError, match=rf"finite.*{bad!r}.*position 1"):
            trust_score([0.5, 0.5], [0.5, bad])
        with pytest.raises(ScoreError, match="finite"):
            trust_score([0.5], [bad])

    def test_ranking_invariant_under_weight_rescaling(self):
        rng = random.Random(109)
        for _ in range(300):
            k = rng.randint(2, 7)
            a = [rng.random() for _ in range(k)]
            b = [rng.random() for _ in range(k)]
            w = [rng.uniform(0.01, 1.0) for _ in range(k)]
            base = [x / sum(w) for x in w]
            c = rng.uniform(0.1, 10.0)
            scaled = [x * c for x in w]
            renorm = [x / sum(scaled) for x in scaled]
            da = trust_score(a, base) - trust_score(b, base)
            db = trust_score(a, renorm) - trust_score(b, renorm)
            if abs(da) > 1e-9:
                assert math.copysign(1, da) == math.copysign(1, db)


# ── weight configuration ──────────────────────────────────────────────────


def make_tree():
    return ScoreNode(
        id="sustainability", kind=KIND_PILLAR,
        children=[
            ScoreNode(id="sustainability.carbon_intensity", kind=KIND_NOTION, weight=0.5,
                      children=[leaf("sustainability.carbon_intensity.client", 0.5, 0.1),
                                leaf("sustainability.carbon_intensity.server", 0.5, 0.3)]),
            ScoreNode(id="sustainability.hardware_efficiency", kind=KIND_NOTION, weight=0.5,
                      children=[leaf("sustainability.hardware_efficiency.client", 0.5, 0.5),
                                leaf("sustainability.hardware_efficiency.server", 0.5, 0.7)]),
        ],
    )


def test_weight_config_roundtrip(tmp_path):
    path = tmp_path / "weights.json"
    path.write_text(json.dumps({
        "sustainability.carbon_intensity": 0.8,
        "sustainability.hardware_efficiency": 0.2,
    }))
    weights = load_weight_config(path)
    tree = apply_weights(make_tree(), weights)
    assert tree.children[0].weight == 0.8
    scored = aggregate(tree)
    assert scored.score == pytest.approx(0.8 * 0.2 + 0.2 * 0.6, abs=1e-12)


def test_weight_config_rejects_bad_sums_and_values(tmp_path):
    path = tmp_path / "weights.json"
    path.write_text(json.dumps({"sustainability.carbon_intensity": 0.9}))
    with pytest.raises(ScoreError, match="sum"):
        apply_weights(make_tree(), load_weight_config(path))
    path.write_text(json.dumps({"sustainability.carbon_intensity": -0.1}))
    with pytest.raises(ScoreError):
        load_weight_config(path)
    path.write_text("not json")
    with pytest.raises(ScoreError):
        load_weight_config(path)
