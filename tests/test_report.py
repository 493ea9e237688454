"""Tests for factsheet population, report rendering, and external pillars."""

import json
import math
import tracemalloc
from decimal import Decimal
from itertools import compress
from json.encoder import encode_basestring

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsust import report
from fedsust.config import parse_config
from fedsust.fedsim import ClientTable, SelectionCounts, run_federation
from fedsust.report import (
    build_trust_report,
    completeness,
    display_score,
    emissions_summary,
    external_pillars,
    load_pillar_fixture,
    populate_factsheet,
    render_report,
    resolve_pillar_value,
    write_atomic,
    write_report,
)
from fedsust.scoring import ScoreError, aggregate, trust_score
from fedsust.sustainability import (
    assess_carbon,
    assess_complexity,
    assess_hardware,
    build_sustainability_node,
)


def make_config(**kwargs):
    base = dict(
        name="rpt",
        num_clients=5,
        total_rounds=10,
        selection_rate=0.2,
        local_rounds=1,
        dataset_size=100,
        model_size=98000,
        client_hardware="Intel Core i7-1250U",
        client_locations="AL",
        server_hardware="Intel Core i7-1250U",
        server_location="AL",
        seed=42,
    )
    base.update(kwargs)
    return parse_config(base)


def scored_pillar(config, tables):
    fleet = tables.resolve(config)
    node = build_sustainability_node(assess_carbon(fleet), assess_hardware(fleet), assess_complexity(config))
    return aggregate(node, overrides=config.score_overrides)


# ── display rounding ──────────────────────────────────────────────────────


class TestDisplayScore:
    @pytest.mark.parametrize("value,shown", [
        (0.5298, "0.53"),
        (0.1109677, "0.11"),
        (0.0148669, "0.01"),
        (0.9372810, "0.94"),
        (1.0, "1.00"),
        (0.0, "0.00"),
        (0.888888888888889, "0.89"),
        (0.125, "0.12"),   # half-even: ties go to the even cent
        (0.135, "0.14"),
        (0.995, "1.00"),
    ])
    def test_half_even_two_decimals(self, value, shown):
        assert display_score(value) == shown

    def test_non_finite_rejected(self):
        with pytest.raises(ScoreError):
            display_score(float("nan"))


# ── external pillars ──────────────────────────────────────────────────────


class TestExternalPillars:
    def test_valid_six_pillar_set(self):
        scores = dict(privacy=0.55, robustness=0.33, fairness=0.16,
                      explainability=0.90, accountability=0.73, federation=0.79)
        assert external_pillars(scores) == scores

    def test_unknown_pillar_rejected(self):
        with pytest.raises(ScoreError, match="sustainability"):
            external_pillars({"sustainability": 0.5})
        with pytest.raises(ScoreError, match="karma"):
            external_pillars({"karma": 0.5})

    def test_out_of_range_rejected(self):
        with pytest.raises(ScoreError):
            external_pillars({"privacy": 1.2})
        with pytest.raises(ScoreError):
            external_pillars({"privacy": -0.1})

    def test_all_ones_give_trust_one(self):
        scores = external_pillars(dict(
            privacy=1.0, robustness=1.0, fairness=1.0,
            explainability=1.0, accountability=1.0, federation=1.0,
        ))
        values = list(scores.values()) + [1.0]
        assert trust_score(values, [1 / 7] * 7) == pytest.approx(1.0, abs=1e-12)

    def test_notion_form_keeps_full_precision(self):
        value = {"notions": {"a": 0.76, "b": 1.0, "c": 0.0}}
        assert resolve_pillar_value(value, "fairness") == pytest.approx(1.76 / 3, abs=1e-12)

    def test_notion_form_with_weights(self):
        value = {"notions": {"a": 1.0, "b": 0.5}, "weights": {"a": 0.75, "b": 0.25}}
        assert resolve_pillar_value(value, "privacy") == pytest.approx(0.875, abs=1e-12)

    def test_notion_weights_name_only_notions(self):
        value = {"notions": {"a": 0.5}, "weights": {"a": 1, "b": 0, "c": 0}}
        with pytest.raises(ScoreError, match=r"pillar 'privacy': weights name unknown notion\(s\): 'b', 'c'$"):
            resolve_pillar_value(value, "privacy")


class TestPillarFixtures:
    def test_bundled_proposal_fixtures_resolve(self, pillar_dir):
        a = load_pillar_fixture(pillar_dir / "proposal_a_pillars.json")
        b = load_pillar_fixture(pillar_dir / "proposal_b_pillars.json")
        assert a["fairness"] == pytest.approx(0.47 / 3, abs=1e-12)
        assert b["fairness"] == pytest.approx(1.76 / 3, abs=1e-12)
        assert a["federation"] == b["federation"] == pytest.approx(0.785, abs=1e-12)

    def test_six_external_pillars_alone_score_b_063(self, pillar_dir):
        b = load_pillar_fixture(pillar_dir / "proposal_b_pillars.json")
        ids = sorted(b)
        trust = trust_score([b[p] for p in ids], [1 / 6] * 6)
        assert display_score(trust) == "0.63"

    def test_malformed_fixture_rejected(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"nope": {}}))
        with pytest.raises(ScoreError, match="pillars"):
            load_pillar_fixture(path)


# ── factsheet ─────────────────────────────────────────────────────────────


class TestFactSheet:
    def test_full_run_is_complete(self, tables):
        config = make_config()
        state = run_federation(config, tables)
        sheet = populate_factsheet(config, state)
        assert sheet["completeness"] == {"fraction": 1.0, "absent": []}
        assert sheet["pre_training"]["num_clients"] == 5
        assert sheet["pre_training"]["total_rounds"] == 10
        assert sheet["pre_training"]["selection_rate"] == 0.2

    def test_completeness_monotone_in_populated_fields(self, tables):
        config = make_config()
        state = run_federation(config, tables)
        sheet = populate_factsheet(config, state)
        base_fraction = completeness(sheet)["fraction"]
        del sheet["during_training"]["class_distribution"]
        reduced = completeness(sheet)
        assert reduced["fraction"] < base_fraction
        assert "during_training.class_distribution" in reduced["absent"]

    def test_completeness_reads_the_client_blocks_by_length(self, tables, monkeypatch):
        def compared(self, other):
            raise AssertionError("a client block was compared entry by entry")

        monkeypatch.setattr(SelectionCounts, "__eq__", compared)
        monkeypatch.setattr(ClientTable, "__eq__", compared)
        config = make_config()
        state = run_federation(config, tables)
        sheet = populate_factsheet(config, state)
        assert sheet["completeness"] == {"fraction": 1.0, "absent": []}
        clients = state.clients
        empty = ClientTable([], [], [], clients.class_counts[:0], clients.labels, clients.rounds,
                            clients.dataset_size, clients.train_s)
        sheet["during_training"]["selection_counts"] = SelectionCounts(empty)
        sheet["post_training"]["client_statistics"] = empty
        assert completeness(sheet)["absent"] == [
            "during_training.selection_counts", "post_training.client_statistics",
        ]
        assert render_report(sheet["post_training"]) == canonical_json({"client_statistics": {}})

    def test_passthrough_statistics_are_echoed(self, tables):
        config = make_config(statistics={"client_test_accuracy": 0.91, "clever_score": 0.4})
        state = run_federation(config, tables)
        sheet = populate_factsheet(config, state)
        assert sheet["post_training"]["evaluation"]["clever_score"] == 0.4


# ── trust report ──────────────────────────────────────────────────────────


EXTERNALS = dict(privacy=0.55, robustness=0.33, fairness=0.16,
                 explainability=0.90, accountability=0.73, federation=0.79)


class TestTrustReport:
    def test_render_is_byte_stable(self, tables):
        config = make_config()
        report = build_trust_report(config, scored_pillar(config, tables), EXTERNALS)
        assert render_report(report) == render_report(report)
        config2 = make_config()
        report2 = build_trust_report(config2, scored_pillar(config2, tables), EXTERNALS)
        assert render_report(report) == render_report(report2)

    def test_roundtrip_preserves_all_fields(self, tables):
        config = make_config()
        report = build_trust_report(config, scored_pillar(config, tables), EXTERNALS)
        assert json.loads(render_report(report).decode()) == report

    def test_root_score_reaggregates_from_report_numbers(self, tables):
        config = make_config()
        report = build_trust_report(config, scored_pillar(config, tables), EXTERNALS)
        weights = report["trust"]["pillar_weights"]
        ids = sorted(weights)
        recomputed = trust_score(
            [report["pillars"][p]["score_raw"] for p in ids], [weights[p] for p in ids]
        )
        assert abs(recomputed - report["trust"]["score_raw"]) <= 1e-9

    def test_trust_absent_without_externals(self, tables):
        config = make_config()
        report = build_trust_report(config, scored_pillar(config, tables))
        assert report["trust"] is None
        assert set(report["pillars"]) == {"sustainability"}

    def test_metric_entries_carry_raw_and_display(self, tables):
        config = make_config()
        report = build_trust_report(config, scored_pillar(config, tables), EXTERNALS)
        metric = report["metrics"]["sustainability.carbon_intensity.client"]
        assert metric["raw"] == 20.0
        assert metric["score"] == "1.00"
        assert metric["score_raw"] == 1.0
        assert metric["overridden"] is False

    def test_override_flagged_with_computed_value_kept(self, tables):
        config = make_config(score_overrides={"sustainability.federation_complexity": 0.96})
        report = build_trust_report(config, scored_pillar(config, tables), EXTERNALS)
        cx = report["notions"]["sustainability.federation_complexity"]
        assert cx["overridden"] is True
        assert cx["score_raw"] == 0.96

    def test_no_raw_client_identifiers_in_outputs(self, tables):
        config = make_config(
            num_clients=7, client_locations=["CH", "CH", "CH", "ZA", "ZA", "ZA", "ZA"],
        )
        state = run_federation(config, tables)
        sheet = populate_factsheet(config, state)
        report = build_trust_report(config, scored_pillar(config, tables), EXTERNALS)
        report["emissions"] = emissions_summary(state)
        blobs = [
            render_report(report),
            render_report(sheet),
            state.emissions.to_csv_bytes(),
        ]
        for blob in blobs:
            text = blob.decode("utf-8")
            for c in range(config.num_clients):
                assert f"client:{c}" not in text
            assert "class_0" not in text  # labels only as salted hashes
        # hashed ids are stable within a run and keyed by the seed
        counts = json.loads(render_report(sheet))["during_training"]["selection_counts"]
        assert len(counts) == 7
        assert all(len(k) == 16 for k in counts)

    def test_write_atomic_replaces_not_appends(self, tmp_path):
        target = tmp_path / "x" / "report.json"
        write_atomic(target, b"one\n")
        write_atomic(target, b"two\n")
        assert target.read_bytes() == b"two\n"
        assert [p.name for p in target.parent.iterdir()] == ["report.json"]


# ── canonical writer ──────────────────────────────────────────────────────


def canonical_json(value) -> bytes:
    text = json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False)
    return (text + "\n").encode("utf-8")


def plain(value):
    """``value`` with each per-client block as the plain dict it stands for."""
    if type(value) is dict:
        return {key: plain(item) for key, item in value.items()}
    if type(value) is SelectionCounts:
        return {value.table.node_ids[c]: count for c, count in zip(value.table.node_order, value.table.counts)}
    if type(value) is ClientTable:
        entries = {}
        rows = value.class_counts.tolist()
        for c, count in zip(value.node_order, value.counts):
            node_id, row = value.node_ids[c], rows[c]
            seconds = 0.0
            for _ in range(count):
                seconds += value.train_s
            entries[node_id] = {
                "participation_rate": count / value.rounds,
                "avg_training_time_s": seconds / count if count else 0.0,
                "dataset_size": value.dataset_size,
                "class_balance": {label: v for label, v in zip(value.labels, row) if v},
            }
        return entries
    return value


@st.composite
def small_fleets(draw):
    """Fleets of up to 40 clients where most rows hold zero counts and some
    clients are never drawn."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, max(1, n // 3)))
    classes = draw(st.integers(1, 12))
    return make_config(
        num_clients=n, sample_size=m, selection_rate=m / n, total_rounds=draw(st.integers(1, 6)),
        num_label_classes=classes, dataset_size=draw(st.integers(1, classes + 2)),
        local_rounds=draw(st.integers(1, 3)), model_size=draw(st.integers(1, 10**7)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


# quotes, backslashes, control characters and non-ASCII text, never a lone surrogate
_TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x85\u2028é€😀ab')
                | st.characters(codec="utf-8"), max_size=8)
_SCALARS = (
    _TEXT
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e-7, 1.7976931348623157e308, 0.1])
    | st.booleans()
    | st.none()
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=12,
)


def _nested(leaf):
    """``leaf`` at one drawn position inside nested lists and dicts of valid values."""
    return st.recursive(leaf, lambda inner: (
        st.tuples(st.lists(_VALUES, max_size=2), inner, st.lists(_VALUES, max_size=2))
        .map(lambda t: [*t[0], t[1], *t[2]])
        | st.tuples(st.dictionaries(_TEXT, _VALUES, max_size=2), _TEXT, inner)
        .map(lambda t: {**t[0], t[1]: t[2]})
    ), max_leaves=6)


def reference_block(value, newline: str) -> str:
    """A per-client block as the per-entry writer wrote it before the column render: one
    entry string per client in node-id order, around a class balance filled from a ``%``
    template of its non-zero cells."""
    table = value.table if type(value) is SelectionCounts else value
    if not len(table):
        return "{}"
    inner = newline + "  "
    quoted = [encode_basestring(node_id) for node_id in table.node_ids]
    if table is not value:
        return "{" + "".join(f",{inner}{quoted[c]}: {count!r}"
                             for c, count in zip(table.node_order, table.counts))[1:] + newline + "}"
    field, label = inner + "  ", inner + "    "
    heads, tails = {}, {}
    seconds, summed = 0.0, 0
    for count in sorted(set(table.counts)):
        while summed < count:
            seconds += table.train_s
            summed += 1
        heads[count] = (f': {{{field}"avg_training_time_s": {seconds / count if count else 0.0!r},'
                        f'{field}"class_balance": {{{label}')
        tails[count] = (f'{field}}},{field}"dataset_size": {table.dataset_size!r},'
                        f'{field}"participation_rate": {count / table.rounds!r}{inner}}}')
    by_label = sorted(range(len(table.labels)), key=table.labels.__getitem__)
    cells = [encode_basestring(table.labels[j]).replace("%", "%%") + ": %d" for j in by_label]
    between = "," + label
    rows = table.class_counts[:, by_label].tolist()
    entries = []
    for c, count in zip(table.node_order, table.counts):
        row = rows[c]
        balance = between.join(compress(cells, row)) % tuple(filter(None, row))
        entries.append(f",{inner}{quoted[c]}{heads[count]}{balance}{tails[count]}")
    return "{" + "".join(entries)[1:] + newline + "}"


# labels with template, quoting and non-ASCII characters, never a lone surrogate
_LABEL = st.text(st.sampled_from('%"\\ é€😀a') | st.characters(codec="utf-8"), min_size=1, max_size=5)


def seeded_table(seed, n, k, size, rounds, single=0.0, labels=None, train_s=0.1):
    """A client table of ``n`` clients whose ``size`` samples split over ``k`` classes at
    ``k - 1`` cut points, or, for about a ``single`` share of them, all in one class."""
    rng = np.random.default_rng(seed)
    rows = np.diff(np.sort(rng.integers(0, size + 1, (n, k - 1)), axis=1), prepend=0, append=size)
    one = rng.random(n) < single
    rows[one] = 0
    rows[one, rng.integers(0, k, one.sum())] = size
    node_ids = [f"{v:016x}" for v in rng.choice(2**63 - 1, n, replace=False).tolist()]
    return ClientTable(node_ids, sorted(range(n), key=node_ids.__getitem__),
                       rng.integers(0, rounds + 1, n).tolist(), rows,
                       labels or [f"label {j} é" for j in range(k)], rounds, size, train_s)


@st.composite
def client_tables(draw):
    """Client tables of up to 60 clients and 12 classes whose rows of at most 30 samples
    hold zeros, some with a single non-zero cell, and a ``train_s`` whose repeated sum
    divided by the count is not ``train_s``. The columns come from a drawn numpy seed."""
    n, k, size = draw(st.integers(1, 60)), draw(st.integers(1, 12)), draw(st.integers(1, 30))
    rounds = draw(st.integers(1, 40))
    return seeded_table(draw(st.integers(0, 2**32 - 1)), n, k, size, rounds,
                        single=draw(st.sampled_from([0.0, 0.3, 1.0])),
                        labels=draw(st.lists(_LABEL, min_size=k, max_size=k, unique=True)),
                        train_s=draw(st.sampled_from([0.1, 0.7, 1 / 3, 2.3e-5, 123.456])))


def check_block(value):
    """``value``'s block at the top level and nested equals the per-entry writer's."""
    assert render_report(value) == (reference_block(value, "\n") + "\n").encode("utf-8")
    nested = '{\n  "x": {\n    "y": ' + reference_block(value, "\n    ") + "\n  }\n}\n"
    assert render_report({"x": {"y": value}}) == nested.encode("utf-8")
    assert json.loads(render_report(value)) == plain(value)


def check_client_blocks(table):
    for value in (table, SelectionCounts(table)):
        check_block(value)


def block_rows(kind, k):
    """The rows of one of ``kind``'s row blocks, with ``k`` classes."""
    return report._BLOCK_CELLS // (2 * k + 4 if kind is ClientTable else 3)


class TestCanonicalWriter:
    @settings(derandomize=True, deadline=None, database=None, max_examples=120)
    @given(value=_VALUES)
    def test_bytes_equal_json_dumps(self, value):
        assert render_report(value) == canonical_json(value)

    @settings(derandomize=True, deadline=None, database=None, max_examples=30)
    @given(value=_nested(st.sampled_from([math.nan, math.inf, -math.inf])))
    def test_non_finite_float_anywhere_raises_value_error(self, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            render_report(value)

    @settings(derandomize=True, deadline=None, database=None, max_examples=30)
    @given(value=_nested(st.sampled_from([object(), b"bytes", {1, 2}, 1j, Decimal("0.5"), {1: "int key"},
                                          {None: 0}, range(2)])))
    def test_unsupported_type_or_key_raises_type_error(self, value):
        with pytest.raises(TypeError):
            render_report(value)

    def test_bundled_reports_match_json_dumps(self, tables):
        config = make_config(num_clients=7, client_locations=["CH", "CH", "ZA", "ZA", "ZA", "AL", "AL"],
                             statistics={"note": "é \"quoted\"\n", "nested": {"xs": [1, 2.5, None]}})
        state = run_federation(config, tables)
        sheet = populate_factsheet(config, state)
        report = build_trust_report(config, scored_pillar(config, tables), EXTERNALS)
        report["emissions"] = emissions_summary(state)
        for value in (sheet, report):
            assert render_report(value) == canonical_json(plain(value))

    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(config=small_fleets())
    def test_client_blocks_match_json_dumps(self, tables, config):
        sheet = populate_factsheet(config, run_federation(config, tables))
        assert render_report(sheet) == canonical_json(plain(sheet))

    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(table=client_tables())
    def test_client_blocks_match_the_per_entry_writer(self, table):
        check_client_blocks(table)

    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_one_client_blocks(self, n):
        table = ClientTable(["00ff00ff00ff00ff"][:n], list(range(n)), [3][:n],
                            np.array([[0, 4, 0]][:n], dtype=np.int64).reshape(n, 3),
                            ['"%d"', "a b", "é"], 7, 4, 0.1)
        check_client_blocks(table)
        if not n:
            assert render_report(table) == render_report(SelectionCounts(table)) == b"{}\n"


class TestRowBlocks:
    """A per-client block is written in row blocks of at most ``report._BLOCK_CELLS`` cells."""

    @pytest.mark.parametrize("kind", [ClientTable, SelectionCounts], ids=["clients", "counts"])
    @pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)])
    def test_row_block_seams(self, kind, blocks, extra):
        k = 5
        table = seeded_table(blocks + extra, blocks * block_rows(kind, k) + extra, k, 40, 9, single=0.2)
        check_block(table if kind is ClientTable else SelectionCounts(table))

    @pytest.mark.parametrize("long_first", [True, False])
    def test_first_row_block_unlike_the_rest(self, long_first):
        # the rows after the first row block are much shorter or much longer than its own
        k = 8
        n = 3 * block_rows(ClientTable, k)
        long = np.arange(n) < n // 3 if long_first else np.arange(n) >= n // 3
        rows = np.zeros((n, k), dtype=np.int64)
        rows[long] = 10**6
        rows[~long, 0] = 8 * 10**6
        node_ids = [f"{c:016x}" for c in range(n)]
        table = ClientTable(node_ids, list(range(n)), [c % 7 for c in range(n)], rows,
                            [f"c{j}" for j in range(k)], 6, 8 * 10**6, 0.5)
        check_client_blocks(table)

    @pytest.mark.parametrize("kind", [ClientTable, SelectionCounts], ids=["clients", "counts"])
    def test_counts_wider_than_the_table_are_sorted(self, kind):
        # dataset_size 10**9 puts the class counts beyond a presence table over the array,
        # and 1000 rounds over four clients the selection counts
        table = seeded_table(5, 4, 3, 10**9, 1000, single=0.25)
        assert report._BLOCK_CELLS > table.class_counts.size
        assert table.class_counts.max() >= table.class_counts.size and max(table.counts) >= len(table)
        check_block(table if kind is ClientTable else SelectionCounts(table))

    @pytest.mark.parametrize("n", [1, 2, 60])
    def test_zero_counts_but_one(self, n):
        # every row holds one non-zero class count, and only one client was ever drawn
        table = seeded_table(n, n, 6, 12, 3, single=1.0)
        counts = [0] * n
        counts[n // 2] = 3
        check_client_blocks(ClientTable(table.node_ids, table.node_order, counts, table.class_counts,
                                        table.labels, 3, 12, 0.1))

    def test_table_from_a_list_renders_as_the_simulators(self, tables):
        # a table built from a list of ids joins them into the simulator's text of ids
        n = 3 * block_rows(ClientTable, 10) + 5
        config = make_config(num_clients=n, sample_size=40, selection_rate=40 / n, total_rounds=30,
                             num_label_classes=10, seed=11)
        clients = run_federation(config, tables).clients
        listed = ClientTable(list(clients.node_ids), clients.node_order.tolist(), clients.counts,
                             clients.class_counts, clients.labels, clients.rounds, clients.dataset_size,
                             clients.train_s)
        assert listed.node_ids.text == clients.node_ids.text and list(listed.node_ids) == list(clients.node_ids)
        for kind in (lambda table: table, SelectionCounts):
            assert render_report({"block": kind(listed)}) == render_report({"block": kind(clients)})
            check_block(kind(listed))

    def test_factsheet_held_once(self, tables):
        # the factsheet is held once, as its bytes: no joined text beside them, and no
        # index arrays over the whole table beside the buffer
        config = make_config(num_clients=20_000, sample_size=10, selection_rate=10 / 20_000,
                             total_rounds=50, num_label_classes=10, dataset_size=500, seed=3)
        sheet = populate_factsheet(config, run_federation(config, tables))
        render_report(sheet)
        tracemalloc.start()
        try:
            data = render_report(sheet)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(data) > 10**7
        assert peak <= 1.5 * len(data)

    def test_factsheet_streamed_to_its_file(self, tables, tmp_path):
        # write_report never holds the document: each row block goes to the temp file
        config = make_config(num_clients=20_000, sample_size=10, selection_rate=10 / 20_000,
                             total_rounds=50, num_label_classes=10, dataset_size=500, seed=3)
        sheet = populate_factsheet(config, run_federation(config, tables))
        target = tmp_path / "factsheet.json"
        write_report(target, sheet)
        tracemalloc.start()
        try:
            write_report(target, sheet)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        data = target.read_bytes()
        assert len(data) > 10**7
        assert peak <= 0.5 * len(data)
        assert data == render_report(sheet)

    @pytest.mark.parametrize("after, error", [(math.nan, ValueError), ({1: "int key"}, TypeError)],
                             ids=["non-finite", "int-key"])
    def test_failure_partway_keeps_the_earlier_file(self, tmp_path, after, error):
        # the error comes after a per-client block of several row blocks has been written
        table = seeded_table(7, 3 * block_rows(ClientTable, 4), 4, 40, 9)
        document = {"clients": table, "later": after}
        with pytest.raises(error) as rendered:
            render_report(document)
        target = tmp_path / "factsheet.json"
        target.write_bytes(b"earlier\n")
        with pytest.raises(error) as written:
            write_report(target, document)
        assert str(written.value) == str(rendered.value)
        assert target.read_bytes() == b"earlier\n"
        assert [p.name for p in tmp_path.iterdir()] == ["factsheet.json"]
