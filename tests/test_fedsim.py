"""Tests for the deterministic federation simulator.

``reference_sample`` below is a from-scratch reimplementation of the
documented selection stream (SHA-256 counter keystream + partial
Fisher-Yates); the simulator's sampler must agree with it draw for draw.
``reference_class_counts`` likewise reimplements the documented label stream
(Philox4x64-10 from its published rounds, largest-remainder rounding) in
plain Python integers and floats.
"""

import copy
import gc
import hashlib
import logging
import math
import random
import time
import tracemalloc
from collections import Counter
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsust import fedsim
from fedsust.config import ConfigError, parse_config
from fedsust.emissions import NodeIds
from fedsust.fedsim import (
    ClientTable,
    SelectionStream,
    SimulationError,
    aggregate_model,
    _label_bit_generator,
    _largest_remainder,
    client_class_counts,
    fleet_class_counts,
    hash_client_id,
    hash_client_ids,
    hash_label,
    price_fleet,
    run_federation,
    run_salt,
    sample_clients,
)
from fedsust.refdata import HardwareTable, LocationResolver, UnknownHardwareError


def reference_sample(seed: int, round_index: int, population: int, draw: int) -> tuple:
    """Independent oracle for the documented client-selection algorithm."""
    words = []
    counter = 0

    def next_word():
        nonlocal words, counter
        if not words:
            digest = hashlib.sha256(
                b"fedsust-sample"
                + seed.to_bytes(8, "big")
                + round_index.to_bytes(8, "big")
                + counter.to_bytes(8, "big")
            ).digest()
            counter += 1
            words = [
                int.from_bytes(digest[0:8], "big"),
                int.from_bytes(digest[8:16], "big"),
                int.from_bytes(digest[16:24], "big"),
                int.from_bytes(digest[24:32], "big"),
            ]
        return words.pop(0)

    arrangement = list(range(population))
    for position in range(draw):
        offset = next_word() % (population - position)
        target = position + offset
        arrangement[position], arrangement[target] = arrangement[target], arrangement[position]
    return tuple(sorted(arrangement[:draw]))


def reference_words(seed: int, round_index: int, count: int) -> list[int]:
    """The first ``count`` words of the documented selection stream."""
    words = []
    for k in range(count // 4 + 1):
        digest = hashlib.sha256(b"fedsust-sample" + seed.to_bytes(8, "big")
                                + round_index.to_bytes(8, "big") + k.to_bytes(8, "big")).digest()
        words += [int.from_bytes(digest[i:i + 8], "big") for i in range(0, 32, 8)]
    return words[:count]


_U64 = 2**64 - 1


def _philox4x64_10(counter: list[int], key: list[int]) -> list[int]:
    """One Philox4x64-10 block (Salmon et al., SC'11), four 64-bit words."""
    x, (k0, k1) = list(counter), key
    for _ in range(10):
        p0 = 0xD2E7470EE14C6C93 * x[0]
        p1 = 0xCA5A826395121157 * x[2]
        x = [(p1 >> 64) ^ x[1] ^ k0, p1 & _U64, (p0 >> 64) ^ x[3] ^ k1, p0 & _U64]
        k0 = (k0 + 0x9E3779B97F4A7C15) & _U64
        k1 = (k1 + 0xBB67AE8584CAA73B) & _U64
    return x


def label_key(seed: int) -> list[int]:
    digest = hashlib.sha256(b"fedsust-labels" + seed.to_bytes(8, "big")).digest()
    return [int.from_bytes(digest[0:8], "big"), int.from_bytes(digest[8:16], "big")]


def reference_class_counts(seed: int, client: int, dataset_size: int, classes: int) -> dict:
    """Independent oracle for the documented label stream and rounding."""
    key = label_key(seed)
    first = client * classes
    props = []
    for position in range(first, first + classes):
        word = _philox4x64_10([position // 4 + 1, 0, 0, 0], key)[position % 4]
        props.append((word >> 11) * 2.0**-53)
    counts = reference_round(props, dataset_size)
    return {f"class_{j}": n for j, n in enumerate(counts) if n}


def reference_round(props: list[float], dataset_size: int) -> list[int]:
    """The documented largest-remainder rounding of one row of proportions."""
    total = 0.0
    for p in props:
        total += p
    raw = [(p / total) * dataset_size for p in props]
    counts = [math.floor(r) for r in raw]
    order = sorted(range(len(props)), key=lambda j: (-(raw[j] - counts[j]), j))
    for j in order[: dataset_size - sum(counts)]:
        counts[j] += 1
    return counts


def make_config(**kwargs):
    base = dict(
        name="sim",
        num_clients=5,
        total_rounds=10,
        sample_size=1,
        local_rounds=1,
        dataset_size=100,
        model_size=1000,
        client_hardware="Intel Core i7-1250U",
        client_locations="AL",
        server_hardware="Intel Core i7-1250U",
        server_location="AL",
        seed=42,
    )
    base.update(kwargs)
    return parse_config(base)


# ── client sampling ───────────────────────────────────────────────────────


class TestSampleClients:
    def test_full_population_draw_is_everyone(self):
        got = sample_clients(7, 7, SelectionStream(1, 1))
        assert got == tuple(range(7))

    def test_identical_stream_state_gives_identical_subsets(self):
        a = sample_clients(50, 10, SelectionStream(9, 3))
        b = sample_clients(50, 10, SelectionStream(9, 3))
        assert a == b

    def test_oversized_draw_rejected(self):
        with pytest.raises(SimulationError):
            sample_clients(5, 6, SelectionStream(1, 1))
        with pytest.raises(SimulationError):
            sample_clients(5, 0, SelectionStream(1, 1))

    def test_subsets_are_sorted_unique_and_in_range(self):
        for t in range(200):
            got = sample_clients(23, 7, SelectionStream(5, t))
            assert len(set(got)) == 7
            assert list(got) == sorted(got)
            assert all(0 <= c < 23 for c in got)

    def test_matches_independent_reference_sampler(self):
        for seed, n, m in ((42, 5, 2), (7, 23, 7), (2**63, 100, 1), (0, 4, 4), (3, 1, 1), (9, 7, 7),
                           (1, 1000, 1000)):
            for t in range(250):
                assert sample_clients(n, m, SelectionStream(seed, t)) == \
                    reference_sample(seed, t, n, m)

    @pytest.mark.parametrize("count", (1, 4, 5, 200))
    def test_batched_words_equal_successive_single_words(self, count):
        # after three words the batch starts one word before a block boundary
        single, batched = SelectionStream(11, 4), SelectionStream(11, 4)
        words = [single.next_u64() for _ in range(3 + count + 2)]
        assert words == reference_words(11, 4, 3 + count + 2)
        assert batched.take(3) + batched.take(count) + batched.take(2) == words

    def test_matches_list_reference_on_random_cases(self):
        rng = random.Random(17)
        for _ in range(300):
            n = rng.choice((1, 2, 3, 10, 257, rng.randint(1, 5000)))
            m = rng.randint(1, n)
            seed, t = rng.getrandbits(64), rng.getrandbits(20)
            assert sample_clients(n, m, SelectionStream(seed, t)) == reference_sample(seed, t, n, m)

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(n=st.integers(1, 5000), kind=st.sampled_from(("one", "all but one", "any")),
           share=st.floats(0, 1), rounds=st.integers(1, 60), seed=st.integers(0, 2**64 - 1),
           cap=st.sampled_from((1, 8, 100, 1 << 16)), vector=st.sampled_from((1, 8, 10**9)))
    def test_batched_rounds_match_the_reference_sampler(self, n, kind, share, rounds, seed, cap, vector):
        # a small word cap splits the run into many batches, down to one round each; the
        # vector threshold sends every batch, batches of 8 rounds or more, or none to numpy steps
        m = {"one": 1, "all but one": n - 1, "any": round(share * (n - 1))}[kind]
        if not 1 <= m < n:
            return
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fedsim, "_BATCH_WORDS", cap)
            patch.setattr(fedsim, "_VECTOR_ROUNDS", vector)
            got = {t: tuple(row) for batch, drawn in fedsim._batches(seed, rounds, n, m)
                   for t, row in zip(batch, drawn.tolist())}
        assert got == {t: reference_sample(seed, t, n, m) for t in range(1, rounds + 1)}

    def test_single_draw_frequencies_are_uniform(self):
        # 1e5 draws of 1 from 8: each client expected at 12500 +- 3 sigma
        n, draws = 8, 100_000
        counts = [0] * n
        for t in range(draws):
            (c,) = sample_clients(n, 1, SelectionStream(99, t))
            counts[c] += 1
        p = 1 / n
        sigma = math.sqrt(draws * p * (1 - p))
        for c in range(n):
            assert abs(counts[c] - draws * p) <= 3 * sigma, counts


# ── model aggregation ─────────────────────────────────────────────────────


class TestAggregateModel:
    def test_pairwise_mean(self):
        got = aggregate_model([np.array([1.0, 1.0]), np.array([3.0, 3.0])])
        assert np.array_equal(got, np.array([2.0, 2.0]))

    def test_single_update_is_identity(self):
        update = np.array([0.5, -1.5, 2.0])
        assert np.array_equal(aggregate_model([update]), update)

    def test_matches_bruteforce_mean_on_random_instances(self):
        rng = random.Random(21)
        for _ in range(100):
            k = rng.randint(1, 9)
            length = rng.randint(1, 40)
            vectors = [
                np.array([rng.uniform(-100, 100) for _ in range(length)])
                for _ in range(k)
            ]
            got = aggregate_model(vectors)
            for idx in range(length):
                expected = sum(float(v[idx]) for v in vectors) / k
                assert got[idx] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            aggregate_model([np.zeros(3), np.zeros(4)])
        with pytest.raises(SimulationError):
            aggregate_model([])


# ── class distributions ───────────────────────────────────────────────────


class TestClassDistribution:
    def test_thousand_synthetic_clients_conserve_totals(self, tables):
        for c in range(1000):
            assert sum(client_class_counts(3, c, dataset_size=57, num_classes=10).values()) == 57
        config = make_config(num_clients=1000, sample_size=10, total_rounds=2, dataset_size=57,
                             num_label_classes=10, seed=3)
        state = run_federation(config, tables)
        assert sum(state.class_distribution.values()) == 1000 * 57
        assert len(state.class_distribution) == 10

    def test_no_raw_labels_in_map(self, tables):
        state = run_federation(make_config(num_label_classes=4, seed=4), tables)
        assert state.class_distribution
        assert not any(key.startswith("class_") for key in state.class_distribution)
        salt = run_salt(4)
        assert set(state.class_distribution) <= {hash_label(salt, f"class_{j}") for j in range(4)}


# ── label stream ──────────────────────────────────────────────────────────


class TestLabelStream:
    @pytest.mark.parametrize("classes", [1, 3, 10, 37])
    def test_batch_rows_equal_single_client_draws(self, classes):
        rng = random.Random(classes)
        for _ in range(20):
            seed = rng.getrandbits(64)
            dataset_size = rng.choice((1, 2, 3, classes + 1, rng.randint(1, 4 * classes)))
            batch = fleet_class_counts(seed, 40, dataset_size, classes)
            assert batch.shape == (40, classes) and batch.dtype == np.int64
            for c in rng.sample(range(40), 6):
                assert client_class_counts(seed, c, dataset_size, classes) == {
                    f"class_{j}": int(v) for j, v in enumerate(batch[c]) if v
                }

    @pytest.mark.parametrize("classes", [1, 3, 10, 37])
    def test_every_row_sums_to_dataset_size(self, classes):
        for dataset_size in (1, 2, classes, classes + 1, 57, 10_007):
            batch = fleet_class_counts(5, 300, dataset_size, classes)
            assert (batch >= 0).all()
            assert (batch.sum(axis=1) == dataset_size).all()

    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_row_blocks_equal_the_one_shot_draw(self, monkeypatch, rows):
        n, classes = 53, 10
        monkeypatch.setattr(fedsim, "_LABEL_BLOCK_CELLS", (rows or n) * classes)
        for seed, dataset_size in ((0, 1), (3, 57), (2**64 - 1, 10_007)):
            one_shot = _largest_remainder(
                np.random.Generator(_label_bit_generator(seed)).random((n, classes)), dataset_size)
            assert np.array_equal(fleet_class_counts(seed, n, dataset_size, classes), one_shot)

    def test_matches_independent_reference(self):
        rng = random.Random(8)
        for _ in range(25):
            seed, classes = rng.getrandbits(64), rng.choice((1, 3, 10, 37))
            dataset_size = rng.randint(1, 3 * classes)
            client = rng.choice((0, 1, 2, 3, rng.randint(0, 10**6)))
            assert client_class_counts(seed, client, dataset_size, classes) == \
                reference_class_counts(seed, client, dataset_size, classes)

    @pytest.mark.parametrize("classes", [3, 10, 37])
    def test_tied_and_inexact_rows_follow_the_documented_rounding(self, classes):
        # repeated proportions tie their remainders, which must stay in class order; decimal
        # fractions are inexact in binary, so the left-to-right total decides some floors
        rng = random.Random(classes)
        for _ in range(100):
            rows = [[rng.choice((0.1, 0.2, 0.3, 0.7)) for _ in range(classes)] for _ in range(3)]
            dataset_size = rng.randint(1, 1000)
            assert _largest_remainder(np.array(rows), dataset_size).tolist() == \
                [reference_round(row, dataset_size) for row in rows]

    def test_key_is_the_exact_digest_words(self):
        # with one key word >= 2**63 and one below, a Python list of the two becomes a
        # float64 array, and a key once built from such a list lost its low bits
        seed = next(s for s in range(100) if sum(w >= 2**63 for w in label_key(s)) == 1)
        key = _label_bit_generator(seed).state["state"]["key"]
        assert [int(w) for w in key] == label_key(seed)
        assert client_class_counts(seed, 3, 50, 10) == reference_class_counts(seed, 3, 50, 10)

    def test_each_class_label_hashed_once_per_run(self, tables, monkeypatch):
        hashed = []
        original = fedsim.hash_label
        monkeypatch.setattr(fedsim, "hash_label", lambda salt, label: hashed.append(label) or original(salt, label))
        config = make_config(num_clients=1000, sample_size=10, total_rounds=2, dataset_size=57,
                             num_label_classes=10, seed=3)
        run_federation(config, tables)
        assert sorted(hashed) == sorted(f"class_{j}" for j in range(10))

    def test_label_hash_collision_is_logged(self, tables, monkeypatch, caplog):
        monkeypatch.setattr(fedsim, "hash_label", lambda salt, label: "0" * 16)
        with caplog.at_level(logging.WARNING, logger="fedsust.fedsim"):
            run_federation(make_config(num_label_classes=3), tables)
        assert "label hash collision" in caplog.text

    @pytest.mark.parametrize("n", [0, 1, 5, 1000])
    def test_fleet_hash_matches_each_client_hash(self, n):
        salt = run_salt(2**64 - 1)
        digests = hash_client_ids(salt, n)
        assert type(digests) is bytes and len(digests) == 8 * n
        assert [digests[8 * c:8 * c + 8].hex() for c in range(n)] == [hash_client_id(salt, c) for c in range(n)]

    def test_run_hashes_the_column_totals(self, tables):
        config = make_config(num_clients=30, dataset_size=7, num_label_classes=12)
        state = run_federation(config, tables)
        salt = run_salt(config.seed)
        batch = fleet_class_counts(config.seed, 30, 7, 12)
        assert state.class_distribution == {
            hash_label(salt, f"class_{j}"): int(t) for j, t in enumerate(batch.sum(axis=0)) if t
        }
        clients = state.clients
        for c in range(30):
            assert clients.node_ids[c] == hash_client_id(salt, c)
            assert {clients.labels[j]: int(v) for j, v in enumerate(clients.class_counts[c]) if v} == {
                hash_label(salt, f"class_{j}"): int(v) for j, v in enumerate(batch[c]) if v
            }


class TestNodeIds:
    """A run's node ids are one sorted text; ``clients.node_ids`` reads it by client index."""

    def test_view_reads_as_the_list_of_client_ids(self, tables):
        n = 37
        config = make_config(num_clients=n, sample_size=5, total_rounds=4, num_label_classes=6, seed=2**63 + 1)
        state = run_federation(config, tables)
        salt = run_salt(config.seed)
        expected = [hash_client_id(salt, c) for c in range(n)]
        clients = state.clients
        ids = clients.node_ids
        assert isinstance(ids, Sequence) and len(ids) == len(clients) == n
        assert list(ids) == [*iter(ids)] == expected
        assert [ids[c] for c in range(-n, 0)] == expected
        assert ids[np.int64(3)] == expected[3] and ids.index(expected[30]) == 30
        for part in (slice(0, 2), slice(None), slice(-3, None), slice(None, None, -4), slice(30, 2), slice(5, 10**9)):
            assert ids[part] == expected[part]
        for index in (n, -n - 1, 10**9):
            with pytest.raises(IndexError):
                ids[index]
        assert expected[12] in ids and "g" * 16 not in ids
        assert ids.text == "".join(sorted(expected))
        assert clients.node_order.tolist() == sorted(range(n), key=expected.__getitem__)
        # the README's snippet
        node_id = clients.node_ids[3]
        assert node_id == hash_client_id(salt, 3)
        assert clients.counts[clients.row_of[node_id]] == state.selection_counts[node_id]
        assert type(state.selection_counts[node_id]) is int
        assert {label: v for label, v in zip(clients.labels, clients.class_counts[3].tolist()) if v} == {
            hash_label(salt, f"class_{j}"): v for j, v in enumerate(fleet_class_counts(config.seed, n, 100, 6)[3].tolist())
            if v}

    class _CountingIds(NodeIds):
        """A view that counts the ids it reads one by one."""

        def __getitem__(self, index):
            self.reads += 1
            return super().__getitem__(index)

    @settings(deadline=None, max_examples=200)
    @given(ids=st.lists(st.text("ab", min_size=16, max_size=16), max_size=12), ranked=st.booleans(),
           data=st.data())
    def test_membership_is_a_search_of_the_text(self, ids, ranked, data):
        # a two-letter alphabet makes colliding ids and ids that straddle two others common
        text = "".join(sorted(ids))
        ranks = np.array(data.draw(st.permutations(range(len(ids)))), dtype=np.int64) if ranked else None
        view = self._CountingIds(text, ranks)
        view.reads = 0
        listed = list(view)
        probes = [*ids, *(text[i:i + 16] for i in range(max(len(text) - 15, 0))),
                  data.draw(st.text("ab", min_size=16, max_size=16)), "a" * 15, "a" * 17,
                  (text[:16] or "a" * 16).encode(), list(text[:16]), None, 7]
        view.reads = 0
        assert [x in view for x in probes] == [x in listed for x in probes]
        assert view.reads == 0

    def test_membership_on_a_million_ids_is_fast(self):
        n = 10**6
        text = random.Random(5).randbytes(8 * n).hex()  # a million random 16-hex ids
        view = self._CountingIds(text, np.arange(n)[::-1].copy())
        view.reads = 0
        for probe, member in ((text[-16:], True), ("f" * 16, False), (text[8:24], False)):
            start = time.perf_counter()
            assert (probe in view) is member
            assert time.perf_counter() - start < 0.05
        assert view.reads == 0

    def test_log_holds_the_view_without_a_copy(self, tables):
        state = run_federation(make_config(num_clients=9, sample_size=3, total_rounds=5), tables)
        log_ids = state.emissions._ids
        assert type(log_ids) is NodeIds and log_ids.ranks is None and log_ids.text is state.clients.node_ids.text
        assert state.emissions._ordered and log_ids.ascending()

    def test_run_state_holds_no_string_per_client(self, tables):
        # after run_federation at N = 20 000 and k = 10, the state held beside the label array
        # is a few columns of machine words and one text of node ids, not a string per client
        run_federation(make_config(num_clients=50, sample_size=5), tables)  # first-call caches
        n = 20_000
        config = make_config(num_clients=n, sample_size=10, total_rounds=50, num_label_classes=10,
                             dataset_size=500, seed=3)
        prices = price_fleet(config, tables)
        gc.collect()
        tracemalloc.start()
        try:
            state = run_federation(config, prices=prices)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held - state.clients.class_counts.nbytes <= 80 * n

    def test_table_ids_must_be_hex_of_16_characters(self):
        rows = np.zeros((2, 1), dtype=np.int64)
        for ids in (["00ff00ff00ff00ff", "00ff00ff00ff00f"], ["00ff00ff00ff00ff", "00FF00FF00FF00FF"],
                    ["00ff00ff00ff00f", "f00ff00ff00ff00ff"]):
            with pytest.raises(SimulationError, match="16 lowercase hex"):
                ClientTable(ids, [0, 1], [0, 0], rows, ["c"], 1, 0, 0.1)


# ── full runs ─────────────────────────────────────────────────────────────


class TestRunFederation:
    def test_selection_count_conservation(self, tables):
        config = make_config(num_clients=5, sample_size=1, total_rounds=10, seed=42)
        state = run_federation(config, tables)
        assert sum(state.selection_counts.values()) == 1 * 10

    def test_full_rate_means_full_participation(self, tables):
        config = make_config(num_clients=4, selection_rate=1.0, sample_size=4, total_rounds=6)
        state = run_federation(config, tables)
        assert len(state.clients) == 4
        assert all(count / state.clients.rounds == 1.0 for count in state.clients.counts)

    def test_each_client_hashed_once_and_keyed_by_its_node_id(self, tables, monkeypatch):
        hashed = []
        original = fedsim.hash_client_ids
        monkeypatch.setattr(fedsim, "hash_client_ids", lambda salt, n: hashed.append(n) or original(salt, n))
        state = run_federation(make_config(num_clients=12, sample_size=12, total_rounds=3), tables)
        assert hashed == [12]
        node_ids = {r.node_id for r in state.emissions.records if r.role == "client"}
        assert len(node_ids) == 12
        assert set(state.selection_counts) == set(state.clients.node_ids) == node_ids

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(n=st.integers(1, 40), share=st.floats(0, 1), rounds=st.integers(1, 6),
           seed=st.integers(0, 2**64 - 1), full=st.booleans())
    def test_each_round_logs_its_sampled_clients_in_node_id_order(self, tables, n, share, rounds, seed, full):
        m = n if full else max(1, round(share * n))
        state = run_federation(make_config(num_clients=n, sample_size=m, total_rounds=rounds, seed=seed),
                               tables)
        node_ids = state.clients.node_ids
        logged = {t: [] for t in range(1, rounds + 1)}
        for record in state.emissions.records:
            if record.role == "client":
                logged[record.round].append(node_ids.index(record.node_id))
        drawn = [sample_clients(n, m, SelectionStream(seed, t)) for t in range(1, rounds + 1)]
        assert [logged[t] for t in range(1, rounds + 1)] == \
            [sorted(clients, key=node_ids.__getitem__) for clients in drawn]
        assert state.clients.counts == [sum(c in clients for clients in drawn) for c in state.clients.node_order]

    @pytest.mark.parametrize("n, m, rounds", [(40, 7, 30), (300, 150, 12), (2, 1, 20)])
    def test_blocks_do_not_depend_on_the_batch_cap(self, tables, monkeypatch, n, m, rounds):
        config = make_config(num_clients=n, sample_size=m, total_rounds=rounds, seed=77)
        runs = []
        # one batch; batches of 9 rounds (numpy steps) and a shorter last one (list swaps); one
        # round a batch
        for cap in (1 << 16, 9 * 4 * ((m + 3) // 4), 1):
            monkeypatch.setattr(fedsim, "_BATCH_WORDS", cap)
            state = run_federation(config, tables)
            runs.append((state.emissions.records, state.emissions.times_logged(),
                         state.clients.counts, state.emissions.to_csv_bytes()))
        assert runs[0] == runs[1] == runs[2]

    def test_huge_model_size_prices_finite_rows(self, tables):
        config = make_config(num_clients=6, sample_size=3, total_rounds=50, model_size=10**9,
                             energy_model={"comm_energy_per_byte": 1e-12})
        state = run_federation(config, tables)
        records = state.emissions.records
        assert len(records) == 50 * (2 * 3 + 1)
        assert all(math.isfinite(r.energy_kwh) and math.isfinite(r.co2eq_g) for r in records)
        assert math.isfinite(state.emissions.total_co2eq_g())

    def test_emissions_row_counts(self, tables):
        config = make_config(num_clients=5, sample_size=2, total_rounds=10)
        state = run_federation(config, tables)
        by_phase = state.emissions.co2eq_by(lambda r: r.phase)
        assert len([r for r in state.emissions.records if r.phase == "training"]) == 20
        assert len([r for r in state.emissions.records if r.phase == "aggregation"]) == 10
        assert set(by_phase) == {"training", "aggregation"}

    def test_communication_records_appear_when_priced(self, tables):
        config = make_config(energy_model={"comm_energy_per_byte": 1e-12})
        state = run_federation(config, tables)
        comm = [r for r in state.emissions.records if r.phase == "communication"]
        assert len(comm) == 10
        assert all(r.energy_kwh > 0 for r in comm)

    def test_identical_runs_identical_bytes(self, tables):
        config = make_config(
            num_clients=12, sample_size=5, total_rounds=8,
            client_locations=[{"share": 0.5, "location": "CH"}, {"share": 0.5, "location": "ZA"}],
        )
        a = run_federation(config, tables)
        b = run_federation(config, tables)
        assert a.emissions.to_csv_bytes() == b.emissions.to_csv_bytes()

    def test_seed_changes_selection_but_not_row_counts(self, tables):
        a = run_federation(make_config(seed=1), tables)
        b = run_federation(make_config(seed=2), tables)
        assert len(a.emissions) == len(b.emissions)
        # node ids differ by salt alone, so compare the counts per client index
        by_index = [
            [state.selection_counts[hash_client_id(run_salt(seed), c)] for c in range(5)]
            for state, seed in ((a, 1), (b, 2))
        ]
        assert by_index[0] != by_index[1]

    def test_share_assignment_respects_population(self, tables):
        config = make_config(
            num_clients=10, sample_size=10, total_rounds=2,
            client_locations=[{"share": 0.5, "location": "XK"}, {"share": 0.5, "location": "GM"}],
        )
        state = run_federation(config, tables)
        # every client is drawn; each carries the intensity of its assigned grid
        intensity = {r.node_id: r.intensity for r in state.emissions.records if r.phase == "training"}
        assert len(intensity) == 10
        assert Counter(intensity.values()) == {
            tables.grid.lookup_intensity("XK"): 5, tables.grid.lookup_intensity("GM"): 5,
        }

    def test_participation_approaches_rate_statistically(self, tables):
        # Binomial check at T = 1e4: each of 10 clients selected with
        # p = 3/10 per round; allow 3 sigma.
        config = make_config(
            num_clients=10, sample_size=3, total_rounds=10_000, model_size=8,
            dataset_size=10, seed=13,
        )
        state = run_federation(config, tables)
        p = 0.3
        sigma = math.sqrt(p * (1 - p) / config.total_rounds)
        assert len(state.clients) == 10
        for count in state.clients.counts:
            assert abs(count / state.clients.rounds - p) <= 3 * sigma

    def test_emissions_monotone_in_each_complexity_driver(self, tables):
        base = dict(num_clients=6, sample_size=3, total_rounds=4, local_rounds=2,
                    dataset_size=50, model_size=1000, seed=5)
        bumps = [
            ("total_rounds", 8), ("num_clients", 12), ("local_rounds", 5),
            ("dataset_size", 200), ("model_size", 4000), ("sample_size", 6),
        ]
        reference = run_federation(make_config(**base), tables).emissions.total_co2eq_g()
        for field, value in bumps:
            bumped = dict(base)
            bumped[field] = value
            if field == "num_clients":
                # keep the selection rate fixed while the fleet grows
                bumped["sample_size"] = base["sample_size"] * 2
            total = run_federation(make_config(**bumped), tables).emissions.total_co2eq_g()
            assert total >= reference, field


# ── pricing ───────────────────────────────────────────────────────────────


def _spelled(name: str, variant: int) -> str:
    """``name`` with its letters' case set by the bits of ``variant``: one model, many strings."""
    letters = iter(range(len(name)))
    return "".join(ch.upper() if ch.isalpha() and (variant >> next(letters)) & 1 else ch.lower()
                   for ch in name)


# every row is finite, but the run's totals are not: ten ~1e307 gCO2eq communication
# rows, and a 1e308 s training duration summed over ten rounds
_TOTALS_OVERFLOW = ({"comm_energy_per_byte": 4.9e296},
                    {"train_seconds_per_unit": 1e303, "cpu_utilization": 1e-9})


class TestPriceFleet:
    def test_records_stay_immutable(self, tables):
        config = make_config(num_clients=5, sample_size=2, total_rounds=3)
        prices = price_fleet(config, tables)
        with pytest.raises(AttributeError):
            prices.train_s = 0.0
        clients = run_federation(config, prices=prices).clients
        with pytest.raises(AttributeError):
            clients.counts = []
        assert {clients: "quoted"}[clients] == "quoted"  # the render keys a table by identity
        copied = copy.deepcopy(clients)
        assert copied != clients and copied.counts == clients.counts and copied.row_of == clients.row_of

    def test_prices_are_keyed_by_values_not_by_mix_entries(self, tables):
        # 60 distinct hardware strings over two TDPs and 60 distinct locations over two grids
        models = ("AMD FX-9590", "Intel Core i5-1335U", "Intel Core i7-8650U")  # 220, 15, 15 W
        n = 60
        config = make_config(
            num_clients=n, sample_size=n,
            client_hardware=[_spelled(models[c % 3], c) for c in range(n)],
            client_locations=[f"node-eu-{c}" if c % 2 else f"node-za-{c}" for c in range(n)],
        )
        prices = price_fleet(config, tables)
        assert len(prices.client_tdp) == len(prices.client_intensity) == n
        ch, za = tables.grid.lookup_intensity("CH"), tables.grid.lookup_intensity("ZA")
        assert set(prices.client_rows) == {(220.0, ch), (220.0, za), (15.0, ch), (15.0, za)}
        state = run_federation(config, tables)
        assert {(r.intensity, r.energy_kwh) for r in state.emissions.records if r.role == "client"} == {
            (intensity, rows[0][2]) for (_, intensity), rows in prices.client_rows.items()
        }

    def test_set_up_resolves_each_mix_entry_once(self, tables, monkeypatch):
        calls = Counter()
        for owner, name in ((LocationResolver, "resolve"), (HardwareTable, "lookup")):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda self, value, *rest, _f=original, _n=name:
                                calls.update([_n]) or _f(self, value, *rest))
        config = make_config(
            num_clients=2000, sample_size=10, total_rounds=3,
            client_hardware=[{"share": 0.5, "model": "AMD FX-9590"},
                             {"share": 0.3, "model": "Intel Core i5-1335U"},
                             {"share": 0.2, "model": "Intel Xeon E5-2650"}],
            client_locations=[{"share": 0.6, "location": "CH"}, {"share": 0.4, "location": "node-za-1"}],
        )
        run_federation(config, tables)
        assert calls == {"lookup": 3 + 1, "resolve": 2 + 1}  # each mix entry, plus the server

    def test_entry_without_clients_is_still_resolved(self, tables):
        config = make_config(num_clients=5, client_hardware=[
            {"share": 0.999, "model": "Intel Core i7-1250U"}, {"share": 0.001, "model": "Imaginary 9000"},
        ])
        assert fedsim._assign_by_share(config.client_hardware, 5) == [5, 0]
        with pytest.raises(UnknownHardwareError):
            run_federation(config, tables)

    @pytest.mark.parametrize("energy_model, phase", [
        ({"train_seconds_per_unit": 1e308}, "training"),
        ({"comm_energy_per_byte": 1e300}, "communication"),
        ({"agg_seconds_per_unit": 1e308}, "aggregation"),
        (_TOTALS_OVERFLOW[0], "communication"),
        (_TOTALS_OVERFLOW[1], "training"),
    ])
    def test_overflowing_phase_is_a_config_error_naming_it(self, tables, energy_model, phase):
        config = make_config(model_size=10**9, energy_model=energy_model)
        with pytest.raises(ConfigError, match=f"the {phase} phase's .* not a finite float") as caught:
            price_fleet(config, tables)
        run_total = energy_model in _TOTALS_OVERFLOW
        assert ("run total" in str(caught.value)) == run_total
        assert ("total_rounds" in str(caught.value)) == run_total
        with pytest.raises(ConfigError, match=phase):
            run_federation(config, tables)
