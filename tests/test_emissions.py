"""Tests for the TDP-based energy estimator and the emissions log."""

import copy
import math
import pickle
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsust.config import EnergyModel, parse_config
from fedsust.emissions import (
    CSV_HEADER,
    EmissionRecord,
    EmissionsError,
    EmissionsLog,
    NodeIds,
    ROW_FIELDS,
    energy_to_co2,
    estimate_energy,
    track_phase,
)
from fedsust import fedsim
from fedsust.fedsim import SelectionStream, run_federation, sample_clients
from fedsust.refdata import HardwareProfile


PROFILE = HardwareProfile(model="Test CPU", kind="CPU", benchmark=6500, tdp=65, power_performance=100.0)
TRAINING = ("training", 2.5, 0.125, 32.0, 4.0)
SERVER_ROW = ("aggregation", 1.0, 0.25, 32.0, 8.0)


def hex_ids(*names):
    """A NodeIds text of 16-hex ids, each two-character name written eight times, so the
    ids order as the names do."""
    return NodeIds("".join(name * 8 for name in names))


def price_groups(width):
    """Two price groups of ``width`` rows each in CSV order: training alone, or communication
    then training."""
    other = ("training", 1.5, 0.0625, 709.0, 44.3125)
    if width == 1:
        return [(TRAINING,), (other,)]
    return [(("communication", 0.0, 0.5, 709.0, 354.5), TRAINING), (("communication", 0.0, 0.25, 11.0, 2.75), other)]


class TestEstimateEnergy:
    def test_reference_arithmetic(self):
        assert estimate_energy(100, 0.5, 7200) == pytest.approx(0.1, abs=1e-15)
        assert estimate_energy(123, 0.7, 0) == 0.0
        assert estimate_energy(65, 1.0, 3600) == pytest.approx(0.065, abs=1e-15)

    def test_domain_violations_rejected(self):
        with pytest.raises(EmissionsError):
            estimate_energy(0, 1.0, 60)
        with pytest.raises(EmissionsError):
            estimate_energy(-10, 1.0, 60)
        with pytest.raises(EmissionsError):
            estimate_energy(10, 1.5, 60)
        with pytest.raises(EmissionsError):
            estimate_energy(10, -0.1, 60)
        with pytest.raises(EmissionsError):
            estimate_energy(10, 1.0, -1)
        with pytest.raises(EmissionsError):
            estimate_energy(float("nan"), 1.0, 60)


class TestEnergyToCo2:
    def test_reference_grid_examples(self):
        assert energy_to_co2(500, 11) == 5500.0  # 5.5 kg on an all-nuclear grid
        assert energy_to_co2(500, 820) == 410000.0  # 410 kg on an all-coal grid
        assert energy_to_co2(0, 715) == 0.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(EmissionsError):
            energy_to_co2(-1, 10)
        with pytest.raises(EmissionsError):
            energy_to_co2(1, -10)


class TestTrackPhase:
    def test_full_hour_training_in_za(self):
        log = EmissionsLog()
        record = track_phase(
            log, node_id="c1", role="client", phase="training", round_index=1,
            model=EnergyModel(), hardware=PROFILE, duration_s=3600, intensity=709,
        )
        assert record.energy_kwh == pytest.approx(0.065, abs=1e-15)
        assert record.co2eq_g == pytest.approx(46.085, abs=1e-12)
        assert record.co2eq_g == record.energy_kwh * record.intensity
        assert len(log) == 1

    def test_zero_duration_phase_is_zero_energy(self):
        log = EmissionsLog()
        record = track_phase(
            log, node_id="c1", role="client", phase="training", round_index=1,
            model=EnergyModel(), hardware=PROFILE, duration_s=0, intensity=709,
        )
        assert record.energy_kwh == 0.0
        assert record.co2eq_g == 0.0

    def test_server_aggregation_in_ch(self):
        # 0.01 kWh at 32 gCO2eq/kWh -> 0.32 g
        assert energy_to_co2(0.01, 32) == pytest.approx(0.32, abs=1e-12)

    def test_idle_fraction_raises_effective_utilization(self):
        half = EnergyModel(cpu_utilization=0.5, idle_fraction=0.5)
        assert half.effective_utilization() == pytest.approx(0.75, abs=1e-12)
        assert EnergyModel().effective_utilization() == 1.0

    def test_invalid_record_fields_rejected(self):
        with pytest.raises(EmissionsError):
            EmissionRecord(node_id="x", role="observer", phase="training", round=1,
                           duration_s=1, energy_kwh=1, intensity=1, co2eq_g=1)
        with pytest.raises(EmissionsError):
            EmissionRecord(node_id="x", role="client", phase="idling", round=1,
                           duration_s=1, energy_kwh=1, intensity=1, co2eq_g=1)
        with pytest.raises(EmissionsError):
            EmissionRecord(node_id="x", role="client", phase="training", round=-1,
                           duration_s=1, energy_kwh=1, intensity=1, co2eq_g=1)

    def test_records_are_immutable_values(self):
        record = EmissionRecord("x", "client", "training", 1, 2.0, 0.5, 32.0, 16.0)
        with pytest.raises(AttributeError):
            record.co2eq_g = 0.0
        assert record == EmissionRecord("x", "client", "training", 1, 2.0, 0.5, 32.0, 16.0)
        assert record != EmissionRecord("x", "client", "training", 2, 2.0, 0.5, 32.0, 16.0)
        assert len({record, EmissionRecord("x", "client", "training", 1, 2.0, 0.5, 32.0, 16.0)}) == 1
        assert copy.deepcopy(record) == record == pickle.loads(pickle.dumps(record))


def random_log(seed, n=200):
    rng = random.Random(seed)
    log = EmissionsLog()
    for i in range(n):
        energy = rng.uniform(0, 2)
        intensity = rng.uniform(20, 795)
        log.add(EmissionRecord(
            node_id=f"n{rng.randint(0, 9)}",
            role=rng.choice(("client", "server")),
            phase=rng.choice(("training", "aggregation", "communication")),
            round=rng.randint(1, 20),
            duration_s=rng.uniform(0, 100),
            energy_kwh=energy,
            intensity=intensity,
            co2eq_g=energy * intensity,
        ))
    return log


class TestEmissionsLog:
    def test_total_invariant_under_grouping(self):
        log = random_log(11)
        total = log.total_co2eq_g()
        for key in (lambda r: r.phase, lambda r: r.role, lambda r: r.round, lambda r: r.node_id):
            grouped = log.co2eq_by(key)
            assert math.fsum(grouped.values()) == pytest.approx(total, rel=1e-12)

    def test_running_totals_cross_check(self):
        log = random_log(12)
        run_energy, run_co2 = log.running_totals()
        assert abs(run_energy - log.total_energy_kwh()) <= 1e-9 * max(1.0, abs(run_energy))
        assert abs(run_co2 - log.total_co2eq_g()) <= 1e-9 * max(1.0, abs(run_co2))

    def test_csv_is_sorted_and_six_significant_digits(self):
        log = random_log(13, n=50)
        lines = log.to_csv_bytes().decode("utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        keys = []
        for line in lines[1:]:
            parts = line.split(",")
            keys.append((int(parts[0]), parts[1], parts[2], parts[3]))
            assert float(parts[5]) == pytest.approx(float(parts[5]), rel=1e-5)
            # 6 significant digits: reparsing matches the true value to ~1e-6
        assert keys == sorted(keys)

    def test_csv_bytes_independent_of_insertion_order(self):
        log_a = random_log(14)
        records = log_a.records
        log_b = EmissionsLog()
        for record in reversed(records):
            log_b.add(record)
        assert log_a.to_csv_bytes() == log_b.to_csv_bytes()

    def test_appended_rows_match_added_records_in_any_order(self):
        # round blocks logged in CSV order and out of it, against one add() per row;
        # in the second fleet clients 3 and 5 share a node id, so blocks holding both
        # are out of CSV order however their clients are ordered
        rng = random.Random(16)
        for width in (1, 2):
            group_rows = []
            for _ in range(3):
                intensity, energy, comm = rng.uniform(20, 795), rng.uniform(0, 2), rng.uniform(0, 0.1)
                training = ("training", rng.uniform(0, 100), energy, intensity, energy * intensity)
                communication = ("communication", 0.0, comm, intensity, comm * intensity)
                group_rows.append((communication, training)[2 - width:])
            groups = [rng.randrange(3) for _ in range(12)]
            agg = rng.uniform(0, 0.01)
            server_row = ("aggregation", rng.uniform(0, 10), agg, 32.0, agg * 32.0)
            rounds = {t: rng.sample(range(12), rng.randint(1, 12)) for t in range(1, 21)}
            distinct = [f"{rng.getrandbits(64):016x}" for _ in range(12)]
            colliding = [*distinct[:5], distinct[3], *distinct[6:]]  # one id written twice
            for node_ids in (NodeIds("".join(distinct)), NodeIds("".join(colliding))):
                rows = [(t, "client", node_ids[c], *row) for t, clients in rounds.items()
                        for c in clients for row in group_rows[groups[c]]]
                rows += [(t, "server", "server", *server_row) for t in rounds]
                added = EmissionsLog()
                for row in rng.sample(rows, len(rows)):
                    added.add(EmissionRecord(**dict(zip(ROW_FIELDS, row))))
                in_order, out_of_order = (EmissionsLog(node_ids, groups, group_rows, server_row) for _ in range(2))
                for t in sorted(rounds):
                    in_order.add_rounds(t, [sorted(rounds[t], key=node_ids.__getitem__)])
                for t in rng.sample(sorted(rounds), len(rounds)):
                    out_of_order.add_rounds(t, [rounds[t]])
                for log in (in_order, out_of_order):
                    assert log.to_csv_bytes() == added.to_csv_bytes()
                    assert log.sorted_records() == added.sorted_records()
                    assert log.total_co2eq_g() == added.total_co2eq_g()

    @pytest.mark.parametrize("change, ordered", [
        (None, True), ("swap", False), ("repeat", False), ("collide", False),
        ("earlier", False), ("same-round", False), ("add", False),
    ])
    def test_ascending_node_ids_need_ascending_rounds_to_skip_the_sort(self, change, ordered):
        # with client node ids strictly ascending, a round given in ascending indices is in CSV
        # order; two clients out of order, a client listed twice (it has two rows), a node id
        # shared by two clients, a batch logged before a round already logged, a second batch
        # in one round or an added record sends the log to the sorted CSV
        for width in (1, 2):
            group_rows, groups = price_groups(width), [0, 1] * 3
            names = ["0c", "1f", "4a", "77", "b7", "e1"]
            rounds = [(1, [0, 2, 5]), (2, [1, 3, 4]), (3, [0, 1, 2, 3, 4, 5]), (4, [3])]
            if change == "swap":
                rounds[1] = (2, [1, 4, 3])
            elif change == "repeat":
                rounds[1] = (2, [1, 3, 3, 4])
            elif change == "collide":
                names[3] = names[4]
            elif change == "earlier":
                rounds[2], rounds[3] = rounds[3], rounds[2]
            elif change == "same-round":
                rounds.append((4, [5]))
            node_ids = hex_ids(*names)
            log, added = EmissionsLog(node_ids, groups, group_rows, SERVER_ROW), EmissionsLog()
            for t, clients in rounds:
                log.add_rounds(t, [clients])
                for c in clients:
                    for row in group_rows[groups[c]]:
                        added.add(EmissionRecord(node_ids[c], "client", row[0], t, *row[1:]))
                added.add(EmissionRecord("server", "server", "aggregation", t, *SERVER_ROW[1:]))
            if change == "add":
                for target in (log, added):
                    target.add(EmissionRecord("5d", "client", "training", 2, *TRAINING[1:]))
            assert log._ordered == ordered
            assert log.to_csv_bytes() == added.to_csv_bytes()
            assert log.sorted_records() == added.sorted_records()

    def test_added_records_follow_the_batches(self):
        # a log of batches and added records holds what a log of added records alone holds;
        # its rows list the batches' first, and it counts its clients, then the server
        extra = [EmissionRecord("5d", "client", "training", 2, 1.5, 0.0625, 709.0, 44.3125),
                 EmissionRecord("server", "server", "aggregation", 1, 3.0, 0.75, 11.0, 8.25)]
        for width in (1, 2):
            group_rows, groups, node_ids = price_groups(width), [0, 1, 0], hex_ids("0c", "b7", "e1")
            mixed, added = EmissionsLog(node_ids, groups, group_rows, SERVER_ROW), EmissionsLog()
            mixed.add(extra[0])
            mixed.add_rounds(1, [[0, 2], [1, 2]])
            mixed.add(extra[1])
            for t, clients in ((1, [0, 2]), (2, [1, 2])):
                for c in clients:
                    for row in group_rows[groups[c]]:
                        added.add(EmissionRecord(node_ids[c], "client", row[0], t, *row[1:]))
                added.add(EmissionRecord("server", "server", "aggregation", t, *SERVER_ROW[1:]))
            for record in extra:
                added.add(record)
            assert mixed.records == added.records
            assert mixed.records[-2:] == extra
            assert mixed.to_csv_bytes() == added.to_csv_bytes()
            assert len(mixed) == len(added) == 4 * width + 4  # 4 client rounds, 2 server rows, 2 added
            assert mixed.total_energy_kwh() == added.total_energy_kwh()
            assert mixed.total_co2eq_g() == added.total_co2eq_g()
            assert mixed.running_totals() == added.running_totals()
            for key in ("phase", "role", "node_id"):
                assert mixed.co2eq_by(key) == added.co2eq_by(key)
            assert mixed.times_logged() == [1, 1, 2, 2]  # the three clients, then the server

    def test_repeated_rounds_and_clients_count_alike(self):
        # a row broadcast down a batch counts once per round, as a copied batch and one add()
        # per row count it; a client listed twice in a round is counted twice
        full = (1, 0, 2)  # node-id order
        batches = [(1, np.broadcast_to(np.array(full, dtype=np.int32), (4, 3))),
                   (5, [[0, 0, 2], [0, 0, 2]]), (7, [[2]])]
        for width in (1, 2):
            group_rows, groups, node_ids = price_groups(width), [0, 1, 0], hex_ids("b7", "0c", "e1")
            log, copied, added = (EmissionsLog(node_ids, groups, group_rows, SERVER_ROW) for _ in range(3))
            for first, clients in batches:
                log.add_rounds(first, clients)
                copied.add_rounds(first, np.array(clients))
                for t, drawn in enumerate(clients, first):
                    for c in drawn:
                        for row in group_rows[groups[c]]:
                            added.add(EmissionRecord(node_ids[c], "client", row[0], t, *row[1:]))
                    added.add(EmissionRecord("server", "server", "aggregation", t, *SERVER_ROW[1:]))
            assert log.times_logged() == copied.times_logged() == [8, 4, 7, 7]
            for other in (copied, added):
                assert log.records == other.records
                assert log.to_csv_bytes() == other.to_csv_bytes()
                assert len(log) == len(other)
                assert log.total_energy_kwh() == other.total_energy_kwh()
                assert log.total_co2eq_g() == other.total_co2eq_g()
                for key in ("phase", "role"):
                    assert log.co2eq_by(key) == other.co2eq_by(key)

    def test_a_batch_tallies_as_its_rounds_one_by_one(self):
        # a batch of rounds is counted in one step; a later batch recounts
        rounds = [[0, 2], [1, 2], [0, 2], [0, 1]]
        for width in (1, 2):
            one_by_one, batched = (EmissionsLog(hex_ids("0c", "b7", "e1"), [0, 1, 0], price_groups(width),
                                                SERVER_ROW) for _ in range(2))
            for t, clients in enumerate(rounds, 1):
                one_by_one.add_rounds(t, [clients])
            batched.add_rounds(1, rounds)
            for extra in (None, [[1, 2]]):
                if extra:
                    one_by_one.add_rounds(5, extra)
                    batched.add_rounds(5, extra)
                assert batched.times_logged() == one_by_one.times_logged()
                assert batched.records == one_by_one.records
                assert batched.to_csv_bytes() == one_by_one.to_csv_bytes()
                assert len(batched) == len(one_by_one)
                assert batched.total_co2eq_g() == one_by_one.total_co2eq_g()
                for key in ("phase", "role"):
                    assert batched.co2eq_by(key) == one_by_one.co2eq_by(key)
            assert one_by_one.times_logged() == [3, 3, 4, 5]

    @pytest.mark.parametrize("clients, index", [([[0, 1], [-1, 2]], -1), ([[0, 1], [2, 3]], 3)])
    def test_client_index_out_of_range_names_round_and_index(self, clients, index):
        log = EmissionsLog(hex_ids("0c", "b7", "e1"), [0, 0, 0], [(TRAINING,)], SERVER_ROW)
        with pytest.raises(EmissionsError, match=rf"round 8: client index {index} is not in \[0, 3\)"):
            log.add_rounds(7, clients)
        assert log.times_logged() == [0, 0, 0, 0]

    def test_rounds_need_a_server_row(self):
        log = EmissionsLog(hex_ids("0c"), [0], [(TRAINING,)])
        with pytest.raises(EmissionsError, match="round 4: the log was made without a server row"):
            log.add_rounds(4, [[0]])

    @pytest.mark.parametrize("node_ids, groups, group_rows, match", [
        (hex_ids("0c", "b7", "e1"), [0, 0], [(TRAINING,)], r"each of 3 clients, got shape \(2,\)"),
        (hex_ids("0c", "b7", "e1"), [0.0, 0.0, 0.0], [(TRAINING,)], "of float64"),
        (hex_ids("0c", "b7", "e1"), [0, -1, 0], [(TRAINING,)], r"in \[0, 1\) for each of 3 clients, got shape \(3,\)"),
        (hex_ids("0c", "b7", "e1"), [0, 1, 0], [(TRAINING,)], r"in \[0, 1\) for each of 3 clients, got shape \(3,\)"),
        (hex_ids("0c", "b7"), [0, 1], price_groups(1)[:1] + price_groups(2)[:1], r"unequal row counts \[1, 2\]"),
        (NodeIds(hex_ids("b7", "0c").text, np.array([1, 0])), [0, 0], [(TRAINING,)], "without ranks"),
        (["0c" * 8, "b7" * 8], [0, 0], [(TRAINING,)], "without ranks"),
    ], ids=["shape", "float", "negative", "past-the-groups", "unequal-widths", "ranked", "list"])
    def test_constructor_rejects_what_the_simulator_never_builds(self, node_ids, groups, group_rows, match):
        with pytest.raises(EmissionsError, match=match):
            EmissionsLog(node_ids, groups, group_rows, SERVER_ROW)

    def test_unknown_column_names_the_accepted_ones(self):
        with pytest.raises(EmissionsError, match="unknown column 'country'; expected one of round, role, "):
            random_log(18, n=5).co2eq_by("country")

    def test_field_name_and_callable_keys_group_alike(self):
        log = random_log(17)
        for name in ("round", "role", "node_id", "phase"):
            assert log.co2eq_by(name) == log.co2eq_by(lambda r: getattr(r, name))

    def test_csv_roundtrip_to_six_significant_digits(self):
        log = random_log(15, n=20)
        lines = log.to_csv_bytes().decode("utf-8").splitlines()[1:]
        by_key = {
            (r.round, r.role, r.node_id, r.phase): r for r in log.records
        }
        for line in lines:
            parts = line.split(",")
            record = by_key[(int(parts[0]), parts[1], parts[2], parts[3])]
            assert float(parts[7]) == pytest.approx(record.co2eq_g, rel=1e-5)


_HARDWARE = ("Intel Core i7-1250U", "AMD FX-9590", "Intel Xeon E5-2650")
_LOCATIONS = ("AL", "ch", "ZA")


@st.composite
def small_fleets(draw):
    """Fleets of 1-30 clients over 1-20 rounds, with 1-3 hardware and location entries,
    so priced rows repeat, and with communication priced on some."""
    n = draw(st.integers(1, 30))

    def mix(pool, key):
        values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
        parts = draw(st.lists(st.integers(1, 9), min_size=len(values), max_size=len(values)))
        return [{"share": part / sum(parts), key: value} for part, value in zip(parts, values)]

    energy_model = {"comm_energy_per_byte": draw(st.sampled_from((0.0, 0.0, 1e-12)))}
    for name in ("train_seconds_per_unit", "agg_seconds_per_unit"):
        seconds = draw(st.sampled_from((None, None, 0.0, -0.0)))
        if seconds is not None:
            energy_model[name] = seconds
    return parse_config({
        "name": "drawn",
        "num_clients": n,
        "total_rounds": draw(st.integers(1, 20)),
        "sample_size": draw(st.integers(1, n)),
        "local_rounds": draw(st.integers(1, 3)),
        "dataset_size": draw(st.integers(1, 500)),
        "model_size": draw(st.integers(1, 10**7)),
        "client_hardware": mix(_HARDWARE, "model"),
        "client_locations": mix(_LOCATIONS, "location"),
        "server_hardware": draw(st.sampled_from(_HARDWARE)),
        "server_location": draw(st.sampled_from(_LOCATIONS)),
        "seed": draw(st.integers(0, 2**64 - 1)),
        "energy_model": energy_model,
    })


def check_against_row_reference(log, config):
    """Every view of ``log`` against one built row by row from its expanded records."""
    rows = [tuple(getattr(record, name) for name in ROW_FIELDS) for record in log.records]
    per_client = 2 if config.energy_model.comm_energy_per_byte > 0 else 1
    assert len(rows) == config.total_rounds * (config.sample_size * per_client + 1)
    ordered = sorted(rows, key=lambda row: row[:7])
    csv = "".join(f"{row[0]},{row[1]},{row[2]},{row[3]},{','.join(format(x, '.6g') for x in row[4:])}\n"
                  for row in ordered)
    assert log.to_csv_bytes() == f"{CSV_HEADER}\n{csv}".encode("utf-8")
    assert [tuple(getattr(r, name) for name in ROW_FIELDS) for r in log.sorted_records()] == ordered
    assert len(log) == len(rows)
    assert log.total_energy_kwh() == math.fsum(row[5] for row in rows)
    assert log.total_co2eq_g() == math.fsum(row[7] for row in rows)
    for column, name in ((1, "role"), (3, "phase")):
        groups = {row[column] for row in rows}
        assert log.co2eq_by(name) == {
            k: math.fsum(row[7] for row in rows if row[column] == k) for k in groups
        }
    assert log.running_totals() == (sum(row[5] for row in rows), sum(row[7] for row in rows))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(config=small_fleets())
def test_round_blocks_match_a_row_by_row_reference(tables, config):
    check_against_row_reference(run_federation(config, tables).emissions, config)


@pytest.mark.parametrize("clients, drawn, rounds", [(8, 3, 40), (6, 6, 5), (8, 1, 40)])
def test_colliding_node_ids_match_a_row_by_row_reference(tables, monkeypatch, clients, drawn, rounds):
    # clients 2 and 5 share a node id, so a round drawing both is logged out of CSV order;
    # drawing one client a round, they never share a round, and the CSV is sorted all the same
    config = parse_config({
        "name": "collide", "num_clients": clients, "total_rounds": rounds, "sample_size": drawn,
        "local_rounds": 1, "dataset_size": 50, "model_size": 10**5, "seed": 21,
        "client_hardware": [{"share": 0.5, "model": _HARDWARE[0]}, {"share": 0.5, "model": _HARDWARE[1]}],
        "client_locations": "ch", "server_hardware": _HARDWARE[2], "server_location": "ZA",
        "energy_model": {"comm_energy_per_byte": 1e-12},
    })
    original = fedsim.hash_client_ids

    def colliding(salt, num_clients):  # client 5 takes client 2's node id
        digests = bytearray(original(salt, num_clients))
        digests[40:48] = digests[16:24]
        return bytes(digests)

    monkeypatch.setattr(fedsim, "hash_client_ids", colliding)
    state = run_federation(config, tables)
    assert len(set(state.clients.node_ids)) == clients - 1
    draws = [set(sample_clients(clients, drawn, SelectionStream(21, t))) for t in range(1, rounds + 1)]
    assert any({2, 5} <= draw for draw in draws) == (drawn > 1)
    assert any(2 in draw for draw in draws) and any(5 in draw for draw in draws)
    assert not state.emissions._ordered
    check_against_row_reference(state.emissions, config)
    assert state.clients.counts == [sum(c in draw for draw in draws) for c in state.clients.node_order]


def test_csv_holds_lines_for_the_logged_clients_only(tables):
    # 50 client rows of a fleet of 3·10^5: the CSV's lines are made and held for the logged
    # clients alone, so the call's peak stays near one int32 per client
    config = parse_config({
        "name": "wide", "num_clients": 300_000, "total_rounds": 5, "sample_size": 10, "local_rounds": 1,
        "dataset_size": 500, "model_size": 98_000, "num_label_classes": 10, "seed": 3,
        "client_hardware": "Intel Core i7-1250U", "client_locations": "AL",
        "server_hardware": "Intel Core i7-1250U", "server_location": "AL",
    })
    log = run_federation(config, tables).emissions
    log.times_logged()  # the tally is cached before the call
    tracemalloc.start()
    try:
        data = log.to_csv_bytes()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.count(b"\n") == 1 + 5 * (10 + 1)
    assert peak < 1.5e6
