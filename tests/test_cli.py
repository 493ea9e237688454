"""Tests for the command-line interface: commands, exit codes, outputs."""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import golden
from fedsust import cli, fedsim
from fedsust.cli import main
from fedsust.report import load_pillar_fixture


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_golden(name: str) -> None:
    """Run one case of the golden table and compare it with the table's entry."""
    assert golden.run_case(golden.cases()[name]) == golden.pinned()[name]


_HARDWARE = ("Intel Core i7-1250U", "AMD FX-9590", "Intel Xeon E5-2650", "NVIDIA GeForce RTX 3060")
_LOCATIONS = ("AL", "ch", "ZA", "US", "203.0.113.128", "node-eu-7")


@st.composite
def small_scenarios(draw):
    """Scenarios with N <= 50 and T <= 5, in all three mix forms."""
    n = draw(st.integers(1, 50))

    def mix(pool, key):
        form = draw(st.integers(0, 2))
        if form == 0:
            return draw(st.sampled_from(pool))
        if form == 1:
            return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
        parts = draw(st.lists(st.integers(1, 9), min_size=len(values), max_size=len(values)))
        return [{"share": part / sum(parts), key: value} for part, value in zip(parts, values)]

    return {
        "name": "drawn",
        "num_clients": n,
        "total_rounds": draw(st.integers(1, 5)),
        "sample_size": draw(st.integers(1, n)),
        "local_rounds": draw(st.integers(1, 3)),
        "dataset_size": draw(st.integers(1, 500)),
        "model_size": draw(st.integers(1, 10**9)),
        "client_hardware": mix(_HARDWARE, "model"),
        "client_locations": mix(_LOCATIONS, "location"),
        "server_hardware": draw(st.sampled_from(_HARDWARE)),
        "server_location": draw(st.sampled_from(_LOCATIONS)),
        "seed": draw(st.integers(0, 2**64 - 1)),
        "num_label_classes": draw(st.integers(1, 12)),
    }


_DROP = object()
# one field set to a value that may or may not be valid, or dropped
_EDITS = [
    ("num_clients", 0), ("num_clients", 10**6 + 1), ("num_clients", "ten"), ("num_clients", 2.5),
    ("dataset_size", 0), ("dataset_size", 10**10), ("dataset_size", 10**10 + 1), ("dataset_size", 10**19),
    ("selection_rate", 1.4), ("selection_rate", 0.0), ("selection_rate", float("nan")),
    ("total_rounds", 0), ("local_rounds", None), ("model_size", True), ("seed", -1), ("seed", 2**64),
    ("num_label_classes", 1000), ("num_label_classes", 1001), ("client_hardware", "Imaginary 9000"),
    ("client_hardware", []), ("server_location", "QQ"), ("client_locations", "203.0.113.128"),
    ("score_overrides", {"sustainability.carbon_intensity": 0.5}),
    ("score_overrides", {"sustainability.typo": 0.5}), ("energy_model", {"cpu_utilization": 2.0}),
    ("statistics", {"accuracy": 0.9}), ("bogus_field", 1), ("name", _DROP), ("num_clients", _DROP),
    ("total_rounds", 10**6 + 1),
    # durations, energies and CO2eq that overflow to inf for large enough drawn sizes
    ("energy_model", {"train_seconds_per_unit": 1e308}), ("energy_model", {"agg_seconds_per_unit": 1e308}),
    ("energy_model", {"comm_energy_per_byte": 1e300}),
]


def _edited(scenario: dict, edit) -> dict:
    field, value = edit
    scenario = dict(scenario)
    if value is _DROP:
        scenario.pop(field)
    else:
        scenario[field] = value
    return scenario


@st.composite
def edited_scenarios(draw):
    """Small scenarios, half of them with one field edited or dropped."""
    scenario = draw(small_scenarios())
    # a coin flip: derandomized, st.none() | st.sampled_from(...) drew an edit in only ~1 of 3
    return _edited(scenario, draw(st.sampled_from(_EDITS))) if draw(st.booleans()) else scenario


# large enough that every energy_model edit above overflows
_LARGE_SCENARIO = {
    "name": "large", "num_clients": 20, "total_rounds": 3, "sample_size": 5, "local_rounds": 2,
    "dataset_size": 400, "model_size": 10**9, "client_hardware": "AMD FX-9590",
    "client_locations": "ZA", "server_hardware": "AMD FX-9590", "server_location": "US", "seed": 1,
}


_ROOT = Path(__file__).resolve().parent.parent
_UC_A = json.loads((_ROOT / "src" / "fedsust" / "data" / "scenarios" / "uc_a.json").read_text())
# uc_a edits whose every row is finite but whose run totals are not: ten ~1e307 gCO2eq
# communication rows, and a 1e307 s training duration summed over 100 rounds
_TOTALS_OVERFLOW = {
    "co2eq": {**_UC_A, "energy_model": {"comm_energy_per_byte": 5e300}},
    "training-time": {**_UC_A, "num_clients": 1, "selection_rate": 1.0, "total_rounds": 100,
                      "dataset_size": 1, "model_size": 10**7,
                      "energy_model": {"train_seconds_per_unit": 1e306, "cpu_utilization": 1e-9}},
}


def _every_edit_once(test):
    """Run ``test`` on each edit of ``_LARGE_SCENARIO``, and on each scenario of
    ``_TOTALS_OVERFLOW``, before the drawn examples."""
    for edit in _EDITS:
        test = example(scenario=_edited(_LARGE_SCENARIO, edit))(test)
    for scenario in _TOTALS_OVERFLOW.values():
        test = example(scenario=scenario)(test)
    return test


@pytest.fixture()
def uc(scenario_dir):
    return lambda name: str(scenario_dir / f"{name}.json")


@pytest.fixture()
def pillars(pillar_dir):
    return lambda name: str(pillar_dir / f"{name}_pillars.json")


# ── validate ──────────────────────────────────────────────────────────────


class TestValidate:
    def test_valid_scenario_accepted(self, capsys, uc):
        code, out, err = run(capsys, "validate", "--config", uc("uc_a"))
        assert code == 0
        assert "ok" in out

    def test_malformed_json_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, err = run(capsys, "validate", "--config", str(bad))
        assert code == 1
        assert err.startswith("error: validation:")

    def test_missing_field_named_in_error(self, capsys, tmp_path, uc):
        data = json.loads(open(uc("uc_a")).read())
        del data["num_clients"]
        p = tmp_path / "x.json"
        p.write_text(json.dumps(data))
        code, out, err = run(capsys, "validate", "--config", str(p))
        assert code == 1
        assert "num_clients" in err

    def test_typoed_override_path_rejected(self, capsys, tmp_path, uc):
        data = json.loads(open(uc("uc_b")).read())
        data["score_overrides"] = {"sustainability.federation_complexity.rounds_typo": 0.5}
        p = tmp_path / "x.json"
        p.write_text(json.dumps(data))
        code, out, err = run(capsys, "validate", "--config", str(p))
        assert code == 1
        assert "rounds_typo" in err

    def test_typoed_weight_path_rejected(self, capsys, tmp_path, uc):
        w = tmp_path / "w.json"
        w.write_text(json.dumps({
            "sustainability.carbon_intensity_typo": 0.5,
            "sustainability.hardware_efficiency": 0.25,
            "sustainability.federation_complexity": 0.25,
        }))
        code, out, err = run(capsys, "validate", "--config", uc("uc_a"), "--weights", str(w))
        assert code == 1
        assert "carbon_intensity_typo" in err

    def test_unknown_country_exit_2(self, capsys, tmp_path, uc):
        data = json.loads(open(uc("uc_a")).read())
        data["server_location"] = "QQ"
        p = tmp_path / "x.json"
        p.write_text(json.dumps(data))
        code, out, err = run(capsys, "validate", "--config", str(p))
        assert code == 2
        assert err.startswith("error: reference-data:")

    @pytest.mark.parametrize("form", ["string", "list", "share"])
    @pytest.mark.parametrize("field, key", [("client_hardware", "model"), ("client_locations", "location")])
    def test_blank_mix_value_is_a_validation_error(self, capsys, tmp_path, uc, field, key, form):
        # one rule for the three forms of a mix: a blank value is named, with its index in a list
        data = json.loads(open(uc("uc_a")).read())
        good, n = data[field], data["num_clients"]
        data[field], where = {
            "string": ("  ", f"'{field}'"),
            "list": ([good] * (n - 1) + [""], f"'{field}[{n - 1}]'"),
            "share": ([{"share": 0.5, key: good}, {"share": 0.5, key: " "}], f"'{field}[1].{key}'"),
        }[form]
        p = tmp_path / "x.json"
        p.write_text(json.dumps(data))
        code, out, err = run(capsys, "validate", "--config", str(p))
        assert code == 1 and "ok" not in out
        assert err == f"error: validation: field {where} must be a non-empty string\n"

    def test_validate_score_accept_the_same_configs(self, capsys, tmp_path, uc):
        # shared validator: whatever validate takes, score takes, and vice versa
        cases = []
        good = json.loads(open(uc("uc_d")).read())
        cases.append(good)
        bad_rate = dict(good)
        bad_rate["selection_rate"] = 1.4
        cases.append(bad_rate)
        bad_hw = dict(good)
        bad_hw["client_hardware"] = "Imaginary 9000"
        cases.append(bad_hw)
        for i, data in enumerate(cases):
            p = tmp_path / f"case{i}.json"
            p.write_text(json.dumps(data))
            v_code, _, _ = run(capsys, "validate", "--config", str(p))
            s_code, _, _ = run(capsys, "score", "--config", str(p), "--out", str(tmp_path / f"o{i}"))
            assert (v_code == 0) == (s_code == 0), data

    def test_validate_score_reject_the_same_pillar_weights(self, capsys, tmp_path, uc, pillars):
        # seven pillar weights summing to 1.9: one weight-sum rule for every command
        w = tmp_path / "w.json"
        w.write_text(json.dumps({
            "sustainability": 0.7, "privacy": 0.2, "robustness": 0.2, "fairness": 0.2,
            "explainability": 0.2, "accountability": 0.2, "federation": 0.2,
        }))
        argv = ["--config", uc("proposal_b"), "--weights", str(w),
                "--pillars", pillars("proposal_b")]
        s_code, _, s_err = run(capsys, "score", *argv, "--out", str(tmp_path / "out"))
        v_code, v_out, v_err = run(capsys, "validate", *argv)
        assert s_code == v_code == 1
        assert s_err.startswith("error: validation:") and v_err.startswith("error: validation:")
        assert "ok" not in v_out

    @_every_edit_once
    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(scenario=edited_scenarios())
    def test_validate_and_score_give_the_same_exit_code(self, tmp_path_factory, scenario):
        # simulate too: validate accepts exactly what score and simulate accept
        base = tmp_path_factory.mktemp("same-exit")
        (base / "x.json").write_text(json.dumps(scenario))
        validated = main(["validate", "--config", str(base / "x.json")])
        scored = main(["score", "--config", str(base / "x.json"), "--out", str(base / "score")])
        simulated = main(["simulate", "--config", str(base / "x.json"), "--out", str(base / "sim")])
        assert validated == scored == simulated
        assert validated in (0, 1, 2)

    @pytest.mark.parametrize("field", ["selection_rate", "num_clients"])
    def test_integer_too_large_for_a_float_is_a_validation_error(self, capsys, tmp_path, uc, field):
        data = json.loads(open(uc("uc_a")).read())
        data[field] = 10**400
        p = tmp_path / "x.json"
        p.write_text(json.dumps(data))
        code, _, err = run(capsys, "validate", "--config", str(p))
        assert code == 1
        assert err.startswith("error: validation:") and field in err
        assert len(err.splitlines()) == 1

    def test_non_finite_notion_weight_named_not_reported_as_a_score(self, capsys, tmp_path, uc):
        p = tmp_path / "pillars.json"
        p.write_text(json.dumps({"pillars": {
            "privacy": {"notions": {"a": 0.5, "b": 0.5}, "weights": {"a": 0.5, "b": float("nan")}},
        }}))
        for command in ("validate", "score"):
            code, _, err = run(capsys, command, "--config", uc("uc_a"), "--pillars", str(p),
                               "--out", str(tmp_path / "out"))
            assert code == 1
            assert err.startswith("error: validation:") and "nan" in err
            assert "outside" not in err

    @pytest.mark.parametrize("place", ["notion", "weight"])
    @pytest.mark.parametrize("bad", ["x", None, True, 10**400], ids=["string", "null", "bool", "10**400"])
    def test_pillar_value_of_wrong_type_is_a_validation_error(self, capsys, tmp_path, uc, place, bad):
        notions, weights = {"a": 0.5, "b": 0.5}, {"a": 0.5, "b": 0.5}
        (notions if place == "notion" else weights)["b"] = bad
        p = tmp_path / "pillars.json"
        p.write_text(json.dumps({"pillars": {"privacy": {"notions": notions, "weights": weights}}}))
        code, out, err = run(capsys, "score", "--config", uc("uc_a"), "--pillars", str(p),
                             "--out", str(tmp_path / "out"))
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: validation:") and "'b'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content", [
        b"\xff\xfe\x00",
        b"[" * 100_000 + b"]" * 100_000,
        b'{"privacy": 1' + b"0" * 5000 + b"}",  # beyond the interpreter's int-string limit
    ], ids=["not-utf8", "nested-1e5", "5001-digit-int"])
    @pytest.mark.parametrize("kind", ["config", "weights", "pillars"])
    def test_unparsable_input_file_is_a_validation_error(self, capsys, tmp_path, uc, kind, content):
        p = tmp_path / "input.json"
        p.write_bytes(content)
        argv = ["--config", str(p)] if kind == "config" else ["--config", uc("uc_a"), f"--{kind}", str(p)]
        code, out, err = run(capsys, "score", *argv, "--out", str(tmp_path / "out"))
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: validation:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", [
        ("name", "\ud800"),
        ("statistics", functools.reduce(lambda inner, _: {"deep": inner}, range(500), 0)),
    ], ids=["lone-surrogate", "nested-500"])
    def test_scenario_value_that_cannot_be_written_back_is_rejected(self, capsys, tmp_path, uc,
                                                                      field, value):
        data = json.loads(open(uc("uc_a")).read())
        data[field] = value
        p = tmp_path / "x.json"
        p.write_text(json.dumps(data))  # ascii: the surrogate is written as an escape
        for command in ("validate", "score", "simulate"):
            code, out, err = run(capsys, command, "--config", str(p), "--out", str(tmp_path / "out"))
            assert code == 1, command
            assert len(err.splitlines()) == 1 and err.startswith("error: validation:"), command
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("classes", [10**12, 1001])
    def test_label_classes_above_the_ceiling_rejected(self, capsys, tmp_path, uc, classes):
        data = json.loads(open(uc("uc_a")).read())
        data["num_label_classes"] = classes
        p = tmp_path / "x.json"
        p.write_text(json.dumps(data))
        for command in ("validate", "score", "simulate"):
            code, out, err = run(capsys, command, "--config", str(p), "--out", str(tmp_path / "out"))
            assert code == 1, command
            assert len(err.splitlines()) == 1 and err.startswith("error: validation:"), command
            assert "num_label_classes" in err and "1000" in err
            assert not (tmp_path / "out").exists()

    def test_label_classes_at_the_ceiling_accepted(self, capsys, tmp_path, uc):
        data = json.loads(open(uc("uc_a")).read())
        data["num_label_classes"] = 1000
        p = tmp_path / "x.json"
        p.write_text(json.dumps(data))
        for command in ("validate", "score", "simulate"):
            code, _, err = run(capsys, command, "--config", str(p), "--out", str(tmp_path / command))
            assert code == 0 and not err, command
        sheet = json.loads((tmp_path / "simulate" / "factsheet.json").read_text())
        assert sum(sheet["during_training"]["class_distribution"].values()) == 5 * 100

    @pytest.mark.parametrize("clients", [10**12, 10**6 + 1])
    def test_num_clients_above_the_ceiling_rejected(self, capsys, tmp_path, uc, clients):
        data = json.loads(open(uc("uc_a")).read())
        data["num_clients"] = clients
        p = tmp_path / "x.json"
        p.write_text(json.dumps(data))
        for command in ("validate", "score", "simulate"):
            code, out, err = run(capsys, command, "--config", str(p), "--out", str(tmp_path / "out"))
            assert code == 1, command
            assert len(err.splitlines()) == 1 and err.startswith("error: validation:"), command
            assert "num_clients" in err and "1000000" in err
            assert not (tmp_path / "out").exists()

    def test_num_clients_at_the_ceiling_accepted(self, capsys, tmp_path, uc):
        data = json.loads(open(uc("uc_a")).read())
        data["num_clients"] = 10**6
        p = tmp_path / "x.json"
        p.write_text(json.dumps(data))
        for command in ("validate", "score"):
            code, _, err = run(capsys, command, "--config", str(p), "--out", str(tmp_path / command))
            assert code == 0 and not err, command
        report = json.loads((tmp_path / "score" / "trust_report.json").read_text())
        assert report["metrics"]["sustainability.federation_complexity.num_clients"]["raw"] == 10**6

    @pytest.mark.parametrize("size", [10**19, 10**10 + 1])
    def test_dataset_size_above_the_ceiling_rejected(self, capsys, tmp_path, uc, size):
        data = json.loads(open(uc("uc_a")).read())
        data["dataset_size"] = size
        p = tmp_path / "x.json"
        p.write_text(json.dumps(data))
        for command in ("validate", "score", "simulate"):
            code, out, err = run(capsys, command, "--config", str(p), "--out", str(tmp_path / "out"))
            assert code == 1, command
            assert len(err.splitlines()) == 1 and err.startswith("error: validation:"), command
            assert "dataset_size" in err and "10000000000" in err
            assert not (tmp_path / "out").exists()

    def test_dataset_size_at_the_ceiling_accepted(self, capsys, tmp_path, uc):
        data = json.loads(open(uc("uc_a")).read())
        data["dataset_size"] = 10**10
        p = tmp_path / "x.json"
        p.write_text(json.dumps(data))
        for command in ("validate", "score", "simulate"):
            code, _, err = run(capsys, command, "--config", str(p), "--out", str(tmp_path / command))
            assert code == 0 and not err, command
        sheet = json.loads((tmp_path / "simulate" / "factsheet.json").read_text())
        clients = sheet["post_training"]["client_statistics"].values()
        assert all(sum(c["class_balance"].values()) == 10**10 for c in clients)

    @pytest.mark.parametrize("rounds", [10**12, 10**6 + 1])
    def test_total_rounds_above_the_ceiling_rejected(self, capsys, tmp_path, uc, rounds):
        data = json.loads(open(uc("uc_a")).read())
        data["total_rounds"] = rounds
        p = tmp_path / "x.json"
        p.write_text(json.dumps(data))
        for command in ("validate", "score", "simulate"):
            code, out, err = run(capsys, command, "--config", str(p), "--out", str(tmp_path / "out"))
            assert code == 1, command
            assert len(err.splitlines()) == 1 and err.startswith("error: validation:"), command
            assert "total_rounds" in err and "1000000" in err
            assert not (tmp_path / "out").exists()

    def test_total_rounds_at_the_ceiling_accepted(self, capsys, tmp_path, uc):
        data = json.loads(open(uc("uc_a")).read())
        data["total_rounds"] = 10**6
        p = tmp_path / "x.json"
        p.write_text(json.dumps(data))
        code, out, err = run(capsys, "validate", "--config", str(p))
        assert code == 0 and not err and "ok" in out

    @pytest.mark.parametrize("energy_model, fields", [
        ({"train_seconds_per_unit": 1e300}, "train_seconds_per_unit"),
        ({"agg_seconds_per_unit": 1e308}, "agg_seconds_per_unit"),
        ({"comm_energy_per_byte": 1e300}, "comm_energy_per_byte"),
    ], ids=["training", "aggregation", "communication"])
    def test_overflowing_phase_is_a_validation_error(self, capsys, tmp_path, uc, energy_model, fields):
        data = json.loads(open(uc("uc_a")).read())
        data["model_size"] = 10**12
        data["energy_model"] = energy_model
        p = tmp_path / "x.json"
        p.write_text(json.dumps(data))
        for command in ("validate", "score", "simulate"):
            code, out, err = run(capsys, command, "--config", str(p), "--out", str(tmp_path / "out"))
            assert code == 1, command
            assert len(err.splitlines()) == 1 and err.startswith("error: validation:"), command
            assert fields in err and "model_size" in err, err
            assert "ok" not in out
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("repro", sorted(_TOTALS_OVERFLOW))
    def test_overflowing_run_total_is_a_validation_error(self, capsys, tmp_path, repro):
        p = tmp_path / "x.json"
        p.write_text(json.dumps(_TOTALS_OVERFLOW[repro]))
        for command in ("validate", "score", "simulate"):
            code, out, err = run(capsys, command, "--config", str(p), "--out", str(tmp_path / "out"))
            assert code == 1, command
            assert len(err.splitlines()) == 1 and err.startswith("error: validation:"), command
            assert "run total" in err and "total_rounds" in err, err
            assert "ok" not in out
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "score", "simulate"])
    def test_more_pillars_than_configs_rejected(self, capsys, tmp_path, uc, pillars, command):
        missing = str(tmp_path / "nonexistent.json")
        code, out, err = run(capsys, command, "--config", uc("proposal_a"),
                             "--pillars", pillars("proposal_a"), "--pillars", missing,
                             "--out", str(tmp_path / "out"))
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: validation:")
        assert "--pillars" in err and "cannot read" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["config", "weights", "pillars"])
    def test_missing_input_file_is_a_validation_error(self, capsys, tmp_path, uc, kind):
        missing = str(tmp_path / "missing.json")
        argv = ["--config", missing] if kind == "config" else ["--config", uc("uc_a"), f"--{kind}", missing]
        code, out, err = run(capsys, "score", *argv, "--out", str(tmp_path / "out"))
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: validation: cannot read ")
        assert missing in err
        assert not (tmp_path / "out").exists()

    def test_weight_too_large_for_a_float_is_a_validation_error(self, capsys, tmp_path, uc):
        p = tmp_path / "w.json"
        p.write_text('{"sustainability.carbon_intensity": 1' + "0" * 324 + "}")
        code, out, err = run(capsys, "score", "--config", uc("uc_a"), "--weights", str(p),
                             "--out", str(tmp_path / "out"))
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: validation:")
        assert "sustainability.carbon_intensity" in err and "too large" in err

    @pytest.mark.parametrize("bad", [" 0.6 ", "2e-1", True], ids=["padded", "exponent", "true"])
    def test_weight_that_is_not_a_json_number_is_a_validation_error(self, capsys, tmp_path, uc, bad):
        p = tmp_path / "w.json"
        p.write_text(json.dumps({"sustainability.carbon_intensity": bad,
                                 "sustainability.hardware_efficiency": 0.0 if bad is True else 0.2,
                                 "sustainability.federation_complexity": 0.0 if bad is True else 0.2}))
        for command in ("validate", "score"):
            code, out, err = run(capsys, command, "--config", uc("uc_a"), "--weights", str(p),
                                 "--out", str(tmp_path / "out"))
            assert code == 1, command
            assert len(err.splitlines()) == 1 and err.startswith("error: validation:"), command
            assert "'sustainability.carbon_intensity' must be a number" in err
            assert "ok" not in out
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["config", "weights", "pillars"])
    def test_numeric_string_is_rejected_alike_in_every_input_file(self, capsys, tmp_path, uc, kind):
        data = json.loads(open(uc("uc_a")).read())
        content, key = {
            "config": (dict(data, selection_rate="0.5"), "'selection_rate'"),
            "weights": ({"sustainability.carbon_intensity": "0.5",
                         "sustainability.hardware_efficiency": 0.25,
                         "sustainability.federation_complexity": 0.25}, "'sustainability.carbon_intensity'"),
            "pillars": ({"pillars": {"privacy": "0.5"}}, "'privacy'"),
        }[kind]
        p = tmp_path / "input.json"
        p.write_text(json.dumps(content))
        argv = ["--config", str(p)] if kind == "config" else ["--config", uc("uc_a"), f"--{kind}", str(p)]
        code, out, err = run(capsys, "score", *argv, "--out", str(tmp_path / "out"))
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: validation:")
        assert f"{key} must be a number, got '0.5'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("clients, accepted", [(10**4, True), (10**4 + 1, False)])
    def test_label_cells_ceiling(self, capsys, tmp_path, uc, clients, accepted):
        # num_clients x num_label_classes <= 10**7; simulate is never run above it
        data = json.loads(open(uc("uc_a")).read())
        data["num_clients"], data["num_label_classes"] = clients, 1000
        p = tmp_path / "x.json"
        p.write_text(json.dumps(data))
        code, out, err = run(capsys, "validate", "--config", str(p))
        if accepted:
            assert code == 0 and not err and "ok" in out
        else:
            assert code == 1 and "ok" not in out
            assert len(err.splitlines()) == 1 and err.startswith("error: validation:")
            assert "num_clients" in err and "num_label_classes" in err and "10000000" in err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_seed_flag_out_of_range_is_a_validation_error(self, capsys, tmp_path, uc, command, seed):
        code, out, err = run(capsys, command, "--config", uc("uc_a"), "--seed", seed,
                             "--out", str(tmp_path / "out"))
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: validation:")
        assert "'seed'" in err and seed in err
        assert "ok" not in out
        assert not (tmp_path / "out").exists()

    # a name read from an input file may hold a newline; the message quotes it, so a second,
    # forged line never reaches stderr. Usage errors print one line too, not argparse's usage,
    # and a command-line argument's newline is escaped where the error is printed.
    _FORGED = "bogus\nerror: reference-data: fake"
    _ONE_LINE_CASES = {
        "scenario-field": {"scenario": {_FORGED: 1}},
        "energy-model-field": {"scenario": {"energy_model": {_FORGED: 1}}},
        "override-not-a-number": {"scenario": {"score_overrides": {_FORGED: "x"}}},
        "override-out-of-range": {"scenario": {"score_overrides": {_FORGED: 2.0}}},
        "override-node": {"scenario": {"score_overrides": {_FORGED: 0.5}}},
        "weight-node": {"weights": {_FORGED: 0.5}},
        "notion-weight-missing": {"pillars": {"notions": {"a": 0.5, _FORGED: 0.5}, "weights": {"a": 1.0}}},
        "notion-weight-unknown": {"pillars": {"notions": {"a": 0.5}, "weights": {"a": 1.0, _FORGED: 0.0}}},
        "seed-not-an-int": {"argv": ["score", "--seed", "abc"]},
        "config-missing": {"argv": ["score"], "config": False},
        "unknown-command": {"argv": ["bogus"], "config": False},
        "unrecognized-argument": {"argv": ["validate", f"--{_FORGED}"]},
        "config-path": {"argv": ["validate", "--config", _FORGED], "config": False},
        "weights-path": {"argv": ["validate", "--weights", _FORGED]},
        "pillars-path": {"argv": ["validate", "--pillars", _FORGED]},
    }

    @pytest.mark.parametrize("case", sorted(_ONE_LINE_CASES))
    def test_malformed_input_prints_one_validation_line(self, capsys, tmp_path, uc, case):
        spec = self._ONE_LINE_CASES[case]
        scenario = {**json.loads(Path(uc("uc_a")).read_text()), **spec.get("scenario", {})}
        (tmp_path / "s.json").write_text(json.dumps(scenario))
        argv = spec.get("argv", ["validate"])
        if spec.get("config", True):
            argv = [*argv, "--config", str(tmp_path / "s.json")]
        if "weights" in spec:
            (tmp_path / "w.json").write_text(json.dumps(spec["weights"]))
            argv += ["--weights", str(tmp_path / "w.json")]
        if "pillars" in spec:
            (tmp_path / "p.json").write_text(json.dumps({"pillars": {"privacy": spec["pillars"]}}))
            argv += ["--pillars", str(tmp_path / "p.json")]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: validation:"), err


# ── score ─────────────────────────────────────────────────────────────────


class TestScore:
    def test_uc_a_displays_one(self, capsys, tmp_path, uc):
        code, out, _ = run(capsys, "score", "--config", uc("uc_a"), "--out", str(tmp_path))
        assert code == 0
        assert "sustainability: 1.00" in out
        report = json.loads((tmp_path / "trust_report.json").read_text())
        assert report["pillars"]["sustainability"]["score"] == "1.00"

    def test_uc_b_displays_009(self, capsys, tmp_path, uc):
        code, out, _ = run(capsys, "score", "--config", uc("uc_b"), "--out", str(tmp_path))
        assert code == 0
        assert "sustainability: 0.09" in out

    def test_malformed_config_writes_nothing(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        code, _, err = run(capsys, "score", "--config", str(bad), "--out", str(tmp_path))
        assert code == 1
        assert not (tmp_path / "trust_report.json").exists()

    def test_score_with_pillars_produces_trust(self, capsys, tmp_path, uc, pillars):
        code, out, _ = run(capsys, "score", "--config", uc("proposal_b"),
                           "--pillars", pillars("proposal_b"), "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "trust_report.json").read_text())
        assert report["trust"]["score"] == "0.65"
        assert len(report["pillars"]) == 7

    def test_custom_weights_change_pillar(self, capsys, tmp_path, uc, scenario_dir):
        weights = scenario_dir.parent / "weights" / "carbon_emphasis.json"
        code, out, _ = run(capsys, "score", "--config", uc("uc_d"),
                           "--weights", str(weights), "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "trust_report.json").read_text())
        # carbon (0.11) weighted up from 0.5 to 0.6 drags the pillar down
        assert report["pillars"]["sustainability"]["score"] == "0.45"

    def test_bad_weight_sums_rejected(self, capsys, tmp_path, uc):
        w = tmp_path / "w.json"
        w.write_text(json.dumps({"sustainability.carbon_intensity": 0.9}))
        code, _, err = run(capsys, "score", "--config", uc("uc_a"),
                           "--weights", str(w), "--out", str(tmp_path))
        assert code == 1
        assert "error: validation:" in err

    # each trust-path case's golden-table entry (tests/golden.py), which holds its digests
    _TRUST_PATH_CASES = {
        **{f"score-{name}": f"score {name}" for name in
           ("uc_a", "uc_b", "uc_c", "uc_d", "proposal_a", "proposal_b", "desk_scale_1000")},
        "score-proposal_b-pillars": "score proposal_b pillars",
        "score-proposal_b-renormalized": "score proposal_b allow-partial without robustness weights=pillar_weights",
        "compare-proposals": "compare proposal_a proposal_b",
        "compare-proposals-carbon_emphasis": "compare proposal_a proposal_b weights=carbon_emphasis",
    }

    @pytest.mark.parametrize("case", sorted(_TRUST_PATH_CASES))
    def test_trust_path_bytes_pinned(self, case):
        check_golden(self._TRUST_PATH_CASES[case])

    # every place a group of weights or shares is read; each must sum to 1 within 1e-9
    _WEIGHT_GROUPS = ("tree-weights", "pillar-weights", "pillar-weights-partial", "notion-weights",
                      "mix-shares")

    @pytest.mark.parametrize("offset", [5e-10, -5e-10, 2e-9, -2e-9])
    @pytest.mark.parametrize("group", _WEIGHT_GROUPS)
    @settings(derandomize=True, deadline=None, database=None, max_examples=5)
    @given(parts=st.lists(st.integers(1, 9), min_size=7, max_size=7))
    def test_weight_sum_tolerance_boundary(self, tmp_path_factory, scenario_dir, pillar_dir, group,
                                           offset, parts):
        base = tmp_path_factory.mktemp("tolerance")
        size = {"tree-weights": 3, "mix-shares": len(_HARDWARE)}.get(group, 7)
        head = [part / sum(parts[:size]) for part in parts[:size - 1]]
        weights = head + [(1.0 + offset) - math.fsum(head)]  # math.fsum(weights) == 1 + offset
        config, pillars = scenario_dir / "proposal_b.json", pillar_dir / "proposal_b_pillars.json"
        if group == "tree-weights":
            notions = ("carbon_intensity", "federation_complexity", "hardware_efficiency")
            payload = {f"sustainability.{n}": w for n, w in zip(notions, weights)}
            (base / "w.json").write_text(json.dumps(payload))
            argv = ["--weights", str(base / "w.json")]
        elif group.startswith("pillar-weights"):
            pillar_ids = ("accountability", "explainability", "fairness", "federation", "privacy",
                          "robustness", "sustainability")
            (base / "w.json").write_text(json.dumps(dict(zip(pillar_ids, weights))))
            argv = ["--pillars", str(pillars), "--weights", str(base / "w.json")]
            argv += ["--allow-partial"] if group.endswith("partial") else []
        elif group == "notion-weights":
            notions = {f"n{i}": i / 7 for i in range(7)}
            (base / "p.json").write_text(json.dumps(
                {"pillars": {"privacy": {"notions": notions, "weights": dict(zip(notions, weights))}}}))
            argv = ["--pillars", str(base / "p.json")]
        else:
            scenario = json.loads((scenario_dir / "uc_a.json").read_text())
            scenario["client_hardware"] = [{"share": w, "model": m} for w, m in zip(weights, _HARDWARE)]
            config = base / "x.json"
            config.write_text(json.dumps(scenario))
            argv = []
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["score", "--config", str(config), *argv, "--out", str(base / "out")])
        within = abs(offset) < 1e-9
        if group == "pillar-weights-partial":
            assert code == 0
            report = json.loads((base / "out" / "trust_report.json").read_text())
            total = math.fsum(weights)
            expected = weights if within else [w / total for w in weights]
            assert list(report["trust"]["pillar_weights"].values()) == expected
        else:
            assert code == (0 if within else 1)
            named = {"tree-weights": "'sustainability'", "notion-weights": "'privacy'",
                     "mix-shares": "'client_hardware'"}.get(group, "pillar weights")
            assert within or (err.getvalue().startswith("error: validation:") and named in err.getvalue()
                              and "expected 1.0" in err.getvalue())

    def test_allow_partial_renormalizes_missing_pillar(self, capsys, tmp_path, uc, pillar_dir):
        fixture = json.loads((pillar_dir / "proposal_b_pillars.json").read_text())
        del fixture["pillars"]["robustness"]
        p = tmp_path / "partial.json"
        p.write_text(json.dumps(fixture))
        code, _, _ = run(capsys, "score", "--config", uc("proposal_b"),
                         "--pillars", str(p), "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "trust_report.json").read_text())
        assert len(report["trust"]["pillar_weights"]) == 6

    def test_negative_zero_inputs_write_the_zero_report(self, capsys, tmp_path, uc):
        # an override, a weight-file weight, a plain pillar score and a pillar notion score
        reports = []
        for zero in (-0.0, 0.0):
            scenario = json.loads(Path(uc("uc_b")).read_text())
            scenario["score_overrides"] = {"sustainability.hardware_efficiency.server": zero}
            (tmp_path / "s.json").write_text(json.dumps(scenario))
            (tmp_path / "w.json").write_text(json.dumps({
                "sustainability.carbon_intensity": 1.0,
                "sustainability.hardware_efficiency": zero,
                "sustainability.federation_complexity": 0.0,
            }))
            (tmp_path / "p.json").write_text(json.dumps(
                {"pillars": {"privacy": zero, "fairness": {"notions": {"a": zero}}}}))
            out = tmp_path / str(zero)
            code, _, err = run(capsys, "score", "--config", str(tmp_path / "s.json"), "--weights",
                               str(tmp_path / "w.json"), "--pillars", str(tmp_path / "p.json"), "--out", str(out))
            assert code == 0, err
            reports.append((out / "trust_report.json").read_bytes())
        assert b"-0.0" not in reports[0]
        assert reports[0] == reports[1]


# ── simulate ──────────────────────────────────────────────────────────────


class TestSimulate:
    def test_row_counts_and_outputs(self, capsys, tmp_path, scenario_dir, uc):
        # 5 clients at rate 0.2 over 10 rounds: 10 training + 10 aggregation rows
        code, out, _ = run(capsys, "simulate", "--config", uc("uc_a"), "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "emissions.csv").read_text().splitlines()
        assert len(lines) == 1 + 10 + 10
        assert (tmp_path / "factsheet.json").exists()
        assert (tmp_path / "trust_report.json").exists()

    def test_same_invocation_twice_is_byte_identical(self, capsys, tmp_path, uc):
        for d in ("one", "two"):
            code, _, _ = run(capsys, "simulate", "--config", uc("uc_d"),
                             "--out", str(tmp_path / d))
            assert code == 0
        for name in ("trust_report.json", "factsheet.json", "emissions.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes(), name

    def test_seed_override_changes_selection_not_scores(self, capsys, tmp_path, uc):
        code, _, _ = run(capsys, "simulate", "--config", uc("uc_d"), "--out", str(tmp_path / "a"))
        assert code == 0
        code, _, _ = run(capsys, "simulate", "--config", uc("uc_d"), "--seed", "999",
                         "--out", str(tmp_path / "b"))
        assert code == 0
        ra = json.loads((tmp_path / "a" / "trust_report.json").read_text())
        rb = json.loads((tmp_path / "b" / "trust_report.json").read_text())
        assert ra["metrics"] == rb["metrics"]
        assert ra["pillars"] == rb["pillars"]
        fa = json.loads((tmp_path / "a" / "factsheet.json").read_text())
        fb = json.loads((tmp_path / "b" / "factsheet.json").read_text())
        assert fa["during_training"]["selection_counts"] != fb["during_training"]["selection_counts"]

    def test_failed_run_leaves_no_partial_files(self, capsys, tmp_path, uc):
        data = json.loads(open(uc("uc_a")).read())
        data["client_hardware"] = "Imaginary 9000"
        p = tmp_path / "x.json"
        p.write_text(json.dumps(data))
        code, _, err = run(capsys, "simulate", "--config", str(p), "--out", str(tmp_path / "out"))
        assert code == 2
        assert not (tmp_path / "out").exists()

    def test_workers_below_one_rejected(self, capsys, tmp_path, uc):
        code, _, err = run(capsys, "simulate", "--config", uc("uc_a"), "--workers", "0",
                           "--out", str(tmp_path / "out"))
        assert code == 1
        assert err.startswith("error: validation:")
        assert not (tmp_path / "out").exists()

    def test_non_finite_number_rejected_and_nothing_written(self, capsys, tmp_path, uc):
        data = json.loads(open(uc("uc_a")).read())
        data["statistics"] = {"accuracy": float("nan")}
        p = tmp_path / "x.json"
        p.write_text(json.dumps(data))  # json.dumps writes a bare NaN
        assert "NaN" in p.read_text()
        code, _, err = run(capsys, "simulate", "--config", str(p), "--out", str(tmp_path / "out"))
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("error: validation:")
        assert not (tmp_path / "out").exists()

    def test_desk_scale_bytes_pinned(self):
        # desk_scale_1000 at --seed 3; its digests are in the golden table
        check_golden("simulate desk_scale_1000 seed=3")

    @pytest.mark.parametrize("shape", sorted(golden.FLEETS))
    def test_wide_fleet_bytes_pinned(self, shape):
        # a generated fleet with three hardware and three location entries (golden.FLEETS)
        check_golden(f"simulate fleet_{shape}")

    def test_signed_zero_rows_print_their_sign(self, capsys, tmp_path, uc):
        # a -0.0 aggregation time prices the server's rows at -0.0 and a 0.0 training time
        # the clients' at 0.0; 0.0 == -0.0, so number text cached by value would merge them.
        # The digest is the emissions.csv written before the table stored round blocks.
        scenario = json.loads(Path(uc("uc_d")).read_text())
        scenario["energy_model"] = {"train_seconds_per_unit": 0.0, "agg_seconds_per_unit": -0.0}
        (tmp_path / "zero.json").write_text(json.dumps(scenario))
        code, _, _ = run(capsys, "simulate", "--config", str(tmp_path / "zero.json"),
                         "--out", str(tmp_path / "out"))
        assert code == 0
        csv = (tmp_path / "out" / "emissions.csv").read_bytes()
        rows = [line.split(",", 3) for line in csv.decode("utf-8").splitlines()[1:]]
        assert [row[3] for row in rows if row[1] == "server"] == ["aggregation,-0,-0,709,-0"] * 10
        assert {row[3] for row in rows if row[1] == "client"} == {"training,0,0,709,0"}
        assert hashlib.sha256(csv).hexdigest() == \
            "4231587fd71e6ee37a15b8a5dc62255b3c3cd05b606ec80bc940bd313371a712"

    def test_simulate_prices_the_fleet_once(self, capsys, tmp_path, monkeypatch, uc):
        calls = []
        original = fedsim.price_fleet

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "price_fleet", counted)
        monkeypatch.setattr(fedsim, "price_fleet", counted)
        code, _, _ = run(capsys, "simulate", "--config", uc("uc_d"), "--out", str(tmp_path))
        assert code == 0
        assert len(calls) == 1

    def test_outputs_get_the_umask_mode(self, capsys, tmp_path, uc):
        previous = os.umask(0o022)
        try:
            code, _, _ = run(capsys, "simulate", "--config", uc("uc_a"), "--out", str(tmp_path))
        finally:
            os.umask(previous)
        assert code == 0
        for name in ("trust_report.json", "factsheet.json", "emissions.csv"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o644, name

    @settings(derandomize=True, deadline=None, database=None, max_examples=25)
    @given(scenario=small_scenarios())
    def test_repeat_runs_write_the_same_bytes(self, tmp_path_factory, scenario):
        base = tmp_path_factory.mktemp("repeat")
        (base / "x.json").write_text(json.dumps(scenario))
        for d in ("one", "two"):
            assert main(["simulate", "--config", str(base / "x.json"), "--out", str(base / d)]) == 0
        for name in ("trust_report.json", "factsheet.json", "emissions.csv"):
            assert (base / "one" / name).read_bytes() == (base / "two" / name).read_bytes(), name



# ── compare ───────────────────────────────────────────────────────────────


class TestCompare:
    def test_proposal_comparison_reference(self, capsys, tmp_path, uc, pillars):
        code, out, _ = run(
            capsys, "compare",
            "--config", uc("proposal_a"), "--config", uc("proposal_b"),
            "--pillars", pillars("proposal_a"), "--pillars", pillars("proposal_b"),
            "--out", str(tmp_path),
        )
        assert code == 0
        assert "ranked first: proposal_b" in out
        comparison = json.loads((tmp_path / "comparison.json").read_text())
        assert comparison["a"]["trust_with_sustainability"]["score"] == "0.53"
        assert comparison["b"]["trust_with_sustainability"]["score"] == "0.65"
        assert comparison["a"]["trust_without_sustainability"]["score"] == "0.58"
        assert comparison["b"]["trust_without_sustainability"]["score"] == "0.63"
        assert comparison["ranked_first"] == "proposal_b"

    def test_identical_configs_all_deltas_zero(self, capsys, tmp_path, uc, pillars):
        code, out, _ = run(
            capsys, "compare",
            "--config", uc("proposal_a"), "--config", uc("proposal_a"),
            "--pillars", pillars("proposal_a"),
            "--out", str(tmp_path),
        )
        assert code == 0
        comparison = json.loads((tmp_path / "comparison.json").read_text())
        assert all(d == 0 for d in comparison["pillar_deltas_raw"].values())
        assert comparison["trust_delta_raw"] == 0
        assert comparison["ranked_first"] == "tie"

    def test_compare_requires_two_configs(self, capsys, uc, pillars, tmp_path):
        code, _, err = run(capsys, "compare", "--config", uc("proposal_a"),
                           "--pillars", pillars("proposal_a"), "--out", str(tmp_path))
        assert code == 1
        assert "error: validation:" in err

    def test_one_pillar_file_serves_both_but_three_are_rejected(self, capsys, uc, pillars, tmp_path):
        argv = ["compare", "--config", uc("proposal_a"), "--config", uc("proposal_b"),
                "--pillars", pillars("proposal_a")]
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / "one"))
        assert code == 0 and not err
        code, _, err = run(capsys, *argv, "--pillars", pillars("proposal_b"),
                           "--pillars", pillars("proposal_b"), "--out", str(tmp_path / "three"))
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: validation:") and "--pillars" in err
        assert not (tmp_path / "three").exists()

    def test_trust_without_sustainability_ignores_pillar_weights(self, capsys, uc, pillars, tmp_path):
        weights = {"sustainability": 0.4, "privacy": 0.2, "robustness": 0.1, "fairness": 0.1,
                   "explainability": 0.1, "accountability": 0.05, "federation": 0.05}
        w = tmp_path / "w.json"
        w.write_text(json.dumps(weights))
        argv = ["compare", "--config", uc("proposal_a"), "--config", uc("proposal_b"),
                "--pillars", pillars("proposal_a"), "--pillars", pillars("proposal_b")]
        assert run(capsys, *argv, "--weights", str(w), "--out", str(tmp_path / "w"))[0] == 0
        assert run(capsys, *argv, "--out", str(tmp_path / "equal"))[0] == 0
        weighted = json.loads((tmp_path / "w" / "comparison.json").read_text())
        equal = json.loads((tmp_path / "equal" / "comparison.json").read_text())
        for side, name in (("a", "proposal_a"), ("b", "proposal_b")):
            externals = load_pillar_fixture(pillars(name))
            mean = sum(externals.values()) / len(externals)
            without = weighted[side]["trust_without_sustainability"]
            assert without == equal[side]["trust_without_sustainability"]
            assert without["score_raw"] == pytest.approx(mean, abs=1e-12)
            # the weight file does reach the trust score that includes sustainability
            assert weighted[side]["trust_with_sustainability"]["pillar_weights"] == weights
            assert weighted[side]["trust_with_sustainability"] != equal[side]["trust_with_sustainability"]

    def test_weight_file_is_read_once(self, capsys, monkeypatch, uc, pillars, scenario_dir, tmp_path):
        calls = []
        original = cli.load_weight_config

        def counted(path):
            calls.append(path)
            return original(path)

        monkeypatch.setattr(cli, "load_weight_config", counted)
        weights = str(scenario_dir.parent / "weights" / "carbon_emphasis.json")
        code, _, err = run(capsys, "compare", "--config", uc("proposal_a"), "--config", uc("proposal_b"),
                           "--pillars", pillars("proposal_a"), "--weights", weights, "--out", str(tmp_path))
        assert (code, err) == (0, "")
        assert calls == [weights]

    def test_bad_scenario_a_is_reported_before_a_bad_weight_file(self, capsys, uc, pillars, tmp_path):
        (tmp_path / "a.json").write_text("{")
        (tmp_path / "w.json").write_text("[")
        argv = ["compare", "--config", str(tmp_path / "a.json"), "--config", uc("proposal_b"),
                "--pillars", pillars("proposal_a"), "--weights", str(tmp_path / "w.json"),
                "--out", str(tmp_path / "out")]
        code, _, err = run(capsys, *argv)
        assert code == 1 and len(err.splitlines()) == 1
        assert "a.json" in err and "w.json" not in err
        argv[2] = uc("proposal_a")
        code, _, err = run(capsys, *argv)
        assert code == 1 and len(err.splitlines()) == 1 and "w.json" in err

    def test_compare_requires_pillars(self, capsys, uc, tmp_path):
        code, _, err = run(capsys, "compare", "--config", uc("proposal_a"),
                           "--config", uc("proposal_b"), "--out", str(tmp_path))
        assert code == 1
        assert "--pillars" in err


# ── imports ───────────────────────────────────────────────────────────────


def test_only_simulate_loads_numpy(tmp_path, scenario_dir, pillar_dir):
    # a fresh interpreter: validate, score and compare run without numpy;
    # simulate imports it at its label draw
    script = textwrap.dedent("""
        import sys
        import fedsust, fedsust.cli
        scenarios, pillars, out = sys.argv[1:]
        uc_a = f"{scenarios}/uc_a.json"
        calls = [
            ["validate", "--config", uc_a],
            ["score", "--config", f"{scenarios}/proposal_b.json",
             "--pillars", f"{pillars}/proposal_b_pillars.json", "--out", out],
            ["compare", "--config", f"{scenarios}/proposal_a.json",
             "--config", f"{scenarios}/proposal_b.json",
             "--pillars", f"{pillars}/proposal_a_pillars.json",
             "--pillars", f"{pillars}/proposal_b_pillars.json", "--out", out],
        ]
        for argv in calls:
            assert fedsust.cli.main(argv) == 0, argv
        assert "numpy" not in sys.modules, "numpy loaded before simulate"
        assert fedsust.cli.main(["simulate", "--config", uc_a, "--out", out]) == 0
        assert "numpy" in sys.modules, "simulate ran without numpy"
    """)
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", script, str(scenario_dir), str(pillar_dir), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "factsheet.json").exists()


def test_cold_import_skips_dataclasses_inspect_and_logging():
    # every command starts by importing fedsust.cli in a fresh process; these three modules
    # would cost it about a third of its import time
    script = textwrap.dedent("""
        import sys
        import fedsust.cli
        loaded = sorted({"dataclasses", "inspect", "logging"} & set(sys.modules))
        assert not loaded, loaded
    """)
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_parser_is_built_once_per_process(capsys, monkeypatch, uc):
    assert main(["validate", "--config", uc("uc_a")]) == 0
    added = []
    original = argparse.ArgumentParser.add_argument
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument",
                        lambda self, *a, **k: added.append(a) or original(self, *a, **k))
    assert main(["validate", "--config", uc("uc_a")]) == 0
    assert added == []


def test_traced_runs_still_install(tmp_path, scenario_dir, pillar_dir):
    # bench/tracer.py wraps names in fedsust's modules, so each must stay bound
    script = textwrap.dedent("""
        import sys
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
        since = tracer.mark()
        from fedsust.cli import main
        scenarios, pillars, out = sys.argv[1:]
        uc_a = f"{scenarios}/uc_a.json"
        assert main(["simulate", "--config", uc_a, "--out", out]) == 0
        assert main(["validate", "--config", uc_a]) == 0
        summary = tracer.summary(since)
        assert summary["fedsim.hash_label.calls"] == 10, summary  # once per class label
        assert "emissions.track_phase.calls" not in summary, summary
        # the factsheet goes through write_report, which the tracer does not wrap
        assert summary["report.write_atomic.calls"] == 2, summary
        since = tracer.mark()
        assert main(["score", "--config", uc_a, "--out", out]) == 0
        assert main(["compare", "--config", f"{scenarios}/proposal_a.json",
                     "--config", f"{scenarios}/proposal_b.json",
                     "--pillars", f"{pillars}/proposal_a_pillars.json",
                     "--pillars", f"{pillars}/proposal_b_pillars.json", "--out", out]) == 0
        summary = tracer.summary(since)
        assert summary["report.render_report.calls"] == 2, summary
        assert summary["report.write_atomic.calls"] == 2, summary
        assert summary["scoring.trust_score.calls"] > 0, summary
    """)
    result = subprocess.run(
        [sys.executable, "-c", script, str(scenario_dir), str(pillar_dir), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(_ROOT / "src"), str(_ROOT / "bench")])},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    for name in ("trust_report.json", "factsheet.json", "emissions.csv", "comparison.json"):
        assert (tmp_path / name).exists(), name
