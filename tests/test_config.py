"""Tests for scenario parsing, validation, and derived sampling quantities."""

import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsust.config import (
    MAX_JSON_DEPTH,
    ConfigError,
    EnergyModel,
    FederationConfig,
    config_digest,
    load_scenario,
    parse_config,
)


BASE = dict(
    name="cfg",
    num_clients=8,
    total_rounds=10,
    selection_rate=0.25,
    local_rounds=1,
    dataset_size=100,
    model_size=1000,
    client_hardware="Intel Core i7-1250U",
    client_locations="CH",
    server_hardware="Intel Core i7-1250U",
    server_location="CH",
    seed=1,
)


_TEXT = st.text(st.sampled_from(["a", "\u00e9", "\x00", '"', "\\", "\U0001f600"]), max_size=8)
# json.dumps writes a lone surrogate as a \ud800-style escape
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT | st.just("\ud800"),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_TEXT, children, max_size=4),
    max_leaves=12,
)


# config_digest of each bundled scenario, as given and with seed 7
_PINNED_DIGESTS = {
    "desk_scale_1000": ("sha256:ded349f5e986be975a28b40ecf3f39d755cf22e119649a2a1602208b308b4377",
                        "sha256:ded349f5e986be975a28b40ecf3f39d755cf22e119649a2a1602208b308b4377"),
    "proposal_a": ("sha256:738ae7f5c56953eef9b585b649b3d62de73ef77719f1fd16214c10f15933000d",
                   "sha256:5d4d0c83d6bcf551f7f06c5dfff90516026cd1136ccc98025c0490d218c5fc39"),
    "proposal_b": ("sha256:b3c4734387d8f5d4cad41e0bec30ec3dd3c9b232e52f9eb7a632ce325be2d7f0",
                   "sha256:f08953591c8add988dea8ceea00a640c886c2ccffac81fab44139c0d877c7bca"),
    "uc_a": ("sha256:3ddf0e02dca38b75e22bdbb38da16b5e807a6c4b2d76866ef044b8c01277da7f",
             "sha256:0f21c90d5077ba5b182996121b568ab7ab81c9c965a8c3f8492801c073e60904"),
    "uc_b": ("sha256:c6fd0b245b87f0a6165ef17b151aa603eab036631a58dc5fcfeacb2eed36cc3d",
             "sha256:f9756b24760b3389e4c2ba5134a74dde44fc8d64746d1a5882bdfea27904934a"),
    "uc_c": ("sha256:f07f85c426a2d08ed2366eff583c88d4685349ec4159d86e843c7c1d4e3bb984",
             "sha256:c414191c7daf15ef31d80f8c6019f219f3957a3e8e584d7997e35f5f2d1e8df4"),
    "uc_d": ("sha256:2e72c66a20122f981a2aaeeb589fd8986530ad16bcec74eaae3782d3a4a83b95",
             "sha256:bf421a511fb3b3cef4737ec9523c1a5627fcedde1167b23fac89d8a72744f424"),
}


def cfg(**kwargs):
    data = dict(BASE)
    data.update(kwargs)
    return parse_config(data)


class TestSamplingFields:
    def test_rate_only_derives_sample_size(self):
        c = cfg(selection_rate=0.25)
        assert c.sample_size == 2
        assert c.selection_rate == 0.25

    def test_sample_size_only_derives_rate(self):
        data = dict(BASE)
        del data["selection_rate"]
        data["sample_size"] = 2
        c = parse_config(data)
        assert c.selection_rate == 0.25

    def test_rate_not_matching_any_integer_draw_keeps_configured_rate(self):
        # 0.3 of 8 clients has no exact integer draw; the nearest (2) is used
        # for simulation while 0.3 stays the scored raw value
        c = cfg(selection_rate=0.3)
        assert c.sample_size == 2
        assert c.selection_rate == 0.3

    def test_both_must_agree(self):
        with pytest.raises(ConfigError, match="selection_rate"):
            cfg(selection_rate=0.5, sample_size=2)
        c = cfg(selection_rate=0.25, sample_size=2)
        assert c.sample_size == 2

    def test_one_of_them_required(self):
        data = dict(BASE)
        del data["selection_rate"]
        with pytest.raises(ConfigError, match="sample_size.*selection_rate"):
            parse_config(data)

    def test_bounds(self):
        with pytest.raises(ConfigError):
            cfg(selection_rate=0.0)
        with pytest.raises(ConfigError):
            cfg(selection_rate=1.2)
        data = dict(BASE)
        del data["selection_rate"]
        data["sample_size"] = 9
        with pytest.raises(ConfigError, match="sample_size"):
            parse_config(data)


class TestMixParsing:
    def test_single_string_is_full_share(self):
        assert cfg().client_locations == ((1.0, "CH"),)

    def test_per_client_list_groups_to_shares(self):
        c = cfg(num_clients=4, client_locations=["CH", "CH", "ZA", "GM"])
        assert dict((v, s) for s, v in c.client_locations) == {"CH": 0.5, "ZA": 0.25, "GM": 0.25}

    def test_per_client_list_length_must_match(self):
        with pytest.raises(ConfigError, match="num_clients"):
            cfg(num_clients=3, client_locations=["CH", "ZA"])

    def test_share_objects(self):
        c = cfg(client_hardware=[{"share": 0.75, "model": "A"}, {"share": 0.25, "model": "B"}])
        assert c.client_hardware == ((0.75, "A"), (0.25, "B"))

    def test_shares_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="sum"):
            cfg(client_hardware=[{"share": 0.7, "model": "A"}, {"share": 0.2, "model": "B"}])

    def test_share_bounds_and_shape(self):
        with pytest.raises(ConfigError):
            cfg(client_hardware=[{"share": 0.0, "model": "A"}, {"share": 1.0, "model": "B"}])
        with pytest.raises(ConfigError):
            cfg(client_hardware=[{"model": "A"}])
        with pytest.raises(ConfigError):
            cfg(client_hardware=[])


class TestFieldValidation:
    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError, match="bananas"):
            cfg(bananas=3)

    def test_integer_fields_validated(self):
        for field in ("num_clients", "total_rounds", "local_rounds", "dataset_size", "model_size"):
            with pytest.raises(ConfigError, match=field):
                cfg(**{field: 0})
            with pytest.raises(ConfigError, match=field):
                cfg(**{field: "ten"})

    def test_json_float_literals_for_integers_accepted(self):
        # 1.1E+06-style literals parse as floats; integral values are fine
        c = cfg(dataset_size=1.1e6, model_size=1e13)
        assert c.dataset_size == 1_100_000
        assert c.model_size == 10**13

    def test_seed_range(self):
        with pytest.raises(ConfigError, match="seed"):
            cfg(seed=-1)
        with pytest.raises(ConfigError, match="seed"):
            cfg(seed=2**64)
        assert cfg(seed=2**64 - 1).seed == 2**64 - 1

    def test_override_scores_validated(self):
        with pytest.raises(ConfigError, match="score_overrides"):
            cfg(score_overrides={"x": 1.5})
        assert cfg(score_overrides={"sustainability": 0.5}).score_overrides == {"sustainability": 0.5}

    def test_energy_model_fields_validated(self):
        with pytest.raises(ConfigError, match="cpu_utilization"):
            cfg(energy_model={"cpu_utilization": 1.5})
        with pytest.raises(ConfigError, match="comm_energy_per_byte"):
            cfg(energy_model={"comm_energy_per_byte": -1})
        with pytest.raises(ConfigError, match="unknown"):
            cfg(energy_model={"warp_drive": 1})
        assert cfg(energy_model={"idle_fraction": 0.2}).energy_model.idle_fraction == 0.2

    @pytest.mark.parametrize("value", [None, "1e-12", True, [1e-12], {}])
    def test_energy_model_wrong_type_names_the_sub_field(self, value):
        with pytest.raises(ConfigError, match=r"'energy_model\.comm_energy_per_byte' must be a number") as info:
            cfg(energy_model={"comm_energy_per_byte": value})
        assert "unknown" not in str(info.value)

    @pytest.mark.parametrize("field", ["selection_rate", "num_clients", "model_size"])
    def test_integer_too_large_for_a_float_rejected(self, field):
        with pytest.raises(ConfigError, match=field):
            cfg(**{field: 10**400})

    @pytest.mark.parametrize("data", [
        {"energy_model": {"cpu_utilization": 10**400}},
        {"score_overrides": {"sustainability": 10**400}},
        {"client_locations": [{"share": 10**400, "location": "CH"}]},
    ])
    def test_nested_integer_too_large_for_a_float_rejected(self, data):
        with pytest.raises(ConfigError):
            cfg(**data)


class TestEnergyModel:
    def test_defaults(self):
        em = EnergyModel()
        assert em.cpu_utilization == 1.0
        assert em.comm_energy_per_byte == 0.0
        assert em.effective_utilization() == 1.0

    @pytest.mark.parametrize("name, value, message", [
        ("cpu_utilization", 1.5, "must lie in [0, 1], got 1.5"),
        ("idle_fraction", -0.1, "must lie in [0, 1], got -0.1"),
        ("comm_energy_per_byte", -1, "must be >= 0"),
        ("train_seconds_per_unit", -1e-3, "must be >= 0"),
        ("agg_seconds_per_unit", -2, "must be >= 0"),
    ])
    def test_parse_config_checks_each_field(self, name, value, message):
        with pytest.raises(ConfigError) as info:
            cfg(energy_model={name: value})
        assert str(info.value) == f"field 'energy_model.{name}' {message}"

    def test_records_stay_immutable(self):
        config = cfg()
        for record, name in ((config, "seed"), (config.energy_model, "cpu_utilization")):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)


class TestLoadScenario:
    def test_loads_bundled_scenarios(self, scenario_dir):
        for path in sorted(scenario_dir.glob("*.json")):
            config = load_scenario(path)
            assert config.num_clients >= 1, path.name

    def test_name_defaults_to_stem(self, tmp_path):
        data = dict(BASE)
        del data["name"]
        p = tmp_path / "my_run.json"
        p.write_text(json.dumps(data))
        assert load_scenario(p).name == "my_run"

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_numbers_rejected_anywhere(self, tmp_path, literal):
        text = json.dumps(dict(BASE, statistics={"accuracy": 0.5}))
        p = tmp_path / "x.json"
        p.write_text(text.replace('"accuracy": 0.5', f'"accuracy": {literal}'))
        with pytest.raises(ConfigError, match="non-finite"):
            load_scenario(p)

    @pytest.mark.parametrize("depth", [MAX_JSON_DEPTH, MAX_JSON_DEPTH + 1])
    def test_nesting_ceiling(self, tmp_path, depth):
        # the scenario object is level 1; statistics adds depth - 1 levels
        statistics = functools.reduce(lambda inner, _: {"k": inner}, range(depth - 1), 0)
        p = tmp_path / "x.json"
        p.write_text(json.dumps(dict(BASE, statistics=statistics)))
        if depth <= MAX_JSON_DEPTH:
            assert load_scenario(p).statistics == statistics
        else:
            with pytest.raises(ConfigError, match=f"deeper than {MAX_JSON_DEPTH}"):
                load_scenario(p)

    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(raw=st.binary(max_size=64)
           | _JSON_VALUES.map(lambda v: json.dumps(v).encode("utf-8"))
           | st.dictionaries(st.sampled_from(sorted(BASE) + ["num_label_classes", "energy_model",
                                                             "score_overrides", "statistics"]),
                             st.integers(-1, 2000) | st.floats(0, 1.5) | _JSON_VALUES, max_size=3)
             .map(lambda changes: json.dumps(dict(BASE, **changes)).encode("utf-8")))
    def test_any_file_loads_or_raises_config_error(self, tmp_path_factory, raw):
        # arbitrary bytes, arbitrary JSON, and BASE with up to three fields replaced
        p = tmp_path_factory.getbasetemp() / "arbitrary.json"
        p.write_bytes(raw)
        try:
            config = load_scenario(p)
        except ConfigError:
            return
        assert isinstance(config, FederationConfig)

    def test_digest_is_stable_and_sensitive(self):
        a, b = cfg(), cfg()
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest(cfg(seed=2))
        assert config_digest(a).startswith("sha256:")

    @pytest.mark.parametrize("name", sorted(_PINNED_DIGESTS))
    def test_bundled_digests_pinned(self, scenario_dir, name):
        config = load_scenario(scenario_dir / f"{name}.json")
        assert (config_digest(config), config_digest(config._replace(seed=7))) == _PINNED_DIGESTS[name]

    def test_digest_of_every_field_pinned(self):
        # an int energy-model value is kept as given, so it digests as 1, not 1.0
        config = cfg(energy_model={"cpu_utilization": 1, "idle_fraction": 0.25},
                     score_overrides={"sustainability.carbon_intensity": 0.5},
                     statistics={"accuracy": [1, {"b": None}], "note": "\u00e9"}, description="d",
                     num_label_classes=3,
                     client_locations=[{"share": 0.5, "location": "CH"}, {"share": 0.5, "location": "DE"}])
        assert config_digest(config) == "sha256:e16761f48354d2264965ab0bb905b909e234bf87229a90c1e7716da576c49f21"
