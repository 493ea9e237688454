"""Tests for the ten sustainability metrics and their notion scores."""

import random

import pytest

from fedsust.config import ConfigError, parse_config
from fedsust.report import display_score
from fedsust.scoring import aggregate
from fedsust.sustainability import (
    assess_carbon,
    assess_complexity,
    assess_hardware,
    build_sustainability_node,
)


def make_config(**kwargs):
    base = dict(
        name="t",
        num_clients=4,
        total_rounds=10,
        selection_rate=0.5,
        local_rounds=1,
        dataset_size=100,
        model_size=1000,
        client_hardware="Intel Core i7-1250U",
        client_locations="CH",
        server_hardware="Intel Core i7-1250U",
        server_location="CH",
        seed=1,
    )
    base.update(kwargs)
    return parse_config(base)


def scored_pillar(config, tables):
    fleet = tables.resolve(config)
    node = build_sustainability_node(assess_carbon(fleet), assess_hardware(fleet), assess_complexity(config))
    return aggregate(node, overrides=config.score_overrides)


def notion(scored, name):
    return scored.find(f"sustainability.{name}")


# ── carbon intensity ──────────────────────────────────────────────────────


class TestCarbonAssessment:
    def test_assessments_are_immutable(self, tables):
        config = make_config()
        fleet = tables.resolve(config)
        for record in (assess_carbon(fleet), assess_hardware(fleet), assess_complexity(config)):
            with pytest.raises(AttributeError):
                setattr(record, record._fields[0], 0.0)

    def test_half_kosovo_half_gambia_averages_to_734_5(self, tables):
        cfg = make_config(
            num_clients=1000,
            client_locations=[{"share": 0.5, "location": "XK"}, {"share": 0.5, "location": "GM"}],
            server_location="ZA",
        )
        carbon = assess_carbon(tables.resolve(cfg))
        assert carbon.client_avg == pytest.approx(734.5, abs=1e-9)
        assert carbon.server == 709

    def test_uniform_country_means_client_avg_equals_server(self, tables):
        cfg = make_config(client_locations="ZA", server_location="ZA")
        carbon = assess_carbon(tables.resolve(cfg))
        assert carbon.client_avg == carbon.server == 709

    def test_equal_ch_za_mix_averages_to_370_5(self, tables):
        cfg = make_config(num_clients=2, client_locations=["CH", "ZA"])
        carbon = assess_carbon(tables.resolve(cfg))
        assert carbon.client_avg == pytest.approx(370.5, abs=1e-9)

    def test_client_order_is_irrelevant(self, tables):
        a = make_config(num_clients=3, client_locations=["CH", "ZA", "GM"])
        b = make_config(num_clients=3, client_locations=["GM", "CH", "ZA"])
        ca = assess_carbon(tables.resolve(a))
        cb = assess_carbon(tables.resolve(b))
        assert ca.client_avg == pytest.approx(cb.client_avg, abs=1e-12)

    def test_adding_dirtier_client_raises_average(self, tables):
        rng = random.Random(7)
        codes = [c for c, _ in tables.grid.items()]
        for _ in range(100):
            pool = rng.sample(codes, k=rng.randint(1, 5))
            cfg = make_config(num_clients=len(pool), client_locations=pool)
            avg = assess_carbon(tables.resolve(cfg)).client_avg
            dirtier = [c for c, v in tables.grid.items() if v > avg]
            if not dirtier:
                continue
            extra = rng.choice(dirtier)
            cfg2 = make_config(num_clients=len(pool) + 1, client_locations=pool + [extra])
            avg2 = assess_carbon(tables.resolve(cfg2)).client_avg
            assert avg2 > avg

    def test_unknown_location_propagates(self, tables):
        cfg = make_config(client_locations="10.9.9.9")
        from fedsust.refdata import UnresolvableLocationError

        with pytest.raises(UnresolvableLocationError):
            assess_carbon(tables.resolve(cfg))


# ── hardware efficiency ───────────────────────────────────────────────────


class TestHardwareAssessment:
    def test_mixed_xeon_fleet_reference(self, tables):
        cfg = make_config(
            num_clients=1000,
            client_hardware=[
                {"share": 0.4, "model": "Intel Xeon E5-4620"},
                {"share": 0.35, "model": "Intel Xeon E5-4627"},
                {"share": 0.25, "model": "Intel Xeon E5-2650"},
            ],
            server_hardware="Intel Core i7-6800K",
        )
        hw = assess_hardware(tables.resolve(cfg))
        # 0.4*100.24 + 0.35*71.69 + 0.25*105.21
        assert hw.client_avg_pp == pytest.approx(91.49, abs=1e-9)
        scored = scored_pillar(cfg, tables)
        client = scored.find("sustainability.hardware_efficiency.client")
        assert client.score == pytest.approx(0.0501, abs=5e-5)
        assert display_score(client.score) == "0.05"

    def test_uniform_fleet_equals_profile_exactly(self, tables):
        cfg = make_config(client_hardware="Intel Core i7-1250U")
        hw = assess_hardware(tables.resolve(cfg))
        assert hw.client_avg_pp == tables.hardware.lookup("Intel Core i7-1250U").power_performance
        scored = scored_pillar(cfg, tables)
        assert scored.find("sustainability.hardware_efficiency.client").score == 1.0

    def test_unknown_model_names_the_string(self, tables):
        from fedsust.refdata import UnknownHardwareError

        cfg = make_config(client_hardware="Mystery Chip 3000")
        with pytest.raises(UnknownHardwareError, match="Mystery Chip 3000"):
            assess_hardware(tables.resolve(cfg))


# ── federation complexity ─────────────────────────────────────────────────


class TestComplexityAssessment:
    def test_simple_federation_notion_score(self, tables):
        cfg = make_config(
            num_clients=5, total_rounds=10, selection_rate=0.2, local_rounds=1,
            dataset_size=100, model_size=98000,
        )
        scored = scored_pillar(cfg, tables)
        cx = notion(scored, "federation_complexity")
        assert cx.score == pytest.approx(0.9814815, abs=1e-6)
        assert display_score(cx.score) == "0.98"

    def test_most_sustainable_anchors_score_one(self, tables):
        cfg = make_config(
            num_clients=2, total_rounds=1, sample_size=1, local_rounds=1,
            dataset_size=1, model_size=1,
        )
        # rate 0.5 scores below 1; use the raw values that clamp to 1 and
        # check each metric other than the rate
        scored = scored_pillar(cfg, tables)
        for leaf in ("global_rounds", "num_clients", "local_rounds", "dataset_size", "model_size"):
            assert notion(scored, f"federation_complexity.{leaf}").score == 1.0

    def test_single_client_full_rate_averages_five_sixths(self, tables):
        cfg = make_config(
            num_clients=1, total_rounds=1, selection_rate=1.0, local_rounds=1,
            dataset_size=1, model_size=1,
        )
        scored = scored_pillar(cfg, tables)
        cx = notion(scored, "federation_complexity")
        assert notion(scored, "federation_complexity.selection_rate").score == 0.0
        assert cx.score == pytest.approx(5 / 6, abs=1e-9)

    def test_validation_errors(self):
        with pytest.raises(ConfigError, match="num_clients"):
            make_config(num_clients=0)
        with pytest.raises(ConfigError, match="total_rounds"):
            make_config(total_rounds=0)
        with pytest.raises(ConfigError, match="selection_rate"):
            make_config(selection_rate=0.0)
        with pytest.raises(ConfigError, match="model_size"):
            make_config(model_size=0)


# ── notion-level reproduction of the bundled scorecard ────────────────────


class TestNotionReproduction:
    def test_carbon_notion_displays(self, tables, uc_configs):
        # the scorecard's UC C carbon cells print 1.00, but the rule over
        # the corroborated Swiss intensity (32) yields 0.98; see the
        # acceptance suite for the as-published assertion
        expected = {"a": "1.00", "b": "0.09", "c": "0.98", "d": "0.11"}
        for name, cfg in uc_configs.items():
            scored = scored_pillar(cfg, tables)
            assert display_score(notion(scored, "carbon_intensity").score) == expected[name], name

    def test_hardware_notion_displays(self, tables, uc_configs):
        expected = {"a": "1.00", "b": "0.01", "c": "0.04", "d": "0.94"}
        for name, cfg in uc_configs.items():
            scored = scored_pillar(cfg, tables)
            assert display_score(notion(scored, "hardware_efficiency").score) == expected[name], name

    def test_pillar_displays(self, tables, uc_configs):
        expected = {"a": "1.00", "b": "0.09", "c": "0.55", "d": "0.53"}
        for name, cfg in uc_configs.items():
            scored = scored_pillar(cfg, tables)
            assert display_score(scored.score) == expected[name], name
