"""Tests for the bundled reference tables and their loaders."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsust import refdata
from fedsust.config import parse_config
from fedsust.refdata import (
    GridIntensityTable,
    LocationResolver,
    ReferenceDataError,
    ReferenceTables,
    UnknownGridError,
    UnknownHardwareError,
    UnresolvableLocationError,
    default_data_dir,
    normalize_model_name,
    power_performance,
)


# ── lookups against the shipped data ──────────────────────────────────────


class TestGridLookups:
    @pytest.mark.parametrize("code,expected", [
        ("CH", 32), ("ZA", 709), ("XK", 769), ("GM", 700), ("LS", 20), ("BW", 795),
    ])
    def test_reference_intensities(self, tables, code, expected):
        assert tables.grid.lookup_intensity(code) == expected

    def test_lookup_normalizes_case(self, tables):
        assert tables.grid.lookup_intensity(" ch ") == 32

    def test_unknown_country_names_the_code(self, tables):
        with pytest.raises(UnknownGridError, match="ZZ"):
            tables.grid.lookup_intensity("ZZ")

    def test_shipped_intensities_within_national_bounds(self, tables):
        for code, value in tables.grid.items():
            assert 20 <= value <= 795, code


class TestHardwareLookups:
    def test_power_performance_division(self):
        assert power_performance(100, 50) == 2.0

    def test_reference_profiles(self, tables):
        assert tables.hardware.lookup("Intel Core i7-1250U").power_performance == pytest.approx(1447, rel=1e-12)
        assert tables.hardware.lookup("Intel Xeon W-2104").power_performance == pytest.approx(51.67, rel=1e-12)

    def test_matching_is_case_and_whitespace_insensitive(self, tables):
        assert tables.hardware.lookup("intel  core   I7-1250u").model == "Intel Core i7-1250U"
        assert normalize_model_name("  AMD   FX-9590 ") == "amd fx-9590"

    def test_records_stay_immutable(self, tables):
        for record, name in ((tables.hardware.lookup("AMD FX-9590"), "tdp"), (tables, "grid")):
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    def test_unknown_model_names_the_string(self, tables):
        with pytest.raises(UnknownHardwareError, match="Quantum9000"):
            tables.hardware.lookup("Quantum9000")

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ReferenceDataError):
            power_performance(0, 50)
        with pytest.raises(ReferenceDataError):
            power_performance(100, 0)
        with pytest.raises(ReferenceDataError):
            power_performance(100, -3)

    def test_shipped_rows_self_consistent_to_4_significant_digits(self, tables):
        for profile in tables.hardware.profiles():
            recomputed = profile.benchmark / profile.tdp
            assert "%.4g" % recomputed == "%.4g" % profile.power_performance, profile.model


class TestLocationResolution:
    def test_country_code_passthrough(self, tables):
        assert tables.locations.resolve("CH", tables.grid) == "CH"
        assert tables.locations.resolve("za", tables.grid) == "ZA"

    def test_prefix_match_roundtrip(self, tables):
        assert tables.locations.resolve("192.0.2.44", tables.grid) == "CH"
        assert tables.locations.resolve("198.51.100.7", tables.grid) == "ZA"

    def test_longest_prefix_wins(self, tables):
        # string-prefix semantics: 203.0.113.128 shadows the shorter
        # 203.0.113. mapping only for addresses that extend it textually
        assert tables.locations.resolve("203.0.113.7", tables.grid) == "AL"
        assert tables.locations.resolve("203.0.113.128", tables.grid) == "XK"
        assert tables.locations.resolve("203.0.113.129", tables.grid) == "AL"

    def test_prefix_matches_whatever_its_case(self, tables):
        # hex digits of an IPv6 address are case-insensitive (RFC 4291, section 2.2)
        assert tables.locations.resolve("2001:DB8:85a3::1", tables.grid) == "GM"
        assert tables.locations.resolve("NODE-EU-7", tables.grid) == "CH"
        assert LocationResolver([("Node-X", "ZA")]).resolve("node-x1", tables.grid) == "ZA"

    def test_unmatched_address_is_an_error_not_a_default(self, tables):
        with pytest.raises(UnresolvableLocationError, match="10.9.9.9"):
            tables.locations.resolve("10.9.9.9", tables.grid)


# ── loader error reporting ────────────────────────────────────────────────


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoaderErrors:
    def test_grid_bad_number_reports_row_and_column(self, tmp_path):
        p = write(data_copy(tmp_path / "data") / "grid_intensity.csv",
                  "country_code,intensity_gco2_per_kwh,source,comment\nCH,thirty-two,x,\n")
        with pytest.raises(ReferenceDataError, match=r"row 2.*intensity_gco2_per_kwh"):
            ReferenceTables.load(p.parent)

    def test_grid_bad_code_reported(self, tmp_path):
        p = write(data_copy(tmp_path / "data") / "grid_intensity.csv",
                  "country_code,intensity_gco2_per_kwh,source,comment\nCHE,32,x,\n")
        with pytest.raises(ReferenceDataError, match="row 2"):
            ReferenceTables.load(p.parent)

    def test_grid_duplicate_code_rejected(self, tmp_path):
        p = write(data_copy(tmp_path / "data") / "grid_intensity.csv",
                  "country_code,intensity_gco2_per_kwh,source,comment\nCH,32,x,\nCH,33,x,\n")
        with pytest.raises(ReferenceDataError, match="duplicate"):
            ReferenceTables.load(p.parent)

    def test_grid_out_of_theoretical_bounds_rejected(self, tmp_path):
        p = write(data_copy(tmp_path / "data") / "grid_intensity.csv",
                  "country_code,intensity_gco2_per_kwh,source,comment\nCH,900,x,\n")
        with pytest.raises(ReferenceDataError, match="900"):
            ReferenceTables.load(p.parent)

    def test_grid_wrong_header_rejected(self, tmp_path):
        p = write(data_copy(tmp_path / "data") / "grid_intensity.csv", "code,value\nCH,32\n")
        with pytest.raises(ReferenceDataError, match="header"):
            ReferenceTables.load(p.parent)

    def test_hardware_inconsistent_pp_reports_row(self, tmp_path):
        p = write(data_copy(tmp_path / "data") / "hardware.csv",
                  "model,kind,benchmark_mark,tdp_watts,power_performance\nX 1,CPU,1000,100,12\n")
        with pytest.raises(ReferenceDataError, match=r"row 2.*power_performance"):
            ReferenceTables.load(p.parent)

    def test_hardware_bad_kind_rejected(self, tmp_path):
        p = write(data_copy(tmp_path / "data") / "hardware.csv",
                  "model,kind,benchmark_mark,tdp_watts,power_performance\nX 1,TPU,1000,100,10\n")
        with pytest.raises(ReferenceDataError, match="row 2"):
            ReferenceTables.load(p.parent)

    def test_hardware_field_count_mismatch_reports_row(self, tmp_path):
        p = write(data_copy(tmp_path / "data") / "hardware.csv",
                  "model,kind,benchmark_mark,tdp_watts,power_performance\nX 1,CPU,1000\n")
        with pytest.raises(ReferenceDataError, match="row 2"):
            ReferenceTables.load(p.parent)

    def test_hardware_overflowing_pp_reports_row(self, tmp_path):
        # 1e300 / 1e-10 overflows: the stored and derived ratios would both format as inf
        p = write(data_copy(tmp_path / "data") / "hardware.csv",
                  "model,kind,benchmark_mark,tdp_watts,power_performance\nHuge Chip,CPU,1e300,1e-10,inf\n")
        with pytest.raises(ReferenceDataError, match=r"hardware.csv: row 2, column 'power_performance'.*not a finite"):
            ReferenceTables.load(p.parent)

    def test_locations_prefixes_equal_but_for_case_rejected(self, tmp_path):
        p = write(data_copy(tmp_path / "data") / "locations.csv",
                  "prefix,country_code\nnode-eu-,CH\nNODE-EU-,ZA\n")
        with pytest.raises(ReferenceDataError, match="row 3: duplicate prefix 'NODE-EU-'"):
            ReferenceTables.load(p.parent)

    def test_locations_empty_prefix_rejected(self, tmp_path):
        p = write(data_copy(tmp_path / "data") / "locations.csv", "prefix,country_code\n ,CH\n")
        with pytest.raises(ReferenceDataError, match="row 2"):
            ReferenceTables.load(p.parent)

    def test_missing_file_reported(self, tmp_path):
        data = data_copy(tmp_path / "data")
        (data / "grid_intensity.csv").unlink()
        with pytest.raises(ReferenceDataError, match="cannot read"):
            ReferenceTables.load(data)

    def test_empty_table_rejected(self):
        with pytest.raises(ReferenceDataError):
            GridIntensityTable({})


# ── data directory override ───────────────────────────────────────────────


def test_env_var_overrides_data_dir(tmp_path, monkeypatch):
    write(tmp_path / "grid_intensity.csv",
          "country_code,intensity_gco2_per_kwh,source,comment\nQQ,123,test,\n")
    write(tmp_path / "hardware.csv",
          "model,kind,benchmark_mark,tdp_watts,power_performance\nTest Chip,CPU,1000,100,10\n")
    write(tmp_path / "locations.csv", "prefix,country_code\ntest-,QQ\n")
    monkeypatch.setenv("FEDSUST_DATA_DIR", str(tmp_path))
    tables = ReferenceTables.load()
    assert tables.grid.lookup_intensity("QQ") == 123
    assert tables.hardware.lookup("test chip").power_performance == 10.0
    assert tables.locations.resolve("test-node-3", tables.grid) == "QQ"


def test_bundled_data_dir_without_env_var(monkeypatch):
    monkeypatch.delenv("FEDSUST_DATA_DIR", raising=False)
    data_dir = default_data_dir()
    for name in ("grid_intensity.csv", "hardware.csv", "locations.csv"):
        assert (data_dir / name).is_file(), name


def test_resolver_with_no_prefixes_still_passes_codes(tables):
    resolver = LocationResolver([])
    assert resolver.resolve("CH", tables.grid) == "CH"
    with pytest.raises(UnresolvableLocationError):
        resolver.resolve("somewhere", tables.grid)


# ── a scenario resolved once ──────────────────────────────────────────────


_BUNDLED = ReferenceTables.load()
_CODES = sorted(code for code, _ in _BUNDLED.grid.items())
_PREFIXES = ("192.0.2.", "198.51.100.", "203.0.113.", "203.0.113.128", "2001:db8:", "node-eu-", "node-za-")
_MODELS = [profile.model for profile in _BUNDLED.hardware.profiles()]


def _any_case(text):
    return st.lists(st.booleans(), min_size=len(text), max_size=len(text)).map(
        lambda upper: "".join(c.upper() if u else c.lower() for c, u in zip(text, upper)))


# spellings like the benchmark's: codes in any case, prefixed addresses, models with extra whitespace
_locations = st.one_of(
    st.sampled_from(_CODES).flatmap(_any_case),
    st.tuples(st.sampled_from(_PREFIXES).flatmap(_any_case), st.text("0123456789abcdef:.", max_size=6))
    .map("".join),
)
_models = st.tuples(st.sampled_from(_MODELS).flatmap(_any_case), st.sampled_from((" ", "  ", "\t"))).map(
    lambda drawn: f" {drawn[1].join(drawn[0].split())} ")


@st.composite
def _scenarios(draw):
    def mix(values, key):
        entries = draw(st.lists(values, min_size=1, max_size=5))
        return [{"share": 1 / len(entries), key: value} for value in entries]

    return parse_config({
        "name": "drawn", "num_clients": 10, "total_rounds": 1, "selection_rate": 0.5,
        "local_rounds": 1, "dataset_size": 10, "model_size": 1000,
        "client_hardware": mix(_models, "model"), "client_locations": mix(_locations, "location"),
        "server_hardware": draw(_models), "server_location": draw(_locations),
    })


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(config=_scenarios())
def test_resolve_agrees_with_each_entry_looked_up_alone(config):
    grid, hardware, locations = _BUNDLED
    fleet = _BUNDLED.resolve(config)
    assert len(fleet.client_intensity) == len(config.client_locations)
    for (share, intensity), (entry_share, value) in zip(fleet.client_intensity, config.client_locations):
        assert (share, intensity) == (entry_share, grid.lookup_intensity(locations.resolve(value, grid)))
    assert len(fleet.client_hardware) == len(config.client_hardware)
    for (share, profile), (entry_share, model) in zip(fleet.client_hardware, config.client_hardware):
        assert (share, profile) == (entry_share, hardware.lookup(model))
    assert fleet.server_intensity == grid.lookup_intensity(locations.resolve(config.server_location, grid))
    assert fleet.server_hardware == hardware.lookup(config.server_hardware)


# ── parse cache: keyed by file contents ───────────────────────────────────


def data_copy(directory):
    """A copy of the bundled reference data in ``directory``."""
    directory.mkdir(exist_ok=True)
    for name in ("grid_intensity.csv", "hardware.csv", "locations.csv"):
        (directory / name).write_bytes((default_data_dir() / name).read_bytes())
    return directory


def agree(one, two):
    assert dict(one.grid.items()) == dict(two.grid.items())
    assert one.hardware.profiles() == two.hardware.profiles()
    for addr in ("CH", "za", "192.0.2.44", "203.0.113.7", "203.0.113.128", "node-eu-7"):
        assert one.locations.resolve(addr, one.grid) == two.locations.resolve(addr, two.grid), addr


class TestParseCache:
    def test_unchanged_files_give_agreeing_tables(self, tmp_path):
        data = data_copy(tmp_path / "data")
        agree(ReferenceTables.load(data), ReferenceTables.load(data))

    def test_same_size_edit_with_restored_mtime_is_seen(self, tmp_path):
        data = data_copy(tmp_path / "data")
        grid = data / "grid_intensity.csv"
        text = grid.read_text(encoding="utf-8")
        assert "\nCH,32," in text
        assert ReferenceTables.load(data).grid.lookup_intensity("CH") == 32
        before = grid.stat()
        grid.write_text(text.replace("\nCH,32,", "\nCH,33,"), encoding="utf-8")
        os.utime(grid, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = grid.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert ReferenceTables.load(data).grid.lookup_intensity("CH") == 33

    def test_parse_error_is_not_cached(self, tmp_path):
        data = data_copy(tmp_path / "data")
        hardware = data / "hardware.csv"
        good = hardware.read_text(encoding="utf-8")
        hardware.write_text(good + "X 1,TPU,1000,100,10\n", encoding="utf-8")
        messages = []
        for _ in range(2):
            with pytest.raises(ReferenceDataError, match="column 'kind'") as info:
                ReferenceTables.load(data)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        hardware.write_text(good, encoding="utf-8")
        agree(ReferenceTables.load(data), ReferenceTables.load(default_data_dir()))

    def test_switching_data_dir_gives_each_dirs_values(self, tmp_path, monkeypatch):
        one, two = data_copy(tmp_path / "one"), data_copy(tmp_path / "two")
        text = (two / "grid_intensity.csv").read_text(encoding="utf-8")
        (two / "grid_intensity.csv").write_text(text.replace("\nCH,32,", "\nCH,40,"), encoding="utf-8")
        for directory, expected in ((one, 32), (two, 40), (one, 32), (two, 40)):
            monkeypatch.setenv("FEDSUST_DATA_DIR", str(directory))
            assert ReferenceTables.load().grid.lookup_intensity("CH") == expected

    def test_grid_error_is_reported_before_a_missing_hardware_file(self, tmp_path):
        data = data_copy(tmp_path / "data")
        write(data / "grid_intensity.csv",
              "country_code,intensity_gco2_per_kwh,source,comment\nCH,thirty-two,x,\n")
        (data / "hardware.csv").unlink()
        with pytest.raises(ReferenceDataError, match="grid_intensity.csv: row 2"):
            ReferenceTables.load(data)

    def test_cache_stays_bounded(self, tmp_path):
        size = refdata._PARSE_CACHE_SIZE
        for i in range(size + 3):
            ReferenceTables.load(data_copy(tmp_path / f"d{i}"))
        for parse in (refdata._parse_grid_intensity, refdata._parse_hardware, refdata._parse_locations):
            assert parse.cache_info().maxsize == size
            assert parse.cache_info().currsize <= size

    def test_file_that_is_not_utf8_is_a_reference_data_error(self, tmp_path):
        data = data_copy(tmp_path / "data")
        (data / "locations.csv").write_bytes(b"prefix,country_code\n\xff,CH\n")
        with pytest.raises(ReferenceDataError, match="locations.csv: file is not UTF-8 text"):
            ReferenceTables.load(data)
