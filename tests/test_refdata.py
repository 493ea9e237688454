"""Tests for the bundled reference tables and their loaders."""

import os

import pytest

from fedsust import refdata
from fedsust.refdata import (
    GridIntensityTable,
    LocationResolver,
    ReferenceDataError,
    ReferenceTables,
    UnknownGridError,
    UnknownHardwareError,
    UnresolvableLocationError,
    default_data_dir,
    load_grid_intensity,
    load_hardware,
    load_locations,
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

    def test_unmatched_address_is_an_error_not_a_default(self, tables):
        with pytest.raises(UnresolvableLocationError, match="10.9.9.9"):
            tables.locations.resolve("10.9.9.9", tables.grid)


# ── loader error reporting ────────────────────────────────────────────────


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoaderErrors:
    def test_grid_bad_number_reports_row_and_column(self, tmp_path):
        p = write(tmp_path / "grid_intensity.csv",
                  "country_code,intensity_gco2_per_kwh,source,comment\nCH,thirty-two,x,\n")
        with pytest.raises(ReferenceDataError, match=r"row 2.*intensity_gco2_per_kwh"):
            load_grid_intensity(p)

    def test_grid_bad_code_reported(self, tmp_path):
        p = write(tmp_path / "grid_intensity.csv",
                  "country_code,intensity_gco2_per_kwh,source,comment\nCHE,32,x,\n")
        with pytest.raises(ReferenceDataError, match="row 2"):
            load_grid_intensity(p)

    def test_grid_duplicate_code_rejected(self, tmp_path):
        p = write(tmp_path / "grid_intensity.csv",
                  "country_code,intensity_gco2_per_kwh,source,comment\nCH,32,x,\nCH,33,x,\n")
        with pytest.raises(ReferenceDataError, match="duplicate"):
            load_grid_intensity(p)

    def test_grid_out_of_theoretical_bounds_rejected(self, tmp_path):
        p = write(tmp_path / "grid_intensity.csv",
                  "country_code,intensity_gco2_per_kwh,source,comment\nCH,900,x,\n")
        with pytest.raises(ReferenceDataError, match="900"):
            load_grid_intensity(p)

    def test_grid_wrong_header_rejected(self, tmp_path):
        p = write(tmp_path / "grid_intensity.csv", "code,value\nCH,32\n")
        with pytest.raises(ReferenceDataError, match="header"):
            load_grid_intensity(p)

    def test_hardware_inconsistent_pp_reports_row(self, tmp_path):
        p = write(tmp_path / "hardware.csv",
                  "model,kind,benchmark_mark,tdp_watts,power_performance\nX 1,CPU,1000,100,12\n")
        with pytest.raises(ReferenceDataError, match=r"row 2.*power_performance"):
            load_hardware(p)

    def test_hardware_bad_kind_rejected(self, tmp_path):
        p = write(tmp_path / "hardware.csv",
                  "model,kind,benchmark_mark,tdp_watts,power_performance\nX 1,TPU,1000,100,10\n")
        with pytest.raises(ReferenceDataError, match="row 2"):
            load_hardware(p)

    def test_hardware_field_count_mismatch_reports_row(self, tmp_path):
        p = write(tmp_path / "hardware.csv",
                  "model,kind,benchmark_mark,tdp_watts,power_performance\nX 1,CPU,1000\n")
        with pytest.raises(ReferenceDataError, match="row 2"):
            load_hardware(p)

    def test_locations_empty_prefix_rejected(self, tmp_path):
        p = write(tmp_path / "locations.csv", "prefix,country_code\n ,CH\n")
        with pytest.raises(ReferenceDataError, match="row 2"):
            load_locations(p)

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ReferenceDataError, match="cannot read"):
            load_grid_intensity(tmp_path / "nope.csv")

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
