"""Tests of the benchmark's independent checker.

The checker must reproduce the published scorecard cells on its own, accept
what the program writes, and reject outputs with one value or one row
wrong. Run with ``PYTHONPATH=src python -m pytest bench``.
"""

import contextlib
import io
import json
import math
import random
from pathlib import Path

import pytest

import checker
import inputs
import probe
import run as bench_run
from fedsust import config
from fedsust.cli import main as cli_main
from fedsust.fedsim import SelectionStream, sample_clients

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "fedsust" / "data"


@pytest.fixture(scope="module")
def ref():
    return checker.load_reference(DATA)


def scenario(name):
    return checker.Scenario.load(DATA / "scenarios" / f"{name}.json")


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    assert code == 0
    return out.getvalue()


def test_hardware_cells_of_the_scorecard(ref):
    expected = {
        "a": ("1.00", "1.00", "1.00"),
        "b": ("0.01", "0.02", "0.01"),
        "c": ("0.05", "0.04", "0.04"),
        "d": ("0.87", "1.00", "0.94"),
    }
    for case, cells in expected.items():
        nodes = checker.score_pillar(scenario(f"uc_{case}"), ref, {})
        got = tuple(
            checker.display(nodes[f"sustainability.hardware_efficiency{leaf}"]["score_raw"])
            for leaf in (".client", ".server", "")
        )
        assert got == cells, case


def test_pillar_cell_with_complexity_fixed(ref):
    nodes = checker.score_pillar(scenario("uc_d"), ref, {})
    pillar = (0.5 * nodes["sustainability.carbon_intensity"]["score_raw"]
              + 0.25 * nodes["sustainability.hardware_efficiency"]["score_raw"] + 0.25 * 0.96)
    assert checker.display(pillar) == "0.53"


def test_trust_cells_of_the_proposal_comparison():
    scorecard = {"a": ((0.11, 0.28, 0.49), "0.58", "0.53"), "b": ((0.98, 0.28, 0.91), "0.63", "0.65")}
    for case, (notions, six, seven) in scorecard.items():
        externals = checker.pillar_file(DATA / "pillars" / f"proposal_{case}_pillars.json")
        assert checker.display(checker.trust(externals, {})[0]) == six
        sustainability = 0.5 * notions[0] + 0.25 * notions[1] + 0.25 * notions[2]
        assert checker.display(checker.trust({**externals, "sustainability": sustainability}, {})[0]) == seven


def test_display_is_half_even_on_the_shortest_repr():
    assert checker.display(0.165) == "0.16"
    assert checker.display(0.175) == "0.18"
    assert checker.display(0.9845) == "0.98"


def test_sparse_sampler_matches_the_program():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.choice((1, 2, 7, 50, 1000, 10**5))
        m = rng.randint(1, min(n, 40))
        seed, t = rng.randrange(2**64), rng.randrange(1000)
        assert tuple(checker.select(seed, t, n, m)) == sample_clients(n, m, SelectionStream(seed, t))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One score, one compare and one simulate written by the program."""
    base = tmp_path_factory.mktemp("bench-checker")
    (base / "in").mkdir()
    rng = inputs.workload_rng("score-sweep", 3)
    points = [inputs.write_point(base / "in", inputs.design_point(rng, i), i) for i in range(2)]
    calls = {
        "score": ["score", *inputs.point_args(points[0]), "--out", str(base / "score")],
        "compare": ["compare", *inputs.compare_args(*points), "--out", str(base / "compare")],
        "simulate": ["simulate", "--config", str(DATA / "scenarios" / "uc_d.json"), "--seed", "99",
                     "--out", str(base / "simulate")],
    }
    return {kind: (argv, base / kind, run(argv)) for kind, argv in calls.items()}


@pytest.mark.parametrize("kind", ["score", "compare", "simulate"])
def test_program_outputs_pass(ref, outputs, kind):
    argv, out, stdout = outputs[kind]
    assert checker.check_call(ref, kind, argv, out, stdout) == []


def copy_outputs(outputs, kind, tmp_path):
    argv, out, stdout = outputs[kind]
    copy = tmp_path / kind
    copy.mkdir()
    for path in out.iterdir():
        (copy / path.name).write_bytes(path.read_bytes())
    return argv, copy, stdout


def test_score_perturbed_by_1e_6_fails(ref, outputs, tmp_path):
    argv, out, stdout = copy_outputs(outputs, "score", tmp_path)
    report = json.loads((out / "trust_report.json").read_text())
    node = report["metrics"]["sustainability.federation_complexity.model_size"]
    node["score_raw"] += 1e-6 if node["score_raw"] < 0.5 else -1e-6
    (out / "trust_report.json").write_text(json.dumps(report))
    problems = checker.check_call(ref, "score", argv, out, stdout)
    assert any("model_size.score_raw" in p for p in problems)


def test_csv_with_one_row_dropped_fails(ref, outputs, tmp_path):
    argv, out, stdout = copy_outputs(outputs, "simulate", tmp_path)
    lines = (out / "emissions.csv").read_text().splitlines(keepends=True)
    del lines[5]
    (out / "emissions.csv").write_text("".join(lines))
    problems = checker.check_call(ref, "simulate", argv, out, stdout)
    assert any("rows" in p for p in problems)


def test_non_finite_json_is_a_failed_call(tmp_path):
    (tmp_path / "factsheet.json").write_text('{"accuracy": NaN}\n')
    assert not checker.nan_call_passes(0, "", tmp_path)
    assert checker.nan_call_passes(1, "error: validation: field 'statistics' is not finite\n", tmp_path)
    assert not checker.nan_call_passes(1, "Traceback (most recent call last):\n  ...\n", tmp_path)
    (tmp_path / "factsheet.json").write_text('{"accuracy": null}\n')
    assert checker.nan_call_passes(0, "", tmp_path)


@pytest.fixture
def strict_program(monkeypatch):
    """The program as it will be once it rejects non-finite numbers."""
    parse = config.parse_config

    def finite(value):
        if isinstance(value, float):
            return math.isfinite(value)
        if isinstance(value, dict):
            return all(finite(v) for v in value.values())
        if isinstance(value, list):
            return all(finite(v) for v in value)
        return True

    def strict_parse(data, *args, **kwargs):
        if not finite(data):
            raise config.ConfigError("a number is not finite")
        return parse(data, *args, **kwargs)

    monkeypatch.setattr(config, "parse_config", strict_parse)


def test_cli_cold_setup_probe_survives_the_nan_fix(strict_program, tmp_path):
    workload = bench_run.CliCold(ROOT, tmp_path / "run", 7, False)
    files = workload.scenario_files()
    assert workload.spec["nan"] not in files
    assert probe._setup("fedsust.cli", files)["setup_s"] > 0
    # the probe's parse step fails on a scenario the program rejects
    with pytest.raises(config.ConfigError):
        probe._setup("fedsust.cli", [workload.spec["nan"]])
