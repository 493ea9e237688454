"""The equivalence oracle: every command on the bundled inputs, as digests.

The cases are ``validate``, ``score`` and ``simulate`` on every bundled
scenario (``simulate`` at three seeds, desk_scale_1000 also at ``--seed 3``),
``compare`` on the two proposals with their pillar files (also under the
bundled weight file), ``score`` under the bundled weight file, ``score`` of
proposal_b with its pillar file, ``--allow-partial`` with one pillar missing
(also under a weight file over all seven pillars), ``simulate`` on four
generated fleets (:data:`FLEETS`), and two rejected scenarios: one with a NaN
statistic (exit 1) and one with an unresolvable location (exit 2). Each case runs
in-process through ``fedsust.cli.main`` in a fresh temporary directory that
holds the derived input files, writing to ``--out out``, and records the exit
code, stdout, stderr and the sha256 of each file written.
``tests/test_golden.py`` compares every case with ``tests/golden.json`` and
never rewrites it. To print the table from the code as it is::

    PYTHONPATH=src python tests/golden.py > tests/golden.json

A change that alters these bytes on purpose re-pins the entries it changes
and says which, and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "fedsust" / "data"
SCENARIO_DIR = DATA_DIR / "scenarios"
TABLE = Path(__file__).resolve().parent / "golden.json"

# The scenario's own seed, 7, and a seed no bundled scenario uses.
SEEDS = (None, 7, 90210)
OUTPUTS = ("trust_report.json", "factsheet.json", "emissions.csv", "comparison.json")

# Generated fleets with three hardware and three location entries: a wide fleet where
# most clients are never drawn, a small long run whose rows hold zero counts
# (dataset_size < num_label_classes) and whose repeated training-time sums differ from
# the single duration, a full-participation run (sample_size = num_clients), and a run
# drawn in a batch of 81 rounds (numpy steps) and one of 4 (list swaps).
FLEETS = {
    "wide": dict(num_clients=5000, sample_size=10, total_rounds=20, dataset_size=500,
                 num_label_classes=10, local_rounds=2, model_size=1_600_000, seed=11),
    "zero_counts": dict(num_clients=200, sample_size=9, total_rounds=100, dataset_size=5,
                        num_label_classes=12, local_rounds=3, model_size=98_765, seed=2**63 + 5),
    "full": dict(num_clients=40, sample_size=40, total_rounds=25, dataset_size=64,
                 num_label_classes=7, local_rounds=2, model_size=250_000, seed=2**40 + 9),
    "batches": dict(num_clients=1000, sample_size=800, total_rounds=85, dataset_size=64,
                    num_label_classes=7, local_rounds=2, model_size=250_000, seed=2**40 + 19),
}


def _derived() -> dict[str, dict]:
    """Input files made from the bundled ones: file name -> its JSON."""
    partial = json.loads((DATA_DIR / "pillars" / "proposal_b_pillars.json").read_text(encoding="utf-8"))
    del partial["pillars"]["robustness"]
    uc_a = json.loads((SCENARIO_DIR / "uc_a.json").read_text(encoding="utf-8"))
    fleets = {f"fleet_{shape}.json": {
        "name": f"pinned_{shape}",
        **fields,
        "client_hardware": [{"share": 0.45, "model": "Intel Core i7-1250U"},
                            {"share": 0.35, "model": "AMD FX-9590"},
                            {"share": 0.2, "model": "NVIDIA GeForce RTX 3060"}],
        "client_locations": [{"share": 0.5, "location": "ch"}, {"share": 0.3, "location": "ZA"},
                             {"share": 0.2, "location": "203.0.113.128"}],
        "server_hardware": "Intel Xeon E5-2650",
        "server_location": "node-eu-7",
        "energy_model": {"cpu_utilization": 0.7, "comm_energy_per_byte": 1e-12},
        "statistics": {"accuracy": 0.8125},
    } for shape, fields in FLEETS.items()}
    return {
        "partial_pillars.json": partial,
        "pillar_weights.json": {"sustainability": 0.4, "privacy": 0.2, "robustness": 0.1, "fairness": 0.1,
                                "explainability": 0.1, "accountability": 0.05, "federation": 0.05},
        "nan_statistics.json": {**uc_a, "statistics": {"accuracy": float("nan")}},  # a bare NaN
        "unresolvable_location.json": {**uc_a, "client_locations": "Atlantis"},
        **fleets,
    }


def cases() -> dict[str, list[str]]:
    """Case name -> its command line, without ``--out``; derived inputs by bare file name."""
    table = {}
    for scenario in sorted(SCENARIO_DIR.glob("*.json")):
        for command in ("validate", "score"):
            table[f"{command} {scenario.stem}"] = [command, "--config", str(scenario)]
        for seed in SEEDS:
            argv = ["simulate", "--config", str(scenario)]
            if seed is not None:
                argv += ["--seed", str(seed)]
            table[f"simulate {scenario.stem} seed={seed or 'own'}"] = argv
    proposals = [arg for name in ("proposal_a", "proposal_b")
                 for arg in ("--config", str(SCENARIO_DIR / f"{name}.json"),
                             "--pillars", str(DATA_DIR / "pillars" / f"{name}_pillars.json"))]
    carbon_emphasis = str(DATA_DIR / "weights" / "carbon_emphasis.json")
    table["compare proposal_a proposal_b"] = ["compare", *proposals]
    table["compare proposal_a proposal_b weights=carbon_emphasis"] = [
        "compare", *proposals, "--weights", carbon_emphasis]
    table["score uc_d weights=carbon_emphasis"] = [
        "score", "--config", str(SCENARIO_DIR / "uc_d.json"), "--weights", carbon_emphasis]
    table["score proposal_b pillars"] = [
        "score", "--config", str(SCENARIO_DIR / "proposal_b.json"),
        "--pillars", str(DATA_DIR / "pillars" / "proposal_b_pillars.json")]
    table["score proposal_b allow-partial without robustness"] = [
        "score", "--config", str(SCENARIO_DIR / "proposal_b.json"),
        "--pillars", "partial_pillars.json", "--allow-partial"]
    table["score proposal_b allow-partial without robustness weights=pillar_weights"] = [
        "score", "--config", str(SCENARIO_DIR / "proposal_b.json"),
        "--pillars", "partial_pillars.json", "--weights", "pillar_weights.json", "--allow-partial"]
    table["simulate desk_scale_1000 seed=3"] = [
        "simulate", "--config", str(SCENARIO_DIR / "desk_scale_1000.json"), "--seed", "3"]
    for shape in FLEETS:
        table[f"simulate fleet_{shape}"] = ["simulate", "--config", f"fleet_{shape}.json"]
    table["simulate nan_statistics"] = ["simulate", "--config", "nan_statistics.json"]
    table["simulate unresolvable_location"] = ["simulate", "--config", "unresolvable_location.json"]
    return table


def run_case(argv: list[str]) -> dict:
    """The exit code, stdout, stderr and output digests of one in-process run."""
    from fedsust.cli import main

    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.chdir(tmp)  # so stdout names the outputs by the same relative path in every run
        try:
            for name, content in _derived().items():
                Path(name).write_text(json.dumps(content), encoding="utf-8")
            code = main([*argv, "--out", "out"])
            files = {name: hashlib.sha256((Path("out") / name).read_bytes()).hexdigest()
                     for name in OUTPUTS if (Path("out") / name).exists()}
        finally:
            os.chdir(cwd)
    return {"exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "sha256": files}


def pinned() -> dict[str, dict]:
    """The table as pinned in ``tests/golden.json``."""
    return json.loads(TABLE.read_text(encoding="utf-8"))


def table() -> dict[str, dict]:
    return {name: run_case(argv) for name, argv in cases().items()}


if __name__ == "__main__":
    json.dump(table(), sys.stdout, indent=2, sort_keys=True, ensure_ascii=False)
    sys.stdout.write("\n")
