"""Seeded input generation for the benchmark workloads.

Every input the program sees is made here from the workload seed, so the
same ``--seed`` gives the same files. Reference data and the bundled
scenarios are read from the checkout; nothing else is.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DATA_DIR = Path("src") / "fedsust" / "data"
SCENARIO_DIR = DATA_DIR / "scenarios"
PILLAR_DIR = DATA_DIR / "pillars"

EXTERNAL_PILLARS = ("accountability", "explainability", "fairness", "federation", "privacy", "robustness")
NOTIONS = {
    "carbon_intensity": ("client", "server"),
    "hardware_efficiency": ("client", "server"),
    "federation_complexity": (
        "global_rounds", "num_clients", "selection_rate", "local_rounds", "dataset_size", "model_size",
    ),
}

# Spellings that the hardware table matches after case folding and
# whitespace collapse, so the sweep exercises name normalization too.
HARDWARE = (
    "Intel Core i7-1250U", "intel core i5-1335u", "Intel Core i7-6800K", "Intel  Core i7-8650U",
    "AMD FX-9590", "INTEL XEON W-2104", "Intel Xeon E5-4620", "Intel Xeon E5-4627",
    "Intel Xeon E5-2650", "NVIDIA GeForce RTX 3060",
)
# Country codes (any case) and node addresses resolved through the bundled
# prefix map, including the longest-prefix case 203.0.113.128 -> XK.
LOCATIONS = (
    "AL", "bw", "CH", "CN", "DE", "FR", "GM", "IN", "LS", "LU", "NO", "US", "XK", "ZA",
    "192.0.2.17", "198.51.100.5", "203.0.113.12", "203.0.113.128", "2001:db8:85a3::1",
    "node-eu-7", "node-za-3",
)

SWEEP_POINTS = 40
WIDE_SHAPE = {"num_clients": 20_000, "sample_size": 10, "total_rounds": 50}


def workload_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"fedsust-bench:{workload}:{seed}")


def _shares(rng: random.Random, parts: int) -> list[float]:
    """``parts`` positive shares in twentieths that sum to one."""
    cuts = sorted(rng.sample(range(1, 20), parts - 1))
    bounds = [0, *cuts, 20]
    return [(b - a) / 20 for a, b in zip(bounds, bounds[1:])]


def _mix(rng: random.Random, pool, key: str, num_clients: int):
    form = rng.randrange(4)
    if form == 0:
        return rng.choice(pool)
    if form == 1 and num_clients <= 12:
        return [rng.choice(pool[:6]) for _ in range(num_clients)]
    values = rng.sample(pool, rng.randint(2, 4))
    return [{"share": s, key: v} for s, v in zip(_shares(rng, len(values)), values)]


def _normalized(rng: random.Random, count: int) -> list[float]:
    raw = [rng.uniform(0.1, 1.0) for _ in range(count)]
    total = sum(raw)
    return [r / total for r in raw]


def design_point(rng: random.Random, index: int) -> dict:
    """One scoring design point: scenario, weight file, pillar file, flags."""
    n = rng.choice((5, 8, 10, 50, 100, 1000, 5000, 10**5, 10**6))
    scenario = {
        "name": f"point_{index:03d}",
        "num_clients": n,
        "total_rounds": rng.choice((1, 10, 50, 100, 1000, 5000)),
        "local_rounds": rng.choice((1, 2, 5, 10, 90, 200)),
        "dataset_size": rng.choice((50, 100, 227, 1000, 10**4, 1_100_000)),
        "model_size": rng.choice((98_000, 99_300, 1_600_000, 10**7, 10**10, 10**13)),
        "client_hardware": _mix(rng, HARDWARE, "model", n),
        "client_locations": _mix(rng, LOCATIONS, "location", n),
        "server_hardware": rng.choice(HARDWARE),
        "server_location": rng.choice(LOCATIONS),
        "seed": rng.randrange(2**64),
    }
    m = rng.randint(1, min(n, 1000))
    sampling = rng.randrange(3)
    if sampling == 0:
        scenario["sample_size"] = m
    elif sampling == 1:
        scenario["selection_rate"] = rng.choice((0.05, 0.1, 0.2, 0.3, 0.6, 0.8, 1.0))
    else:
        scenario["sample_size"] = m
        scenario["selection_rate"] = m / n
    if rng.random() < 0.3:
        scenario["energy_model"] = {"cpu_utilization": round(rng.uniform(0.3, 1.0), 3)}
    if rng.random() < 0.3:
        scenario["statistics"] = {"accuracy": round(rng.random(), 4)}
    if rng.random() < 0.4:
        notion = rng.choice(sorted(NOTIONS))
        if rng.random() < 0.5:
            scenario["score_overrides"] = {f"sustainability.{notion}": rng.random()}
        else:
            leaf = rng.choice(NOTIONS[notion])
            scenario["score_overrides"] = {f"sustainability.{notion}.{leaf}": rng.random()}

    weights: dict[str, float] = {}
    notion_w = _normalized(rng, 3)
    for name, w in zip(sorted(NOTIONS), notion_w):
        weights[f"sustainability.{name}"] = w
    if rng.random() < 0.5:
        notion = rng.choice(sorted(NOTIONS))
        for leaf, w in zip(NOTIONS[notion], _normalized(rng, len(NOTIONS[notion]))):
            weights[f"sustainability.{notion}.{leaf}"] = w

    pillar_ids = list(EXTERNAL_PILLARS)
    allow_partial = rng.random() < 0.2
    if allow_partial:
        pillar_ids.remove(rng.choice(pillar_ids))
    if allow_partial or rng.random() < 0.5:
        for name, w in zip(["sustainability", *EXTERNAL_PILLARS], _normalized(rng, 7)):
            weights[name] = w

    pillars: dict = {}
    for pillar in pillar_ids:
        if rng.random() < 0.5:
            pillars[pillar] = round(rng.random(), rng.choice((2, 6)))
        else:
            notions = {f"n{k}": rng.random() for k in range(rng.randint(1, 4))}
            entry: dict = {"notions": notions}
            if rng.random() < 0.5:
                entry["weights"] = dict(zip(notions, _normalized(rng, len(notions))))
            pillars[pillar] = entry
    return {
        "scenario": scenario,
        "weights": weights,
        "pillars": {"description": "generated", "pillars": pillars},
        "allow_partial": allow_partial,
    }


def _write(path: Path, payload) -> str:
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return str(path)


def write_point(directory: Path, point: dict, index: int) -> dict:
    """Write a design point's three files; return their paths and flags."""
    return {
        "config": _write(directory / f"point_{index:03d}.json", point["scenario"]),
        "weights": _write(directory / f"point_{index:03d}.weights.json", point["weights"]),
        "pillars": _write(directory / f"point_{index:03d}.pillars.json", point["pillars"]),
        "allow_partial": point["allow_partial"],
    }


def point_args(point: dict) -> list[str]:
    """Command-line flags that give one written design point to ``fedsust``."""
    args = ["--config", point["config"], "--weights", point["weights"], "--pillars", point["pillars"]]
    return args + (["--allow-partial"] if point["allow_partial"] else [])


def compare_args(a: dict, b: dict) -> list[str]:
    """Flags of ``fedsust compare`` on two points, under the first one's weights."""
    partial = ["--allow-partial"] if a["allow_partial"] or b["allow_partial"] else []
    return ["--config", a["config"], "--config", b["config"], "--weights", a["weights"],
            "--pillars", a["pillars"], "--pillars", b["pillars"], *partial]


def sweep_inputs(directory: Path, seed: int) -> list[dict]:
    rng = workload_rng("score-sweep", seed)
    return [write_point(directory, design_point(rng, i), i) for i in range(SWEEP_POINTS)]


def nan_scenario() -> dict:
    """uc_a-sized scenario whose statistics carry a non-finite number.

    Deliberately independent of the seed: it exists to catch one known
    fault on every run.
    """
    scenario = json.loads((SCENARIO_DIR / "uc_a.json").read_text(encoding="utf-8"))
    scenario["name"] = "uc_a_nan_statistics"
    scenario["statistics"] = {"final_accuracy": float("nan"), "rounds_to_target": 7}
    return scenario


def wide_scenario(rng: random.Random) -> dict:
    hardware = rng.sample(HARDWARE, rng.randint(2, 4))
    locations = rng.sample(LOCATIONS, rng.randint(2, 4))
    return {
        "name": "wide_fleet",
        **WIDE_SHAPE,
        "local_rounds": rng.choice((1, 2, 5)),
        "dataset_size": rng.choice((100, 500, 1000)),
        "model_size": rng.choice((98_000, 1_600_000, 10**7)),
        "client_hardware": [{"share": s, "model": h} for s, h in zip(_shares(rng, len(hardware)), hardware)],
        "client_locations": [
            {"share": s, "location": v} for s, v in zip(_shares(rng, len(locations)), locations)
        ],
        "server_hardware": rng.choice(HARDWARE),
        "server_location": rng.choice(LOCATIONS),
        "seed": rng.randrange(2**64),
        "energy_model": {
            "cpu_utilization": round(rng.uniform(0.5, 1.0), 3),
            "idle_fraction": round(rng.uniform(0.0, 0.2), 3),
        },
        "statistics": {"accuracy": round(rng.random(), 4)},
    }


def cli_inputs(directory: Path, seed: int) -> dict:
    """Files and arguments of the cold-CLI rotation."""
    rng = workload_rng("cli-cold", seed)
    point = write_point(directory, design_point(rng, 0), 0)
    uc_d = json.loads((SCENARIO_DIR / "uc_d.json").read_text(encoding="utf-8"))
    return {
        "point": point,
        "proposals": [str(SCENARIO_DIR / "proposal_a.json"), str(SCENARIO_DIR / "proposal_b.json")],
        "proposal_pillars": [
            str(PILLAR_DIR / "proposal_a_pillars.json"), str(PILLAR_DIR / "proposal_b_pillars.json"),
        ],
        "uc_d": _write(directory / "uc_d.json", uc_d),
        "uc_d_seed": rng.randrange(2**64),
        "nan": _write(directory / "uc_a_nan.json", nan_scenario()),
    }


def sim_desk_inputs(seed: int) -> dict:
    rng = workload_rng("sim-desk", seed)
    return {"config": str(SCENARIO_DIR / "desk_scale_1000.json"), "seed": rng.randrange(2**64)}


def sim_wide_inputs(directory: Path, seed: int) -> dict:
    rng = workload_rng("sim-wide", seed)
    return {"config": _write(directory / "wide_fleet.json", wide_scenario(rng))}
