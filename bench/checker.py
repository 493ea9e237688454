"""Independent checker of fedsust outputs.

Nothing here imports fedsust. Scores are recomputed from the rules in the
project README, on this module's own parse of the three reference CSVs;
simulations are replayed from the selection stream documented in
``fedsust.fedsim``, with a sparse-swap partial Fisher-Yates; every CSV row
is priced again as ``TDP x utilisation x duration / 3.6e6`` kWh and
``energy x intensity`` gCO2eq. Each ``check_*`` function returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from decimal import ROUND_HALF_EVEN, Decimal
from pathlib import Path

TOL = 1e-12
WEIGHT_TOL = 1e-9
PILLAR = "sustainability"
EXTERNAL = ("accountability", "explainability", "fairness", "federation", "privacy", "robustness")
NOTION_WEIGHTS = {"carbon_intensity": 0.5, "hardware_efficiency": 0.25, "federation_complexity": 0.25}
CSV_HEADER = "round,role,node_id,phase,duration_s,energy_kwh,intensity_gco2_kwh,co2eq_g"
ENERGY_DEFAULTS = {
    "cpu_utilization": 1.0, "comm_energy_per_byte": 0.0, "idle_fraction": 0.0,
    "train_seconds_per_unit": 1e-3, "agg_seconds_per_unit": 1e-4,
}


# ── reference data ──────────────────────────────────────────────────────


class Reference:
    def __init__(self, grid: dict, hardware: dict, prefixes: list):
        self.grid = grid  # country code -> gCO2eq/kWh
        self.hardware = hardware  # folded model name -> (benchmark mark, TDP watts)
        self.prefixes = prefixes  # (prefix, country code), longest first

    def country(self, location: str) -> str:
        text = location.strip()
        if text.upper() in self.grid:
            return text.upper()
        for prefix, code in self.prefixes:
            if text.startswith(prefix):
                return code
        raise KeyError(f"unresolvable location {location!r}")

    def intensity(self, location: str) -> float:
        return self.grid[self.country(location)]

    def processor(self, model: str) -> tuple[float, float]:
        return self.hardware[" ".join(model.split()).lower()]


def load_reference(data_dir) -> Reference:
    data_dir = Path(data_dir)

    def rows(name):
        with open(data_dir / name, encoding="utf-8", newline="") as fh:
            return [r for r in list(csv.reader(fh))[1:] if r and any(c.strip() for c in r)]

    grid = {r[0].strip().upper(): float(r[1]) for r in rows("grid_intensity.csv")}
    hardware = {" ".join(r[0].split()).lower(): (float(r[2]), float(r[3])) for r in rows("hardware.csv")}
    prefixes = sorted(((r[0].strip(), r[1].strip().upper()) for r in rows("locations.csv")),
                      key=lambda p: -len(p[0]))
    return Reference(grid, hardware, prefixes)


# ── scoring rules (README "How sustainable is this setup?") ─────────────


def clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def inverse(value: float, lo: float, hi: float) -> float:
    return clamp01((hi - value) / (hi - lo))


def direct(value: float, lo: float, hi: float) -> float:
    return clamp01((value - lo) / (hi - lo))


def log_scale(value: float, lo_exp: float, hi_exp: float) -> float:
    """Linear in log10 from 10**lo_exp (score 1) to 10**hi_exp (score 0)."""
    return clamp01((hi_exp - math.log10(value)) / (hi_exp - lo_exp))


def display(value: float) -> str:
    """Half-even rounding to two decimals of the value's shortest repr."""
    return str(Decimal(repr(float(value))).quantize(Decimal("0.01"), rounding=ROUND_HALF_EVEN))


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite number {token} in JSON")

    return json.loads(text, parse_constant=reject)


def mix(raw, num_clients: int) -> list[tuple[float, str]]:
    if isinstance(raw, str):
        return [(1.0, raw.strip())]
    if all(isinstance(item, str) for item in raw):
        counts: dict[str, int] = {}
        for item in raw:
            counts[item.strip()] = counts.get(item.strip(), 0) + 1
        return [(count / num_clients, value) for value, count in counts.items()]
    return [(float(item["share"]), (item.get("model") or item.get("location")).strip()) for item in raw]


class Scenario:
    """This checker's own reading of a scenario file."""

    def __init__(self, data: dict, stem: str, seed_override: int | None = None):
        self.name = str(data.get("name", stem))
        self.n = int(data["num_clients"])
        self.rounds = int(data["total_rounds"])
        self.local_rounds = int(data["local_rounds"])
        self.dataset_size = int(data["dataset_size"])
        self.model_size = int(data["model_size"])
        if "sample_size" in data:
            self.m = int(data["sample_size"])
        else:
            self.m = min(self.n, max(1, round(float(data["selection_rate"]) * self.n)))
        self.rate = float(data["selection_rate"]) if "selection_rate" in data else self.m / self.n
        self.hardware = mix(data["client_hardware"], self.n)
        self.locations = mix(data["client_locations"], self.n)
        self.server_hardware = data["server_hardware"].strip()
        self.server_location = data["server_location"].strip()
        self.seed = seed_override if seed_override is not None else int(data.get("seed", 0))
        self.energy = {**ENERGY_DEFAULTS, **data.get("energy_model", {})}
        self.overrides = {str(k): float(v) for k, v in data.get("score_overrides", {}).items()}
        self.classes = int(data.get("num_label_classes", 10))
        self.statistics = data.get("statistics", {})

    @classmethod
    def load(cls, path, seed_override=None) -> "Scenario":
        path = Path(path)
        return cls(json.loads(path.read_text(encoding="utf-8")), path.stem, seed_override)


def metric_raws(sc: Scenario, ref: Reference) -> dict[str, float]:
    client_ci = sum(share * ref.intensity(loc) for share, loc in sc.locations)
    client_pp = 0.0
    for share, model in sc.hardware:
        mark, tdp = ref.processor(model)
        client_pp += share * mark / tdp
    mark, tdp = ref.processor(sc.server_hardware)
    return {
        "carbon_intensity.client": client_ci,
        "carbon_intensity.server": ref.intensity(sc.server_location),
        "hardware_efficiency.client": client_pp,
        "hardware_efficiency.server": mark / tdp,
        "federation_complexity.global_rounds": sc.rounds,
        "federation_complexity.num_clients": sc.n,
        "federation_complexity.selection_rate": sc.rate,
        "federation_complexity.local_rounds": sc.local_rounds,
        "federation_complexity.dataset_size": sc.dataset_size,
        "federation_complexity.model_size": sc.model_size,
    }


def rule(metric: str, raw: float) -> float:
    notion, leaf = metric.split(".")
    if notion == "carbon_intensity":
        return inverse(raw, 20.0, 795.0)
    if notion == "hardware_efficiency":
        return direct(raw, 20.0, 1447.0)
    if leaf == "selection_rate":
        return clamp01((1.0 - raw) / 0.9)
    if leaf in ("dataset_size", "model_size"):
        return log_scale(raw, 5, 10)
    return log_scale(raw, 1, 6)


def score_pillar(sc: Scenario, ref: Reference, weights: dict[str, float]) -> dict[str, dict]:
    """Every node of the sustainability tree: raw, computed, score, weight, pin."""
    raws = metric_raws(sc, ref)
    nodes: dict[str, dict] = {}
    notion_members: dict[str, list[str]] = {}
    for metric, raw in raws.items():
        notion_members.setdefault(metric.split(".")[0], []).append(metric)
    pillar_score = 0.0
    for notion, members in notion_members.items():
        notion_score = 0.0
        for metric in members:
            node_id = f"{PILLAR}.{metric}"
            computed = rule(metric, raws[metric])
            pinned = node_id in sc.overrides
            score = sc.overrides[node_id] if pinned else computed
            weight = weights.get(node_id, 1.0 / len(members))
            nodes[node_id] = {"raw": raws[metric], "computed_raw": computed, "score_raw": score,
                              "weight": weight, "overridden": pinned}
            notion_score += weight * score
        node_id = f"{PILLAR}.{notion}"
        pinned = node_id in sc.overrides
        weight = weights.get(node_id, NOTION_WEIGHTS[notion])
        score = sc.overrides[node_id] if pinned else notion_score
        nodes[node_id] = {"score_raw": score, "weight": weight, "overridden": pinned}
        pillar_score += weight * score
    pinned = PILLAR in sc.overrides
    nodes[PILLAR] = {"score_raw": sc.overrides[PILLAR] if pinned else pillar_score, "overridden": pinned}
    return nodes


def pillar_file(path) -> dict[str, float]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    out = {}
    for pillar, value in data["pillars"].items():
        if isinstance(value, (int, float)):
            out[pillar] = float(value)
            continue
        names = sorted(value["notions"])
        given = value.get("weights") or {}
        weights = [float(given[n]) for n in names] if given else [1.0 / len(names)] * len(names)
        out[pillar] = sum(w * float(value["notions"][n]) for w, n in zip(weights, names))
    return out


def trust(pillars: dict[str, float], pillar_weights: dict[str, float]) -> tuple[float, dict]:
    ordered = sorted(pillars)
    if pillar_weights:
        subset = {p: pillar_weights[p] for p in ordered}
        total = sum(subset.values())
        if abs(total - 1.0) > WEIGHT_TOL:
            subset = {p: w / total for p, w in subset.items()}
    else:
        subset = {p: 1.0 / len(ordered) for p in ordered}
    return sum(subset[p] * pillars[p] for p in ordered), subset


# ── comparisons ─────────────────────────────────────────────────────────


def _close(problems, label, got, want, relative=False):
    if want is None or got is None:
        if got != want:
            problems.append(f"{label}: got {got!r}, expected {want!r}")
        return
    tol = TOL * max(1.0, abs(want)) if relative else TOL
    if not isinstance(got, (int, float)) or isinstance(got, bool) or abs(got - want) > tol:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


def _same(problems, label, got, want):
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


def _displayed(problems, label, entry):
    if entry.get("score_raw") is not None and entry.get("score") != display(entry["score_raw"]):
        problems.append(f"{label}: display {entry.get('score')!r} is not the half-even rounding "
                        f"of {entry['score_raw']!r}")


def expected_report(sc, ref, weights, externals):
    tree_w = {k: v for k, v in weights.items() if k not in (PILLAR, *EXTERNAL)}
    pillar_w = {k: v for k, v in weights.items() if k in (PILLAR, *EXTERNAL)}
    nodes = score_pillar(sc, ref, tree_w)
    pillars = {PILLAR: nodes[PILLAR]["score_raw"], **(externals or {})}
    root = trust(pillars, pillar_w) if externals else None
    return nodes, pillars, root


def check_report(report: dict, sc: Scenario, ref: Reference, weights: dict, externals) -> list[str]:
    problems: list[str] = []
    nodes, pillars, root = expected_report(sc, ref, weights, externals)
    _same(problems, "config.name", report["config"]["name"], sc.name)
    if not str(report["config"]["digest"]).startswith("sha256:"):
        problems.append("config.digest lacks the sha256: prefix")
    metric_ids = {k for k in nodes if k.count(".") == 2}
    notion_ids = {k for k in nodes if k.count(".") == 1}
    _same(problems, "metric ids", set(report["metrics"]), metric_ids)
    _same(problems, "notion ids", set(report["notions"]), notion_ids)
    for group, ids in (("metrics", metric_ids), ("notions", notion_ids)):
        for node_id in sorted(ids & set(report[group])):
            got, want = report[group][node_id], nodes[node_id]
            for field in ("score_raw", "weight"):
                _close(problems, f"{node_id}.{field}", got[field], want[field])
            for field in ("raw", "computed_raw"):
                if field in want:
                    _close(problems, f"{node_id}.{field}", got[field], want[field], relative=True)
            _same(problems, f"{node_id}.overridden", got["overridden"], want["overridden"])
            _displayed(problems, node_id, got)
    _same(problems, "pillar ids", set(report["pillars"]), set(pillars))
    for pillar, value in pillars.items():
        got = report["pillars"].get(pillar)
        if got is None:
            continue
        _close(problems, f"pillar {pillar}", got["score_raw"], value)
        _same(problems, f"pillar {pillar}.source", got["source"], "computed" if pillar == PILLAR else "external")
        _displayed(problems, f"pillar {pillar}", got)
    if root is None:
        _same(problems, "trust", report["trust"], None)
    else:
        score, used = root
        _close(problems, "trust.score_raw", report["trust"]["score_raw"], score)
        _displayed(problems, "trust", report["trust"])
        _same(problems, "trust weight ids", set(report["trust"]["pillar_weights"]), set(used))
        for pillar, w in used.items():
            _close(problems, f"trust weight {pillar}", report["trust"]["pillar_weights"].get(pillar), w)
    _same(problems, "partial", report["partial"], False)
    _same(problems, "renormalized", report["renormalized"], [])
    return problems


def _score_lines(report) -> list[str]:
    trust_text = report["trust"]["score"] if report["trust"] else "n/a (no external pillars)"
    return [f"sustainability: {report['pillars'][PILLAR]['score']}", f"trust: {trust_text}"]


def check_comparison(comparison: dict, sides: list, ref: Reference, weights: dict) -> list[str]:
    problems: list[str] = []
    raw = {}
    for label, (sc, externals) in zip("ab", sides):
        got = comparison[label]
        _same(problems, f"{label}.name", got["name"], sc.name)
        nodes, pillars, (score, used) = expected_report(sc, ref, weights, externals)
        _same(problems, f"{label} pillar ids", set(got["pillars"]), set(pillars))
        for pillar, value in pillars.items():
            if pillar in got["pillars"]:
                _close(problems, f"{label}.pillar {pillar}", got["pillars"][pillar]["score_raw"], value)
                _displayed(problems, f"{label}.pillar {pillar}", got["pillars"][pillar])
        with_s = got["trust_with_sustainability"]
        _close(problems, f"{label}.trust_with", with_s["score_raw"], score)
        _displayed(problems, f"{label}.trust_with", with_s)
        for pillar, w in used.items():
            _close(problems, f"{label} trust weight {pillar}", with_s["pillar_weights"].get(pillar), w)
        ext = sorted(externals)
        without = sum(externals[p] / len(ext) for p in ext)
        _close(problems, f"{label}.trust_without", got["trust_without_sustainability"]["score_raw"], without)
        _displayed(problems, f"{label}.trust_without", got["trust_without_sustainability"])
        raw[label] = (score, pillars)
    (ta, pa), (tb, pb) = raw["a"], raw["b"]
    ids = sorted(set(pa) | set(pb))
    _same(problems, "pillar_deltas ids", set(comparison["pillar_deltas_raw"]), set(ids))
    for pillar in ids:
        want = pb[pillar] - pa[pillar] if pillar in pa and pillar in pb else None
        _close(problems, f"delta {pillar}", comparison["pillar_deltas_raw"].get(pillar), want)
    _close(problems, "trust_delta_raw", comparison["trust_delta_raw"], tb - ta)
    names = [sc.name for sc, _ in sides]
    # within-tolerance ties are left to the program's exact comparison
    if abs(ta - tb) > TOL:
        _same(problems, "ranked_first", comparison["ranked_first"], names[0] if ta > tb else names[1])
    return problems


# ── simulator replay ────────────────────────────────────────────────────


def select(seed: int, round_index: int, n: int, m: int) -> list[int]:
    """Partial Fisher-Yates over a sparse swap map, fed by the documented
    SHA-256 counter stream; returns the round's clients in ascending order."""
    prefix = b"fedsust-sample" + seed.to_bytes(8, "big") + round_index.to_bytes(8, "big")
    swaps: dict[int, int] = {}
    words: list[int] = []
    block = 0
    for i in range(m):
        if not words:
            digest = hashlib.sha256(prefix + block.to_bytes(8, "big")).digest()
            block += 1
            words = [int.from_bytes(digest[k:k + 8], "big") for k in (24, 16, 8, 0)]
        j = i + words.pop() % (n - i)
        swaps[i], swaps[j] = swaps.get(j, j), swaps.get(i, i)
    return sorted(swaps.get(i, i) for i in range(m))


def client_hash(seed: int):
    salt = hashlib.sha256(b"fedsust-salt" + seed.to_bytes(8, "big")).digest()
    return lambda c: hashlib.sha256(salt + b"client:" + c.to_bytes(8, "big")).hexdigest()[:16]


def assign(shares: list[tuple[float, str]], n: int) -> list[tuple[int, str]]:
    """Largest-remainder block sizes for a share mix over ``n`` clients."""
    raw = [share * n for share, _ in shares]
    counts = [math.floor(r) for r in raw]
    order = sorted(range(len(shares)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in order[:n - sum(counts)]:
        counts[i] += 1
    return [(count, value) for count, (_, value) in zip(counts, shares)]


def per_client(blocks: list[tuple[int, str]], convert) -> list:
    out = []
    for count, value in blocks:
        out.extend([convert(value)] * count)
    return out


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def check_simulation(sc: Scenario, ref: Reference, out: Path, stdout: str) -> list[str]:
    problems: list[str] = []
    em = sc.energy
    util = min(1.0, em["cpu_utilization"] + em["idle_fraction"] * (1.0 - em["cpu_utilization"]))
    train_s = em["train_seconds_per_unit"] * sc.local_rounds * sc.dataset_size * (sc.model_size / 1e6)
    agg_s = em["agg_seconds_per_unit"] * sc.m * (sc.model_size / 1e6)
    comm_kwh = em["comm_energy_per_byte"] * 8.0 * sc.model_size
    tdp = per_client(assign(sc.hardware, sc.n), lambda model: ref.processor(model)[1])
    intensity = per_client(assign(sc.locations, sc.n), ref.intensity)
    cid = client_hash(sc.seed)
    ids = [cid(c) for c in range(sc.n)]
    server_tdp = ref.processor(sc.server_hardware)[1]
    server_i = ref.intensity(sc.server_location)

    rows = []  # (sort key, energy kWh, co2 g, phase, role)
    counts = [0] * sc.n
    for t in range(1, sc.rounds + 1):
        for c in select(sc.seed, t, sc.n, sc.m):
            counts[c] += 1
            energy = tdp[c] * util * train_s / 3.6e6
            rows.append(((t, "client", ids[c], "training"), train_s, energy, intensity[c]))
            if comm_kwh > 0.0:
                rows.append(((t, "client", ids[c], "communication"), 0.0, comm_kwh, intensity[c]))
        energy = server_tdp * util * agg_s / 3.6e6
        rows.append(((t, "server", "server", "aggregation"), agg_s, energy, server_i))
    rows.sort(key=lambda r: r[0])
    expected_lines = [CSV_HEADER] + [
        f"{k[0]},{k[1]},{k[2]},{k[3]},{_fmt(d)},{_fmt(e)},{_fmt(i)},{_fmt(e * i)}"
        for k, d, e, i in rows
    ]

    csv_lines = (out / "emissions.csv").read_text(encoding="utf-8").split("\n")
    if csv_lines[-1] != "":
        problems.append("emissions.csv does not end with a newline")
    csv_lines = csv_lines[:-1]
    per_round = sc.m * (2 if comm_kwh > 0.0 else 1) + 1
    _same(problems, "emissions.csv rows", len(csv_lines) - 1, sc.rounds * per_round)
    keys = [(int(f[0]), f[1], f[2], f[3]) for f in (line.split(",") for line in csv_lines[1:])]
    if keys != sorted(keys):
        problems.append("emissions.csv rows are not sorted by (round, role, node_id, phase)")
    for n, (got, want) in enumerate(zip(csv_lines, expected_lines)):
        if got != want:
            problems.append(f"emissions.csv line {n + 1}: got {got!r}, expected {want!r}")
            break
    if len(csv_lines) != len(expected_lines):
        problems.append(f"emissions.csv has {len(csv_lines)} lines, expected {len(expected_lines)}")

    total_co2 = math.fsum(e * i for _, _, e, i in rows)
    total_energy = math.fsum(e for _, _, e, _ in rows)
    by_phase: dict[str, list] = {}
    by_role: dict[str, list] = {}
    for key, _, e, i in rows:
        by_phase.setdefault(key[3], []).append(e * i)
        by_role.setdefault(key[1], []).append(e * i)
    by_phase = {k: math.fsum(v) for k, v in by_phase.items()}
    by_role = {k: math.fsum(v) for k, v in by_role.items()}

    report = strict_json((out / "trust_report.json").read_text(encoding="utf-8"))
    block = report["emissions"]
    _same(problems, "emissions.records", block["records"], len(rows))
    _close(problems, "total_co2eq_g_raw", block["total_co2eq_g_raw"], total_co2, relative=True)
    _close(problems, "total_energy_kwh_raw", block["total_energy_kwh_raw"], total_energy, relative=True)
    for name, want, got in (("phase", by_phase, block["co2eq_by_phase_g_raw"]),
                            ("role", by_role, block["co2eq_by_role_g_raw"])):
        _same(problems, f"co2eq_by_{name} keys", set(got), set(want))
        for key in set(got) & set(want):
            _close(problems, f"co2eq_by_{name}.{key}", got[key], want[key], relative=True)
    printed = [float(line.rsplit(",", 1)[1]) for line in csv_lines[1:]]
    slack = math.fsum(abs(v) for v in printed) * 5e-6
    if abs(math.fsum(printed) - block["total_co2eq_g_raw"]) > slack:
        problems.append("report CO2 total does not match the CSV at print precision")
    lines = stdout.splitlines()
    want_line = f"estimated emissions: {block['total_co2eq_g_raw']:.6g} gCO2eq over {len(rows)} records"
    if lines[:2] != _score_lines(report) or want_line not in lines:
        problems.append(f"simulate printed {stdout!r}")

    sheet = strict_json((out / "factsheet.json").read_text(encoding="utf-8"))
    pre, during, post = sheet["pre_training"], sheet["during_training"], sheet["post_training"]
    for field, want in (("name", sc.name), ("num_clients", sc.n), ("total_rounds", sc.rounds),
                        ("sample_size", sc.m), ("local_rounds", sc.local_rounds),
                        ("dataset_size", sc.dataset_size), ("model_size", sc.model_size),
                        ("seed", sc.seed)):
        _same(problems, f"factsheet {field}", pre[field], want)
    _close(problems, "factsheet selection_rate", pre["selection_rate"], sc.rate)
    _same(problems, "rounds_completed", during["rounds_completed"], sc.rounds)
    selections = during["selection_counts"]
    _same(problems, "selection total", sum(selections.values()), sc.m * sc.rounds)
    if selections != {ids[c]: counts[c] for c in range(sc.n)}:
        problems.append("selection_counts differ from the replayed sampler")
    for key in set(by_phase) | set(during["emissions_by_phase_g_raw"]):
        _close(problems, f"factsheet emissions {key}", during["emissions_by_phase_g_raw"].get(key),
               by_phase.get(key), relative=True)
    stats = post["client_statistics"]
    _same(problems, "client_statistics size", len(stats), sc.n)
    distribution: dict[str, int] = {}
    bad_balance = 0
    for c, key in enumerate(ids):
        entry = stats.get(key)
        if entry is None:
            problems.append(f"client_statistics lacks client {key}")
            break
        balance = entry["class_balance"]
        if sum(balance.values()) != sc.dataset_size or len(balance) > sc.classes \
                or entry["dataset_size"] != sc.dataset_size:
            bad_balance += 1
        for label, count in balance.items():
            distribution[label] = distribution.get(label, 0) + count
        _close(problems, f"participation {key}", entry["participation_rate"], counts[c] / sc.rounds)
        _close(problems, f"avg training time {key}", entry["avg_training_time_s"],
               train_s if counts[c] else 0.0, relative=True)
    if bad_balance:
        problems.append(f"{bad_balance} clients' class balance does not sum to dataset_size")
    _same(problems, "class_distribution", during["class_distribution"], distribution)
    _same(problems, "evaluation", post.get("evaluation", {}), sc.statistics)
    _same(problems, "completeness", sheet["completeness"], {"fraction": 1.0, "absent": []})
    return problems[:20]


# ── one program call ────────────────────────────────────────────────────


def _options(argv: list[str]) -> dict:
    opts: dict = {"command": argv[0], "config": [], "pillars": [], "allow_partial": False}
    i = 1
    while i < len(argv):
        flag = argv[i]
        if flag == "--allow-partial":
            opts["allow_partial"] = True
            i += 1
            continue
        value = argv[i + 1]
        if flag in ("--config", "--pillars"):
            opts[flag[2:]].append(value)
        else:
            opts[flag[2:]] = value
        i += 2
    return opts


def check_call(ref: Reference, kind: str, argv: list[str], out, stdout: str) -> list[str]:
    """Check what one successful ``fedsust`` call printed and wrote."""
    if kind == "simulate-nan":
        return []
    opts = _options(argv)
    seed = int(opts["seed"]) if "seed" in opts else None
    scenarios = [Scenario.load(path, seed) for path in opts["config"]]
    weights = json.loads(Path(opts["weights"]).read_text(encoding="utf-8")) if "weights" in opts else {}
    externals = [pillar_file(path) for path in opts["pillars"]]
    if opts["command"] == "validate":
        want = f"ok: scenario '{scenarios[0].name}' is valid\n"
        return [] if stdout == want else [f"validate printed {stdout!r}"]
    out = Path(out)
    if opts["command"] == "compare":
        sides = list(zip(scenarios, externals if len(externals) > 1 else externals * 2))
        comparison = strict_json((out / "comparison.json").read_text(encoding="utf-8"))
        problems = check_comparison(comparison, sides, ref, weights)
        if f"ranked first: {comparison['ranked_first']}" not in stdout.splitlines():
            problems.append(f"compare printed {stdout!r}")
        return problems
    report = strict_json((out / "trust_report.json").read_text(encoding="utf-8"))
    problems = check_report(report, scenarios[0], ref, weights, externals[0] if externals else None)
    if opts["command"] == "simulate":
        return problems + check_simulation(scenarios[0], ref, out, stdout)
    if stdout.splitlines()[:2] != _score_lines(report):
        problems.append(f"score printed {stdout!r}")
    _same(problems, "score output files", sorted(p.name for p in out.iterdir()), ["trust_report.json"])
    return problems


def nan_call_passes(code, stderr: str, out) -> bool:
    """A scenario with non-finite statistics is handled if it is rejected
    with one validation error line, or if every JSON file written is strict."""
    if code == 1:
        lines = stderr.strip().splitlines()
        return len(lines) == 1 and lines[0].startswith("error: validation:")
    if code != 0:
        return False
    try:
        for path in Path(out).glob("*.json"):
            strict_json(path.read_text(encoding="utf-8"))
    except ValueError:
        return False
    return True
