"""The ten sustainability metrics computed from a scenario plus reference data.

Three notions make up the pillar:

* carbon intensity of the energy source -- client average and server grid
  intensity, each normalized inversely over [20, 795] gCO2eq/kWh;
* hardware efficiency -- client average and server performance per watt,
  normalized directly over [20, 1447] marks/W;
* federation complexity -- six raw configuration scalars (global rounds,
  clients, selection rate, local rounds, dataset size, model size).

Each assessment is an immutable ``typing.NamedTuple`` of raw values;
:func:`build_sustainability_node` builds the pillar from one table of them.
Default weights: metrics weigh equally within a notion; the notions weigh
0.5 (carbon) / 0.25 (hardware) / 0.25 (complexity) within the pillar. All
weights can be replaced through a weight file (see
:func:`fedsust.scoring.apply_weights`).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .config import FederationConfig
from .refdata import GridIntensityTable, HardwareTable, LocationResolver
from .scoring import (
    CARBON_INTENSITY_RULE,
    COUNT_RULE,
    KIND_METRIC,
    KIND_NOTION,
    KIND_PILLAR,
    POWER_PERFORMANCE_RULE,
    SELECTION_RULE,
    SIZE_RULE,
    ScoreNode,
)

__all__ = [
    "CarbonIntensityAssessment",
    "ComplexityAssessment",
    "DEFAULT_NOTION_WEIGHTS",
    "HardwareAssessment",
    "PILLAR_ID",
    "assess_carbon",
    "assess_complexity",
    "assess_hardware",
    "build_sustainability_node",
]

PILLAR_ID = "sustainability"

DEFAULT_NOTION_WEIGHTS = {
    "carbon_intensity": 0.5,
    "hardware_efficiency": 0.25,
    "federation_complexity": 0.25,
}


class CarbonIntensityAssessment(NamedTuple):
    """Grid carbon intensity of the federation, gCO2eq/kWh."""

    client_avg: float
    server: float


class HardwareAssessment(NamedTuple):
    """Performance per watt of the federation's processors, marks/W."""

    client_avg_pp: float
    server_pp: float


class ComplexityAssessment(NamedTuple):
    """The six raw federation-complexity drivers."""

    global_rounds: int
    num_clients: int
    selection_rate: float
    avg_local_rounds: float
    avg_dataset_size: float
    model_size: float


def assess_carbon(
    config: FederationConfig, grid: GridIntensityTable, locations: LocationResolver
) -> CarbonIntensityAssessment:
    """Share-weighted client grid intensity plus the server's grid intensity."""
    client_avg = math.fsum(
        share * grid.lookup_intensity(locations.resolve(loc, grid))
        for share, loc in config.client_locations
    )
    server = grid.lookup_intensity(locations.resolve(config.server_location, grid))
    return CarbonIntensityAssessment(client_avg=client_avg, server=server)


def assess_hardware(config: FederationConfig, hardware: HardwareTable) -> HardwareAssessment:
    """Share-weighted client performance per watt plus the server's."""
    client_avg = math.fsum(
        share * hardware.lookup(model).power_performance
        for share, model in config.client_hardware
    )
    server = hardware.lookup(config.server_hardware).power_performance
    return HardwareAssessment(client_avg_pp=client_avg, server_pp=server)


def assess_complexity(config: FederationConfig) -> ComplexityAssessment:
    """Copy the six complexity drivers out of the configuration ``parse_config`` validated."""
    return ComplexityAssessment(
        global_rounds=config.total_rounds,
        num_clients=config.num_clients,
        selection_rate=config.selection_rate,
        avg_local_rounds=float(config.local_rounds),
        avg_dataset_size=float(config.dataset_size),
        model_size=float(config.model_size),
    )


def build_sustainability_node(
    carbon: CarbonIntensityAssessment,
    hardware: HardwareAssessment,
    complexity: ComplexityAssessment,
) -> ScoreNode:
    """Assemble the pillar subtree with raw metric values filled in.

    Node ids are dot-paths under ``sustainability``: ``table`` lists each
    notion's ``(leaf, rule, raw)`` metrics in report order. A notion weighs
    ``DEFAULT_NOTION_WEIGHTS[notion]``, each of its metrics an equal share.
    Pass the result to :func:`fedsust.scoring.aggregate` to score it.
    """
    table = {
        "carbon_intensity": [
            ("client", CARBON_INTENSITY_RULE, carbon.client_avg),
            ("server", CARBON_INTENSITY_RULE, carbon.server),
        ],
        "hardware_efficiency": [
            ("client", POWER_PERFORMANCE_RULE, hardware.client_avg_pp),
            ("server", POWER_PERFORMANCE_RULE, hardware.server_pp),
        ],
        "federation_complexity": [
            ("global_rounds", COUNT_RULE, complexity.global_rounds),
            ("num_clients", COUNT_RULE, complexity.num_clients),
            ("selection_rate", SELECTION_RULE, complexity.selection_rate),
            ("local_rounds", COUNT_RULE, complexity.avg_local_rounds),
            ("dataset_size", SIZE_RULE, complexity.avg_dataset_size),
            ("model_size", SIZE_RULE, complexity.model_size),
        ],
    }
    return ScoreNode(PILLAR_ID, KIND_PILLAR, children=[
        ScoreNode(f"{PILLAR_ID}.{notion}", KIND_NOTION, DEFAULT_NOTION_WEIGHTS[notion], children=[
            ScoreNode(f"{PILLAR_ID}.{notion}.{leaf}", KIND_METRIC, 1.0 / len(metrics), rule, raw=raw)
            for leaf, rule, raw in metrics
        ])
        for notion, metrics in table.items()
    ])
