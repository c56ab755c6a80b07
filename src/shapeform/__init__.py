"""Planning engine and deterministic simulator for modular-robot
configuration formation."""

from .model import (
    AlgoParams,
    Configuration,
    CostParams,
    Module,
    Pose,
    Scenario,
    ScenarioIndex,
    Spot,
    TargetConfiguration,
    validate_scenario,
)
from .scenario_io import load_scenario, save_result, save_scenario
from .metrics import rank_entities, spot_values, target_center
from .isomorphism import Embedding
from .allocation import AllocationState, PlanContext, block_allocation, evict, spot_allocation
from .simulate import PlanResult, RunMetrics, run_planning, run_scenario, simulate_acting
from .auction import AuctionResult, auction_assign, optimal_assignment
from .generate import GenParams, generate_scenario

__all__ = [
    "AlgoParams", "AllocationState", "AuctionResult", "Configuration",
    "CostParams", "Embedding", "GenParams", "Module", "PlanContext",
    "PlanResult", "Pose", "RunMetrics", "Scenario", "ScenarioIndex",
    "Spot", "TargetConfiguration", "auction_assign", "block_allocation",
    "evict", "generate_scenario", "load_scenario", "optimal_assignment",
    "rank_entities", "run_planning", "run_scenario", "save_result",
    "save_scenario", "simulate_acting", "spot_allocation", "spot_values",
    "target_center", "validate_scenario",
]
