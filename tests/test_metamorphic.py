"""Metamorphic properties: transformations of a scenario that must leave
its plan unchanged.

The planner reads positions only through planar distances and the target
center, and ids only through their order (every tie goes to the lower id).
So mirroring, swapping or rotating the plane by 90 degrees changes no
decision, and neither does renumbering the modules, spots and
configurations in an order-preserving way.  Ids are renumbered affinely:
``order_embeddings`` breaks utility ties by the sum of image spot ids, and
only an affine map keeps the order of such sums.  Reversing the ids flips
every tie, so it is checked only on singleton-only scenarios with float
module positions, where utilities and distances do not tie.

Plans are compared in the original ids: the allocation, the sequence of
(actor, event type) with each selection broadcast's selections, the
disconnection records and the total utility.  Position broadcasts go out
in module id order before any decision, so they are left out.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from shapeform.allocation import POSITION_BROADCAST
from shapeform.generate import GenParams, generate_scenario
from shapeform.model import (
    Configuration,
    Module,
    Pose,
    Scenario,
    Spot,
    TargetConfiguration,
    normalize_edge,
    validate_scenario,
)
from shapeform.simulate import run_planning, run_scenario

from conftest import generated_scenarios, grid_scenarios, singleton_scenarios

SYMMETRIES = {
    "mirror_x": lambda x, y: (-x, y),
    "mirror_y": lambda x, y: (x, -y),
    "swap_xy": lambda x, y: (y, x),
    "rotate_90": lambda x, y: (-y, x),
}


def _identity(i: int) -> int:
    return i


def transformed(scenario: Scenario, position=lambda x, y: (x, y), module_id=_identity,
                spot_id=_identity, config_id=_identity) -> Scenario:
    """The scenario with every position and id passed through the maps."""
    def pose(p: Pose) -> Pose:
        return Pose(*position(p.x, p.y), p.theta)

    modules = tuple(Module(module_id(m.id), pose(m.pose),
                           None if m.config_id is None else config_id(m.config_id))
                    for m in scenario.modules)
    configurations = tuple(Configuration(
        id=config_id(c.id), member_ids=tuple(map(module_id, c.member_ids)),
        edges=frozenset(normalize_edge(module_id(a), module_id(b)) for a, b in c.edges),
        leader_id=module_id(c.leader_id)) for c in scenario.configurations)
    spots = tuple(Spot(spot_id(s.id), pose(s.pose), frozenset(map(spot_id, s.neighbor_ids)))
                  for s in scenario.target.spots)
    return validate_scenario(Scenario(
        modules=modules, configurations=configurations, target=TargetConfiguration(spots),
        cost_params=scenario.cost_params, algo_params=scenario.algo_params,
        seed=scenario.seed))


def signature(result, module_id=_identity, spot_id=_identity, config_id=_identity):
    """The plan in the original ids; the maps take transformed ids back."""
    def actor(name: str) -> str:
        kind, number = name.split(":")
        back = module_id if kind == "module" else config_id
        return f"{kind}:{back(int(number))}"

    def pairs(selections) -> list[tuple[int, int]]:
        return sorted((spot_id(int(s)), module_id(m)) for s, m in selections.items())

    events = [(actor(e.actor), e.event_type, pairs(e.payload.get("selections", {})))
              for e in result.event_log if e.event_type != POSITION_BROADCAST]
    disconnections = [(module_id(d.module_id), config_id(d.config_id),
                       sorted(normalize_edge(module_id(a), module_id(b))
                              for a, b in d.severed_links))
                      for d in result.disconnections]
    return (pairs(result.allocation), events, disconnections,
            result.metrics.total_utility)


scenarios = st.one_of(generated_scenarios(), grid_scenarios())


@settings(max_examples=150)
@given(scenarios)
def test_plans_are_invariant_under_plane_symmetries(scenario):
    expected = signature(run_scenario(scenario))
    for name, position in SYMMETRIES.items():
        assert signature(run_scenario(transformed(scenario, position))) == expected, name


@settings(max_examples=200)
@given(scenarios, st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=9),
       st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=9),
       st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=9))
def test_plans_are_invariant_under_order_preserving_renumbering(scenario, ma, mb, sa, sb,
                                                                ca, cb):
    renumbered = transformed(scenario, module_id=lambda i: ma * i + mb,
                             spot_id=lambda i: sa * i + sb, config_id=lambda i: ca * i + cb)
    got = signature(run_scenario(renumbered), module_id=lambda i: (i - mb) // ma,
                    spot_id=lambda i: (i - sb) // sa, config_id=lambda i: (i - cb) // ca)
    assert got == signature(run_scenario(scenario))


@settings(max_examples=200)
@given(st.one_of(singleton_scenarios(min_modules=2, max_modules=12, extra_modules=2),
                 st.builds(lambda n, seed: generate_scenario(
                     GenParams(n_spots=n, singletons_only=True, seed=seed)),
                     st.integers(min_value=2, max_value=24),
                     st.integers(min_value=0, max_value=2 ** 20))))
def test_reversing_ids_leaves_singleton_plans_unchanged(scenario):
    top_module = max(m.id for m in scenario.modules)
    top_spot = max(s.id for s in scenario.target.spots)
    reversed_ids = transformed(scenario, module_id=lambda i: top_module - i,
                               spot_id=lambda i: top_spot - i)
    got = signature(run_planning(reversed_ids), module_id=lambda i: top_module - i,
                    spot_id=lambda i: top_spot - i)
    assert got == signature(run_planning(scenario))
