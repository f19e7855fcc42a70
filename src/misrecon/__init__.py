"""Distributed MIS reconfiguration: schedules, validator, round-synchronous
simulator, exhaustive oracle and gadget families."""

from .analysis import (
    BlockerReport,
    OracleResult,
    brute_force_oracle,
    check_blocker,
    gen_gadget,
    small_diameter_fallback,
)
from .constlength import (
    constant_length_schedule_distributed,
    layer_component,
    reduce_instance,
    schedule_big_component,
    schedule_isolated,
    schedule_non_isolated,
)
from .constrounds import (
    InsertionPlan,
    constant_rounds_schedule,
    greedy_power_coloring,
    plan_insertion,
)
from .errors import InputError, InternalError
from .graph import (
    ComponentInfo,
    Graph,
    VertexSet,
    components_of,
    diameter,
    distances_from,
    is_d_dominating,
    is_independent,
    is_mis,
)
from .schedule import (
    PropertySpec,
    ReconfigInstance,
    Schedule,
    net_flip,
    run_side_by_side,
    validate,
)
from .sim import NodeProgram, SimReport, Trace, ruling_set_32, run

__all__ = [name for name in dir() if not name.startswith("_")]
