"""Round-synchronous simulator of classical and quantum message-passing
networks, with the triangle relation and sampling separation experiments
built on top of it."""

from .distributions import GammaLaw, OutcomeDistribution, marginal, tv_distance
from .errors import (
    EntangledDisposalError,
    LocalityError,
    ModelViolationError,
    NonCliffordError,
    ProtocolError,
    ResourceLimitError,
    SimulationError,
)
from .network import (
    LocalView,
    Message,
    NodeProgram,
    role_of,
    run,
    run_exact,
    run_sampled,
)
from .protocols import (
    AffineStrategy,
    GraphStateProgram,
    RelationProgram,
    affine_strategy_programs,
    all_affine_strategies,
    relation_inputs,
    relation_protocol_programs,
    sampling_protocol_programs,
)
from .separation import (
    exact_gamma,
    min_tv_affine_adversary,
    sampling_exact_law,
)
from .topology import (
    Topology,
    build_gd,
    build_script_gd,
    corner_nodes,
    input_nodes,
    neighborhood,
)
from .verify import (
    best_affine_success,
    check_prop1,
    enumerate_support,
    is_valid,
    lemma2_exhaustive,
    parities,
)

__version__ = "0.1.0"
