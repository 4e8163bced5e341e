"""Large-deviations rate functions of empirical measures and flows of
finite continuous-time Markov chains.

The rate of an occupation measure is computed by one Newton solve per
mutual-reachability class. Its primal half is the infimum of a joint
divergence over circulations; its dual half is the supremum of the
Donsker-Varadhan objective over potentials, and the gap between the two is
the certificate. minimize_flow, dv_sup and duality_check (the Fenchel
route) are views of that one solve, and all three live in the solver module.
The checks independent of the solve are a Gillespie Monte Carlo harness and
the Doob identity: the chain tilted by the optimal potential has the measure
as its stationary law, computed by the stationary solver.
"""

from .chain import (
    ChainSpec,
    EdgeFunction,
    Flow,
    ProbabilityMeasure,
    VertexFunction,
    apply_generator,
    divergence,
    is_reversible,
    mu_flow,
    stationary_distribution,
    tilted_exit_rate,
)
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    ConvergenceError,
    DivergenceError,
    DvrateError,
    InputFormatError,
    NotReversibleError,
    OverflowGuardError,
    UnknownStateError,
    ValidationError,
)
from .fileio import (
    flow_to_jsonable,
    load_chain,
    load_flow,
    load_measure,
    rate_to_jsonable,
)
from .functionals import (
    dv_objective,
    joint_rate,
    legendre_phi_star,
    perturbed_rate,
    phi,
    phi_edge_sum,
    reversible_optimal_flow,
    reversible_rate,
)
from .graphs import (
    ClassPartition,
    CondensationGraph,
    CycleDecomposition,
    GradientCheck,
    GradientWitness,
    SupportGraph,
    condensation,
    cycle_decomposition,
    gradient,
    is_gradient,
    mutual_reachability_classes,
    path_integral,
    support_graph,
    witness_flow,
)
from .montecarlo import (
    RNG_ALGORITHM,
    EmpiricalPair,
    EventEstimate,
    HalfSpaceEvent,
    SlopeEstimate,
    Trajectory,
    closed_empirical_pair,
    empirical_pair,
    estimate_event_probability,
    estimate_ldp_slope,
    simulate,
    tilted_chain,
)
from .solver import (
    APPROX_LEVELS,
    ApproximatingSequence,
    ContractionResult,
    DvSupResult,
    FenchelResult,
    duality_check,
    dv_sup,
    minimize_flow,
    mixed_measure_rate,
)

__version__ = "0.1.0"

__all__ = [
    "APPROX_LEVELS",
    "ApproximatingSequence",
    "ChainSpec",
    "ClassPartition",
    "CondensationGraph",
    "ContractionResult",
    "ConvergenceError",
    "CycleDecomposition",
    "DEFAULT_TOLERANCES",
    "DivergenceError",
    "DvrateError",
    "DvSupResult",
    "EdgeFunction",
    "EmpiricalPair",
    "EventEstimate",
    "FenchelResult",
    "Flow",
    "GradientCheck",
    "GradientWitness",
    "HalfSpaceEvent",
    "InputFormatError",
    "NotReversibleError",
    "OverflowGuardError",
    "ProbabilityMeasure",
    "RNG_ALGORITHM",
    "SlopeEstimate",
    "SupportGraph",
    "Tolerances",
    "Trajectory",
    "UnknownStateError",
    "ValidationError",
    "VertexFunction",
    "apply_generator",
    "closed_empirical_pair",
    "condensation",
    "cycle_decomposition",
    "divergence",
    "duality_check",
    "dv_objective",
    "dv_sup",
    "empirical_pair",
    "estimate_event_probability",
    "estimate_ldp_slope",
    "flow_to_jsonable",
    "gradient",
    "is_gradient",
    "is_reversible",
    "joint_rate",
    "legendre_phi_star",
    "load_chain",
    "load_flow",
    "load_measure",
    "minimize_flow",
    "mixed_measure_rate",
    "mu_flow",
    "mutual_reachability_classes",
    "path_integral",
    "perturbed_rate",
    "phi",
    "phi_edge_sum",
    "rate_to_jsonable",
    "reversible_optimal_flow",
    "reversible_rate",
    "simulate",
    "stationary_distribution",
    "support_graph",
    "tilted_chain",
    "tilted_exit_rate",
    "witness_flow",
]
