"""stogame: solve, decompose and synthesize strategy automata for finite
multiplayer stochastic games."""

from .automata import (
    JointAutomaton,
    JointAutomatonProfile,
    build_product_model,
    discounted_value,
    stationary_automaton,
)
from .builder import (
    Classification,
    ExitPlan,
    assemble_profile,
    build_correlated_stationary,
    classify_set,
    companion_action,
    exit_options,
    solve_eta,
    type_b_feasibility,
)
from .frequencies import (
    RecurrentPoint,
    SustainPlan,
    best_recurrent_point,
    payoff_of_frequency,
    sustain_by_columns,
)
from .game import (
    GameFormatError,
    StationaryCorrelated,
    StationaryProfile,
    StochasticGame,
    load_game,
    pure_profile,
    save_game,
    validate_game,
)
from .generators import acceptance_suite, bundled_game, sorin_game
from .minmax import (
    MinMaxReport,
    default_schedule,
    discounted_minmax,
    solve_uniform_minmax,
    uniform_minmax,
)
from .matrixgame import solve_matrix_game
from .oneshot import (
    AuxiliaryGame,
    EquilibriumSet,
    build_auxiliary_game,
    continuation_values,
    enumerate_all_states,
    enumerate_equilibria,
)
from .pipeline import PipelineResult, classify_game, run_pipeline
from .simulate import simulate
from .structure import (
    CommunicatingSet,
    Decomposition,
    TravelStrategy,
    decompose,
    maximal_communicating_sets,
    transient_profile,
    travel_strategy,
)
from .verify import (
    AcceptabilityReport,
    automaton_size_audit,
    check_individual_rationality,
    check_minmax_acceptable,
    check_submartingale,
    check_w_acceptable,
    product_chain,
)

__version__ = "0.1.0"
