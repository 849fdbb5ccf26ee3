"""Geometric correlation quantifiers for two-qubit X states.

Computes total, quantum (geometric discord), and classical correlations in
the squared Hilbert-Schmidt norm, together with the closest product and
closest classical states that realize them, Monte Carlo non-additivity
experiments, and a non-Markovian amplitude-damping dynamics driver.

Basis convention: {|11>, |10>, |01>, |00>} -- see :mod:`xqcorr.states`.
"""

__version__ = "0.1.0"

from .closest import (
    CaseId,
    CaseLabel,
    ProductPair,
    closest_classical_x,
    closest_product_general,
    closest_product_of_classical_x,
    closest_product_x,
    k_eigenvalues_x,
    k_matrix_general,
    product_distance,
    stationarity_residual,
)
from .dynamics import (
    DynamicsConfig,
    TrajectoryPoint,
    case_crossings,
    evolve,
    p_t,
    trajectory,
    trajectory_csv,
    write_trajectory_csv,
)
from .ensemble import (
    HistogramResult,
    HistogramSpec,
    PhaseMode,
    Quantity,
    SamplerConfig,
    run_histogram,
    sample_x_states,
    write_histogram,
)
from .errors import (
    ConvergenceFailureError,
    InvalidStateError,
    NotAnXStateError,
    RejectionExhaustionError,
    SolverFailureError,
    UnphysicalParametersError,
    XqcorrError,
)
from .quantifiers import (
    CorrelationReport,
    bell_diagonal_quantifiers,
    discord_measurement_oracle,
    geometric_discord_general,
    pinched_state,
    quantifiers_x,
)
from .states import (
    BlochForm,
    DensityMatrix4,
    XStateParams,
    bloch_compose,
    bloch_decompose,
    check_x_rows,
    hs_norm_sq,
    load_state_file,
    matrix_to_x_params,
    parse_state_json,
    state_to_json_dict,
    x_params_to_bloch,
)
