"""Hamiltonian-ensemble simulator for qubit relaxation and entanglement sudden death.

Working qubits coupled to auxiliary qubits with Gaussian-random level spacings;
ensemble averaging over realizations mimics finite-temperature longitudinal
relaxation. Includes closed-form averaged dynamics, thermal steady-state mapping,
two-qubit X-state concurrence and the critical disentanglement time solver.
"""

from hensim.scenarios import (
    CouplingLaw,
    GaussianSpec,
    SingleQubitScenario,
    Trajectory,
    TwoQubitScenario,
)
from hensim.linalg import (
    DensityMatrixError,
    kron,
    matrix_exponential,
    partial_trace,
    validate_density,
)
from hensim.ensemble import (
    build_h_single,
    build_h_two,
    coupling_strength,
    evolve_single_realization,
    evolve_two_realization,
    propagator_single_closed,
    sample_ensemble,
    seed_stream,
)
from hensim.analytic import (
    AveragedXState,
    ThermalTarget,
    avg_coherence_single,
    avg_population_single,
    avg_xstate_two,
    dissipation_rate,
    invert_thermal,
    invert_thermal_with_xb,
    special_no_longitudinal,
    special_transverse_only,
    steady_population,
    thermal_population,
)
from hensim.entanglement import (
    CriticalTime,
    concurrence_general,
    concurrence_trajectory,
    concurrence_x,
    find_tc,
    find_tc_batch,
    xstate_matrix,
)

__version__ = "0.1.0"
