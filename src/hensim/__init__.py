"""Hamiltonian-ensemble simulator for qubit relaxation and entanglement sudden death.

Working qubits coupled to auxiliary qubits with Gaussian-random level spacings;
ensemble averaging over realizations mimics finite-temperature longitudinal
relaxation. Includes closed-form averaged dynamics, thermal steady-state mapping,
two-qubit X-state concurrence and the critical disentanglement time solver.
"""

__version__ = "0.1.0"
