"""Magnus-expansion analysis of the Jaynes-Cummings model beyond the RWA.

The package builds the doubly rotated Jaynes-Cummings Hamiltonian on a
truncated Fock space, evaluates the first- and second-order Magnus generators
in closed form with independent quadrature oracles, and extracts the
beyond-RWA signatures: AC-Stark shifts, photon-number-scaled Bloch-Siegert
shifts, and atom-induced quadrature squeezing.
"""

from .hilbert import (
    ATOM_EXCITED,
    ATOM_GROUND,
    HilbertSpec,
    adjoint,
    annihilation,
    creation,
    expm_antiherm,
    number,
    pauli,
    spectral_norm,
    tensor,
)
from .jc_model import (
    ModelParams,
    frame_phases,
    h_full,
    h_rotated,
    h_rwa,
    rotation_chain_residual,
    verify_bch,
)
from .magnus import (
    IntegralSet,
    commutator_table,
    convergence_margin,
    integrals_closed,
    integrals_quadrature,
    omega1_closed,
    omega1_quadrature,
    omega2_closed,
    omega2_quadrature,
    shift_rates,
    zeta_resonance_limit,
)
from .observables import (
    SqueezingReport,
    StateVector,
    basis_state,
    bs_phase_probe,
    evolve,
    gaussian_squeezing,
    populations,
    quadrature_variance,
    squeezing_report,
)
from .propagator import (
    PropagatorBundle,
    error_report,
    phase_aligned_distance,
    phase_aligned_distances,
    project_buffer,
    propagator_bundle,
    u_exact,
    u_magnus,
    u_rwa,
    unitarity_defect,
)

__version__ = "0.1.0"

__all__ = [
    "ATOM_EXCITED",
    "ATOM_GROUND",
    "HilbertSpec",
    "IntegralSet",
    "ModelParams",
    "PropagatorBundle",
    "SqueezingReport",
    "StateVector",
    "adjoint",
    "annihilation",
    "basis_state",
    "bs_phase_probe",
    "commutator_table",
    "convergence_margin",
    "creation",
    "error_report",
    "evolve",
    "expm_antiherm",
    "frame_phases",
    "gaussian_squeezing",
    "h_full",
    "h_rotated",
    "h_rwa",
    "integrals_closed",
    "integrals_quadrature",
    "number",
    "omega1_closed",
    "omega1_quadrature",
    "omega2_closed",
    "omega2_quadrature",
    "pauli",
    "phase_aligned_distance",
    "phase_aligned_distances",
    "populations",
    "project_buffer",
    "propagator_bundle",
    "quadrature_variance",
    "rotation_chain_residual",
    "shift_rates",
    "spectral_norm",
    "squeezing_report",
    "tensor",
    "u_exact",
    "u_magnus",
    "u_rwa",
    "unitarity_defect",
    "verify_bch",
    "zeta_resonance_limit",
]
