"""Finite-truncation Fock-space laboratory: exact operator matrices and
tolerance-free verification of the bosonization identities."""

from .counting import degeneracy_counts, jacobi_check
from .identities import (SUPPORTED_IDENTITIES, IdentityReport,
                         identity_residual, reconstruction_report,
                         run_identity_suite)
from .operators import (SparseOperator, charge_op, density_op, field_op,
                        free_hamiltonian, klein_factor, ladder_op)
from .reconstruction import reconstructed_field
from .space import FockSpace, build_space

__all__ = [
    "FockSpace", "build_space", "SparseOperator",
    "ladder_op", "field_op", "density_op", "free_hamiltonian", "charge_op",
    "klein_factor", "identity_residual", "run_identity_suite",
    "IdentityReport", "SUPPORTED_IDENTITIES", "degeneracy_counts",
    "jacobi_check", "reconstructed_field", "reconstruction_report",
]
