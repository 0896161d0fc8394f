"""Exact ladder-operator spectral engine on the two-sheet hyperboloid.

All states are exact rational sums of cos/sin/cosh/sinh powers; the ladder
generators, Hamiltonians and Casimir act exactly, so algebraic identities
verify as structural zeros.  A finite-difference eigensolver provides an
independent numerical cross-check.  Everything is immutable and pure, hence
safe for concurrent use.
"""

import importlib

from .algebra import (DivergenceError, DomainError, FunExpr, Monomial,
                      d_theta, d_xi, eval_at, eval_grid, inner, integral,
                      is_normalizable, monomial, rational)
from .identities import IdentityResult, run_suite
from .operators import (LabeledState, OperatorName, ParamPoint,
                        VariableMismatchError, apply, apply_casimir,
                        apply_hamiltonian, apply_separated, apply_word,
                        commutator, cprime, diag_eigenvalue,
                        hamiltonian_from_casimir, reflect,
                        separated_eigenvalue, separated_ladder,
                        verify_intertwining)
from .spectra import (AdmissibilityError, EnergyLevel, LatticePoint,
                      SpectrumReport, bound_spectrum, enumerate_lattice,
                      gram_matrix, gram_rank, ground_beta, ground_chi,
                      ground_full, ground_theta, lattice_states, normalize,
                      so42_vacuum, states_at, vertex_energy)

__version__ = "0.1.0"

_NUMERIC = {"EigenResult", "GridSpec", "ParameterError", "TruncationWarning",
            "residual_on_grid", "solve_theta", "solve_xi"}


def __getattr__(name: str):
    """Load the numeric layer, and numpy with it, on first use (PEP 562)."""
    if name == "numeric" or name in _NUMERIC:
        numeric = importlib.import_module(".numeric", __name__)
        return numeric if name == "numeric" else getattr(numeric, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
