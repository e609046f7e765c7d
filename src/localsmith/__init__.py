"""Exact diagonalization of matrix families at a parameter singularity.

Given a polynomial or truncated-series family L(eps) of rational matrices,
the package computes near-identity transformations phi(eps), psi(eps) and a
diagonal polynomial Delta(eps) with psi^{-1} L phi = Delta exactly, along
with the subspace decompositions behind it, Jordan chain generators, the
local Smith form, and the generalized inverse of L as a Laurent series.
Everything runs over exact rationals and ships with independent brute-force
oracles for cross-checking.
"""

from .diagonalize import (
    DiagonalizationResult,
    analyze,
    diagonalize,
    phi_series,
    psi_series,
)
from .errors import (
    InputError,
    InternalConsistencyError,
    LocalSmithError,
    StageBudgetError,
    TruncationError,
)
from .family_io import (
    FamilySpec,
    family_from_series,
    parse_complement_plan,
    parse_family,
    serialize_family,
    spec_to_series,
)
from .matrix import Mat, rat
from .oracles import (
    AugmentedPencil,
    direct_laurent_inverse,
    linearize_polynomial,
    resolvent_recurrence_check,
    toeplitz_block,
)
from .recursion import RecursionState, Stage, generic_rank
from .series import MatLaurent, MatSeries, series_inverse
from .subspaces import (
    Subspace,
    image,
    restrict_and_split,
)

__version__ = "0.1.0"
