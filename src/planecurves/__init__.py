"""Exact invariants of reduced plane curves with ordinary double and triple
points: Milnor algebra Hilbert series, Jacobian syzygies, Koszul cohomology,
and the Hodge-theoretic dimensions of the complement."""

import atexit
import gc

from .geometry import (
    Check,
    Component,
    GeometryError,
    MultiplicityError,
    ProjectivePoint,
    SingularityProfile,
    SingularPoint,
    analyze_arrangement,
    bezout_audit,
    genus_from_counts,
    validate_profile,
)
from .hodge import (
    HodgeReport,
    Theorem2Report,
    hodge_deligne_U,
    hodge_filtration_dims,
    mixed_hodge_numbers,
    theorem2_report,
)
from .koszul import (
    SpectralTable,
    SyzygyClass,
    er_dim,
    koszul_h_dim,
    spectral_table,
    syzygy_basis,
    trivial_syzygy_dim,
)
from .linalg import ExactMatrix, LinalgError, kernel_basis, kernel_dim, modular_rank_with_check, rank
from .milnor import (
    HilbertFunction,
    NonStabilizationError,
    Strand,
    hilbert_series,
    milnor_dim,
    smooth_reference_dim,
    tau,
)
from .polynomials import (
    Curve,
    CurveError,
    CurveFactor,
    CurveSpec,
    ParseError,
    Polynomial,
    build_curve,
    monomial_basis,
    parse_polynomial,
)

__version__ = "0.1.0"

# At exit, move every live object to the permanent generation, so that the
# full collections of interpreter finalization skip them: over the ~22 000
# objects of numpy, the standard library and this package they take about
# 30 ms of every process on 2 vCPUs, and none of those objects is garbage.
# Nothing is frozen before exit.  Objects in unreachable cycles at exit are
# not collected, so their __del__ does not run (CPython does not promise
# that it does); `atexit.unregister(gc.freeze)` opts out.
atexit.register(gc.freeze)
