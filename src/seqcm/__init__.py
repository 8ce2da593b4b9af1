"""Exact decision procedures for relative and sequential Cohen-Macaulayness
of quotients of a standard bigraded polynomial ring K[x1..xm, y1..yn].

The ring carries the two irrelevant ideals P = (x1..xm) and Q = (y1..yn);
for a proper ideal I the package computes the cohomological dimension
cd(Q, S/I) = dim S/(I + P), the grade of Q on S/I via regular sequences of
linear forms, dimension filtrations of monomial quotients, and the rank-one
coefficient-matrix classification of hypersurface rings S/fS.  Everything is
exact: rational (or prime field) arithmetic, Groebner bases, and symbolic
certificates that can be re-verified independently.
"""

from .certificates import (
    CMFiltration,
    FiltrationLevel,
    Route,
    SeqCMVerdict,
    VerifySpec,
)
from .errors import (
    CertificateVerificationError,
    NoRegularFormError,
    NotBihomogeneousError,
    NotMonomialError,
    ParseError,
    RingMismatchError,
    SeqcmError,
    UnitIdealError,
    UnsupportedIdealClassError,
    ZeroModuleError,
    ZeroPolynomialError,
)
from .fields import QQ, ModP, PrimeField, RationalField, field_from_name
from .filtration import (
    DimensionFiltration,
    PrimaryComponent,
    PrimaryDecomposition,
    cd_of_prime,
    dimension_filtration,
    is_seq_cm,
    monomial_primary_decomposition,
    quotient_associated_primes,
    tensor_split_check,
)
from .groebner import (
    Ideal,
    buchberger,
    exact_div,
    ideal_quotient,
    intersect,
    krull_dim,
    normal_form,
    saturation,
)
from .hypersurface import (
    HypersurfaceReport,
    SplitWitness,
    classify_hypersurface,
    coefficient_matrix,
    exact_rank,
    hypersurface_stats,
    rank_one_split,
)
from .orders import MonomialOrder
from .poly import BiDegree, BigradedRing, Polynomial, parse_polynomial
from .relcm import (
    CdGradeReport,
    GradeWitness,
    IdealPair,
    VariableBlock,
    cd_subquotient,
    cd_wrt,
    find_regular_linear_form,
    grade_wrt,
    h0_is_zero,
    is_regular_form,
    is_relative_cm,
)

__version__ = "0.1.0"
