"""Certified toolkit for effective presentations of lp sequence spaces.

Exact rational enclosures underneath, norm oracles for presentations in
the middle, and on top the two constructions this library exists for: the
c.e.-set-twisted presentation with its bit-extraction reductions, and the
isometry classifier with its p = 2 boundary.
"""

from .rigor import (
    CRat,
    ComputablePoint,
    ComputableReal,
    ConfigError,
    Counters,
    DegenerateScaleWarning,
    Enclosure,
    Exponent,
    NegativeBase,
    OracleFailure,
    ceil_log2,
    iroot,
    pow2,
    pow_p,
    root_p,
    simplest_between,
    sqrt_real,
)
from .lpspace import FiniteVector, basis, disjoint, norm_of_abs2_terms, norm_p, norm_pow_sum
from .genset import (
    BallMap,
    CheckSchedule,
    Fuel,
    GeneratingSet,
    NotUnitVector,
    RationalBall,
    StandardGenSet,
    SupportsOverlap,
    VectorRep,
    ZetaGenSet,
    ballmap_from_disjoint_family,
    canonical_json_bytes,
    check_ballmap,
    compose_ballmaps,
    exact_rep,
)
from .twisted import (
    AccessViolation,
    CeSet,
    CeView,
    E0Approximation,
    TwistedGenSet,
    approx_e0,
    ce_set_from_spec,
    decide_membership,
    e0_rep,
    epsilon_j,
    expanded_residual_norm,
    extract_scale,
    f0_norm_sandwich,
    gamma_from_scale,
    genset_from_descriptor,
    identity_family,
    membership_bits,
    real_with_offset_fault,
    rep_with_offset_fault,
    scale_real,
)
from .isometry import (
    ClassifierVerdict,
    IsometryDescriptor,
    NotUnimodular,
    PYTHAGOREAN_UNIMODULARS,
    classify,
    descriptor_to_ballmap,
    random_descriptor,
    rotation_demo,
    rotation_images,
)

__version__ = "0.1.0"
