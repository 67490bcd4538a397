"""Numerical potential-theory toolkit.

Estimates logarithmic capacity and Green functions of compacts in the
complex plane, checks polynomial growth bounds of Bernstein type, estimates
projection capacities of sets in several complex variables, and converts
finite data about a power series of the form sum_n P_n(z2) z1^n into a
certified domain on which a tail-bounded evaluator is provided.
"""

__version__ = "0.1.0"

from .sets import (  # noqa: F401
    CompactSet,
    Disk,
    PointCloud,
    Segment,
    UnionSet,
    affine_image,
    bounding_box,
    contains,
    discretize,
    distance_to,
    set_from_json,
    set_to_json,
)
from .capacity import (  # noqa: F401
    EPS_CAP,
    CapacityEstimate,
    FeketeResult,
    GreenEvaluator,
    capacity,
    capacity_of_cloud,
    fekete_points,
    green_function,
    robin_constant,
)
from .bernstein import (  # noqa: F401
    Polynomial1D,
    VerificationReport,
    bernstein_bound,
    sup_norm,
    verify_bernstein,
)
from .gamma import (  # noqa: F401
    GammaCapResult,
    SetPredicate,
    UnitarySample,
    ball_predicate,
    gamma_cap,
    gamma_project,
    haar_unitary,
    linear_image,
    predicate_from_json,
    product_predicate,
    reduce_to_m1,
)
from .extension import (  # noqa: F401
    EvaluationResult,
    ExtendConfig,
    ExtensionCertificate,
    MultiIndex,
    PolynomialSequence,
    RadiusProfile,
    certificate_from_json,
    certificate_to_json,
    certify_extension,
    certify_uniform,
    constant_sequence,
    delta_sequence,
    evaluate,
    fit_degree_growth,
    geometric_sequence,
    global_bound,
    radius_profile,
    ring_multiply,
    sequence_from_json,
    sqrt_degree_sequence,
    stratify_and_find_nonpolar,
    table_sequence,
    uniform_bound_compact,
)
from . import errors  # noqa: F401
