"""Exact arithmetic for Galois rings GR(p^2, r) and the codes built on them.

The package constructs GR(p^2, r) and its extensions, evaluates additive
and multiplicative characters with cyclotomic-integer exactness, computes
Gauss sums by definition and in closed form, builds trace codes from unit
subgroups with complete weight-distribution verification, and applies the
Gray isometry to obtain two-distance codes over F_q.
"""

from .cyclotomic import CyclotomicInteger, cyclotomic_polynomial
from .characters import (
    CharacterSystem,
    field_quotient_characters,
    gauss_sum_field,
    ring_quotient_characters,
)
from .codes import (
    BoundsReport,
    CodeContext,
    SubgroupSpec,
    TableReport,
    TildeCode,
    WeightTable,
    build_code,
    canonical_subspace_basis,
    dual_subspace,
    echelon_basis,
    span_subspace,
)
from .errors import (
    GRCodesError,
    IncompatibleTowerError,
    InvalidSubgroupError,
    InvalidTowerError,
    NegativeCountError,
    NonPrimitiveInputError,
    NotAUnitError,
    NotRationalError,
    OrderMismatchError,
    PreconditionViolatedError,
    ScaleGuardError,
)
from .gray import (
    GrayImageReport,
    first_order_rm_code,
    gray_image_analyze,
    gray_map,
    gray_map_vec,
    hom_weight,
    hom_weight_vec,
    theorem44_hom_weight,
    theorem45_table,
)
from .rings import (
    FiniteField,
    GaloisRing,
    GaloisRingElement,
    RingTower,
    find_primitive_poly,
    format_element,
    format_field_element,
    hensel_lift_basic_primitive,
    parse_element,
    parse_field_element,
)
from .verify import SUITES, CheckRecord, VerificationReport

__version__ = "0.1.0"
