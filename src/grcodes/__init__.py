"""Exact arithmetic for Galois rings GR(p^2, r) and the codes built on them.

The package constructs GR(p^2, r) and its extensions, evaluates additive
and multiplicative characters with cyclotomic-integer exactness, computes
Gauss sums by definition and in closed form, builds trace codes from unit
subgroups with complete weight-distribution verification, and applies the
Gray isometry to obtain two-distance codes over F_q.

The public names below are loaded on first access (PEP 562), so
``import grcodes`` loads neither numpy nor any submodule; ``from grcodes
import X`` loads X's submodule and what it imports.
"""

import importlib

# submodule -> the public names it exports
_EXPORTS = {
    "cyclotomic": ("CyclotomicInteger", "cyclotomic_polynomial"),
    "characters": (
        "CharacterSystem", "field_quotient_characters", "gauss_sum_field",
        "ring_quotient_characters",
    ),
    "codes": (
        "BoundsReport", "CodeContext", "SubgroupSpec", "TableReport", "TildeCode",
        "WeightTable", "build_code", "canonical_subspace_basis", "dual_subspace",
        "echelon_basis", "span_subspace",
    ),
    "errors": (
        "GRCodesError", "IncompatibleTowerError", "InvalidSubgroupError",
        "InvalidTowerError", "NegativeCountError", "NonPrimitiveInputError",
        "NotAUnitError", "NotRationalError", "OrderMismatchError",
        "PreconditionViolatedError", "ScaleGuardError",
    ),
    "gray": (
        "GrayImageReport", "first_order_rm_code", "gray_image_analyze", "gray_map",
        "gray_map_vec", "hom_weight", "hom_weight_vec", "theorem44_hom_weight",
        "theorem45_table",
    ),
    "rings": (
        "FiniteField", "GaloisRing", "GaloisRingElement", "RingTower",
        "find_primitive_poly", "format_element", "format_field_element",
        "hensel_lift_basic_primitive", "parse_element", "parse_field_element",
    ),
    "verify": ("SUITES", "CheckRecord", "VerificationReport"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads find it without this call
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
