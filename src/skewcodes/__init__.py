"""Exact arithmetic for skew cyclic and skew constacyclic codes over
R = F_q + uF_q + vF_q + uvF_q (odd characteristic, u^2 = u, v^2 = v, uv = vu).
"""

__version__ = "0.1.0"

from .gf import FieldElement, FieldSpec, make_field
from .ring4 import RingElement, idempotents, ring_one, ring_zero
from .skewpoly import (
    ModulusSpec,
    SkewPoly,
    dual_generator,
    dual_idempotent,
    fq_poly,
    from_components,
    generator_basis_words,
    idempotent_generator,
    is_right_divisor,
    r_poly,
    right_divisor_search,
    right_divmod,
)
from .codes import (
    SkewCode,
    build_code,
    dual_code,
    is_closed_under,
    is_self_dual,
    self_dual_constant_check,
)
from .gray import gray_image_code, gray_map, gray_permuted, lee_weight
from .decomp import (
    components_from_words,
    extract_components,
    verify_decomposition_theorem,
)
from .distance import min_distance

__all__ = [
    "FieldElement",
    "FieldSpec",
    "make_field",
    "RingElement",
    "idempotents",
    "ring_one",
    "ring_zero",
    "ModulusSpec",
    "SkewPoly",
    "dual_generator",
    "dual_idempotent",
    "fq_poly",
    "from_components",
    "generator_basis_words",
    "idempotent_generator",
    "is_right_divisor",
    "r_poly",
    "right_divisor_search",
    "right_divmod",
    "SkewCode",
    "build_code",
    "dual_code",
    "is_closed_under",
    "is_self_dual",
    "self_dual_constant_check",
    "gray_image_code",
    "gray_map",
    "gray_permuted",
    "lee_weight",
    "components_from_words",
    "extract_components",
    "verify_decomposition_theorem",
    "min_distance",
]
