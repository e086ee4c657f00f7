"""cyclicbent: exact toolkit for cyclic bent and cyclic semi-bent functions.

Everything downstream of the function constructions (codebooks, MUB sets,
sequence families, nonlinear codes, support designs, and the skew-polynomial
characterization of quadratic cyclic semi-bent functions) is computed in
exact integer / Gaussian-integer / rational arithmetic; floats only appear
in human-readable report output.
"""

from cyclicbent.boolfun import BoolFun, Domain, WalshClass, classify, walsh
from cyclicbent.codebook import (
    Codebook,
    build_mub,
    build_real_codebook,
    build_semibent_codebook,
    imax_sq,
    levenshtein_complex_sq,
    levenshtein_real_sq,
    verify_mub,
)
from cyclicbent.codes import (
    NonlinearCode,
    build_code_f,
    build_code_g,
    support_design,
    weight_distance_distributions,
)
from cyclicbent.construct import (
    ChainSpec,
    CyclicCertificate,
    bent_family,
    certify_cyclic_bent,
    chain_fn,
    derive_semibent,
    derived_semibent_family,
    is_cyclic_bent_full,
    is_cyclic_bent_reduced,
    is_cyclic_semibent,
    kerdock_fn,
    normalize_zero,
)
from cyclicbent.gf2 import GF2m, mk_field
from cyclicbent.linpoly import (
    LinPoly,
    SkewPoly,
    adjoint,
    is_cyclic_semibent_quadratic,
    kernel_dim,
    quad_form,
    skew_gcrd,
)
from cyclicbent.seqfam import (
    SequenceFamily,
    binary_family,
    full_distribution,
    quaternary_family,
    r_max_sq,
    semibent_family,
)

__all__ = [
    "GF2m", "mk_field",
    "BoolFun", "Domain", "WalshClass", "walsh", "classify",
    "ChainSpec", "CyclicCertificate", "kerdock_fn", "chain_fn",
    "is_cyclic_bent_full", "is_cyclic_bent_reduced", "certify_cyclic_bent",
    "is_cyclic_semibent", "bent_family", "derive_semibent", "derived_semibent_family",
    "normalize_zero",
    "Codebook", "levenshtein_real_sq", "levenshtein_complex_sq",
    "build_real_codebook", "build_mub", "build_semibent_codebook", "imax_sq", "verify_mub",
    "SequenceFamily", "quaternary_family", "binary_family", "semibent_family",
    "full_distribution", "r_max_sq",
    "NonlinearCode", "build_code_f", "build_code_g",
    "weight_distance_distributions", "support_design",
    "LinPoly", "SkewPoly", "adjoint", "kernel_dim", "quad_form", "skew_gcrd",
    "is_cyclic_semibent_quadratic",
]
__version__ = "0.1.0"
