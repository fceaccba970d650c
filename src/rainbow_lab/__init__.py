"""Rainbow numbers rb(Z_n, k) for x1 + x2 = k*x3 in Z_n.

Closed-form values, an exhaustive search oracle, verified lower-bound witness
colorings, structural predicates on colorings, and a certificate-based CLI.
"""

__version__ = "0.1.0"

from .certificates import Certificate, make_certificate, read_certificate, write_certificate
from .coloring import (
    Coloring,
    LMCase,
    LMClassification,
    canonicalize,
    check_symmetry,
    classify_3coloring_LM,
    dilate,
    dominant_colors,
    find_rainbow_triple,
    is_canonical,
    is_rainbow_free,
    project_general,
    project_schur,
    residue_palettes,
)
from .constructions import lift_general, witness_general
from .errors import (
    CertificateError,
    ConstructionError,
    InputError,
    RainbowLabError,
    SearchInconclusiveError,
    UnsupportedCaseError,
)
from .formulas import rb_formula, rb_general, rb_schur
from .modcore import (
    CyclicInstance,
    Triple,
    divisibility_count,
    is_prime,
    iter_triples,
    multiplicative_order,
    prime_factorize,
)
from .results import Method, RbResult
from .search import (
    SearchConfig,
    iter_rainbow_free_colorings,
    rb_oracle,
)
