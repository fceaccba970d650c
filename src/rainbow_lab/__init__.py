"""Rainbow numbers rb(Z_n, k) for x1 + x2 = k*x3 in Z_n.

Closed-form values, an exhaustive search oracle, verified lower-bound witness
colorings, the rainbow scan and the Llano-Montejano classifier of 3-colorings,
and a certificate-based CLI.
"""

__version__ = "0.1.0"

from .certificates import Certificate, make_certificate, read_certificate, write_certificate
from .coloring import (
    Coloring,
    LMCase,
    LMClassification,
    canonicalize,
    classify_3coloring_LM,
    find_rainbow_triple,
    is_canonical,
    is_rainbow_free,
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
    is_prime,
    multiplicative_order,
    prime_factorize,
)
from .results import Method, RbResult
from .search import (
    SearchConfig,
    iter_rainbow_free_colorings,
    rb_oracle,
)
