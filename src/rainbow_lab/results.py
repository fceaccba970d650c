"""Rainbow-number results with provenance."""
from __future__ import annotations

from enum import Enum

from .modcore import _Frozen


class Method(Enum):
    GENERAL_RECURSION = "formula-general-recursion"
    ORACLE = "oracle"


class RbResult(_Frozen):
    """A rainbow-number value plus how it was obtained.

    detail carries the per-prime contribution breakdown for formula paths and
    the search statistics for the oracle. conclusive=False marks a
    budget-exhausted search; the value is then only a lower bound.
    """

    __slots__ = ("value", "method", "detail", "conclusive", "witness")

    def __init__(self, value, method, detail=None, conclusive=True, witness=None):
        set_value, set_method, set_detail, set_conclusive, set_witness = self._setters
        set_value(self, value)
        set_method(self, method)
        # each result gets a dict of its own when detail is left out
        set_detail(self, {} if detail is None else detail)
        set_conclusive(self, conclusive)
        set_witness(self, witness)
