"""Rainbow-number results with provenance."""
from __future__ import annotations

from enum import Enum
from typing import Any, NamedTuple, Optional, TYPE_CHECKING

if TYPE_CHECKING:
    from .coloring import Coloring


class Method(Enum):
    GENERAL_RECURSION = "formula-general-recursion"
    ORACLE = "oracle"


class _RbFields(NamedTuple):
    value: int
    method: Method
    detail: dict[str, Any]
    conclusive: bool
    witness: Optional["Coloring"]


class RbResult(_RbFields):
    """A rainbow-number value plus how it was obtained.

    detail carries the per-prime contribution breakdown for formula paths and
    the search statistics for the oracle. conclusive=False marks a
    budget-exhausted search; the value is then only a lower bound.
    """

    __slots__ = ()

    def __new__(cls, value, method, detail=None, conclusive=True, witness=None):
        # each result gets a dict of its own when detail is left out
        detail = {} if detail is None else detail
        return super().__new__(cls, value, method, detail, conclusive, witness)
