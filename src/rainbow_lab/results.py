"""Rainbow-number results with provenance."""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional, TYPE_CHECKING

if TYPE_CHECKING:
    from .coloring import Coloring


class Method(Enum):
    GENERAL_RECURSION = "formula-general-recursion"
    ORACLE = "oracle"


@dataclass(frozen=True)
class RbResult:
    """A rainbow-number value plus how it was obtained.

    detail carries the per-prime contribution breakdown for formula paths and
    the search statistics for the oracle. conclusive=False marks a
    budget-exhausted search; the value is then only a lower bound.
    """

    value: int
    method: Method
    detail: dict[str, Any] = field(default_factory=dict)
    conclusive: bool = True
    witness: Optional["Coloring"] = None
