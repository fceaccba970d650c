"""Coloring certificate files: {"n": int, "k": int, "colors": [int; n], "meta": {...}}.

Colors must be in canonical restricted-growth form; verification rejects
non-canonical files with a normalization hint rather than silently renaming.
"""
from __future__ import annotations

import json
from typing import Any

from .coloring import Coloring, canonicalize, is_canonical
from .errors import CertificateError
from .modcore import _Frozen


class Certificate(_Frozen):
    __slots__ = ("n", "k", "colors", "meta")

    def __init__(self, n, k, colors, meta=None):
        # each certificate gets a dict of its own when meta is left out
        meta = {} if meta is None else meta
        for set_field, field in zip(self._setters, (n, k, colors, meta)):
            set_field(self, field)

    def coloring(self) -> Coloring:
        return Coloring(self.n, self.colors)


def make_certificate(coloring: Coloring, k: int, meta: dict[str, Any] | None = None) -> Certificate:
    """Build a certificate, canonicalizing the coloring's labels."""
    return Certificate(
        n=coloring.n,
        k=k % coloring.n,
        colors=canonicalize(coloring.colors),
        meta=dict(meta or {}),
    )


def certificate_to_json(cert: Certificate) -> str:
    doc = {"n": cert.n, "k": cert.k, "colors": list(cert.colors)}
    if cert.meta:
        doc["meta"] = cert.meta
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_certificate(path, cert: Certificate) -> None:
    with open(path, "w") as fh:
        fh.write(certificate_to_json(cert))


def parse_certificate(text: str) -> Certificate:
    """Parse and validate a certificate document. Raises CertificateError on
    malformed input and on non-canonical colors (with a normalization hint)."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and an integer literal longer than
        # the interpreter converts; RecursionError, nesting too deep to parse
        raise CertificateError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CertificateError("certificate must be a JSON object")
    for key in ("n", "k", "colors"):
        if key not in doc:
            raise CertificateError(f"missing required field {key!r}")
    n, k, colors = doc["n"], doc["k"], doc["colors"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise CertificateError(f"'n' must be a positive integer, got {n!r}")
    if not isinstance(k, int) or isinstance(k, bool):
        raise CertificateError(f"'k' must be an integer, got {k!r}")
    if (
        not isinstance(colors, list)
        or len(colors) != n
        or any(not isinstance(c, int) or isinstance(c, bool) or c < 0 for c in colors)
    ):
        raise CertificateError(
            f"'colors' must be a list of {n} non-negative integers"
        )
    if not is_canonical(colors):
        raise CertificateError(
            "colors are not in canonical restricted-growth form",
            hint=f"equivalent canonical form: {list(canonicalize(colors))}",
        )
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise CertificateError("'meta' must be an object when present")
    return Certificate(n=n, k=k, colors=tuple(colors), meta=meta)


def read_certificate(path) -> Certificate:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CertificateError(f"cannot read {path}: {exc}") from exc
    return parse_certificate(text)
