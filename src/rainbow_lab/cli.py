"""Command-line front end: rb values, witness certificates, verification, tables.

Exit codes: 0 ok, 1 rainbow triple found during verify, 2 input/scope error,
3 formula/oracle mismatch, 4 inconclusive search (time budget exhausted),
141 (128 + SIGPIPE) stdout closed by its reader, as in `... | head -1`.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .certificates import make_certificate, read_certificate, write_certificate
from .coloring import find_rainbow_triple, residue_palettes
from .constructions import witness_general
from .errors import CertificateError, RainbowLabError, UnsupportedCaseError
from .formulas import rb_formula
from .modcore import CyclicInstance
from .search import SearchConfig, rb_oracle

EXIT_OK = 0
EXIT_RAINBOW = 1
EXIT_INPUT = 2
EXIT_MISMATCH = 3
EXIT_INCONCLUSIVE = 4
EXIT_BROKEN_PIPE = 141

TABLE_COLUMNS = ["n", "k", "rb_formula", "rb_search", "agree", "elapsed_ms", "nodes"]


def _info(args, message: str) -> None:
    """A detail line on this call's stderr, printed only under -v."""
    if args.verbose:
        print(f"INFO {message}", file=sys.stderr)


def cmd_rb(args) -> int:
    inst = CyclicInstance(args.n, args.k)
    formula = search = None
    if args.method in ("formula", "both"):
        formula = rb_formula(args.n, args.k)
    if args.method in ("search", "both"):
        # both: the construction's witness is a verified lower bound, so the
        # oracle only has to refute one color more; search: the plain oracle
        seed = _general_lift(args.n, args.k) if args.method == "both" else None
        search = rb_oracle(inst, SearchConfig(time_budget=args.budget_secs), seed)
        if seed is not None:
            lower = search.detail["lower_bound_r"]
            _info(args, f"lower bound: {lower} colors from general-lift")
        prunes = search.detail["prunes"]
        _info(
            args,
            f"prunes: empty domain {prunes['empty_domain']}, "
            f"count bound {prunes['count_bound']}",
        )
        if not search.conclusive:
            print(
                f"rb({args.n},{args.k}) >= {search.value} (search inconclusive: "
                f"budget of {args.budget_secs}s exhausted after "
                f"{search.detail['nodes_explored']} nodes)"
            )
            return EXIT_INCONCLUSIVE

    if args.method == "formula":
        print(f"rb({args.n},{args.k}) = {formula.value} [{formula.method.value}]")
        for term in formula.detail.get("terms", ()):
            _info(args, f"contribution: {term}")
    elif args.method == "search":
        print(
            f"rb({args.n},{args.k}) = {search.value} [oracle: "
            f"{search.detail['nodes_explored']} nodes, "
            f"{search.detail['elapsed']:.3f}s]"
        )
    else:
        if formula.value != search.value:
            print(
                f"MISMATCH: formula says {formula.value}, search says {search.value}",
                file=sys.stderr,
            )
            return EXIT_MISMATCH
        print(f"rb({args.n},{args.k}) = {formula.value}, formula=search")
    return EXIT_OK


def _general_lift(n: int, k: int):
    """witness_general for the coefficient rb_formula's recursion uses, or
    None where rb_formula has no closed form or no builder applies."""
    try:
        return witness_general(n, rb_formula(n, k).detail["p"])
    except UnsupportedCaseError:
        return None


def _construct_witness(n: int, k: int, budget: float):
    """Pick the strongest applicable path: the general-lift construction
    where there is one; else the search oracle's witness, which is None
    unless the search is conclusive (only then is the witness a maximum
    coloring)."""
    coloring = _general_lift(n, k)
    if coloring is not None:
        return coloring, "general-lift"
    result = rb_oracle(CyclicInstance(n, k), SearchConfig(time_budget=budget))
    return (result.witness if result.conclusive else None), "oracle-search"


def cmd_witness(args) -> int:
    coloring, source = _construct_witness(args.n, args.k, args.budget_secs)
    if coloring is None:
        print(
            f"error: no witness for ({args.n},{args.k}): the search budget of "
            f"{args.budget_secs}s ran out before the search proved a maximum "
            "coloring; no certificate written",
            file=sys.stderr,
        )
        return EXIT_INCONCLUSIVE
    cert = make_certificate(
        coloring,
        args.k,
        meta={"construction": source, "tool": "rainbow-lab", "version": __version__},
    )
    # re-verify through the same predicate the verifier uses
    rt = find_rainbow_triple(cert.coloring(), cert.k)
    if rt is not None:
        print(
            f"internal error: witness for ({args.n},{args.k}) [{source}] has "
            f"rainbow triple {rt}; no certificate written",
            file=sys.stderr,
        )
        return EXIT_RAINBOW
    try:
        write_certificate(args.out, cert)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(
        f"wrote {args.out}: n={cert.n} k={cert.k} "
        f"colors={coloring.num_colors()} [{source}]"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        cert = read_certificate(args.path)
    except CertificateError as exc:
        print(f"invalid certificate: {exc}", file=sys.stderr)
        if exc.hint:
            print(exc.hint, file=sys.stderr)
        return EXIT_INPUT
    c = cert.coloring()
    r = c.num_colors()
    # a T that does not divide n is an input error, reported before any output
    palettes = [] if args.palettes is None else residue_palettes(c, args.palettes)
    triple = find_rainbow_triple(c, cert.k)
    if triple is not None:
        cols = tuple(c.colors[x] for x in triple)
        print(
            f"NOT rainbow-free: triple {triple} has colors {cols} "
            f"(n={cert.n}, k={cert.k})"
        )
        return EXIT_RAINBOW
    print(f"rainbow-free: n={cert.n} k={cert.k} colors={r} (exact)")
    for i, p in enumerate(palettes):
        print(f"P_{i} (mod {args.palettes}) = {sorted(p)}")
    return EXIT_OK


def cmd_table(args) -> int:
    rows = []
    any_inconclusive = False
    for n in range(2, args.n_max + 1):
        # a row without a closed form is search-only, with a blank formula;
        # blank cells are None, which the csv output writes as an empty field
        try:
            formula_value = rb_formula(n, args.k).value
        except UnsupportedCaseError:
            formula_value = None
        # a row with a closed form starts the search at its construction;
        # nodes counts the nodes of that seeded search
        search = rb_oracle(
            CyclicInstance(n, args.k),
            SearchConfig(time_budget=args.budget_secs),
            _general_lift(n, args.k),
        )
        elapsed_ms = round(search.detail["elapsed"] * 1000)
        nodes = search.detail["nodes_explored"]
        if not search.conclusive:
            any_inconclusive = True
            rows.append([n, args.k, formula_value, None, "inconclusive", elapsed_ms, nodes])
            continue
        if formula_value is None:
            rows.append([n, args.k, None, search.value, None, elapsed_ms, nodes])
            continue
        if search.value != formula_value:
            print(
                f"MISMATCH at n={n}, k={args.k}: formula={formula_value} "
                f"search={search.value}",
                file=sys.stderr,
            )
            return EXIT_MISMATCH
        rows.append([n, args.k, formula_value, search.value, "yes", elapsed_ms, nodes])

    if args.format == "csv":
        # every cell is an int, None or a fixed word, so none needs quoting
        for row in [TABLE_COLUMNS, *rows]:
            print(",".join("" if cell is None else str(cell) for cell in row))
    else:
        json.dump([dict(zip(TABLE_COLUMNS, row)) for row in rows], sys.stdout, indent=2)
        print()
    return EXIT_INCONCLUSIVE if any_inconclusive else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built at the first call, not at import, because it binds
    the cmd_* handlers; parse_args keeps no state, so every call shares it."""
    parser = argparse.ArgumentParser(
        prog="rainbow-lab",
        description="Rainbow numbers rb(Z_n, k) for x1 + x2 = k*x3: formulas, "
        "exhaustive search, witness certificates.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="log details to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--budget-secs",
            type=float,
            default=60.0,
            help="search time budget in seconds (default 60)",
        )

    p_rb = sub.add_parser("rb", help="compute rb(Z_n, k)")
    p_rb.add_argument("--n", type=int, required=True)
    p_rb.add_argument("--k", type=int, required=True)
    p_rb.add_argument("--method", choices=["formula", "search", "both"], default="both")
    add_common(p_rb)
    p_rb.set_defaults(func=cmd_rb)

    p_wit = sub.add_parser("witness", help="emit a verified rainbow-free certificate")
    p_wit.add_argument("--n", type=int, required=True)
    p_wit.add_argument("--k", type=int, required=True)
    p_wit.add_argument("--out", required=True, help="output certificate path")
    add_common(p_wit)
    p_wit.set_defaults(func=cmd_witness)

    p_ver = sub.add_parser("verify", help="re-check a certificate file")
    p_ver.add_argument("path")
    p_ver.add_argument(
        "--palettes", type=int, default=None, metavar="T",
        help="also print residue palettes modulo T (T must divide n)",
    )
    p_ver.set_defaults(func=cmd_verify)

    p_tab = sub.add_parser("table", help="formula-vs-search table for n = 2..n_max")
    p_tab.add_argument("--n-max", type=int, required=True)
    p_tab.add_argument("--k", type=int, required=True)
    p_tab.add_argument("--format", choices=["csv", "json"], default="csv")
    add_common(p_tab)
    p_tab.set_defaults(func=cmd_table)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "budget_secs" in args:  # a bad budget exits 2 before any work
            SearchConfig(time_budget=args.budget_secs)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at exit
        return code
    except RainbowLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # the reader is gone; send what is still buffered to devnull so the
        # interpreter's final flush of stdout cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
