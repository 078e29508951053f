"""Command-line front end.

Subcommands:

* ``table``   -- emit the stabilizer-count table for one field.
* ``count``   -- evaluate a single class tuple (p, alpha, k, d, i, j).
* ``verify``  -- three-way agreement sweep (closed form vs. lattice
  inclusion-exclusion vs. brute force) over every class of one field.
* ``design``  -- materialize an orbit block design and its constant-weight
  code, check Johnson equality, and report the certified A2 value.

Exit codes: 0 success, 1 input error, 2 verification failure, 3 budget
exceeded.  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import lru_cache

from sympy import factorint

from . import agl, counting, designs, oracle
from .counting import CSV_COLUMNS, ClassParams
from .ffield import Field

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_BUDGET = 3

FORMATS = ("csv", "json", "text")

#: column order of the csv and json forms of ``verify``
VERIFY_COLUMNS = ("d", "i", "j", "k", "closed", "lattice", "brute", "ok")


class CliError(Exception):
    """Input-level failure; message goes to stderr, exit code 1."""


def _budget(text: str) -> int:
    """argparse type of ``--oracle-budget``: an integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer of at least 1, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; keep 2 reserved for verification
    # failures by funnelling usage errors through exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@lru_cache(maxsize=None)
def _field(p: int, alpha: int) -> Field:
    return Field(p, alpha)


def _resolve_field(args) -> tuple[int, int]:
    """(p, alpha) from --p/--alpha or from --q (factored, prime power)."""
    if args.q is not None:
        if args.p is not None or args.alpha is not None:
            raise CliError("give either --q or --p/--alpha, not both")
        if args.q < 2:
            raise CliError(f"q must be at least 2, got {args.q}")
        fac = factorint(args.q)
        if len(fac) != 1:
            raise CliError(f"q must be a prime power, got {args.q}")
        (p, alpha), = fac.items()
        return int(p), int(alpha)
    if args.p is None:
        raise CliError("a field is required: give --q or --p (with --alpha)")
    alpha = 1 if args.alpha is None else args.alpha
    counting.check_field(args.p, alpha)
    return args.p, alpha


# ---------------------------------------------------------------------------
# rows


def _emit_rows(columns, rows, fmt: str, out) -> None:
    """Write row tuples under ``columns``: csv with a header, json as a
    list of objects, or text as one ``column=value`` line per row."""
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    elif fmt == "json":
        json.dump([dict(zip(columns, row)) for row in rows], out, indent=2)
        out.write("\n")
    else:
        for row in rows:
            out.write(" ".join(f"{c}={v}" for c, v in zip(columns, row))
                      + "\n")


# ---------------------------------------------------------------------------
# table


def cmd_table(args, out) -> int:
    p, alpha = _resolve_field(args)
    q = p ** alpha
    k_max = args.max_k if args.max_k is not None else q // 2
    if not 0 <= k_max <= q:
        raise CliError(f"--max-k must lie in [0, {q}], got {k_max}")
    _emit_rows(CSV_COLUMNS, counting.build_table(p, alpha, k_max),
               args.format, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# count


def cmd_count(args, out) -> int:
    p, alpha = _resolve_field(args)
    cp = ClassParams(p, alpha, args.k, args.d, args.i, args.j)
    violation = cp.congruence_violation()
    if violation is not None:
        raise CliError(violation)
    row = (cp.k, cp.d, cp.odp, cp.i, cp.j, cp.beta, counting.count_N(cp))
    _emit_rows(CSV_COLUMNS, [row], args.format, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _verify_class(p: int, alpha: int, d: int, i: int, j: int, odp: int,
                  k_max: int, budget: int) -> list[tuple[int, int, int, int]]:
    field = _field(p, alpha)
    S = agl.class_representative(field, d, i, j)
    closed_terms = counting._class_terms(p, alpha, d, i, j, odp)
    lattice_terms = oracle.lattice_terms(S)
    out = []
    for k in range(k_max + 1):
        closed = counting.evaluate_terms(field.q, k, closed_terms)
        lattice = counting.evaluate_terms(field.q, k, lattice_terms)
        brute = oracle.count_N_bruteforce(S, k, budget=budget)
        out.append((k, closed, lattice, brute))
    return out


def cmd_verify(args, out) -> int:
    p, alpha = _resolve_field(args)
    q = p ** alpha
    if q > oracle.DEFAULT_STABILIZER_LIMIT:
        raise oracle.BudgetExceededError(
            f"verification needs q <= {oracle.DEFAULT_STABILIZER_LIMIT}, got {q}")
    k_max = args.max_k if args.max_k is not None else q
    if not 0 <= k_max <= q:
        raise CliError(f"--max-k must lie in [0, {q}], got {k_max}")
    # the field is checked by _resolve_field, each shape by
    # class_representative
    shapes = list(counting._shapes(p, alpha))
    results = [_verify_class(p, alpha, d, i, j, odp, k_max,
                             args.oracle_budget)
               for d, i, j, odp in shapes]

    failures = 0
    rows = []
    for (d, i, j, _), rws in zip(shapes, results):
        for k, closed, lattice, brute in rws:
            ok = closed == lattice == brute
            failures += not ok
            rows.append((d, i, j, k, closed, lattice, brute, ok))
    if args.format != "text":
        _emit_rows(VERIFY_COLUMNS, rows, args.format, out)
    else:
        for (d, i, j, _), rws in zip(shapes, results):
            marks = " ".join(
                f"k={k}:{'ok' if closed == lattice == brute else 'FAIL'}"
                for k, closed, lattice, brute in rws)
            out.write(f"q={q} d={d} i={i} j={j}: {marks}\n")
        verdict = "PASS" if failures == 0 else f"FAIL ({failures} mismatches)"
        out.write(f"verify q={q}: {len(shapes)} classes x {k_max + 1} "
                  f"subset sizes: {verdict}\n")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


# ---------------------------------------------------------------------------
# design


def _parse_subset(text: str, q: int) -> int:
    try:
        elements = sorted({int(tok) for tok in text.split(",")})
    except ValueError:
        raise CliError(f"--subset must be comma-separated integers, got {text!r}")
    if not elements or not all(0 <= x < q for x in elements):
        raise CliError(f"subset elements must lie in [0, {q})")
    return oracle.subset_mask(elements)


def cmd_design(args, out) -> int:
    p, alpha = _resolve_field(args)
    q = p ** alpha
    field = _field(p, alpha)
    if args.subset is not None:
        mask = _parse_subset(args.subset, q)
        S = oracle.stabilizer(field, mask)
    else:
        if args.k is None or args.d is None:
            raise CliError("design needs --subset, or --k with --d")
        shapes = [(d, i, j) for d, i, j in counting.class_shapes(p, alpha)
                  if d == args.d]
        if not shapes:
            raise CliError(f"no stabilizer class with d = {args.d}")
        matching = [(d, i, j) for d, i, j in shapes
                    if (args.i is None or i == args.i)
                    and (args.j is None or j == args.j)]
        if not matching:
            pairs = ", ".join(f"({i}, {j})" for _, i, j in shapes)
            raise CliError(f"no stabilizer class with d = {args.d} passes "
                           f"the --i/--j filter; its (i, j) are {pairs}")
        chosen = None
        for d, i, j in matching:
            cp = ClassParams(p, alpha, args.k, d, i, j)
            if cp.congruence_ok and counting.count_N(cp) > 0:
                chosen = (d, i, j)
                break
        if chosen is None:
            raise CliError(
                f"no {args.k}-subset has a stabilizer of class d = {args.d}: "
                "the exact count is 0 for every matching (i, j)")
        S = agl.class_representative(field, *chosen)
        mask = next(oracle.exact_orbit_unions(S, args.k, args.oracle_budget),
                    None)
        if mask is None:
            raise RuntimeError(
                "a witness subset must exist when the count is positive")
    params, matrix = designs.orbit_design(S, mask)
    code, words = designs.design_to_code(matrix)
    johnson = designs.johnson_check(code)
    a2 = designs.a2_determinations(S, params.k)

    if args.format == "json":
        record = designs.design_record(params, matrix, code, words)
        record["q"] = q
        record["subset"] = list(oracle.mask_elements(mask))
        record["stabilizer_order"] = S.order
        record["johnson_equality"] = johnson
        record["a2"] = {"n": a2.n, "d": a2.d, "w": a2.w, "value": a2.size}
        json.dump(record, out, indent=2, sort_keys=True)
        out.write("\n")
    elif args.format == "csv":
        out.write(designs.blocks_as_text(matrix) + "\n")
    else:
        subset = ",".join(str(x) for x in oracle.mask_elements(mask))
        out.write(f"q={q} subset={subset} stabilizer order={S.order}\n")
        out.write(f"design v={params.v} b={params.b} r={params.r} "
                  f"k={params.k} lambda={params.lmbda}\n")
        out.write("blocks:\n" + designs.blocks_as_text(matrix) + "\n")
        out.write(f"code n={code.n} d={code.d} w={code.w} size={code.size}\n")
        out.write("codewords:\n" + "\n".join(words) + "\n")
        delta = code.d // 2
        denom = code.w ** 2 - code.n * code.w + code.n * delta
        out.write(f"johnson equality: {code.n * delta}/{denom} = "
                  f"{code.size}: {'PASS' if johnson else 'FAIL'}\n")
        out.write(f"A2({a2.n},{a2.d},{a2.w}) = {a2.size}\n")
    return EXIT_OK if johnson else EXIT_VERIFY


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="aglstab",
                     description="Exact stabilizer-class counts for the "
                                 "affine maps on F_q, with design and "
                                 "constant-weight-code construction.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_field_args(sp):
        sp.add_argument("--p", type=int, help="field characteristic (prime)")
        sp.add_argument("--alpha", type=int, help="field degree (default 1)")
        sp.add_argument("--q", type=int,
                        help="prime power q = p**alpha, auto-factored")
        sp.add_argument("--format", choices=FORMATS, default="text")

    sp = sub.add_parser("table", help="emit the full count table")
    add_field_args(sp)
    sp.add_argument("--max-k", type=int, default=None,
                    help="largest subset size (default q//2)")
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("count", help="evaluate one class tuple")
    add_field_args(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--i", type=int, required=True)
    sp.add_argument("--j", type=int, required=True)
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("verify",
                        help="closed form vs. lattice vs. brute force")
    add_field_args(sp)
    sp.add_argument("--max-k", type=int, default=None,
                    help="largest subset size (default q)")
    sp.add_argument("--oracle-budget", type=_budget,
                    default=oracle.DEFAULT_SUBSET_BUDGET,
                    help="max size-k orbit unions per brute-force "
                         "count; the all-k table needs all 2**m within it")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("design",
                        help="emit an orbit design and its row code")
    add_field_args(sp)
    sp.add_argument("--k", type=int, help="subset size")
    sp.add_argument("--d", type=int, help="stabilizer class divisor d")
    sp.add_argument("--i", type=int, help="stabilizer class index i")
    sp.add_argument("--j", type=int, help="stabilizer class index j")
    sp.add_argument("--subset",
                    help="explicit base subset, comma-separated elements")
    sp.add_argument("--oracle-budget", type=_budget,
                    default=oracle.DEFAULT_SUBSET_BUDGET,
                    help="max subsets scanned while hunting a witness")
    sp.set_defaults(func=cmd_design)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    buffer = io.StringIO()
    try:
        code = args.func(args, buffer)
    except CliError as exc:
        print(f"aglstab: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"aglstab: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except oracle.BudgetExceededError as exc:
        print(f"aglstab: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    sys.stdout.write(buffer.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
