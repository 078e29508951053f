"""Command-line front end.

Subcommands:

* ``table``   -- emit the stabilizer-count table for one field.
* ``count``   -- evaluate a single class tuple (p, alpha, k, d, i, j).
* ``verify``  -- three-way agreement sweep (closed form vs. lattice
  inclusion-exclusion vs. brute force) over every class of one field.
* ``design``  -- materialize an orbit block design and its constant-weight
  code, check Johnson equality, and report the certified A2 value.

Exit codes: 0 success, 1 input error, 2 verification failure, 3 budget
exceeded.  Identical invocations produce byte-identical output.  The
parser is built once per process; ``main`` reuses it on every call.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from functools import lru_cache

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
    """(p, alpha) from --p/--alpha or from --q (a prime power); exit 3 when
    ``counting.check_factored`` refuses the field, as the library does."""
    if args.q is not None:
        if args.p is not None or args.alpha is not None:
            raise ValueError("give either --q or --p/--alpha, not both")
        p, alpha = counting.prime_power(args.q)
    elif args.p is None:
        raise ValueError("a field is required: give --q or --p (with --alpha)")
    else:
        p, alpha = args.p, 1 if args.alpha is None else args.alpha
        counting.check_field(p, alpha)
    counting.check_factored(p, alpha)
    return p, alpha


def _max_k(args, q: int, default: int) -> int:
    """The ``--max-k`` of ``table`` and ``verify``: ``default`` when the
    flag is absent, else an integer in [0, q]."""
    if args.max_k is None:
        return default
    if not 0 <= args.max_k <= q:
        raise ValueError(f"--max-k must lie in [0, {q}], got {args.max_k}")
    return args.max_k


# ---------------------------------------------------------------------------
# rows


def _emit_rows(columns, rows, fmt: str, out) -> None:
    """Write row tuples under ``columns``: csv with a header, json as a
    list of objects, or text as one ``column=value`` line per row."""
    if fmt == "json":
        json.dump([dict(zip(columns, row)) for row in rows], out, indent=2)
        out.write("\n")
        return
    # one % string per row: ints and bools, which csv.writer never quotes
    if fmt == "csv":
        out.write(",".join(columns) + "\n")
        line = ",".join(["%s"] * len(columns)) + "\n"
    else:
        line = " ".join(f"{c}=%s" for c in columns) + "\n"
    out.writelines(line % row for row in rows)


# ---------------------------------------------------------------------------
# table


def cmd_table(args, out) -> int:
    p, alpha = _resolve_field(args)
    q = p ** alpha
    _emit_rows(CSV_COLUMNS,
               counting.build_table(p, alpha, _max_k(args, q, q // 2)),
               args.format, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# count


def cmd_count(args, out) -> int:
    p, alpha = _resolve_field(args)
    cp = ClassParams(p, alpha, args.k, args.d, args.i, args.j)
    violation = cp.congruence_violation()
    if violation is not None:
        raise ValueError(violation)
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
    k_max = _max_k(args, q, q)
    if q > oracle.DEFAULT_STABILIZER_LIMIT:
        raise counting.BudgetExceededError(
            f"verification needs q <= {oracle.DEFAULT_STABILIZER_LIMIT}, got {q}")
    # the field is checked by _resolve_field, each shape by
    # class_representative
    shapes = list(counting._shapes(p, alpha))
    rows = [(d, i, j, k, closed, lattice, brute, closed == lattice == brute)
            for d, i, j, odp in shapes
            for k, closed, lattice, brute in _verify_class(
                p, alpha, d, i, j, odp, k_max, args.oracle_budget)]
    failures = sum(not row[-1] for row in rows)
    if args.format != "text":
        _emit_rows(VERIFY_COLUMNS, rows, args.format, out)
    else:
        # one line per class: its rows are consecutive
        for (d, i, j), group in itertools.groupby(rows, lambda row: row[:3]):
            marks = " ".join(f"k={row[3]}:{'ok' if row[-1] else 'FAIL'}"
                             for row in group)
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
        raise ValueError(f"--subset must be comma-separated integers, got {text!r}")
    if not elements or not all(0 <= x < q for x in elements):
        raise ValueError(f"subset elements must lie in [0, {q})")
    return oracle.subset_mask(elements)


def cmd_design(args, out) -> int:
    p, alpha = _resolve_field(args)
    q = p ** alpha
    field = _field(p, alpha)
    if args.subset is not None:
        mixed = [f"--{name}" for name in ("k", "d", "i", "j")
                 if getattr(args, name) is not None]
        if mixed:
            raise ValueError("--subset cannot be combined with "
                             f"{', '.join(mixed)}: the subset fixes the class")
        mask = _parse_subset(args.subset, q)
        S = oracle.stabilizer(field, mask)
    else:
        if args.k is None or args.d is None:
            raise ValueError("design needs --subset, or --k with --d")
        shapes = [(d, i, j) for d, i, j in counting.class_shapes(p, alpha)
                  if d == args.d]
        if not shapes:
            raise ValueError(f"no stabilizer class with d = {args.d}")
        matching = [(d, i, j) for d, i, j in shapes
                    if (args.i is None or i == args.i)
                    and (args.j is None or j == args.j)]
        if not matching:
            pairs = ", ".join(f"({i}, {j})" for _, i, j in shapes)
            raise ValueError(f"no stabilizer class with d = {args.d} passes "
                             f"the --i/--j filter; its (i, j) are {pairs}")
        chosen = None
        for d, i, j in matching:
            cp = ClassParams(p, alpha, args.k, d, i, j)
            if cp.congruence_ok and counting.count_N(cp) > 0:
                chosen = (d, i, j)
                break
        if chosen is None:
            raise ValueError(
                f"no {args.k}-subset has a stabilizer of class d = {args.d}: "
                "the exact count is 0 for every matching (i, j)")
        S = agl.class_representative(field, *chosen)
        unions = oracle.orbit_union_masks(S, args.k)
        mask = next((m for m in itertools.islice(unions, args.oracle_budget)
                     if oracle.is_exact_stabilizer(S, m)), None)
        if mask is None:
            if next(unions, None) is not None:
                raise counting.BudgetExceededError(
                    f"no witness among the first {args.oracle_budget} orbit "
                    f"unions, the budget of {args.oracle_budget}")
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


@lru_cache(maxsize=None)
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
                        help="prime power q = p**alpha")
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
                    help="explicit base subset, comma-separated elements; "
                         "not with --k, --d, --i or --j")
    sp.add_argument("--oracle-budget", type=_budget,
                    default=oracle.DEFAULT_SUBSET_BUDGET,
                    help="max subsets scanned while hunting a witness")
    sp.set_defaults(func=cmd_design)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a count of q >= 14641 can pass the 4300 digits that str(int) allows
    # by default (Python >= 3.10.7); lift that for this run only
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        # each command computes its whole result before its first write
        return args.func(args, sys.stdout)
    except ValueError as exc:
        print(f"aglstab: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except counting.BudgetExceededError as exc:
        print(f"aglstab: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
