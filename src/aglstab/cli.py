"""Command-line front end.

Subcommands:

* ``table``   -- emit the stabilizer-count table for one field, every
  format rendered class by class from ``counting.class_counts``: a
  class's row template is formatted once, and the rows are bucketed by
  k and written one join per k.
* ``count``   -- evaluate a single class tuple (p, alpha, k, d, i, j).
* ``verify``  -- three-way agreement sweep over every (class, k) of one
  field: ``StabilizerClass.count`` vs. ``oracle.count_N_via_lattice`` vs.
  ``oracle.count_N_bruteforce``, the last two at the class representative.
* ``design``  -- materialize an orbit block design and its constant-weight
  code, check Johnson equality, and report the certified A2 value.

Exit codes: 0 success, 1 input error, 2 verification failure, 3 budget
exceeded, 141 stdout closed before the output was written.  Identical
invocations produce byte-identical output.  The parser is built once per
process; ``main`` reuses it on every call.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from functools import lru_cache

from . import agl, counting, designs, numtheory, oracle
from .counting import CSV_COLUMNS, ClassParams
from .ffield import Field, mask_elements, subset_mask

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_BUDGET = 3
#: stdout closed before the output was written, as a shell reports a
#: writer that SIGPIPE killed (128 + 13)
EXIT_CLOSED_PIPE = 141

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
    """(p, alpha) from --p/--alpha or from --q (a prime power), admitted by
    ``numtheory.check_factored``: exit 1 for a bad field, 3 for a refused one."""
    if args.q is not None:
        if args.p is not None or args.alpha is not None:
            raise ValueError("give either --q or --p/--alpha, not both")
        p, alpha = numtheory.prime_power(args.q)
    elif args.p is None:
        raise ValueError("a field is required: give --q or --p (with --alpha)")
    else:
        p, alpha = args.p, 1 if args.alpha is None else args.alpha
    numtheory.check_factored(p, alpha)
    return p, alpha


def _max_k(args, q: int, default: int | None = None) -> int | None:
    """The ``--max-k`` of ``table`` and ``verify``: ``default`` when the
    flag is absent, else an integer in [0, q]."""
    if args.max_k is None:
        return default
    if not 0 <= args.max_k <= q:
        raise ValueError(f"--max-k must lie in [0, {q}], got {args.max_k}")
    return args.max_k


# ---------------------------------------------------------------------------
# rows


def _layout(columns, fmt: str) -> tuple[str, str, str, str]:
    """The one spelling of each row format: (header, ``%`` template of
    one row, separator between rows, closing text).  csv writes ints and
    bools as ``csv.writer`` does, text is one ``column=value`` line per
    row, and json is a list of objects as the ``json`` module writes it
    at indent 2, then a newline; %s spells an int as ``json`` does."""
    if fmt == "csv":
        return (",".join(columns) + "\n",
                ",".join(["%s"] * len(columns)) + "\n", "", "")
    if fmt == "text":
        return "", " ".join(f"{c}=%s" for c in columns) + "\n", "", ""
    fields = ",\n".join(f'    "{c}": %s' for c in columns)
    return "[\n", "  {\n" + fields + "\n  }", ",\n", "\n]\n"


def _write(out, layout, runs) -> None:
    """Write runs of rows, joined by the separator of ``layout``, between
    its header and closing text; none is empty (every k has a row)."""
    head, _, sep, tail = layout
    runs = iter(runs)
    out.write(head + next(runs))
    out.writelines(sep + run for run in runs)
    out.write(tail)


def _emit_rows(columns, rows, fmt: str, out) -> None:
    """Write rows of ints and bools in the ``_layout`` of ``fmt``; json
    spells a bool in lower case."""
    layout = _layout(columns, fmt)
    if fmt == "json":
        rows = [tuple(("false", "true")[v] if isinstance(v, bool) else v
                      for v in row) for row in rows]
    _write(out, layout, [layout[2].join(map(layout[1].__mod__, rows))])


# ---------------------------------------------------------------------------
# table


def cmd_table(args, out) -> int:
    p, alpha = _resolve_field(args)
    q = p ** alpha
    k_max = _max_k(args, q, q // 2)
    layout = _layout(CSV_COLUMNS, args.format)
    # before the buckets: the pass refuses a table over its row budget
    table = counting.class_counts(p, alpha, k_max)
    # each class's row formatted once with d, odp, i, j and beta, k and N
    # left open; bucketed by k, so k comes first, then class order
    by_k: list[list[str]] = [[] for _ in range(k_max + 1)]
    for c, counts in table:
        row = layout[1] % ("%s", c.d, c.odp, c.i, c.j, c.beta, "%s")
        for k, n in counts.items():
            by_k[k].append(row % (k, n))
    # one join per k: the whole table as one string would double the
    # peak memory of a large one
    _write(out, layout, map(layout[2].join, by_k))
    return EXIT_OK


# ---------------------------------------------------------------------------
# count


def cmd_count(args, out) -> int:
    p, alpha = _resolve_field(args)
    cp = ClassParams(p, alpha, args.k, args.d, args.i, args.j)
    violation = cp.congruence_violation(cp.k)
    if violation is not None:
        raise ValueError(violation)
    row = (cp.k, cp.d, cp.odp, cp.i, cp.j, cp.beta, counting.count_N(cp))
    _emit_rows(CSV_COLUMNS, [row], args.format, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _verify_class(c: counting.StabilizerClass, k_max: int,
                  budget: int) -> list[tuple[int, int, int, int]]:
    S = agl.class_representative(_field(c.p, c.alpha), c.d, c.i, c.j)
    return [(k, c.count(k), oracle.count_N_via_lattice(S, k),
             oracle.count_N_bruteforce(S, k, budget=budget))
            for k in range(k_max + 1)]


def cmd_verify(args, out) -> int:
    p, alpha = _resolve_field(args)
    q = p ** alpha
    k_max = _max_k(args, q, q)
    oracle.check_map_scan(q)
    shapes = counting.classes(p, alpha)
    # every (class, k) in scan order, before the first scan: s_qk counts
    # the representative's size-k orbit unions
    for c in shapes:
        for k in range(k_max + 1):
            oracle.check_union_budget(counting.s_qk(q, k, c.d, c.h_size),
                                      args.oracle_budget)
    rows = [(c.d, c.i, c.j, k, closed, lattice, brute,
             closed == lattice == brute)
            for c in shapes
            for k, closed, lattice, brute in _verify_class(
                c, k_max, args.oracle_budget)]
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


def _parse_subset(text: str, q: int) -> list[int]:
    """The elements of ``--subset``, checked to be distinct integers in
    [0, q); the mask is built only once the map scan has accepted q."""
    try:
        elements = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"--subset must be comma-separated integers, got {text!r}")
    if not all(0 <= x < q for x in elements):
        raise ValueError(f"subset elements must lie in [0, {q})")
    seen = set()
    for x in elements:
        if x in seen:
            raise ValueError(f"--subset lists {x} more than once")
        seen.add(x)
    return elements


def cmd_design(args, out) -> int:
    p, alpha = _resolve_field(args)
    q = p ** alpha
    if args.subset is not None:
        mixed = [f"--{name}" for name in ("k", "d", "i", "j", "oracle-budget")
                 if getattr(args, name.replace("-", "_")) is not None]
        if mixed:
            raise ValueError("--subset cannot be combined with "
                             f"{', '.join(mixed)}: the subset fixes the class")
        elements = _parse_subset(args.subset, q)
        oracle.check_map_scan(q)
        mask = subset_mask(elements)
        S = oracle.stabilizer(_field(p, alpha), mask)
    else:
        if args.k is None or args.d is None:
            raise ValueError("design needs --subset, or --k with --d")
        shapes = [c for c in counting.classes(p, alpha) if c.d == args.d]
        if not shapes:
            raise ValueError(f"no stabilizer class with d = {args.d}")
        matching = [c for c in shapes
                    if (args.i is None or c.i == args.i)
                    and (args.j is None or c.j == args.j)]
        if not matching:
            pairs = ", ".join(f"({c.i}, {c.j})" for c in shapes)
            raise ValueError(f"no stabilizer class with d = {args.d} passes "
                             f"the --i/--j filter; its (i, j) are {pairs}")
        counting.check_subset_size(q, args.k)
        oracle.check_map_scan(q)
        # a k that breaks a class's congruence counts 0 there
        chosen = next((c for c in matching if c.count(args.k) > 0), None)
        if chosen is None:
            raise ValueError(
                f"no {args.k}-subset has a stabilizer of class d = {args.d}: "
                "the exact count is 0 for every matching (i, j)")
        designs.check_design_size(q, chosen.period, args.k)
        S = agl.class_representative(_field(p, alpha), chosen.d, chosen.i,
                                     chosen.j)
        budget = args.oracle_budget or oracle.DEFAULT_SUBSET_BUDGET
        mask = next(oracle.exact_orbit_unions(S, args.k, budget), None)
        if mask is None:
            raise RuntimeError(
                "a witness subset must exist when the count is positive")
    params, matrix = designs.orbit_design(S, mask)
    code, words = designs.design_to_code(matrix)
    johnson = designs.johnson_check(code)
    a2 = designs.a2_determinations(S, params.k)

    if args.format == "json":
        out.writelines(designs.design_json(
            params, matrix, code, words, q=q,
            subset=list(mask_elements(mask)), stabilizer_order=S.order,
            johnson_equality=johnson,
            a2={"n": a2.n, "d": a2.d, "w": a2.w, "value": a2.size}))
        out.write("\n")
    elif args.format == "csv":
        out.write(designs.blocks_as_text(matrix) + "\n")
    else:
        subset = ",".join(str(x) for x in mask_elements(mask))
        out.write(f"q={q} subset={subset} stabilizer order={S.order}\n")
        out.write(f"design v={params.v} b={params.b} r={params.r} "
                  f"k={params.k} lambda={params.lmbda}\n")
        out.write("blocks:\n" + designs.blocks_as_text(matrix) + "\n")
        out.write(f"code n={code.n} d={code.d} w={code.w} size={code.size}\n")
        out.write("codewords:\n" + "\n".join(words) + "\n")
        num, denom = designs.johnson_fraction(code)
        out.write(f"johnson equality: {num}/{denom} = "
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
                    help="explicit base subset, comma-separated distinct "
                         "elements; not with --k, --d, --i, --j or "
                         "--oracle-budget")
    sp.add_argument("--oracle-budget", type=_budget,
                    help="max subsets scanned while hunting a witness "
                         f"(default {oracle.DEFAULT_SUBSET_BUDGET})")
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
        # each command computes its whole result before its first write;
        # the flush puts a closed pipe's error here, not at exit
        code = args.func(args, sys.stdout)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: the null device takes what is still
        # buffered, so the flush at exit stays quiet.  No SIGPIPE handler:
        # main also runs in-process
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    except ValueError as exc:
        print(f"aglstab: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except numtheory.BudgetExceededError as exc:
        print(f"aglstab: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
