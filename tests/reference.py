"""Theory-free references that the tests compare the library against.

An affine map is an ``AffineMap`` object here, composed and applied with
plain field arithmetic; the library itself keeps maps as (a, b) pairs.
A subgroup is the closure of its generators under composition, turned
into a descriptor only at the end; a map fixes a subset when it sends
every element of the subset into it, tested one map at a time (no
translate masks), and an orbit design is the set of images of its base
block under every map.  The lattice inclusion-exclusion visits every
selection of immediate supergroups on its own (no fold).  Field addition
and subspace echelon forms are computed on coefficient lists, digit by
digit mod p (no Zech logarithms, no int rows).  ``overgroup_terms`` walks
every overgroup of a class and weighs it by ``moebius_exponent`` times
``q_binomial``, each computed from scratch (no recurrence, no pruning
by k).  ``table_by_terms``
evaluates every table row from its class terms on its own (no shared
binomial columns).  ``csv_writer_rows`` and ``text_rows`` write rows as
``csv.writer`` does and as ``column=value`` pairs joined one value at a
time (no format string).  ``assert_lines`` reads a module's source,
which the ``python -O`` guards scan for asserts, ``prime_powers`` lists
the fields that the sweeps run over, and ``run_python`` runs a call
that could hang in a process of its own.
"""

import ast
import csv
import inspect
import io
import itertools
import math
import os
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import aglstab

from sympy import factorint

from aglstab.agl import immediate_supergroups, join_pair, subgroup_from_pairs
from aglstab.counting import (_class_terms, _shapes, check_field,
                              evaluate_terms, mult_order, prime_set)


class AffineMap:
    """The map x -> a*x + b on a fixed field, a != 0."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field, a: int, b: int):
        if a == 0:
            raise ValueError("the multiplier a must be nonzero")
        self.field = field
        self.a = a
        self.b = b

    @classmethod
    def identity(cls, field) -> "AffineMap":
        return cls(field, 1, 0)

    def __call__(self, x: int) -> int:
        f = self.field
        return f.add(f.mul(self.a, x), self.b)

    def __mul__(self, other: "AffineMap") -> "AffineMap":
        """Composition: (self * other)(x) = self(other(x))."""
        f = self.field
        return AffineMap(f, f.mul(self.a, other.a),
                         f.add(f.mul(self.a, other.b), self.b))

    def __eq__(self, other) -> bool:
        return (isinstance(other, AffineMap) and self.field == other.field
                and self.a == other.a and self.b == other.b)

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __repr__(self) -> str:
        return f"AffineMap(x -> {self.a}*x + {self.b})"


def subgroup_elements(S) -> tuple[AffineMap, ...]:
    """Every map of a subgroup descriptor: the d powers of its generator
    (a, b), each followed by every translation in H."""
    field = S.field
    g = AffineMap(field, S.a, S.b)
    powers = [AffineMap.identity(field)]
    for _ in range(S.d - 1):
        powers.append(g * powers[-1])
    out = tuple(AffineMap(field, m.a, field.add(m.b, h))
                for m in powers for h in S.H.elements())
    if len(set(out)) != S.order:
        raise RuntimeError(f"{len(set(out))} distinct maps in a group "
                           f"of order {S.order}")
    return out


def mulclose(maps) -> set[AffineMap]:
    """Closure of a set of maps under composition (the generated subgroup)."""
    maps = list(maps)
    if not maps:
        return set()
    els = {AffineMap.identity(maps[0].field)}
    els.update(maps)
    frontier = list(els)
    while frontier:
        new = []
        for g in maps:
            for h in frontier:
                prod = g * h
                if prod not in els:
                    els.add(prod)
                    new.append(prod)
        frontier = new
    return els


def canonicalize(maps):
    """Canonical descriptor of the subgroup generated by ``maps``."""
    maps = list(maps)
    if not maps:
        raise ValueError("cannot infer the field from an empty generating set")
    field = maps[0].field
    closure = mulclose(maps)
    return subgroup_from_pairs(field, ((m.a, m.b) for m in closure))


def literal_lattice_terms(S) -> tuple[tuple[tuple[int, int, int], ...], int]:
    """Signed (coefficient, d, |H|) terms of the inclusion-exclusion for
    N(S, k), summed over the 2**t selections of the t immediate
    supergroups one selection at a time, plus the number of selections
    visited.  A depth-first walk extends each selection by one later
    supergroup, so every nonempty selection costs one ``join_pair``."""
    supers = immediate_supergroups(S)
    agg: Counter = Counter()
    visited = 0

    def walk(start, T, sign):
        nonlocal visited
        visited += 1
        agg[(T.d, T.H.size)] += sign
        for idx in range(start, len(supers)):
            walk(idx + 1, join_pair(T, supers[idx]), -sign)

    walk(0, S, 1)
    terms = tuple((c, d, h) for (d, h), c in sorted(agg.items()) if c)
    return terms, visited


def reference_fixing_maps(field, mask: int):
    """Every (a, b) whose map x -> a*x + b fixes the masked subset, found
    by testing the q*(q-1) maps one at a time in increasing (a, b) order."""
    elems = [x for x in range(field.q) if mask >> x & 1]
    for a in range(1, field.q):
        for b in range(field.q):
            if all(mask >> field.add(field.mul(a, x), b) & 1 for x in elems):
                yield a, b


def reference_orbit_blocks(field, mask: int) -> tuple[int, ...]:
    """The distinct images of the masked subset under all q*(q-1) maps,
    one field addition per element, as sorted block masks."""
    elems = [x for x in range(field.q) if mask >> x & 1]
    blocks = set()
    for a in range(1, field.q):
        imgs = [field.mul(a, x) for x in elems]
        for t in range(field.q):
            block = 0
            for y in imgs:
                block |= 1 << field.add(y, t)
            blocks.add(block)
    return tuple(sorted(blocks))


def digits(field, x: int) -> list[int]:
    """The alpha base-p coordinates of x, least significant first."""
    out = []
    for _ in range(field.alpha):
        x, c = divmod(x, field.p)
        out.append(c)
    return out


def element(field, coeffs) -> int:
    """The element with base-p coordinates ``coeffs``, least significant
    first, each read mod p; the inverse of ``digits``."""
    cs = list(coeffs)
    if len(cs) != field.alpha:
        raise ValueError(f"expected {field.alpha} coordinates, got {len(cs)}")
    return sum((c % field.p) * field.p ** t for t, c in enumerate(cs))


def reference_add(field, x: int, y: int) -> int:
    """x + y as the digit-wise sum mod p of the coordinates."""
    p = field.p
    return element(field, [(a + b) % p for a, b in
                           zip(digits(field, x), digits(field, y))])


def reference_neg(field, x: int) -> int:
    """-x as the digit-wise negation mod p of the coordinates."""
    return element(field, [(-c) % field.p for c in digits(field, x)])


def reference_smul(field, c: int, x: int) -> int:
    """c*x for an integer c, scaling every coordinate mod p."""
    return element(field, [(c * cf) % field.p for cf in digits(field, x)])


def reference_echelon(field, vectors) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduced echelon basis and pivot columns by Gauss-Jordan elimination
    on coefficient lists, sweeping the columns most significant first."""
    p, alpha = field.p, field.alpha
    rows = [digits(field, v) for v in vectors if v != 0]
    r = 0
    pivots = []
    for col in reversed(range(alpha)):
        piv = next((t for t in range(r, len(rows)) if rows[t][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], -1, p)
        rows[r] = [(c * inv) % p for c in rows[r]]
        for t in range(len(rows)):
            if t != r and rows[t][col]:
                f = rows[t][col]
                rows[t] = [(a - f * b) % p for a, b in zip(rows[t], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return tuple(element(field, row) for row in rows[:r]), tuple(pivots)


def reference_reduce(field, basis, pivots, x: int) -> int:
    """x reduced against an echelon basis, clearing each pivot column of
    the coefficient list in turn."""
    p = field.p
    cf = digits(field, x)
    for v, piv in zip(basis, pivots):
        c = cf[piv]
        if c:
            cf = [(a - c * b) % p for a, b in zip(cf, digits(field, v))]
    return element(field, cf)


def q_binomial(n: int, m: int, base: int) -> int:
    """Number of m-dimensional subspaces of an n-dimensional space over a
    field with ``base`` elements, as an exact integer."""
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if m < 0 or m > n:
        return 0
    num = den = 1
    for t in range(m):
        num *= base ** (n - t) - 1
        den *= base ** (t + 1) - 1
    quot, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(
            f"q-binomial [{n} choose {m}]_{base} is not integral")
    return quot


def moebius_exponent(dim_quotient: int, base: int) -> int:
    """Moebius value (-1)**l * base**C(l, 2) for an interval of subspaces
    whose quotient has dimension l over the base field."""
    if dim_quotient < 0:
        raise ValueError(f"dimension must be >= 0, got {dim_quotient}")
    return (-1) ** dim_quotient * base ** math.comb(dim_quotient, 2)


def overgroup_terms(p: int, alpha: int, d: int, i: int, j: int,
                    odp: int) -> tuple[tuple[int, int, int], ...]:
    """Every term of the closed form of the class (d, i, j), as
    ``counting._class_terms`` documents it: all subsets P of the primes
    of (|H'| - 1)/d, all dimensions l, each weight one
    ``moebius_exponent`` times one ``q_binomial``, merged over equal
    (u, v) with zero terms dropped, sorted by (u, v)."""
    beta = odp * i * j
    free = alpha - beta
    quot = (p ** (odp * i) - 1) // d
    primes = prime_set(quot)
    agg: dict[tuple[int, int], int] = {}
    for P in itertools.chain.from_iterable(
            itertools.combinations(primes, r) for r in range(len(primes) + 1)):
        u = d * math.prod(P)
        m = mult_order(p, u)
        hi = free // m
        sign = (-1) ** len(P) * (p ** free if d == 1 and P else 1)
        base = p ** m
        for l in range(hi + 1):
            v = p ** (beta + l * m)
            agg[(u, v)] = agg.get((u, v), 0) + (
                sign * moebius_exponent(l, base) * q_binomial(hi, l, base))
    return tuple((c, u, v) for (u, v), c in sorted(agg.items()) if c)


def table_by_terms(p: int, alpha: int,
                   k_max: int | None = None) -> list[tuple[int, ...]]:
    """The rows of ``counting.build_table``, each evaluated on its own:
    one ``evaluate_terms`` call per row, so one ``s_qk`` per term, every
    binomial built from scratch."""
    check_field(p, alpha)
    q = p ** alpha
    if k_max is None:
        k_max = q // 2
    shapes = []
    for d, i, j, odp in _shapes(p, alpha):
        beta = odp * i * j
        pb = p ** beta
        shapes.append((d, odp, i, j, beta, pb, d * pb,
                       _class_terms(p, alpha, d, i, j, odp)))
    return [
        (k, d, odp, i, j, beta, evaluate_terms(q, k, terms))
        for k in range(k_max + 1)
        for d, odp, i, j, beta, pb, period, terms in shapes
        if k % period in (0, pb)
    ]


def csv_writer_rows(columns, rows) -> str:
    """``columns`` and then ``rows``, written by ``csv.writer``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return out.getvalue()


def text_rows(columns, rows) -> str:
    """One line of space-separated ``column=value`` pairs per row."""
    return "".join(" ".join(f"{c}={v}" for c, v in zip(columns, row)) + "\n"
                   for row in rows)


def assert_lines(module) -> list[int]:
    """Line numbers of the assert statements in the whole of ``module``."""
    tree = ast.parse(inspect.getsource(module))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Assert)]


def prime_powers(lo: int, hi: int) -> list[tuple[int, int]]:
    """(p, alpha) for every prime power lo <= q <= hi, ascending in q."""
    out = []
    for q in range(lo, hi + 1):
        fac = factorint(q)
        if len(fac) == 1:
            out.extend(fac.items())
    return out


def run_python(*args, timeout=60):
    """``python *args`` in a process of its own, with this checkout's
    aglstab importable, under a 2 GiB address-space limit and a timeout
    (60 s by default), so that a regression fails instead of taking the
    host's memory or time; returns the process and its wall seconds."""
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = Path(aglstab.__file__).resolve().parents[1]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, timeout=timeout,
                          env={**os.environ, "PYTHONPATH": str(src)},
                          preexec_fn=limit_memory)
    return proc, time.perf_counter() - start
