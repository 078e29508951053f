"""Theory-free references that the tests compare the library against,
and the exhaustive engines that only the tests call.

An affine map is an ``AffineMap`` object here, composed and applied with
plain field arithmetic; the library itself keeps maps as (a, b) pairs.
A subgroup is the closure of its generators under composition, turned
into a descriptor only at the end; a map fixes a subset when it sends
every element of the subset into it, tested one map at a time (no
translate masks), and an orbit design is the set of images of its base
block under every map.  ``reference_incidence`` reads an incidence
matrix one bit at a time and ``reference_bits`` its blocks' bit strings
one ``mask_bits`` each; ``reference_block_lines`` writes each block one
element at a time, and ``design_record`` is the json record of a design
as a dict, which ``reference_design_json`` encodes by ``json.dumps`` (no
writer of its own).
The lattice inclusion-exclusion visits every selection of immediate
supergroups on its own (no fold), and ``pulled_lattice_terms`` solves
the census's Moebius recursion by testing every pair of its spaces.  Field addition, spans and subspace
echelon forms are computed on coefficient lists, digit by digit mod p
(no Zech logarithms, no int rows).  ``overgroup_terms`` walks
every overgroup of a class and weighs it by ``moebius_exponent`` times
``q_binomial``, each computed from scratch (no recurrence, no pruning
by k), and ``class_size`` counts the subgroups of a class from its
parameters by Moebius inversion over subfields.  ``build_table`` is
the row view of ``counting.class_counts``, one tuple per table row in
the CLI's order, and ``table_by_terms`` evaluates every table row from
its class terms on its own (no shared binomial columns).
``csv_writer_rows``, ``text_rows`` and ``json_rows`` write rows as
``csv.writer`` does, as ``column=value`` pairs joined one value at a
time (no format string), and as ``json.dumps`` does.  ``assert_lines``
reads a module's source, which the ``python -O`` guards scan for asserts
and ``__debug__`` reads, ``prime_powers`` lists the fields that the
sweeps run over, ``run_python`` runs a call that could hang in a process
of its own, and ``modulus`` reads a field's modulus back from its
arithmetic (the library stores none).

The exhaustive engines are not theory-free: they are built from library
pieces.  ``full_census`` classifies every k-subset by the library's
``stabilizer`` scan, under ``oracle.DEFAULT_SUBSET_BUDGET`` as read at
the call; ``all_subspaces`` grows every subspace by ``span``, and
``all_subgroups`` lists every subgroup descriptor from them, for q up to
DEFAULT_ALL_SUBGROUPS_LIMIT, and ``conjugacy_class_members`` one subgroup
per conjugacy class of a d = 1 class.  ``trivial_subgroup``,
``full_group`` and ``full_subspace`` name the two ends of the lattice.
"""

import ast
import csv
import inspect
import io
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import aglstab

from sympy import factorint, mobius

from aglstab import ffield, oracle
from aglstab.agl import (Subgroup, immediate_supergroups, join_pair,
                         subgroup_from_masks)
from aglstab.counting import (check_subset_size, class_counts, classes,
                              evaluate_terms)
from aglstab.ffield import Field, Subspace, mask_elements, span
from aglstab.numtheory import (BudgetExceededError, divisor_orders,
                               mult_order, prime_set)
from aglstab.oracle import stabilizer

#: largest q that ``all_subgroups`` enumerates
DEFAULT_ALL_SUBGROUPS_LIMIT = 64


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
                for m in powers for h in mask_elements(S.H.cosets()[0]))
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
    return subgroup_from_masks(field, pairs_to_masks(
        (m.a, m.b) for m in mulclose(maps)))


def pairs_to_masks(pairs) -> dict[int, int]:
    """{a: mask of the b} for a set of maps given as (a, b) pairs."""
    masks: dict[int, int] = {}
    for a, b in pairs:
        masks[a] = masks.get(a, 0) | 1 << b
    return masks


def trivial_subgroup(field: Field) -> Subgroup:
    return Subgroup(field, 1, 0, Subspace(field))


def full_group(field: Field) -> Subgroup:
    return Subgroup(field, field.q - 1, 0, full_subspace(field))


def full_subspace(field: Field) -> Subspace:
    return Subspace(field, field._pows)


def full_census(field: Field, k: int) -> dict[Subgroup, int]:
    """Stabilizer of every k-subset of F_q, grouped by canonical descriptor;
    more than ``oracle.DEFAULT_SUBSET_BUDGET`` subsets raise before any
    scan."""
    check_subset_size(field.q, k)
    total = math.comb(field.q, k)
    if total > oracle.DEFAULT_SUBSET_BUDGET:
        raise BudgetExceededError(f"{total} subsets exceed the budget of "
                                  f"{oracle.DEFAULT_SUBSET_BUDGET}")
    census: Counter[Subgroup] = Counter()
    for combo in itertools.combinations(range(field.q), k):
        census[stabilizer(field, ffield.subset_mask(combo))] += 1
    if sum(census.values()) != total:
        raise RuntimeError(f"the census classified {sum(census.values())} "
                           f"of the {total} subsets")
    return dict(census)


def all_subspaces(field: Field, degree: int) -> list[Subspace]:
    """Every F_{p**degree}-subspace of the field, ordered by (dimension,
    basis)."""
    zero = Subspace(field)
    out = {zero.basis: zero}
    frontier = [zero]
    while frontier:
        new = []
        for W in frontier:
            for x in range(1, field.q):
                if W.contains(x):
                    continue
                W2 = span(field, W.basis + (x,), degree)
                if W2.basis not in out:
                    out[W2.basis] = W2
                    new.append(W2)
        frontier = new
    return sorted(out.values(), key=lambda W: (W.dim, W.basis))


def all_subgroups(field: Field) -> list[Subgroup]:
    """Every subgroup of the affine group on F_q, each exactly once.

    Walks d over the divisors of q - 1, H over the F_{p**o_d(p)}-subspaces
    and b over the coset representatives of H (b = 0 when d = 1); the
    canonical-descriptor uniqueness makes the enumeration duplicate-free.
    q is capped by DEFAULT_ALL_SUBGROUPS_LIMIT.
    """
    if field.q > DEFAULT_ALL_SUBGROUPS_LIMIT:
        raise BudgetExceededError(
            f"subgroup enumeration needs q <= {DEFAULT_ALL_SUBGROUPS_LIMIT}, "
            f"got q = {field.q}")
    out = []
    for d, odp in divisor_orders(field.p, field.alpha):
        for H in all_subspaces(field, odp):
            points = (0,) if d == 1 else H.cosets()
            out.extend(Subgroup(field, d, b, H) for b in points)
    return out


def conjugacy_class_members(field: Field, i: int, j: int) -> list[Subgroup]:
    """One subgroup per conjugacy class within the class (1, i, j), in
    ``all_subspaces`` order.  A d = 1 subgroup is the translation group
    of its H, and x -> c*x + e conjugates it to the one of c*H, so the
    conjugacy classes are the orbits of the class's subspaces under
    scaling: a subspace not met yet is kept, and the distinct c*H over c
    in F_q^* are each marked met by their basis."""
    met = set()
    out = []
    for H in all_subspaces(field, i):
        if H.dim != i * j or H.stabilizing_degree() != i or H.basis in met:
            continue
        out.append(Subgroup(field, 1, 0, H))
        met.update(Subspace(field, [field.mul(c, v) for v in H.basis]).basis
                   for c in range(1, field.q))
    return out


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


def pulled_lattice_terms(S) -> tuple[tuple[int, int, int], ...]:
    """``oracle.lattice_terms`` in pull form: the same Moebius recursion
    over the nodes of ``oracle.overgroup_census``, taken by size and d,
    but each node sums c(U) over every earlier node U it contains,
    tested by one AND of the two spaces' element masks per pair (no
    generator bitsets, nothing pushed)."""
    census = sorted(oracle.overgroup_census(S), key=lambda space: space[1])
    q = S.field.q
    done: list[tuple[int, dict[int, int]]] = []
    agg: Counter = Counter()
    for mask, size, degrees, _ in census:
        coeffs: dict[int, int] = {}
        done.append((mask, coeffs))
        # the spaces inside this one, itself included
        below = [cU for mU, cU in done if not mU & ~mask]
        for d in degrees:
            g = q // size if S.d == 1 < d else 1
            c = ((d, size) == (S.d, S.H.size)) - sum(
                cd * (g if dU == 1 else 1) for cU in below
                for dU, cd in cU.items() if not d % dU)
            if c:
                coeffs[d] = c
                agg[(d, size)] += c
    return tuple((c, d, h) for (d, h), c in sorted(agg.items()) if c)


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


def reference_incidence(matrix) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The words and rows of an incidence matrix, one bit at a time:
    character j of word x and bit j of row x say whether point x lies in
    block j."""
    words, rows = [], []
    for x in range(matrix.v):
        bits = [blk >> x & 1 for blk in matrix.blocks]
        words.append("".join(str(bit) for bit in bits))
        rows.append(sum(bit << j for j, bit in enumerate(bits)))
    return tuple(words), tuple(rows)


def mask_bits(mask: int, q: int) -> str:
    """The subset as q characters, least significant first: character x
    is ``1`` iff x is in the subset (a mask below 2**q)."""
    return format(mask, f"0{q}b")[::-1]


def reference_bits(matrix) -> str:
    """The blocks' bit strings end to end, one ``mask_bits`` per block."""
    return "".join(mask_bits(blk, matrix.v) for blk in matrix.blocks)


def reference_block_lines(matrix, sep: str) -> list[str]:
    """Each block's elements joined by ``sep``, one element at a time."""
    return [sep.join(str(x) for x in mask_elements(blk))
            for blk in matrix.blocks]


def design_record(params, matrix, code, codewords: tuple[str, ...]) -> dict:
    """JSON-able record of a design and its row code."""
    return {
        "params": {"v": params.v, "b": params.b, "r": params.r,
                   "k": params.k, "lambda": params.lmbda},
        "blocks": [list(mask_elements(blk)) for blk in matrix.blocks],
        "code": {"n": code.n, "d": code.d, "w": code.w, "size": code.size},
        "codewords": list(codewords),
    }


def reference_design_json(params, matrix, code, codewords: tuple[str, ...],
                          **extra) -> str:
    """``json.dumps`` of ``design_record`` and the further top-level keys
    in ``extra``, at the layout that ``designs.design_json`` writes."""
    return json.dumps(design_record(params, matrix, code, codewords) | extra,
                      indent=2, sort_keys=True)


def digits(field, x: int) -> list[int]:
    """The alpha base-p coordinates of x, least significant first."""
    out = []
    for _ in range(field.alpha):
        x, c = divmod(x, field.p)
        out.append(c)
    return out


def modulus(field) -> tuple[int, ...]:
    """The field's modulus X**alpha + tail as ascending coefficients, read
    back from its arithmetic: X is the code p (0 when alpha = 1, where the
    modulus is X), and X**alpha is -tail."""
    x = field.p if field.alpha > 1 else 0
    return tuple(digits(field, field.neg(field.pow(x, field.alpha)))) + (1,)


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


def reference_span(field, basis) -> tuple[int, ...]:
    """Every F_p-combination of ``basis``, sorted, one vector at a time:
    each element so far plus every multiple of the next vector."""
    out = {0}
    for v in basis:
        steps = [reference_smul(field, c, v) for c in range(field.p)]
        out = {reference_add(field, x, y) for x in out for y in steps}
    return tuple(sorted(out))


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


def class_size(c) -> int:
    """Number of subgroups in the class of a ``StabilizerClass`` c, from
    its parameters alone.  H ranges over the j-dimensional F_r-subspaces
    of F_q, r = p**(o_d(p)*i), whose stabilizing subfield is exactly F_r;
    F_q has dimension n = alpha/(o_d(p)*i) over F_r, and Moebius inversion
    over the subfields F_{r**t} counts them as the sum over t | n with
    t | j of mu(t)*[n/t choose j/t]_{r**t}.  When d > 1 the multiplier's
    fixed point may lie in any of the q/p**beta cosets of H."""
    r = c.p ** (c.odp * c.i)
    n = c.alpha // (c.odp * c.i)
    spaces = sum(int(mobius(t)) * q_binomial(n // t, c.j // t, r ** t)
                 for t in range(1, n + 1) if n % t == 0 and c.j % t == 0)
    return spaces * (c.q // c.h_size if c.d > 1 else 1)


def overgroup_terms(p: int, alpha: int, d: int, i: int, j: int,
                    odp: int) -> tuple[tuple[int, int, int], ...]:
    """Every term of the closed form of the class (d, i, j), as
    ``counting.StabilizerClass._walk`` documents it: all subsets P of the
    primes of (|H'| - 1)/d, all dimensions l, each weight one
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


def build_table(p: int, alpha: int,
                k_max: int | None = None) -> list[tuple[int, ...]]:
    """The rows of ``counting.class_counts``, one (k, d, odp, i, j, beta,
    N) in ``CSV_COLUMNS`` order per slot: k outermost, then the classes
    in ``classes`` order, the order in which the CLI writes them."""
    table = class_counts(p, alpha, k_max)
    k_max = p ** alpha // 2 if k_max is None else k_max
    by_k: list[list[tuple[int, ...]]] = [[] for _ in range(k_max + 1)]
    for c, counts in table:
        d, odp, i, j, beta = c.d, c.odp, c.i, c.j, c.beta
        for k, n in counts.items():
            by_k[k].append((k, d, odp, i, j, beta, n))
    return [row for rows in by_k for row in rows]


def table_by_terms(p: int, alpha: int,
                   k_max: int | None = None) -> list[tuple[int, ...]]:
    """The rows of ``build_table``, each evaluated on its own:
    one ``evaluate_terms`` call per row, so one ``s_qk`` per term, every
    binomial built from scratch."""
    shapes = [(c, c.terms()) for c in classes(p, alpha)]
    q = p ** alpha
    if k_max is None:
        k_max = q // 2
    return [
        (k, c.d, c.odp, c.i, c.j, c.beta, evaluate_terms(q, k, terms))
        for k in range(k_max + 1)
        for c, terms in shapes
        if k % (c.d * c.h_size) in (0, c.h_size)
    ]


def csv_writer_rows(columns, rows) -> str:
    """``columns`` and then ``rows``, written by ``csv.writer``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return out.getvalue()


def json_rows(columns, rows) -> str:
    """``rows`` as a list of objects keyed by ``columns``, written by
    ``json.dumps`` at indent 2, and a newline."""
    return json.dumps([dict(zip(columns, row)) for row in rows],
                      indent=2) + "\n"


def text_rows(columns, rows) -> str:
    """One line of space-separated ``column=value`` pairs per row."""
    return "".join(" ".join(f"{c}={v}" for c, v in zip(columns, row)) + "\n"
                   for row in rows)


def assert_lines(module) -> list[int]:
    """Line numbers of the assert statements and the ``__debug__`` reads
    in the whole of ``module``, both of which ``python -O`` changes."""
    tree = ast.parse(inspect.getsource(module))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
            or isinstance(node, ast.Name) and node.id == "__debug__"]


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
