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
digit mod p (no Zech logarithms, no int rows).
"""

from collections import Counter

from aglstab.agl import immediate_supergroups, join_pair, subgroup_from_pairs


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


def reference_add(field, x: int, y: int) -> int:
    """x + y as the digit-wise sum mod p of the coordinates."""
    p = field.p
    return field.element([(a + b) % p
                          for a, b in zip(digits(field, x), digits(field, y))])


def reference_neg(field, x: int) -> int:
    """-x as the digit-wise negation mod p of the coordinates."""
    return field.element([(-c) % field.p for c in digits(field, x)])


def reference_smul(field, c: int, x: int) -> int:
    """c*x for an integer c, scaling every coordinate mod p."""
    return field.element([(c * cf) % field.p for cf in digits(field, x)])


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
    return tuple(field.element(row) for row in rows[:r]), tuple(pivots)


def reference_reduce(field, basis, pivots, x: int) -> int:
    """x reduced against an echelon basis, clearing each pivot column of
    the coefficient list in turn."""
    p = field.p
    cf = digits(field, x)
    for v, piv in zip(basis, pivots):
        c = cf[piv]
        if c:
            cf = [(a - c * b) % p for a, b in zip(cf, digits(field, v))]
    return field.element(cf)
