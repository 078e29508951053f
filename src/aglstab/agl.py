"""The group of affine maps x -> a*x + b on F_q and its subgroup lattice.

Every subgroup is ``S(a, b, H)``: the group generated by one map (a, b)
together with the translations by an F_p-subspace H that is closed under
multiplication by F_p(a).  The canonical descriptor fixes a = gamma**((q-1)/d)
for the divisor d = o(a) of q - 1, and reduces b to the least element of
its coset b + H (with b = 0 forced when d = 1).  Two descriptors are equal
iff the subgroups are equal, so lattice walks never need element sets.

Composition, inverses and powers follow the 2x2 upper-triangular matrix
model: (a1, b1) o (a2, b2) = (a1*a2, a1*b2 + b1), (a, b)**l =
(a**l, (a**l - 1)/(a - 1) * b) with the fraction read as l when a = 1.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass

from .counting import mult_order, prime_set, s_qk
from .ffield import (Field, QuotientSpace, Subspace, coset_min,
                     full_subspace, lines_of_quotient, span, zero_subspace)


class AffineMap:
    """The map x -> a*x + b on a fixed field, a != 0."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field: Field, a: int, b: int):
        if a == 0:
            raise ValueError("the multiplier a must be nonzero")
        self.field = field
        self.a = a
        self.b = b

    @classmethod
    def identity(cls, field: Field) -> "AffineMap":
        return cls(field, 1, 0)

    def __call__(self, x: int) -> int:
        f = self.field
        return f.add(f.mul(self.a, x), self.b)

    def __mul__(self, other: "AffineMap") -> "AffineMap":
        if self.field != other.field:
            raise ValueError("cannot compose maps over different fields")
        f = self.field
        return AffineMap(f, f.mul(self.a, other.a),
                         f.add(f.mul(self.a, other.b), self.b))

    def inverse(self) -> "AffineMap":
        f = self.field
        ai = f.inv(self.a)
        return AffineMap(f, ai, f.neg(f.mul(ai, self.b)))

    def __pow__(self, l: int) -> "AffineMap":
        f = self.field
        if self.a == 1:
            return AffineMap(f, 1, f.smul(l, self.b))
        al = f.pow(self.a, l)
        coeff = f.div(f.sub(al, 1), f.sub(self.a, 1))
        return AffineMap(f, al, f.mul(coeff, self.b))

    @property
    def is_identity(self) -> bool:
        return self.a == 1 and self.b == 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, AffineMap) and self.field == other.field
                and self.a == other.a and self.b == other.b)

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __repr__(self) -> str:
        return f"AffineMap(x -> {self.a}*x + {self.b})"


@dataclass(frozen=True)
class OrbitPartition:
    """The orbits of a subgroup on the field elements, each sorted, listed
    by least element."""

    orbits: tuple[tuple[int, ...], ...]

    @property
    def sizes(self) -> Counter:
        return Counter(len(o) for o in self.orbits)


class Subgroup:
    """Canonical descriptor of <(gamma**((q-1)/d), b)> x| H-translations.

    Invariants: d divides q - 1; H is closed under F_{p**o_d(p)}; b is the
    least element of its coset b + H, and 0 when d = 1.  The group order
    is d * |H|.
    """

    def __init__(self, field: Field, d: int, b: int, translations: Subspace):
        if translations.field != field:
            raise ValueError("translation subspace lives in a different field")
        if d < 1 or (field.q - 1) % d:
            raise ValueError(f"d must divide q - 1 = {field.q - 1}, got {d}")
        odp = mult_order(field.p, d)
        if translations.stabilizing_degree() % odp:
            raise ValueError(
                f"translations must be closed under F_{{p^{odp}}} for d = {d}")
        if not 0 <= b < field.q:
            raise ValueError(f"b must be a field element, got {b}")
        b = coset_min(b, translations)
        if d == 1 and b != 0:
            raise ValueError("a pure translation group must have b = 0")
        self.field = field
        self.d = d
        self.b = b
        self.H = translations
        self.a = field.pow(field.gamma, (field.q - 1) // d)
        self.order = d * translations.size
        self._pairs: frozenset[tuple[int, int]] | None = None
        self._orbits: OrbitPartition | None = None

    # -- basic queries -------------------------------------------------------

    @property
    def generator(self) -> AffineMap:
        return AffineMap(self.field, self.a, self.b)

    def hprime(self):
        """The largest subfield acting on the translation subspace."""
        return self.field.subfield(self.H.stabilizing_degree())

    def shape(self) -> tuple[int, int, int]:
        """The class triple (d, i, j) of this subgroup."""
        odp = mult_order(self.field.p, self.d)
        i = self.H.stabilizing_degree() // odp
        beta = self.H.dim
        j, rem = divmod(beta, odp * i)
        if rem:
            raise RuntimeError(f"dim H = {beta} is not a multiple of "
                               f"o_d(p)*i = {odp * i}")
        return (self.d, i, j)

    def elements(self) -> tuple[AffineMap, ...]:
        field = self.field
        gens = [self.generator ** l for l in range(self.d)]
        out = [AffineMap(field, g.a, field.add(g.b, h))
               for g in gens for h in self.H.elements()]
        distinct = len({(m.a, m.b) for m in out})
        if distinct != self.order:
            raise RuntimeError(f"{distinct} distinct maps in a group "
                               f"of order {self.order}")
        return tuple(out)

    def element_pairs(self) -> frozenset[tuple[int, int]]:
        if self._pairs is None:
            self._pairs = frozenset((m.a, m.b) for m in self.elements())
        return self._pairs

    def contains_map(self, m: AffineMap) -> bool:
        field = self.field
        if m.a == 1:
            return self.H.contains(m.b)
        if self.d == 1:
            return False
        step = (field.q - 1) // self.d
        if field.log(m.a) % step:
            return False
        factor = field.div(field.sub(m.a, 1), field.sub(self.a, 1))
        return self.H.contains(field.sub(m.b, field.mul(factor, self.b)))

    def contains(self, other: "Subgroup") -> bool:
        """Subgroup containment, decided on descriptors."""
        return (other.H.issubspace_of(self.H)
                and self.contains_map(other.generator))

    # -- orbits ---------------------------------------------------------------

    def orbits(self) -> OrbitPartition:
        if self._orbits is None:
            field = self.field
            if self.d == 1:
                quot = QuotientSpace(field, self.H)
                orbs = [tuple(sorted(field.add(r, h) for h in self.H.elements()))
                        for r in quot.transversal]
            else:
                h_els = self.H.elements()
                center = field.div(field.neg(self.b), field.sub(self.a, 1))
                orbs = [tuple(sorted(field.add(center, h) for h in h_els))]
                seen = set(orbs[0])
                g = self.generator
                for x in range(field.q):
                    if x in seen:
                        continue
                    orbit = set()
                    y = x
                    for _ in range(self.d):
                        orbit.update(field.add(y, h) for h in h_els)
                        y = g(y)
                    if len(orbit) != self.order:
                        raise RuntimeError(f"an orbit of size {len(orbit)} "
                                           f"in a group of order {self.order}")
                    seen.update(orbit)
                    orbs.append(tuple(sorted(orbit)))
                orbs.sort(key=lambda o: o[0])
            part = OrbitPartition(tuple(orbs))
            sizes = part.sizes
            if self.d > 1 and (sizes[self.H.size] < 1
                               or sum(n * s for s, n in sizes.items()) != field.q):
                raise RuntimeError(f"orbit sizes {dict(sizes)} do not cover "
                                   f"F_{field.q} with a fixed coset of H")
            self._orbits = part
        return self._orbits

    # -- identity --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and self.field == other.field
                and self.d == other.d and self.b == other.b
                and self.H == other.H)

    def __hash__(self) -> int:
        return hash((self.field, self.d, self.b, self.H.basis))

    def __repr__(self) -> str:
        return f"Subgroup(q={self.field.q}, d={self.d}, b={self.b}, |H|={self.H.size})"


# ---------------------------------------------------------------------------
# constructors


def trivial_subgroup(field: Field) -> Subgroup:
    return Subgroup(field, 1, 0, zero_subspace(field))


def full_group(field: Field) -> Subgroup:
    return Subgroup(field, field.q - 1, 0, full_subspace(field))


def subgroup_from_pairs(field: Field, pairs) -> Subgroup:
    """Canonical descriptor for a subgroup given as a closed set of (a, b)."""
    pairs = set(pairs)
    n = len(pairs)
    h_els = sorted(b for a, b in pairs if a == 1)
    H = Subspace(field, h_els)
    if H.size != len(h_els):
        raise ValueError(f"the {len(h_els)} translations do not form a subspace")
    d, rem = divmod(n, len(h_els))
    if rem or (field.q - 1) % d:
        raise ValueError(f"{n} maps over {len(h_els)} translations do not "
                         f"form a subgroup")
    if d == 1:
        return Subgroup(field, 1, 0, H)
    a0 = field.pow(field.gamma, (field.q - 1) // d)
    b0 = min(b for a, b in pairs if a == a0)
    return Subgroup(field, d, b0, H)


def conjugate_to_b_zero(S: Subgroup) -> tuple[Subgroup, AffineMap]:
    """Translation conjugate of S with b = 0, plus the conjugating map.

    For d > 1 the conjugator is the translation by c = b/(a - 1); a pure
    translation group already has b = 0.
    """
    field = S.field
    if S.b == 0:
        return S, AffineMap.identity(field)
    c = field.div(S.b, field.sub(S.a, 1))
    return Subgroup(field, S.d, 0, S.H), AffineMap(field, 1, c)


# ---------------------------------------------------------------------------
# lattice steps


def immediate_supergroups(S: Subgroup) -> list[Subgroup]:
    """The minimal elements above S in the subgroup lattice.

    Requires b = 0 (conjugate first).  For a pure translation group with
    translations H these are the groups generated by one extra map of
    prime order e | |H'| - 1 over each coset of H, plus the translation
    groups of the lines of F_q/H over F_p; for d > 1 the multiplicative
    part grows by a prime e | (|H'| - 1)/d, or H grows by a line of
    F_q/H over F_{p**o_d(p)}.
    """
    if S.b != 0:
        raise ValueError("supergroup enumeration requires b = 0; conjugate first")
    field = S.field
    hprime = S.hprime()
    out: list[Subgroup] = []
    quot = QuotientSpace(field, S.H)
    if S.d == 1:
        for e in prime_set(hprime.size - 1):
            out.extend(Subgroup(field, e, b, S.H) for b in quot.transversal)
        for line in lines_of_quotient(quot, field.prime_subfield):
            out.append(Subgroup(field, 1, 0, line))
    else:
        for e in prime_set((hprime.size - 1) // S.d):
            out.append(Subgroup(field, S.d * e, 0, S.H))
        K = field.subfield(mult_order(field.p, S.d))
        for line in lines_of_quotient(quot, K):
            out.append(Subgroup(field, S.d, 0, line))
    return out


def fixed_subset_count(S: Subgroup, k: int) -> int:
    """|S'|: the number of k-subsets fixed setwise by every element of S,
    i.e. unions of S-orbits of total size k."""
    if not 0 <= k <= S.field.q:
        raise ValueError(f"k must lie in [0, {S.field.q}], got {k}")
    return s_qk(S.field.q, k, S.d, S.H.size)


def join(S: Subgroup, selection) -> Subgroup:
    """The subgroup generated by S and a selection of proper supergroups,
    one ``join_pair`` per selected group."""
    sel = list(selection)
    for T in sel:
        if not (T.contains(S) and T != S):
            raise ValueError(f"{T!r} is not a proper supergroup of {S!r}")
    return functools.reduce(join_pair, sel, S)


def join_pair(T1: Subgroup, T2: Subgroup) -> Subgroup:
    """The subgroup generated by two arbitrary subgroups, on descriptors.

    The translation part absorbs both H's and, when both groups have a
    multiplicative part, the difference of their fixed points
    b/(a - 1); the multiplicative parts combine to order lcm(d1, d2).
    """
    field = T1.field
    if field != T2.field:
        raise ValueError("cannot join subgroups over different fields")
    d = math.lcm(T1.d, T2.d)
    K = field.subfield(mult_order(field.p, d))
    vectors = list(T1.H.basis) + list(T2.H.basis)
    points = [field.div(T.b, field.sub(T.a, 1)) for T in (T1, T2) if T.d > 1]
    if len(points) == 2:
        vectors.append(field.sub(points[0], points[1]))
    Hnew = span(vectors, K)
    if d == 1:
        return Subgroup(field, 1, 0, Hnew)
    a_new = field.pow(field.gamma, (field.q - 1) // d)
    if not points:
        return Subgroup(field, d, 0, Hnew)
    b_candidates = {coset_min(field.mul(field.sub(a_new, 1), u), Hnew)
                    for u in points}
    if len(b_candidates) != 1:
        raise RuntimeError("join must not depend on the chosen point, got "
                           f"b in {sorted(b_candidates)}")
    return Subgroup(field, d, b_candidates.pop(), Hnew)


# ---------------------------------------------------------------------------
# concrete class representatives


def class_representative(field: Field, d: int, i: int, j: int) -> Subgroup:
    """A concrete subgroup S(gamma**((q-1)/d), 0, H) of class (d, i, j).

    H is an F_r-subspace of dimension j over r = p**(o_d(p)*i) whose
    stabilizing subfield is exactly F_r; the first such space in the
    deterministic span order is returned, so repeated runs agree.
    """
    p, alpha, q = field.p, field.alpha, field.q
    if d < 1 or (q - 1) % d:
        raise ValueError(f"d must divide q - 1 = {q - 1}, got {d}")
    odp = mult_order(p, d)
    top = alpha // odp
    if i < 1 or alpha % (odp * i):
        raise ValueError(f"i must divide alpha/o_d(p) = {top}, got {i}")
    rdeg = odp * i
    n = alpha // rdeg
    if n == 1:
        if j not in (0, 1):
            raise ValueError(f"j must be 0 or 1 when i = alpha/o_d(p), got {j}")
        H = zero_subspace(field) if j == 0 else full_subspace(field)
        return Subgroup(field, d, 0, H)
    if not 0 < j < n:
        raise ValueError(f"j must satisfy 0 < j < {n}, got {j}")
    K = field.subfield(rdeg)
    for combo in itertools.combinations(range(1, q), j):
        H = span(combo, K)
        if H.dim == rdeg * j and H.stabilizing_degree() == rdeg:
            return Subgroup(field, d, 0, H)
    raise AssertionError("no subspace with the requested class exists")
