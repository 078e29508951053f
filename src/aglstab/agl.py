"""The group of affine maps x -> a*x + b on F_q and its subgroup lattice.

A map is the int pair (a, b) with a != 0, and a subset is an int mask
(see :mod:`aglstab.oracle`); the module keeps no map objects.  Every
subgroup is ``S(a, b, H)``: the group generated by one map (a, b)
together with the translations by an F_p-subspace H that is closed under
multiplication by F_p(a).  The canonical descriptor fixes a = gamma**((q-1)/d)
for the divisor d = o(a) of q - 1, and reduces b to the least element of
its coset b + H (with b = 0 forced when d = 1).  Two descriptors are equal
iff the subgroups are equal, so lattice walks never need element sets.

Each descriptor keeps ``odp`` = o_d(p) (a lies in F_{p**odp}, and H is a
space over it) and, for d > 1, the ``fixed_point`` c = b/(1 - a).  The
l-th power of (a, b) is (a**l, (1 - a**l)*c), so a map (a', b') lies in S
iff a' is a power of a and b' - (1 - a')*c lies in H (b' in H if a' = 1).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter

from .counting import check_divisor, check_shape, prime_set
from .ffield import (Field, QuotientSpace, Subspace, full_subspace,
                     lines_of_quotient, span, zero_subspace)


class Subgroup:
    """Canonical descriptor of <(gamma**((q-1)/d), b)> x| H-translations.

    Invariants: d divides q - 1; H is closed under F_{p**odp}; b is the
    least element of its coset b + H, and 0 when d = 1.  The group order
    is d * |H|.  ``fixed_point`` (d > 1; else None) solves a*c + b = c.
    """

    def __init__(self, field: Field, d: int, b: int, translations: Subspace):
        if translations.field != field:
            raise ValueError("translation subspace lives in a different field")
        odp = check_divisor(field.p, field.alpha, d)
        if translations.stabilizing_degree() % odp:
            raise ValueError(
                f"translations must be closed under F_{{p^{odp}}} for d = {d}")
        if not 0 <= b < field.q:
            raise ValueError(f"b must be a field element, got {b}")
        b = translations.reduce(b)
        if d == 1 and b != 0:
            raise ValueError("a pure translation group must have b = 0")
        self.field = field
        self.d = d
        self.odp = odp
        self.b = b
        self.H = translations
        self.a = field.pow(field.gamma, (field.q - 1) // d)
        self.fixed_point = field.div(b, field.sub(1, self.a)) if d > 1 else None
        self.order = d * translations.size
        self._orbits: tuple[tuple[int, ...], ...] | None = None
        #: N(S, k) for k = 0..q, filled by ``oracle.bruteforce_counts``
        self._bruteforce_counts: tuple[int, ...] | None = None

    # -- basic queries -------------------------------------------------------

    def hprime(self):
        """The largest subfield acting on the translation subspace."""
        return self.field.subfield(self.H.stabilizing_degree())

    def shape(self) -> tuple[int, int, int]:
        """The class triple (d, i, j) of this subgroup."""
        i = self.H.stabilizing_degree() // self.odp
        beta = self.H.dim
        j, rem = divmod(beta, self.odp * i)
        if rem:
            raise RuntimeError(f"dim H = {beta} is not a multiple of "
                               f"o_d(p)*i = {self.odp * i}")
        return (self.d, i, j)

    def contains_map(self, a: int, b: int) -> bool:
        """True iff the map x -> a*x + b lies in this subgroup."""
        field = self.field
        if a == 1:
            return self.H.contains(b)
        if field.log(a) % ((field.q - 1) // self.d):
            return False
        return self.H.contains(
            field.sub(b, field.mul(field.sub(1, a), self.fixed_point)))

    def contains(self, other: "Subgroup") -> bool:
        """Subgroup containment, decided on descriptors."""
        return (other.H.issubspace_of(self.H)
                and self.contains_map(other.a, other.b))

    # -- orbits ---------------------------------------------------------------

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """The orbits on the field elements, each sorted, listed by least
        element x, where its walk starts: each step adds the coset y + H
        and moves y to a*y + b, until y falls back into the orbit."""
        if self._orbits is None:
            field, a, b = self.field, self.a, self.b
            h_els = self.H.elements()
            orbs = []
            seen: set[int] = set()
            for x in range(field.q):
                if x in seen:
                    continue
                orbit: set[int] = set()
                y = x
                while y not in orbit:
                    orbit.update(field.add(y, h) for h in h_els)
                    y = field.add(field.mul(a, y), b)
                if len(orbit) not in (self.H.size, self.order):
                    raise RuntimeError(f"an orbit of size {len(orbit)} "
                                       f"in a group of order {self.order}")
                seen |= orbit
                orbs.append(tuple(sorted(orbit)))
            sizes = Counter(len(o) for o in orbs)
            if ((self.d > 1 and sizes[self.H.size] != 1)
                    or sum(n * s for s, n in sizes.items()) != field.q):
                raise RuntimeError(f"orbit sizes {dict(sizes)} do not cover "
                                   f"F_{field.q} with a fixed coset of H")
            self._orbits = tuple(orbs)
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
        K = field.subfield(S.odp)
        for line in lines_of_quotient(quot, K):
            out.append(Subgroup(field, S.d, 0, line))
    return out


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
    multiplicative part, the difference of their fixed points; d = lcm(d1,
    d2), H is a space over F_{p**o_d(p)}, o_d(p) = lcm(o_d1(p), o_d2(p)),
    and b = (1 - a)*c for either fixed point c, reduced mod H.
    """
    field = T1.field
    if field != T2.field:
        raise ValueError("cannot join subgroups over different fields")
    d = math.lcm(T1.d, T2.d)
    K = field.subfield(math.lcm(T1.odp, T2.odp))
    vectors = list(T1.H.basis) + list(T2.H.basis)
    points = [T.fixed_point for T in (T1, T2) if T.d > 1]
    if len(points) == 2:
        vectors.append(field.sub(points[0], points[1]))
    Hnew = span(vectors, K)
    if d == 1:
        return Subgroup(field, 1, 0, Hnew)
    a_new = field.pow(field.gamma, (field.q - 1) // d)
    b_candidates = {Hnew.reduce(field.mul(field.sub(1, a_new), c))
                    for c in points}
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
    deterministic span order is returned, so repeated runs agree.  The
    shape is checked by ``counting.check_shape``.
    """
    rdeg = check_shape(field.p, field.alpha, d, i, j) * i
    K = field.subfield(rdeg)
    for combo in itertools.combinations(range(1, field.q), j):
        H = span(combo, K)
        if H.dim == rdeg * j and H.stabilizing_degree() == rdeg:
            return Subgroup(field, d, 0, H)
    raise AssertionError("no subspace with the requested class exists")
