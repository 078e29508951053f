"""The group of affine maps x -> a*x + b on F_q and its subgroup lattice.

A map is the int pair (a, b) with a != 0, and a subset is an int mask
(see :mod:`aglstab.ffield`); the module keeps no map objects.  Every
subgroup is ``S(a, b, H)``: the group generated by one map (a, b)
together with the translations by an F_p-subspace H that is closed under
multiplication by F_p(a).  The canonical descriptor fixes a = gamma**((q-1)/d)
for the divisor d = o(a) of q - 1, and reduces b to the least element of
its coset b + H (with b = 0 forced when d = 1).  Two descriptors are equal
iff the subgroups are equal, so lattice walks never need element sets.

Each descriptor keeps ``odp`` = o_d(p) (a lies in F_{p**odp}, and H is a
space over it) and, for d > 1, the ``fixed_point`` c = b/(1 - a).
Containment needs no test of its own: T contains S iff the group that
the two generate, ``join_pair(T, S)``, is T.  A ``JoinTable`` lets many
joins share the spans, coset leaders and descriptors they build.
"""

from __future__ import annotations

import functools
import math
from collections import Counter

from .counting import check_divisor, check_shape, prime_set
from .ffield import Field, Subspace, lines_of_quotient, span, zero_subspace


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
        self._hash = hash((field, d, b, translations.basis))
        self._orbits: tuple[tuple[int, ...], ...] | None = None
        #: N(S, k) for k = 0..q, filled by ``oracle.bruteforce_counts``
        self._bruteforce_counts: tuple[int, ...] | None = None

    # -- basic queries -------------------------------------------------------

    def shape(self) -> tuple[int, int, int]:
        """The class triple (d, i, j) of this subgroup."""
        i = self.H.stabilizing_degree() // self.odp
        beta = self.H.dim
        j, rem = divmod(beta, self.odp * i)
        if rem:
            raise RuntimeError(f"dim H = {beta} is not a multiple of "
                               f"o_d(p)*i = {self.odp * i}")
        return (self.d, i, j)

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
        return self._hash

    def __repr__(self) -> str:
        return f"Subgroup(q={self.field.q}, d={self.d}, b={self.b}, |H|={self.H.size})"


# ---------------------------------------------------------------------------
# constructors


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

    Requires b = 0 (conjugate first).  The multiplicative part grows by
    a prime e | (|H'| - 1)/d, or H grows by a line of F_q/H over
    F_{p**o_d(p)} (F_p when d = 1).  A pure translation group (d = 1)
    takes its new map of order e about each coset of H; for d > 1 the
    fixed point stays at 0.
    """
    if S.b != 0:
        raise ValueError("supergroup enumeration requires b = 0; conjugate first")
    field, d, H = S.field, S.d, S.H
    h_prime = field.p ** H.stabilizing_degree()
    points = H.coset_leaders() if d == 1 else (0,)
    out = [Subgroup(field, d * e, b, H)
           for e in prime_set((h_prime - 1) // d) for b in points]
    out.extend(Subgroup(field, d, 0, line)
               for line in lines_of_quotient(H, S.odp))
    return out


# kept for perfbench's wrap list (spans.FUNCTIONS) until ROADMAP item 7
def join(S: Subgroup, selection) -> Subgroup:
    """The subgroup generated by S and a selection of proper supergroups,
    one ``join_pair`` per selected group.  T is a supergroup of S iff
    ``join_pair(T, S)`` is T."""
    sel = list(selection)
    for T in sel:
        if T == S or join_pair(T, S) != T:
            raise ValueError(f"{T!r} is not a proper supergroup of {S!r}")
    return functools.reduce(join_pair, sel, S)


class JoinTable:
    """The parts of the joins made for one lattice fold, each built once
    per distinct input: spans keyed by (basis, basis, fixed-point
    difference, degree), coset leaders by (basis of H, element), and
    subgroups by (d, b, basis of H).  The fold creates one and drops it
    when it returns, so nothing outlives the call."""

    __slots__ = ("spans", "leaders", "subgroups")

    def __init__(self):
        self.spans: dict[tuple, Subspace] = {}
        self.leaders: dict[tuple[tuple[int, ...], int], int] = {}
        self.subgroups: dict[tuple[int, int, tuple[int, ...]], Subgroup] = {}


def join_pair(T1: Subgroup, T2: Subgroup,
              table: JoinTable | None = None) -> Subgroup:
    """The subgroup generated by two arbitrary subgroups, on descriptors.

    The translation part absorbs both H's and, when both groups have a
    multiplicative part, the difference of their fixed points; d = lcm(d1,
    d2), H is a space over F_{p**o_d(p)}, o_d(p) = lcm(o_d1(p), o_d2(p)),
    and b = (1 - a)*c for either fixed point c, reduced mod H; both
    candidates are computed and must agree.  A ``table`` shared across
    calls builds each span, coset leader and ``Subgroup`` once per
    distinct input; the first build of a subgroup runs all of its checks,
    and a repeat returns that same object.  Without one, every part is
    built afresh.
    """
    field = T1.field
    if field != T2.field:
        raise ValueError("cannot join subgroups over different fields")
    if table is None:
        table = JoinTable()
    d = math.lcm(T1.d, T2.d)
    odp = math.lcm(T1.odp, T2.odp)
    points = [T.fixed_point for T in (T1, T2) if T.d > 1]
    diff = field.sub(points[0], points[1]) if len(points) == 2 else None
    key = (T1.H.basis, T2.H.basis, diff, odp)
    Hnew = table.spans.get(key)
    if Hnew is None:
        vectors = T1.H.basis + T2.H.basis + (() if diff is None else (diff,))
        Hnew = table.spans[key] = span(field, vectors, odp)
    if d == 1:
        b = 0
    else:
        a_new = (T1.a if d == T1.d else T2.a if d == T2.d
                 else field.pow(field.gamma, (field.q - 1) // d))
        one_minus_a = field.sub(1, a_new)
        b_candidates = set()
        for c in points:
            x = field.mul(one_minus_a, c)
            leader = table.leaders.get((Hnew.basis, x))
            if leader is None:
                leader = table.leaders[(Hnew.basis, x)] = Hnew.reduce(x)
            b_candidates.add(leader)
        if len(b_candidates) != 1:
            raise RuntimeError("join must not depend on the chosen point, got "
                               f"b in {sorted(b_candidates)}")
        b = b_candidates.pop()
    J = table.subgroups.get((d, b, Hnew.basis))
    if J is None:
        J = table.subgroups[(d, b, Hnew.basis)] = Subgroup(field, d, b, Hnew)
    return J


# ---------------------------------------------------------------------------
# concrete class representatives


def class_representative(field: Field, d: int, i: int, j: int) -> Subgroup:
    """A concrete subgroup S(gamma**((q-1)/d), 0, H) of class (d, i, j).

    H is an F_r-subspace of dimension j over r = p**(o_d(p)*i) whose
    stabilizing subfield is exactly F_r: the span of the first j-combination
    of nonzero elements, in lexicographic order, that is independent over
    F_r and spans such a space.  The search runs depth first and skips
    every x already in the span of its prefix, since every extension of
    a dependent prefix is dependent too; the first hit is the same.  The
    shape is checked by ``counting.check_shape``.
    """
    rdeg = check_shape(field.p, field.alpha, d, i, j) * i

    def first(W: Subspace, start: int, depth: int) -> Subspace | None:
        if depth == j:
            return W if W.stabilizing_degree() == rdeg else None
        for x in range(start, field.q):
            if not W.contains(x):
                H = first(span(field, W.basis + (x,), rdeg), x + 1, depth + 1)
                if H is not None:
                    return H
        return None

    H = first(zero_subspace(field), 1, 0)
    if H is None:
        raise RuntimeError("no subspace with the requested class exists")
    return Subgroup(field, d, 0, H)
