"""Exact arithmetic in F_{p^alpha} with subspace and quotient machinery.

Field elements are encoded as integers in [0, q): the element with
polynomial-basis coordinates (c_0, ..., c_{alpha-1}) relative to a fixed
monic irreducible modulus is sum(c_i * p**i).  Every canonical choice in
this module -- the modulus, the multiplicative generator, subspace bases
and coset representatives -- is minimal in that integer order, so
independent runs produce identical output byte for byte.

Multiplication is table-backed (discrete exp/log over the generator),
which caps usable fields at q <= 2**16; the closed-form counting in
:mod:`aglstab.counting` needs no field object and has no such cap.
"""

from __future__ import annotations

import math
from functools import cached_property

from sympy import divisors, isprime

from .counting import prime_set

#: largest field backed by exp/log tables
MAX_Q = 1 << 16


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient lists, ascending degree, trimmed)

def _ptrim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmod(a: list[int], f: list[int], p: int) -> list[int]:
    a = a[:]
    df = len(f) - 1
    inv_lead = pow(f[-1], -1, p)
    while len(a) - 1 >= df and a:
        shift = len(a) - 1 - df
        factor = (a[-1] * inv_lead) % p
        for t, cf in enumerate(f):
            a[shift + t] = (a[shift + t] - factor * cf) % p
        _ptrim(a)
    return a


def _pmulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for s, ca in enumerate(a):
        if ca:
            for t, cb in enumerate(b):
                out[s + t] = (out[s + t] + ca * cb) % p
    return _pmod(out, f, p)


def _ppowmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = _pmod(a[:], f, p)
    while e:
        if e & 1:
            result = _pmulmod(result, base, f, p)
        base = _pmulmod(base, base, f, p)
        e >>= 1
    return result


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = a[:], b[:]
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _is_irreducible(f: list[int], p: int) -> bool:
    """Rabin test: f (monic, degree n >= 1) is irreducible over F_p iff
    x**(p**n) == x mod f and gcd(x**(p**(n/e)) - x, f) = 1 for primes e | n."""
    n = len(f) - 1
    x = [0, 1]
    xq = _ppowmod(x, p ** n, f, p)
    diff = xq[:] + [0] * (2 - len(xq))
    diff[1] = (diff[1] - 1) % p
    if _ptrim(diff):
        return False
    for e in prime_set(n):
        xm = _ppowmod(x, p ** (n // e), f, p)
        diff = xm[:] + [0] * (2 - len(xm))
        diff[1] = (diff[1] - 1) % p
        g = _pgcd(f, _ptrim(diff), p)
        if len(g) - 1 > 0:
            return False
    return True


def _smallest_irreducible(p: int, alpha: int) -> tuple[int, ...]:
    if alpha == 1:
        return (0, 1)
    for tail in range(p ** alpha):
        coeffs, t = [], tail
        for _ in range(alpha):
            t, c = divmod(t, p)
            coeffs.append(c)
        poly = coeffs + [1]
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------


class Field:
    """The finite field with p**alpha elements.

    The modulus is the first monic irreducible of degree alpha in the
    canonical integer order, and ``gamma`` is the first element of
    multiplicative order q - 1, so a (p, alpha) pair determines the
    field representation completely.
    """

    def __init__(self, p: int, alpha: int):
        if not isprime(p):
            raise ValueError(f"p must be prime, got {p}")
        if alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {alpha}")
        q = p ** alpha
        if q > MAX_Q:
            raise ValueError(
                f"q = {q} exceeds the table-backed arithmetic cap {MAX_Q}")
        self.p = p
        self.alpha = alpha
        self.q = q
        self.modulus = _smallest_irreducible(p, alpha)
        self._pows = tuple(p ** t for t in range(alpha))
        self._coeffs = tuple(self._digits(x) for x in range(q))
        self.gamma = self._find_generator()
        self._exp, self._log = self._build_tables()
        self._subfields: dict[int, Subfield] = {}

    # -- construction internals --------------------------------------------

    def _digits(self, x: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.alpha):
            x, c = divmod(x, self.p)
            out.append(c)
        return tuple(out)

    def _mul_raw(self, x: int, y: int) -> int:
        prod = _pmulmod(list(self._coeffs[x]), list(self._coeffs[y]),
                        list(self.modulus), self.p)
        return sum(c * w for c, w in zip(prod, self._pows))

    def _pow_raw(self, x: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = self._mul_raw(result, x)
            x = self._mul_raw(x, x)
            e >>= 1
        return result

    def _find_generator(self) -> int:
        n = self.q - 1
        primes = prime_set(n) if n > 1 else ()
        for x in range(1, self.q):
            if all(self._pow_raw(x, n // e) != 1 for e in primes):
                return x
        raise AssertionError("no generator found")  # unreachable

    def _build_tables(self) -> tuple[list[int], list[int]]:
        exp = [1]
        for _ in range(self.q - 2):
            exp.append(self._mul_raw(exp[-1], self.gamma))
        assert self._mul_raw(exp[-1], self.gamma) == 1
        log = [-1] * self.q
        for t, val in enumerate(exp):
            log[val] = t
        return exp, log

    # -- arithmetic ---------------------------------------------------------

    def add(self, x: int, y: int) -> int:
        if self.p == 2:
            return x ^ y
        if self.alpha == 1:
            return (x + y) % self.p
        cx, cy = self._coeffs[x], self._coeffs[y]
        return sum(((a + b) % self.p) * w for a, b, w in zip(cx, cy, self._pows))

    def neg(self, x: int) -> int:
        if self.p == 2:
            return x
        if self.alpha == 1:
            return (-x) % self.p
        return sum(((-c) % self.p) * w for c, w in zip(self._coeffs[x], self._pows))

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self._exp[(self._log[x] + self._log[y]) % (self.q - 1)]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._exp[(-self._log[x]) % (self.q - 1)]

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def pow(self, x: int, e: int) -> int:
        if x == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 has no negative powers")
            return 0
        return self._exp[(self._log[x] * e) % (self.q - 1)]

    def smul(self, c: int, x: int) -> int:
        """Integer scalar multiple c*x (c acting through F_p)."""
        c %= self.p
        if self.alpha == 1:
            return (c * x) % self.p
        return sum(((c * cf) % self.p) * w
                   for cf, w in zip(self._coeffs[x], self._pows))

    def log(self, x: int) -> int:
        """Discrete logarithm base gamma; defined for x != 0."""
        if x == 0:
            raise ValueError("0 has no discrete logarithm")
        return self._log[x]

    def element_order(self, x: int) -> int:
        if x == 0:
            raise ValueError("0 has no multiplicative order")
        return (self.q - 1) // math.gcd(self.q - 1, self._log[x])

    # -- structure ----------------------------------------------------------

    def element(self, coeffs) -> int:
        cs = list(coeffs)
        if len(cs) != self.alpha:
            raise ValueError(f"expected {self.alpha} coordinates, got {len(cs)}")
        return sum((c % self.p) * w for c, w in zip(cs, self._pows))

    def coeffs(self, x: int) -> tuple[int, ...]:
        return self._coeffs[x]

    def elements(self) -> range:
        return range(self.q)

    def subfield(self, degree: int) -> "Subfield":
        try:
            return self._subfields[degree]
        except KeyError:
            sf = Subfield(self, degree)
            self._subfields[degree] = sf
            return sf

    @property
    def prime_subfield(self) -> "Subfield":
        return self.subfield(1)

    @cached_property
    def mul_table(self) -> list[list[int]] | None:
        """Full q x q product table; only materialized for q <= 256."""
        if self.q > 256:
            return None
        return [[self.mul(a, x) for x in range(self.q)] for a in range(self.q)]

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and (self.p, self.alpha) == (other.p, other.alpha)

    def __hash__(self) -> int:
        return hash(("Field", self.p, self.alpha))

    def __repr__(self) -> str:
        return f"Field(p={self.p}, alpha={self.alpha})"


def make_field(p: int, alpha: int) -> Field:
    """Construct F_{p**alpha} over the canonical (smallest) modulus."""
    return Field(p, alpha)


def find_generator(field: Field) -> int:
    """The first element, in canonical order, of multiplicative order q - 1."""
    return field.gamma


class Subfield:
    """The unique copy of F_{p**degree} inside an ambient field (degree | alpha)."""

    def __init__(self, field: Field, degree: int):
        if degree < 1 or field.alpha % degree:
            raise ValueError(
                f"subfield degree must divide alpha = {field.alpha}, got {degree}")
        self.field = field
        self.degree = degree
        self.size = field.p ** degree

    @cached_property
    def generator(self) -> int:
        """A primitive element: gamma**((q-1)/(size-1)); equals 1 for F_2."""
        return self.field.pow(self.field.gamma, (self.field.q - 1) // (self.size - 1))

    @cached_property
    def basis(self) -> tuple[int, ...]:
        """F_p-basis (1, g, ..., g**(degree-1)) with g the generator."""
        return tuple(self.field.pow(self.generator, t) for t in range(self.degree))

    @cached_property
    def elements(self) -> tuple[int, ...]:
        els = {0}
        els.update(self.field.pow(self.generator, t) for t in range(self.size - 1))
        assert len(els) == self.size
        return tuple(sorted(els))

    def contains(self, x: int) -> bool:
        if x == 0:
            return True
        return self.field.log(x) % ((self.field.q - 1) // (self.size - 1)) == 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subfield)
                and self.field == other.field and self.degree == other.degree)

    def __hash__(self) -> int:
        return hash(("Subfield", self.field, self.degree))

    def __repr__(self) -> str:
        return f"Subfield(p={self.field.p}, degree={self.degree} in alpha={self.field.alpha})"


# ---------------------------------------------------------------------------


def _echelon(field: Field, vectors) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduced echelon basis (as element indices) and its pivot columns.

    Pivots are placed on the most significant digit first, so reducing an
    element against the basis zeroes every pivot digit and returns the
    least element of its coset in the canonical integer order (any other
    coset member first differs at some pivot digit, where it is larger).
    """
    p, alpha = field.p, field.alpha
    rows = [list(field.coeffs(v)) for v in vectors if v != 0]
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
    basis = tuple(field.element(row) for row in rows[:r])
    return basis, tuple(pivots)


class Subspace:
    """An F_p-subspace of the ambient field, held as a reduced-echelon basis;
    two subspaces are equal iff they are the same set."""

    def __init__(self, field: Field, vectors=()):
        self.field = field
        self.basis, self.pivots = _echelon(field, vectors)
        self.dim = len(self.basis)
        self.size = field.p ** self.dim
        self._rows = [list(field.coeffs(v)) for v in self.basis]
        self._elements: tuple[int, ...] | None = None
        self._stab_degree: int | None = None

    def reduce(self, x: int) -> int:
        """Least element of the coset x + (this subspace): echelon reduction
        with most-significant pivots is coset-leader reduction."""
        field, p = self.field, self.field.p
        cf = list(field.coeffs(x))
        for row, piv in zip(self._rows, self.pivots):
            c = cf[piv]
            if c:
                cf = [(a - c * b) % p for a, b in zip(cf, row)]
        return field.element(cf)

    def contains(self, x: int) -> bool:
        return self.reduce(x) == 0

    def issubspace_of(self, other: "Subspace") -> bool:
        return all(other.contains(v) for v in self.basis)

    def elements(self) -> tuple[int, ...]:
        if self._elements is None:
            field = self.field
            combs = [0]
            for v in self.basis:
                step = [field.smul(t, v) for t in range(field.p)]
                combs = [field.add(c, s) for c in combs for s in step]
            assert len(combs) == self.size
            self._elements = tuple(sorted(combs))
        return self._elements

    def stabilizing_degree(self) -> int:
        """Degree of the largest subfield mapping this subspace into itself."""
        if self._stab_degree is None:
            self._stab_degree = subfield_stabilizer(self).degree
        return self._stab_degree

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.field == other.field and self.basis == other.basis)

    def __hash__(self) -> int:
        return hash(("Subspace", self.field, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, basis={self.basis})"


def zero_subspace(field: Field) -> Subspace:
    return Subspace(field, ())


def full_subspace(field: Field) -> Subspace:
    return Subspace(field, field._pows)


def span(elements, K: Subfield) -> Subspace:
    """Smallest K-subspace of the ambient field containing ``elements``."""
    field = K.field
    vectors = [field.mul(kb, x) for x in elements for kb in K.basis]
    return Subspace(field, vectors)


def subfield_stabilizer(H: Subspace) -> Subfield:
    """The largest subfield K of F_q with K*H inside H.

    Checked on a primitive element g of each candidate subfield, largest
    degree first: g*H <= H already forces K*H <= H by F_p-linearity.
    """
    field = H.field
    for m in sorted(divisors(field.alpha), reverse=True):
        g = field.subfield(m).generator
        if all(H.contains(field.mul(g, v)) for v in H.basis):
            return field.subfield(m)
    raise AssertionError("prime subfield always stabilizes")  # unreachable


def coset_min(x: int, H: Subspace) -> int:
    """Least element of the coset x + H in canonical order."""
    return H.reduce(x)


class QuotientSpace:
    """F_q / H with least-element coset representatives."""

    def __init__(self, field: Field, denominator: Subspace):
        if denominator.field != field:
            raise ValueError("denominator lives in a different field")
        self.field = field
        self.denominator = denominator
        self.transversal = tuple(sorted({denominator.reduce(x)
                                         for x in range(field.q)}))
        self.size = field.q // denominator.size
        assert len(self.transversal) == self.size

    def rep(self, x: int) -> int:
        return self.denominator.reduce(x)

    def __repr__(self) -> str:
        return f"QuotientSpace(q={self.field.q}, |H|={self.denominator.size})"


def lines_of_quotient(Q: QuotientSpace, K: Subfield) -> list[Subspace]:
    """The 1-dimensional K-subspaces of F_q/H, each returned once as its
    full preimage in F_q (a K-subspace containing H)."""
    field, H = Q.field, Q.denominator
    if K.field != field:
        raise ValueError("subfield belongs to a different field")
    if H.stabilizing_degree() % K.degree:
        raise ValueError("denominator is not a K-subspace")
    expected, rem = divmod(Q.size - 1, K.size - 1)
    assert rem == 0
    seen = set()
    out = []
    for r in Q.transversal[1:]:
        W = Subspace(field,
                     H.basis + tuple(field.mul(kb, r) for kb in K.basis))
        if W.basis not in seen:
            seen.add(W.basis)
            assert W.dim == H.dim + K.degree
            out.append(W)
    assert len(out) == expected
    return out
