"""Closed-form counts and their number-theoretic ingredients.

Expected values are frozen after being derived by an independent route:
q-binomials against a subspace enumeration, and the spot counts against
the exhaustive stabilizer scan in test_oracle / the acceptance suite.
"""

import ast
import hashlib
import io
import math
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
import sympy

import aglstab
import aglstab.oracle
from aglstab import counting, numtheory, oracle
from aglstab.agl import class_representative
from aglstab.cli import EXIT_BUDGET, build_parser, cmd_design, main
from aglstab.counting import (ClassParams, StabilizerClass, class_counts,
                              class_shapes, classes, count_N, enumerate_params,
                              evaluate_terms, s_qk)
from aglstab.ffield import Field, span
from aglstab.numtheory import (BudgetExceededError, check_factored,
                               check_field, check_shape, divisor_orders,
                               mult_order, prime_set)
from reference import (all_subgroups, build_table, class_size, full_census,
                       moebius_exponent, overgroup_terms, prime_powers,
                       q_binomial, run_python, table_by_terms)


def _forbid_sympy(monkeypatch):
    """Make every import of sympy raise: the library imports ``isprime``
    and ``factorint`` inside the two fallbacks that reach them, so a call
    that reaches either raises ImportError."""
    monkeypatch.setitem(sys.modules, "sympy", None)


def test_prime_set():
    assert prime_set(1) == ()
    assert prime_set(6) == (2, 3)
    assert prime_set(8) == (2,)
    assert prime_set(60) == (2, 3, 5)
    with pytest.raises(ValueError):
        prime_set(0)


@pytest.mark.parametrize("p,alpha", [(2, 64), (3, 30), (5, 20), (2, 48),
                                     (2, 128)])
def test_prime_set_matches_sympy_on_the_divisors_of_q_minus_1(p, alpha):
    for u in sympy.divisors(p ** alpha - 1):
        assert prime_set(u) == tuple(sympy.primefactors(u)), u


def test_prime_set_matches_sympy_below_10_000():
    for u in range(1, 10 ** 4):
        assert prime_set(u) == tuple(sympy.primefactors(u)), u


def test_prime_set_refuses_past_the_cap_without_factoring(monkeypatch):
    _forbid_sympy(monkeypatch)
    with pytest.raises(BudgetExceededError) as refused:
        prime_set(2 ** 2048 + 1)
    assert str(refused.value) == (
        "a 2049-bit number is refused: it must be at most 2^2048 and factor "
        "completely within factorint's limit of 100000")
    # at the cap the number is factored, by the plain route alone
    assert prime_set(2 ** 2048) == (2,)


#: (bound, bases) of every Miller-Rabin tier, written out here so that a
#: changed table in the library cannot pass unseen
TIERS = [
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (25_326_001, (2, 3, 5)),
    (3_215_031_751, (2, 3, 5, 7)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318_665_857_834_031_151_167_461,
     (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3_317_044_064_679_887_385_961_981,
     (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
]
CARMICHAEL = [561, 41041, 825265, 321197185, 5394826801, 232250619601,
              9746347772161]


def _strong_probable_prime(n, a):
    odd, s = n - 1, 0
    while odd % 2 == 0:
        odd, s = odd // 2, s + 1
    x = pow(a, odd, n)
    return x in (1, n - 1) or any(
        pow(x, 2 ** t, n) == n - 1 for t in range(1, s))


def test_is_prime_matches_sympy_below_100_000():
    assert [n for n in range(10 ** 5)
            if numtheory._is_prime(n) != sympy.isprime(n)] == []


def test_is_prime_tiers_are_the_known_bounds():
    assert numtheory._MILLER_RABIN_TIERS == tuple(TIERS)
    for bound, bases in TIERS:
        # the least strong pseudoprime to the tier's own bases: it passes
        # all of them, so the next tier (or sympy) must reject it
        assert all(_strong_probable_prime(bound, a) for a in bases), bound
        assert not numtheory._is_prime(bound), bound
        for n in range(bound - 2, bound + 3):
            assert numtheory._is_prime(n) == sympy.isprime(n), n


def test_is_prime_rejects_carmichael_numbers():
    for n in CARMICHAEL:
        assert sympy.isprime(n) is False
        assert numtheory._is_prime(n) is False, n


@pytest.mark.parametrize("bits", [64, 80])
def test_is_prime_matches_sympy_on_a_seeded_sample(bits):
    rng = random.Random(f"is_prime:{bits}")
    odd = [rng.randrange(2 ** (bits - 1), 2 ** bits) | 1 for _ in range(400)]
    primes = [sympy.nextprime(n) for n in odd[:40]]
    semiprimes = [sympy.nextprime(rng.randrange(2 ** (bits // 2 - 1),
                                                2 ** (bits // 2)))
                  * sympy.nextprime(rng.randrange(2 ** (bits // 2 - 1),
                                                  2 ** (bits // 2)))
                  for _ in range(40)]
    for n in odd + primes + semiprimes:
        assert numtheory._is_prime(n) == sympy.isprime(n), n
    assert sum(map(numtheory._is_prime, odd + primes)) >= len(primes)


def _congruent(c, ks):
    return [k for k in ks if k <= c.q and c.congruence_violation(k) is None]


#: prime powers whose every gcd factored at every k is below 2**20
PLAIN_FIELDS = ([(p, 1) for p in sympy.primerange(2, 2000)]
                + [(2, 10), (3, 7), (5, 5), (7, 4)])


def test_counts_of_small_fields_reach_no_sympy(monkeypatch):
    # classes, the field's q - 1 and every gcd a count factors lie below
    # 2**20, so the plain route settles each of them
    shapes = {field: classes(*field) for field in PLAIN_FIELDS}
    expected = {(c.p, c.alpha, c.d, c.i, c.j, k): c.count(k)
                for cs in shapes.values() for c in cs
                for k in _congruent(c, (0, c.h_size, c.period,
                                        c.period + c.h_size))}
    _forbid_sympy(monkeypatch)
    for (p, alpha), cs in shapes.items():
        assert [(c.d, c.i, c.j) for c in classes(p, alpha)] == \
            [(c.d, c.i, c.j) for c in cs]
    for (p, alpha, d, i, j, k), n in expected.items():
        assert count_N(ClassParams(p, alpha, k, d, i, j)) == n


def test_counts_of_a_40_bit_prime_at_small_k_reach_no_sympy(monkeypatch):
    # p - 1 = 2^2 * 5^2 * 151 * 1783 * 20323, and 1783 * 20323 >= 2**20 is
    # left to factorint when the gcd is all of (p - 1)/d, at r = 0.  At
    # k > |H| = 1 both r = k and r = k - 1 are nonzero, each gcd divides
    # one of them, so it is below 2**20 and factored plainly; a 40-bit p
    # is decided by Miller-Rabin alone
    p = 547162225901
    shapes = [c for c in classes(p, 1) if c.j == 0]
    expected = {(c.d, k): c.count(k) for c in shapes
                for k in _congruent(c, (c.d, c.d + 1, 2 * c.d, 2 * c.d + 1))
                if k > 1}
    assert len(shapes) == 72 and len(expected) > 2 * len(shapes)
    _forbid_sympy(monkeypatch)
    for (d, k), n in expected.items():
        assert count_N(ClassParams(p, 1, k, d, 1, 0)) == n


@pytest.mark.parametrize("p,alpha", [(1009, 1), (2, 10)])
def test_tables_of_small_fields_reach_no_sympy(monkeypatch, p, alpha):
    table = build_table(p, alpha)
    _forbid_sympy(monkeypatch)
    assert build_table(p, alpha) == table


def test_a_composite_cofactor_and_a_large_n_still_reach_sympy(monkeypatch):
    calls = []

    def recorded(name, function):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        monkeypatch.setattr(sympy, name, wrapper)

    # the fallbacks import each name from sympy when they reach it
    recorded("factorint", sympy.factorint)
    recorded("isprime", sympy.isprime)
    # 1031 * 1033 has no prime factor below 1024 and is at least 2**20
    assert prime_set(2 * 1031 * 1033) == (2, 1031, 1033)
    assert calls == ["factorint"]
    calls.clear()
    last = TIERS[-1][0]
    n = sympy.nextprime(last)
    assert numtheory._is_prime(n) and not numtheory._is_prime(17 * n)
    assert calls == ["isprime", "isprime"]


def _prime_power_by_perfect_power(q):
    """What ``prime_power`` returned while sympy decided it: the largest e
    with q an e-th power by ``perfect_power``, then ``_is_prime`` on the
    base; None for a refused q."""
    p, alpha = map(int, sympy.perfect_power(q) or (q, 1))
    return (p, alpha) if numtheory._is_prime(p) else None


def _prime_power_or_none(q):
    try:
        return numtheory.prime_power(q)
    except ValueError as refused:
        assert str(refused) == f"q must be a prime power, got {q}"
        return None


def test_prime_power_agrees_with_perfect_power_below_300_000(monkeypatch):
    _forbid_sympy(monkeypatch)
    got = [_prime_power_or_none(q) for q in range(2, 300_000)]
    monkeypatch.undo()
    assert got == [_prime_power_by_perfect_power(q)
                   for q in range(2, 300_000)]


@pytest.mark.parametrize("q", [
    2 ** 2049, 3 ** 1300, (2 ** 61 - 1) ** 3, 6 ** 50, 1021 ** 204,
    (1031 * 1033) ** 5, 1031 ** 2, 1031 ** 400, 1031 ** 399 * 1033,
    (2 ** 89 - 1) ** 6, (2 ** 89 - 1) ** 2 * (2 ** 61 - 1) ** 2,
    10 ** 3000 + 1], ids=[
    "2^2049", "3^1300", "(2^61-1)^3", "6^50", "1021^204", "(1031*1033)^5",
    "1031^2", "1031^400", "1031^399*1033", "(2^89-1)^6",
    "(2^89-1)^2*(2^61-1)^2", "10^3000+1"])
def test_prime_power_agrees_with_perfect_power_on_large_q(q):
    assert _prime_power_or_none(q) == _prime_power_by_perfect_power(q)


def test_prime_power_takes_roots_only_at_prime_exponents(monkeypatch):
    # q has no prime factor below 1024 and is no perfect power, so every
    # prime e with 1024**e <= q is tried once: the 78 primes below 400.
    # A loop over every exponent took 9.9 s on a 4,000-bit q
    q = 1031 ** 399 * 1033
    assert q.bit_length() == 4004
    tried = []
    root = numtheory._exact_root

    def counted(n, e):
        tried.append(e)
        return root(n, e)

    monkeypatch.setattr(numtheory, "_exact_root", counted)
    with pytest.raises(ValueError, match="^q must be a prime power, got "):
        numtheory.prime_power(q)
    assert tried == list(sympy.primerange(2, 401))
    # a root found is tried again at the same e: 1031**400 halves four
    # times, then takes two fifth roots
    tried.clear()
    assert numtheory.prime_power(1031 ** 400) == (1031, 400)
    assert tried == [2, 2, 2, 2, 2, 3, 5, 5]


@pytest.mark.parametrize("call,verdict", [
    ("counting.class_shapes(2, 1000)", "q = 2^1000 is refused"),
    ("counting.class_counts(2, 1000, 2)", "q = 2^1000 is refused"),
    ("counting.count_N(counting.ClassParams(2, 1000, 0, 1, 1000, 0))",
     "a 1000-bit number is refused"),
    ("counting.class_shapes(2, 256)", "q = 2^256 is refused"),
    ("counting.class_shapes(7, 100)", "q = 7^100 is refused"),
])
def test_library_refuses_what_the_cli_refuses_at_once(call, verdict):
    # each factored without a bound when only the CLI bounded it: the
    # first three ran past 20 s, the last two took 10.8 s and 7.3 s
    proc, seconds = run_python(
        "-c", f"from aglstab import counting; {call}")
    assert proc.stderr.splitlines()[-1].startswith(
        f"aglstab.numtheory.BudgetExceededError: {verdict}: ")
    assert seconds < 5


def test_a_single_count_admits_no_field_but_the_cli_does(capsys):
    # only the CLI runs check_factored: in ClassParams it would cost a
    # quarter or more of a cold count.  The count factors only its gcd,
    # here of a |H'| - 1 = 1, and the q/2 2-subsets {x, x + h} are the
    # orbit unions of the translations by {0, h}
    n = count_N(ClassParams(2, 1000, 2, 1, 1, 1))
    assert len(str(n)) == 301 and n == 2 ** 999
    code = main(["count", "--p", "2", "--alpha", "1000", "--k", "2",
                 "--d", "1", "--i", "1", "--j", "1"])
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_BUDGET, "")
    assert err.startswith("aglstab: budget exceeded: q = 2^1000 is refused")


def test_only_numtheory_imports_sympy():
    users = set()
    for path in Path(aglstab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "sympy" for name in names):
                users.add(path.name)
    assert users == {"numtheory.py"}


def test_mult_order():
    assert mult_order(7, 1) == 1
    assert mult_order(2, 3) == 2
    assert mult_order(2, 7) == 3
    assert mult_order(5, 2) == 1
    with pytest.raises(ValueError):
        mult_order(2, 4)


@pytest.mark.parametrize("p,alpha", [(2, 6), (3, 4), (2, 64)])
def test_mult_order_matches_sympy(p, alpha):
    # sympy's n_order is an independent oracle for the plain loop
    assert mult_order(p, 1) == 1        # sympy rejects the modulus 1
    for u in sympy.divisors(p ** alpha - 1)[1:]:
        assert mult_order(p, u) == sympy.n_order(p, u), u


def test_q_binomial_examples():
    assert q_binomial(5, 0, 2) == 1
    assert q_binomial(3, 1, 2) == 7
    assert q_binomial(2, 1, 3) == 4
    assert q_binomial(2, 3, 2) == 0
    assert q_binomial(4, -1, 2) == 0
    # the recurrence of the closed form gives the same weights
    for n, base in ((0, 2), (1, 5), (3, 2), (4, 3), (6, 4)):
        assert list(counting._moebius_weights(n, base)) == [
            moebius_exponent(l, base) * q_binomial(n, l, base)
            for l in range(n + 1)]


def _count_subspaces_bruteforce(p, alpha, dim):
    """Independent oracle: enumerate all subspaces of F_p^alpha by closure."""
    F = Field(p, alpha)
    seen = {(): True}
    frontier = [()]
    while frontier:
        new = []
        for basis in frontier:
            W = span(F, basis, 1)
            for x in range(1, F.q):
                if W.contains(x):
                    continue
                W2 = span(F, basis + (x,), 1)
                if W2.basis not in seen:
                    seen[W2.basis] = True
                    new.append(W2.basis)
        frontier = new
    return sum(1 for basis in seen if len(basis) == dim)


@pytest.mark.parametrize("p,alpha,dim", [(2, 4, 1), (2, 4, 2), (3, 2, 1), (2, 3, 2)])
def test_q_binomial_counts_subspaces(p, alpha, dim):
    count = _count_subspaces_bruteforce(p, alpha, dim)
    assert q_binomial(alpha, dim, p) == count
    weights = list(counting._moebius_weights(alpha, p))
    assert weights[dim] == moebius_exponent(dim, p) * count


def test_moebius_exponent():
    assert moebius_exponent(0, 5) == 1
    assert moebius_exponent(1, 5) == -1
    assert moebius_exponent(2, 2) == 2
    assert moebius_exponent(3, 2) == -8
    # weight l of an l-dimensional space is its Moebius value alone
    for l in range(5):
        weights = list(counting._moebius_weights(l, 5))
        assert weights[l] == moebius_exponent(l, 5)


def test_s_qk_examples():
    assert s_qk(8, 2, 1, 2) == 4
    assert s_qk(7, 3, 2, 1) == 3
    assert s_qk(7, 3, 3, 1) == 2
    assert s_qk(2, 0, 1, 2) == 1


def test_s_qk_zero_pattern():
    for q in (8, 9, 12):
        for u in (1, 2, 3):
            for v in (1, 2, 3, 4):
                if (q - v) % (u * v):
                    continue
                for k in range(q + 1):
                    val = s_qk(q, k, u, v)
                    if k % (u * v) not in (0, v % (u * v)):
                        assert val == 0


def test_s_qk_pascal_for_trivial_group():
    for q in (5, 8, 13):
        for k in range(q + 1):
            assert s_qk(q, k, 1, 1) == math.comb(q, k)


def test_class_params_validation():
    ClassParams(7, 1, 3, 3, 1, 0)
    with pytest.raises(ValueError):
        ClassParams(6, 1, 0, 1, 1, 0)     # p not prime
    with pytest.raises(ValueError):
        ClassParams(7, 1, 8, 1, 1, 0)     # k out of range
    with pytest.raises(ValueError):
        ClassParams(7, 1, 3, 4, 1, 0)     # d does not divide q-1
    with pytest.raises(ValueError):
        ClassParams(2, 4, 0, 1, 3, 1)     # i does not divide alpha
    with pytest.raises(ValueError):
        ClassParams(2, 4, 0, 1, 1, 4)     # j out of range
    with pytest.raises(ValueError):
        ClassParams(2, 4, 0, 1, 4, 2)     # j must be 0/1 at i = alpha


def test_class_params_congruence():
    assert ClassParams(7, 1, 3, 3, 1, 0).congruence_violation(3) is None
    assert ClassParams(7, 1, 4, 3, 1, 0).congruence_violation(4) is None
    assert ClassParams(7, 1, 5, 3, 1, 0).congruence_violation(5) is not None
    msg = ClassParams(7, 1, 5, 3, 1, 0).congruence_violation(5)
    assert "mod" in msg


def test_class_params_validation_order():
    # k is out of range and 3 does not divide q - 1 = 10: the k range is
    # checked before the shape
    with pytest.raises(ValueError, match=r"^k must lie in \[0, 11\], got 99$"):
        ClassParams(11, 1, 99, 3, 1, 0)
    with pytest.raises(ValueError, match=r"^p must be prime, got 6$"):
        ClassParams(6, 1, 99, 4, 1, 0)


def _patch_mult_order(monkeypatch, replacement):
    """Replace ``mult_order`` in both modules that call it, as perfbench's
    spans wrap it: numtheory (``check_divisor``, ``divisor_orders``) and
    counting (``StabilizerClass.terms``)."""
    for module in (numtheory, counting):
        monkeypatch.setattr(module, "mult_order", replacement)


def test_class_params_computes_odp_once(monkeypatch):
    calls, shape_checks = [], []
    check = counting.check_shape

    def counted(v, u):
        calls.append((v, u))
        return mult_order(v, u)

    def counted_check(*args):
        shape_checks.append(args)
        return check(*args)

    _patch_mult_order(monkeypatch, counted)
    monkeypatch.setattr(counting, "check_shape", counted_check)
    cp = ClassParams(2, 6, 12, 3, 1, 1)
    assert (cp.odp, cp.beta) == (2, 2)
    assert calls == [(2, 3)]
    assert shape_checks == [(2, 6, 3, 1, 1)]
    # count_N takes o_d(p) from the check and reuses it for u = d
    count_N(cp)
    assert calls == [(2, 3)]
    # classes and build_table trust the orders that divisor_orders returns
    shape_checks.clear()
    classes(2, 6)
    # build_table: one per prime power 3, 9 and 7 of 63, from whose orders
    # every o_d(p) is built, plus one per class and prime r of
    # (|H'| - 1)/d, whose o_{d*r}(p) every P of that class holding r reuses
    calls.clear()
    build_table(2, 6)
    assert len(calls) == 20
    assert shape_checks == []


#: sha256 over every class of every prime power q <= 256, in enumeration
#: order, of repr((p, alpha, d, i, j, odp, beta, p**beta, terms at k = 0)),
#: recorded from the enumeration and term walk that the record replaced
CLASS_FACTS_DIGEST = (
    "e430765a8853ee47230e3648f6a0c431a71d256fd7a53831bd1aa72406a18407")
#: the same over repr((p, alpha, [(d, i, j, odp, beta), ...])) per field
BIGNUM_SHAPES_DIGEST = (
    "a039e6c853f42861606290bb38a14d74b6d9ab959f94ec0108f3cd684cc9caad")


def test_class_records_carry_the_recorded_facts():
    digest = hashlib.sha256()
    seen = 0
    for p, alpha in prime_powers(2, 256):
        for c in classes(p, alpha):
            digest.update(repr((p, alpha, c.d, c.i, c.j, c.odp, c.beta,
                                c.h_size, c.terms())).encode())
            seen += 1
    assert (seen, digest.hexdigest()) == (1181, CLASS_FACTS_DIGEST)
    digest = hashlib.sha256()
    for p, alpha in [(2, 64), (3, 30), (5, 20), (2, 48)]:
        shapes = [(c.d, c.i, c.j, c.odp, c.beta) for c in classes(p, alpha)]
        digest.update(repr((p, alpha, shapes)).encode())
    assert digest.hexdigest() == BIGNUM_SHAPES_DIGEST


def test_congruence_holds_exactly_where_orbit_unions_exist():
    # the orbit route: a size-k union of the representative's orbits
    # exists iff the record's congruence admits k, both ways
    checked = 0
    for p, alpha in prime_powers(2, 64):
        F = Field(p, alpha)
        for c in classes(p, alpha):
            S = class_representative(F, c.d, c.i, c.j)
            for k in range(F.q + 1):
                assert (c.congruence_violation(k) is None) == (
                    aglstab.oracle.n_orbit_unions(S, k) > 0), (
                    F.q, c.d, c.i, c.j, k)
                checked += 1
    assert checked == 11_119


def test_class_params_derived_quantities():
    cp = ClassParams(2, 6, 12, 3, 1, 1)
    assert cp.q == 64
    assert cp.odp == 2          # order of 2 mod 3
    assert cp.beta == 2
    assert cp.h_size == 4


def test_count_N_spot_values():
    # cross-checked against the exhaustive stabilizer census (test_oracle)
    assert count_N(ClassParams(2, 3, 2, 1, 1, 1)) == 4          # q/2 at q=8
    assert count_N(ClassParams(7, 1, 3, 3, 1, 0)) == 2
    assert count_N(ClassParams(7, 1, 3, 1, 1, 0)) == 0          # the (7,3,1) zero
    assert count_N(ClassParams(2, 1, 1, 1, 1, 0)) == 2          # q = 2, k = 1
    assert count_N(ClassParams(7, 1, 3, 2, 1, 0)) == 3


def test_class_terms_examples():
    # q = 7, d = 3, H = 0: the two immediate supergroups (d = 6, H = 0)
    # and (d = 3, H = F_7) are subtracted, their join (6, F_7) added back
    assert ClassParams(7, 1, 0, 3, 1, 0).terms() == (
        (1, 3, 1), (-1, 3, 7), (-1, 6, 1), (1, 6, 7))
    # the full group of F_2 has the single term s_qk(2, k, 1, 2)
    assert ClassParams(2, 1, 0, 1, 1, 1).terms() == ((1, 1, 2),)
    # q = 64, d = 3, H = F_4: the five 2-dimensional and the one
    # 3-dimensional F_4-subspaces above H, Moebius weights -1 and 4
    assert ClassParams(2, 6, 0, 3, 1, 1).terms() == (
        (1, 3, 4), (-5, 3, 16), (4, 3, 64))


def test_class_terms_rejects_inadmissible_shape():
    # i = 3 does not divide alpha / o_1(2) = 4; the shape check says so
    # before the sums run
    with pytest.raises(ValueError,
                       match=r"^i must divide alpha/o_d\(p\) = 4, got 3$"):
        ClassParams(2, 4, 0, 1, 3, 1).terms()
    # past the check the sums still guard their divisibilities: the order
    # of 2 mod 7 is 3, which does not divide alpha - beta = 1
    with pytest.raises(ValueError, match="does not divide"):
        StabilizerClass(2, 4, 1, 3, 1, 1).terms()


def _accepts(p, alpha, d, i, j) -> bool:
    try:
        check_shape(p, alpha, d, i, j)
    except ValueError:
        return False
    return True


def _check_rule_agreement(p, alpha, ds):
    """Over d in ds, 1 <= i <= alpha and 0 <= j <= alpha, the shape check
    accepts a triple iff class_shapes yields it; returns how many it
    accepted and how many it rejected."""
    shapes = set(class_shapes(p, alpha))
    grid = [(d, i, j) for d in ds for i in range(1, alpha + 1)
            for j in range(alpha + 1)]
    accepted = {t for t in grid if _accepts(p, alpha, *t)}
    assert accepted == {t for t in shapes if t[0] in ds}, (p, alpha)
    return len(accepted), len(grid) - len(accepted)


def test_shape_check_accepts_exactly_class_shapes():
    fields = [(p, alpha) for p in sympy.primerange(2, 257)
              for alpha in range(1, 9) if p ** alpha <= 256]
    assert len(fields) == 70
    seen = [_check_rule_agreement(p, alpha, sympy.divisors(p ** alpha - 1))
            for p, alpha in fields]
    assert all(map(sum, zip(*seen)))


@pytest.mark.parametrize("p,alpha", [(2, 64), (3, 30)])
def test_shape_check_accepts_exactly_class_shapes_bignum(p, alpha):
    ds = sympy.divisors(p ** alpha - 1)
    sample = [1, ds[-1]] + random.Random(alpha).sample(ds[1:-1], 10)
    assert all(_check_rule_agreement(p, alpha, sample))


#: inadmissible (p, alpha, d, i, j); the first four once returned terms
BAD_SHAPES = [
    (2, 4, 1, 1, 4),        # j = 4 past 0 < j < 4
    (2, 4, 1, 4, 2),        # j must be 0 or 1 at i = alpha/o_d(p)
    (2, 4, 1, 2, 3),        # j = 3 past 0 < j < 2
    (2, 4, 1, 1, 5),
    (2, 4, 1, 1, 0),        # j = 0 only at i = alpha/o_d(p)
    (2, 4, 2, 1, 1),        # 2 does not divide 15
    (2, 4, 0, 1, 0),
    (2, 4, 1, 3, 1),        # 3 does not divide 4
    (2, 4, 1, 0, 1),
    (2, 6, 3, 2, 1),        # o_3(2) = 2: i = 2 does not divide 3
    (2, 6, 3, 1, 3),        # j = 3 past 0 < j < 3
    (3, 2, 2, 1, 2),
    (7, 1, 3, 1, -1),
    (7, 1, 6, 1, 2),
]


@pytest.mark.parametrize("p,alpha,d,i,j", BAD_SHAPES)
def test_every_entry_point_rejects_a_bad_shape_alike(p, alpha, d, i, j):
    messages = []
    for build in (lambda: ClassParams(p, alpha, 0, d, i, j),
                  lambda: ClassParams(p, alpha, 0, d, i, j).terms(),
                  lambda: class_representative(Field(p, alpha), d, i, j),
                  lambda: check_shape(p, alpha, d, i, j)):
        with pytest.raises(ValueError) as exc:
            build()
        messages.append(str(exc.value))
    assert len(set(messages)) == 1, messages


@pytest.mark.parametrize("p,alpha,message", [
    (4, 1, "p must be prime, got 4"),
    (1, 3, "p must be prime, got 1"),
    (-7, 1, "p must be prime, got -7"),
    (7, 0, "alpha must be >= 1, got 0"),
])
def test_every_entry_point_rejects_a_bad_field_alike(p, alpha, message):
    for build in (lambda: ClassParams(p, alpha, 0, 1, 1, 0),
                  lambda: classes(p, alpha),
                  lambda: class_shapes(p, alpha),
                  lambda: build_table(p, alpha, 0),
                  lambda: Field(p, alpha),
                  lambda: check_field(p, alpha),
                  lambda: check_factored(p, alpha)):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


def _design(q, k):
    args = build_parser().parse_args(
        ["design", "--q", str(q), "--k", str(k), "--d", "1"])
    return cmd_design(args, io.StringIO())


@pytest.mark.parametrize("entry", [
    lambda q, k: ClassParams(q, 1, k, 1, 1, 0),
    lambda q, k: build_table(q, 1, k),
    _design,
    lambda q, k: oracle.count_N_bruteforce(
        class_representative(Field(q, 1), 1, 1, 0), k),
    lambda q, k: oracle.count_N_via_lattice(
        class_representative(Field(q, 1), 1, 1, 0), k),
    lambda q, k: full_census(Field(q, 1), k),
], ids=["ClassParams", "build_table", "cmd_design", "count_N_bruteforce",
        "count_N_via_lattice", "full_census"])
@pytest.mark.parametrize("k", [-1, 8])
def test_every_entry_point_rejects_a_bad_subset_size_alike(entry, k):
    with pytest.raises(ValueError) as exc:
        entry(7, k)
    assert str(exc.value) == f"k must lie in [0, 7], got {k}"


@pytest.mark.parametrize("p,alpha", [(2, 1), (2, 6), (3, 4), (7, 2), (1021, 1),
                                     (2, 64), (3, 30), (5, 20), (2, 48)])
def test_classes_take_the_divisors_from_the_admission(p, alpha):
    q = p ** alpha
    assert check_factored(p, alpha) == sympy.factorint(q - 1)
    orders = divisor_orders(p, alpha)
    assert [d for d, _ in orders] == sympy.divisors(q - 1)
    assert all(odp == sympy.n_order(p, d) for d, odp in orders[1:])
    # i over the divisors of alpha/o_d(p), as sympy lists them
    assert [(c.d, c.i, c.j) for c in classes(p, alpha)] == [
        (d, i, j) for d, odp in orders for i in sympy.divisors(alpha // odp)
        for j in ((0, 1) if odp * i == alpha else range(1, alpha // (odp * i)))]


def test_count_N_k0_detects_full_group():
    for p, alpha in [(2, 2), (5, 1), (7, 1), (3, 2), (2, 4)]:
        q = p ** alpha
        for d, i, j in class_shapes(p, alpha):
            cp = ClassParams(p, alpha, 0, d, i, j)
            expected = 1 if (d == q - 1 and cp.beta == alpha) else 0
            assert count_N(cp) == expected, (p, alpha, d, i, j)


def test_count_N_k1_and_k2_small_fields():
    for p, alpha in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (2, 3)]:
        q = p ** alpha
        for d, i, j in class_shapes(p, alpha):
            cp1 = ClassParams(p, alpha, 1, d, i, j)
            if q == 2:
                exp1 = 2 if (d == 1 and cp1.beta == 0) else 0
            else:
                exp1 = 1 if (d == q - 1 and cp1.beta == 0) else 0
            assert count_N(cp1) == exp1, (q, d, i, j)
            cp2 = ClassParams(p, alpha, 2, d, i, j)
            if q % 2 == 0:
                exp2 = q // 2 if (d == 1 and cp2.beta == 1) else 0
            else:
                exp2 = (q - 1) // 2 if (d == 2 and cp2.beta == 0) else 0
            assert count_N(cp2) == exp2, (q, d, i, j)


def test_enumerate_params_classes_q4():
    shapes = {(cp.d, cp.h_size, 2 ** (cp.odp * cp.i))
              for cp in enumerate_params(2, 2)}
    assert shapes == {(1, 1, 4), (1, 4, 4), (1, 2, 2), (3, 1, 4), (3, 4, 4)}


def test_enumerate_params_prime_field_betas():
    for cp in enumerate_params(13, 1):
        assert cp.i == 1
        assert cp.beta in (0, 1)


def test_enumerate_params_congruence_and_order():
    params = enumerate_params(3, 2)
    for cp in params:
        assert cp.congruence_violation(cp.k) is None
        assert 0 <= cp.k <= 4
    # k outermost, then d ascending, then i, then j
    keys = [(cp.k, cp.d, cp.i, cp.j) for cp in params]
    assert keys == sorted(keys)


def test_build_table_q2():
    assert build_table(2, 1) == [
        (0, 1, 1, 1, 0, 0, 0),
        (0, 1, 1, 1, 1, 1, 1),
        (1, 1, 1, 1, 0, 0, 2),
    ]


def test_build_table_q5_k2_row():
    table = build_table(5, 1)
    *_, beta, N = next(row for row in table if row[:2] == (2, 2))
    assert beta == 0 and N == 2
    assert all(row[-1] >= 0 for row in table)


@pytest.mark.parametrize("p,alpha", [(2, 4), (3, 2), (7, 1), (2, 6), (5, 2)])
def test_build_table_matches_per_tuple_counts(p, alpha):
    assert build_table(p, alpha) == [
        (cp.k, cp.d, cp.odp, cp.i, cp.j, cp.beta, count_N(cp))
        for cp in enumerate_params(p, alpha)]


def test_build_table_k_max_range():
    assert len(build_table(3, 2, 9)) > len(build_table(3, 2))
    with pytest.raises(ValueError):
        build_table(3, 2, 10)


@pytest.mark.parametrize("p,alpha", prime_powers(2, 256))
def test_build_table_matches_table_by_terms(p, alpha):
    q = p ** alpha
    for k_max in (None, 0, 1, q // 3, q):
        assert build_table(p, alpha, k_max) == table_by_terms(
            p, alpha, k_max), k_max


@pytest.mark.parametrize("q", [729, 961, 1021, 1024])
def test_build_table_matches_table_by_terms_large(q):
    (p, alpha), = sympy.factorint(q).items()
    assert build_table(p, alpha) == table_by_terms(p, alpha)


# (q, u, v, k_max).  u = v = 1: both selectors hit adjacent k.  u = 1: the
# second selector of s lands on the first of s + 1.  u*v not dividing
# q - v: an empty column.  k_max = q: the recurrence runs to s = top.
COLUMN_CASES = [
    (7, 1, 1, 7), (1021, 1, 1, 510), (16, 1, 2, 16), (81, 1, 9, 81),
    (7, 4, 1, 7), (9, 4, 3, 9), (16, 3, 2, 16), (1021, 7, 1, 1021),
    (25, 3, 1, 25), (64, 7, 8, 64), (1024, 31, 1, 1024), (729, 13, 1, 0),
    (729, 13, 1, 1), (243, 2, 243, 243),
]


@pytest.mark.parametrize("q,u,v,k_max", COLUMN_CASES)
def test_column_matches_s_qk(q, u, v, k_max):
    col = counting.s_qk_column(q, u, v, k_max)
    assert all(0 <= k <= k_max for k in col)
    assert (not col) == bool((q - v) % (u * v))
    for k in range(q + 1):
        assert col.get(k, 0) == (s_qk(q, k, u, v) if k <= k_max else 0), k


@pytest.mark.parametrize("p,alpha", prime_powers(2, 16))
def test_column_matches_s_qk_on_small_fields(p, alpha):
    q = p ** alpha
    for u in range(1, q + 1):
        for v in (p ** b for b in range(alpha + 1)):
            for k_max in (0, 1, q // 2, q):
                col = counting.s_qk_column(q, u, v, k_max)
                assert [col.get(k, 0) for k in range(q + 1)] == [
                    s_qk(q, k, u, v) if k <= k_max else 0
                    for k in range(q + 1)], (u, v, k_max)


# k_max below p**beta for some d > 1 class (q = 64, 81), q // 2, q
@pytest.mark.parametrize("p,alpha,k_max", [(2, 6, 3), (2, 6, None), (2, 6, 64),
                                           (3, 4, 2), (3, 4, 81), (7, 2, None),
                                           (2, 1, 2), (1021, 1, None)])
def test_table_row_limit_counts_the_rows_exactly(monkeypatch, p, alpha,
                                                 k_max):
    rows = len(build_table(p, alpha, k_max))
    monkeypatch.setattr(counting, "MAX_TABLE_ROWS", rows)
    assert len(build_table(p, alpha, k_max)) == rows
    monkeypatch.setattr(counting, "MAX_TABLE_ROWS", rows - 1)
    monkeypatch.setattr(counting, "s_qk_column",
                        lambda *args: pytest.fail("built past the limit"))
    message = f" has {rows} rows, over the limit of {rows - 1}$"
    with pytest.raises(BudgetExceededError, match=message):
        build_table(p, alpha, k_max)


def test_table_row_limit_raises_before_allocating_a_bignum_table():
    # k_max = 2**63 would ask for 2**63 + 1 row lists
    assert counting.MAX_TABLE_ROWS == 10 ** 7
    with pytest.raises(BudgetExceededError,
                       match=f"up to k = {2 ** 63} has 37985558454274872956 "
                             "rows, over the limit of 10000000$"):
        build_table(2, 64)


def test_table_of_too_many_divisors_raises_before_enumerating_classes(
        monkeypatch):
    # 2^180 - 1 has 6,291,456 divisors, each with two classes and a row
    # at k = 0; listing them ran for minutes
    _patch_mult_order(monkeypatch,
                      lambda *args: pytest.fail("enumerated the divisors"))
    with pytest.raises(BudgetExceededError,
                       match=f"^q = {2 ** 180} has at least 12582912 "
                             "stabilizer classes, two for each divisor of "
                             "q - 1, over the limit of 10000000$"):
        build_table(2, 180, 1)
    # the field rule first, then the bound, which lists the classes, then
    # the k range.  The CLI admits the field, bound included, before it
    # checks --max-k, so there too the bound comes first
    with pytest.raises(BudgetExceededError, match="^q = \\d+ has at least "):
        build_table(2, 180, -1)
    with pytest.raises(BudgetExceededError, match="q = 2\\^1000 is refused"):
        build_table(2, 1000, -1)
    monkeypatch.undo()
    with pytest.raises(ValueError, match=r"^k must lie in \[0, 7\], got -1$"):
        build_table(7, 1, -1)


@pytest.mark.parametrize("p,alpha", [(2, 6), (3, 4), (1021, 1)])
def test_every_table_has_two_rows_per_divisor_at_least(monkeypatch, p,
                                                        alpha):
    # at k_max = 0 the table has one row per class; the bound is tight
    # when every d has only the classes (d, alpha/o_d(p), 0) and (..., 1)
    rows = len(build_table(p, alpha, 0))
    least = 2 * len(sympy.divisors(p ** alpha - 1))
    assert rows >= least
    monkeypatch.setattr(numtheory, "MAX_TABLE_ROWS", least - 1)
    with pytest.raises(BudgetExceededError, match=f"has at least {least} "):
        build_table(p, alpha, 0)


def test_largest_field_table_fits_the_row_limit():
    assert len(build_table(2, 16)) == 134_846


def test_budget_error_is_one_class():
    assert aglstab.oracle.BudgetExceededError is BudgetExceededError
    assert aglstab.BudgetExceededError is BudgetExceededError


@pytest.mark.parametrize("p,alpha", [(2, 6), (3, 4), (2, 10), (1021, 1)])
def test_build_table_builds_each_column_once(monkeypatch, p, alpha):
    built, evaluated = [], []
    column = counting.s_qk_column

    def counted_column(q, u, v, k_max):
        built.append((u, v))
        return column(q, u, v, k_max)

    def counted_s_qk(*args):
        evaluated.append(args)
        return s_qk(*args)

    monkeypatch.setattr(counting, "s_qk_column", counted_column)
    monkeypatch.setattr(counting, "s_qk", counted_s_qk)
    build_table(p, alpha)
    assert evaluated == []
    distinct = {(u, v) for c in classes(p, alpha) for _, u, v in c.terms()}
    assert sorted(built) == sorted(distinct)


@pytest.mark.parametrize("p,alpha", prime_powers(2, 256))
def test_count_N_matches_every_term_at_every_k(p, alpha):
    q = p ** alpha
    for c in classes(p, alpha):
        d, i, j = c.d, c.i, c.j
        terms = c.terms()
        assert terms == overgroup_terms(p, alpha, d, i, j, c.odp), (d, i, j)
        for k in range(q + 1):
            assert count_N(ClassParams(p, alpha, k, d, i, j)) == (
                evaluate_terms(q, k, terms)), (d, i, j, k)


def _congruent_ks(rng, p, alpha, d, beta, quot):
    """0, p**beta, q and about ten k == 0 or p**beta (mod d*p**beta) in
    [0, q] whose binomials stay small: k = t*d*p**beta (+ p**beta) with
    t <= 2**12 a product of small primes of quot times a power of p, so
    that several overgroups and dimensions stay, and k = q - p**beta -
    t*d*p**beta (+ p**beta) for small t, near the top."""
    q, pb = p ** alpha, p ** beta
    small = [r for r in prime_set(quot) if r < 64]
    ks = {0, pb, q}
    for _ in range(5):
        t = math.prod(rng.sample(small, rng.randint(0, len(small))))
        t *= p ** rng.randint(0, 6)
        if t <= 2 ** 12:
            ks.add(t * d * pb + rng.choice((0, pb)))
        ks.add(q - pb - rng.randint(0, 64) * d * pb + rng.choice((0, pb)))
    return sorted(k for k in ks if 0 <= k <= q)


@pytest.mark.parametrize("p,alpha", [(2, 64), (3, 30), (5, 20), (2, 48)])
def test_count_N_keeps_every_contributing_term_bignum(p, alpha):
    rng = random.Random(p ** alpha)
    q = p ** alpha
    for c in rng.sample(classes(p, alpha), 8):
        d, i, j, odp = c.d, c.i, c.j, c.odp
        terms = c.terms()
        assert terms == overgroup_terms(p, alpha, d, i, j, odp), (d, i, j)
        quot = (p ** (odp * i) - 1) // d
        for k in _congruent_ks(rng, p, alpha, d, odp * i * j, quot):
            kept = c.terms(k)
            assert set(kept) <= set(terms)
            assert all(s_qk(q, k, u, v) == 0
                       for _, u, v in set(terms) - set(kept)), (d, i, j, k)
            assert count_N(ClassParams(p, alpha, k, d, i, j)) == (
                evaluate_terms(q, k, terms)), (d, i, j, k)


@pytest.mark.parametrize("args,kept,total", [
    ((2, 48, 3134, 241, 2, 0), 2, 544),
    ((5, 20, 449, 8, 10, 0), 2, 568)])
def test_count_N_walks_only_contributing_overgroups(monkeypatch, args, kept,
                                                    total):
    cp = ClassParams(*args)
    assert len(cp.terms()) == total
    calls, evaluated = [], []
    evaluate = counting.evaluate_terms

    def counted_order(v, u):
        calls.append((v, u))
        return mult_order(v, u)

    def counted_evaluate(q, k, terms):
        evaluated.append(terms)
        return evaluate(q, k, terms)

    _patch_mult_order(monkeypatch, counted_order)
    monkeypatch.setattr(counting, "evaluate_terms", counted_evaluate)
    count_N(cp)
    # the one overgroup with P nonempty; u = d reuses o_d(p)
    assert len(calls) == 1
    assert [len(terms) for terms in evaluated] == [kept]


def test_build_table_admits_the_field_once(monkeypatch):
    admitted = []
    check = numtheory.check_factored

    def counted(*args):
        admitted.append(args)
        return check(*args)

    monkeypatch.setattr(numtheory, "check_factored", counted)
    build_table(2, 6)
    assert admitted == [(2, 6)]


LISTERS = [divisor_orders, classes, class_shapes,
           lambda p, alpha: enumerate_params(p, alpha, 0),
           lambda p, alpha: class_counts(p, alpha, 1)]
LISTER_IDS = ["divisor_orders", "classes", "class_shapes", "enumerate_params",
              "class_counts"]


@pytest.mark.parametrize("lister", LISTERS, ids=LISTER_IDS)
def test_every_lister_admits_the_field_once(monkeypatch, lister):
    admitted = []
    check = numtheory.check_factored

    def counted(*args):
        admitted.append(args)
        return check(*args)

    monkeypatch.setattr(numtheory, "check_factored", counted)
    lister(2, 6)
    assert admitted == [(2, 6)]


@pytest.mark.parametrize("lister", LISTERS, ids=LISTER_IDS)
def test_every_lister_refuses_too_many_divisors_before_listing_them(
        monkeypatch, lister):
    # 2^180 - 1 has 6,291,456 divisors
    _patch_mult_order(monkeypatch,
                      lambda *args: pytest.fail("enumerated the divisors"))
    with pytest.raises(BudgetExceededError) as refused:
        lister(2, 180)
    assert str(refused.value) == (
        f"q = {2 ** 180} has at least 12582912 stabilizer classes, two for "
        "each divisor of q - 1, over the limit of 10000000")


def test_count_N_finds_each_prime_order_once(monkeypatch):
    # (2^48 - 1)/485 has 7 primes, so k = 0 keeps 2^7 overgroups; the
    # order o_u(p) of each is an lcm of the 7 orders o_{485*r}(p)
    cp = ClassParams(2, 48, 0, 485, 1, 1)
    primes = prime_set((2 ** 48 - 1) // 485)
    assert len(primes) == 7
    calls = []

    def counted(v, u):
        calls.append((v, u))
        return mult_order(v, u)

    _patch_mult_order(monkeypatch, counted)
    count_N(cp)
    assert sorted(u for _, u in calls) == [485 * r for r in primes]
    assert len(cp.terms()) == 2 ** 7


def test_overgroup_orders_from_prime_orders_bignum():
    # the classes whose walk at k = 0 and k = q has the most P, each
    # against the reference walk, which finds every o_u(p) on its own
    seen = 0
    for p, alpha in [(2, 64), (3, 30), (5, 20), (2, 48)]:
        q = p ** alpha
        for c in classes(p, alpha):
            d, i, j, odp = c.d, c.i, c.j, c.odp
            if len(prime_set((p ** (odp * i) - 1) // d)) < 6:
                continue
            terms = c.terms()
            assert terms == overgroup_terms(p, alpha, d, i, j, odp), (
                q, d, i, j)
            assert count_N(ClassParams(p, alpha, q, d, i, j)) == (
                evaluate_terms(q, q, terms)), (q, d, i, j)
            seen += 1
    assert seen == 1048


# ---------------------------------------------------------------------------
# the partition identity: every k-subset has exactly one stabilizer, so
# the class sizes weight the closed-form counts to C(q, k).  Weighted by
# |S| as well, they give Cauchy-Frobenius's sum over the maps of the
# k-subsets each fixes, and size*N*|S| / (q(q - 1)) counts the orbits of
# AGL(1, q) on the k-subsets of the class, so it is an integer


def fixed_subset_totals(p, alpha, ks):
    """Sum over the maps of AGL(1, q) of the k-subsets each fixes, for
    each k in ks: the identity; q - 1 translations with orbits of size
    p; and for each order o > 1 of a multiplier, phi(o)*q maps with one
    fixed point and (q - 1)/o cycles of length o."""
    q = p ** alpha
    orders = [(o, int(sympy.totient(o))) for o in sympy.divisors(q - 1)[1:]]
    return [math.comb(q, k) + (q - 1) * math.comb(q // p, k // p) * (k % p == 0)
            + sum(phi * q * sum(math.comb((q - 1) // o, t // o)
                                for t in (k, k - 1) if t % o == 0)
                  for o, phi in orders)
            for k in ks]


@pytest.mark.parametrize("p,alpha", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                     (2, 3), (3, 2), (2, 4)])
def test_class_sizes_match_the_subgroup_census(p, alpha):
    census = Counter(S.shape() for S in all_subgroups(Field(p, alpha)))
    assert {(c.d, c.i, c.j): class_size(c)
            for c in classes(p, alpha)} == census


def test_class_sizes_partition_every_table_up_to_q_256():
    for p, alpha in prime_powers(2, 256):
        q = p ** alpha
        sizes = {(c.d, c.i, c.j): class_size(c) for c in classes(p, alpha)}
        orders = {(c.d, c.i, c.j): c.period for c in classes(p, alpha)}
        totals = [0] * (q + 1)
        fixed = [0] * (q + 1)
        for k, d, _, i, j, _, n in build_table(p, alpha, q):
            totals[k] += sizes[d, i, j] * n
            weighted = sizes[d, i, j] * n * orders[d, i, j]
            fixed[k] += weighted
            assert weighted % (q * (q - 1)) == 0, (q, k, d, i, j)
        assert totals == [math.comb(q, k) for k in range(q + 1)], q
        assert fixed == fixed_subset_totals(p, alpha, range(q + 1)), q


@pytest.mark.parametrize("p,alpha", [(2, 64), (3, 30), (5, 20), (2, 48)])
def test_class_sizes_partition_the_bignum_fields(p, alpha):
    q = p ** alpha
    shapes = classes(p, alpha)
    sizes = [class_size(c) for c in shapes]
    ks = (0, 1, 2, 3, p, p + 1, q - 1, q)
    for k, total in zip(ks, fixed_subset_totals(p, alpha, ks)):
        counts = [c.count(k) for c in shapes]
        assert sum(s * n for s, n in zip(sizes, counts)) == (
            math.comb(q, k)), k
        weighted = [s * n * c.period
                    for s, n, c in zip(sizes, counts, shapes)]
        assert sum(weighted) == total, k
        assert all(w % (q * (q - 1)) == 0 for w in weighted), k
