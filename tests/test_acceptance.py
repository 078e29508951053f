"""Acceptance suite: every shipped guarantee, one pass/fail line each.

All numeric comparisons are exact integer equality; the only tolerances
anywhere are the wall-clock bounds stated inline.  Run with -s (or read
the captured output) to see the per-criterion PASS lines.
"""

import ast
import math
import time
from pathlib import Path

import aglstab
from aglstab.agl import Subgroup, class_representative
from aglstab.cli import EXIT_OK, main
from aglstab.counting import (ClassParams, class_shapes, count_N, mult_order,
                              s_qk)
from aglstab.designs import (a2_determinations, design_to_code, johnson_check,
                             orbit_design)
from aglstab.ffield import Field
from aglstab.oracle import (count_N_bruteforce, count_N_via_lattice,
                            is_exact_stabilizer, orbit_union_masks,
                            stabilizer)
from reference import all_subgroups, build_table, full_census

PRIME_POWERS_101 = [
    (2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1),
    (2, 4), (17, 1), (19, 1), (23, 1), (5, 2), (3, 3), (29, 1), (31, 1),
    (2, 5), (37, 1), (41, 1), (43, 1), (47, 1), (7, 2), (53, 1), (59, 1),
    (61, 1), (2, 6), (67, 1), (71, 1), (73, 1), (79, 1), (3, 4), (83, 1),
    (89, 1), (97, 1), (101, 1),
]

FIELDS = {}


def field(p, alpha):
    if (p, alpha) not in FIELDS:
        FIELDS[(p, alpha)] = Field(p, alpha)
    return FIELDS[(p, alpha)]


def test_criterion_1_three_way_agreement():
    """closed form == lattice inclusion-exclusion == brute force."""
    start = time.monotonic()
    checked = 0
    for p, alpha in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                     (3, 2), (11, 1), (13, 1), (2, 4)]:
        F = field(p, alpha)
        for d, i, j in class_shapes(p, alpha):
            S = class_representative(F, d, i, j)
            for k in range(F.q + 1):
                closed = count_N(ClassParams(p, alpha, k, d, i, j))
                lattice = count_N_via_lattice(S, k)
                brute = count_N_bruteforce(S, k)
                assert closed == lattice == brute, (p, alpha, d, i, j, k)
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"three-way sweep took {elapsed:.0f}s"
    print(f"\nACCEPTANCE 1 (three-way agreement, q<=16): PASS "
          f"[{checked} triples, {elapsed:.1f}s]")


def test_criterion_2_closed_form_special_cases():
    """k in {0, 1, 2} reproduce the known exact values for all q <= 101."""
    checked = 0
    for p, alpha in PRIME_POWERS_101:
        q = p ** alpha
        for d, i, j in class_shapes(p, alpha):
            cp0 = ClassParams(p, alpha, 0, d, i, j)
            full = d == q - 1 and cp0.beta == alpha
            assert count_N(cp0) == (1 if full else 0), (q, d, i, j, 0)

            cp1 = ClassParams(p, alpha, 1, d, i, j)
            if q == 2:
                exp1 = 2 if (d == 1 and cp1.beta == 0) else 0
            else:
                exp1 = 1 if (d == q - 1 and cp1.beta == 0) else 0
            assert count_N(cp1) == exp1, (q, d, i, j, 1)

            cp2 = ClassParams(p, alpha, 2, d, i, j)
            if q % 2 == 0:
                exp2 = q // 2 if (d == 1 and cp2.beta == 1) else 0
            else:
                exp2 = (q - 1) // 2 if (d == 2 and cp2.beta == 0) else 0
            assert count_N(cp2) == exp2, (q, d, i, j, 2)
            checked += 3
    print(f"\nACCEPTANCE 2 (k in {{0,1,2}} special cases, q<=101): PASS "
          f"[{checked} values]")


def test_criterion_3_symmetry_and_upper_bound():
    """N(S, k) == N(S, q-k) and N(S, k) <= |S'| for all classes, q <= 101."""
    checked = 0
    for p, alpha in PRIME_POWERS_101:
        q = p ** alpha
        for d, i, j in class_shapes(p, alpha):
            cps = [ClassParams(p, alpha, k, d, i, j) for k in range(q + 1)]
            values = [count_N(cp) for cp in cps]
            for k, (cp, n) in enumerate(zip(cps, values)):
                assert n == values[q - k], (q, d, i, j, k)
                assert n <= s_qk(q, k, d, cp.h_size), (q, d, i, j, k)
                checked += 1
    print(f"\nACCEPTANCE 3 (symmetry and |S'| bound, q<=101): PASS "
          f"[{checked} values]")


def test_criterion_4_partition_identity():
    """Exhaustive censuses partition C(q, k) and match the closed form."""
    for p, alpha in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                     (3, 2), (11, 1), (13, 1)]:
        F = field(p, alpha)
        q = F.q
        groups = all_subgroups(F)
        classes = {S: ClassParams(p, alpha, 0, *S.shape()) for S in groups}
        for k in range(q + 1):
            census = full_census(F, k)
            assert sum(census.values()) == math.comb(q, k)
            for S in groups:
                cp = classes[S]
                expected = count_N(
                    ClassParams(p, alpha, k, cp.d, cp.i, cp.j))
                assert census.get(S, 0) == expected, (q, k, S)

    census = full_census(field(7, 1), 3)
    by_order = {}
    for S, n in census.items():
        by_order[S.order] = by_order.get(S.order, 0) + n
    assert by_order == {3: 14, 2: 21}
    assert sum(by_order.values()) == 35
    print("\nACCEPTANCE 4 (partition identity, q<=13; q=7,k=3 ledger "
          "{order 3: 14, order 2: 21}): PASS")


def test_criterion_5_prime_to_p_positivity_with_single_exception():
    """The trivial-translation classes are positive for every admissible
    (q, k, d) with q <= 31, except exactly (7, 3, 1)."""
    exception = ClassParams(7, 1, 3, 1, 1, 0)
    assert count_N(exception) == 0

    instances = 0
    for p, alpha in [pa for pa in PRIME_POWERS_101 if pa[0] ** pa[1] <= 31]:
        q = p ** alpha
        for k in range(3, q // 2 + 1):
            if k % p == 0:
                continue
            for d in range(1, q):
                if (q - 1) % d or k % d not in (0, 1 % d):
                    continue
                if (q, k, d) == (7, 3, 1):
                    continue
                i = alpha // mult_order(p, d)
                n = count_N(ClassParams(p, alpha, k, d, i, 0))
                assert n > 0, (q, k, d)
                instances += 1
    assert instances >= 50
    print(f"\nACCEPTANCE 5 ((7,3,1) is the lone zero; {instances} admissible "
          f"(q,k,d) positive, q<=31): PASS")


def test_criterion_6_design_pipeline(capsys):
    """The CLI design command emits the expected (7,14,6,3,2) pipeline and
    every orbit design at q <= 13 passes the axioms and Johnson equality."""
    code = main(["design", "--q", "7", "--k", "3", "--d", "3"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "design v=7 b=14 r=6 k=3 lambda=2" in out
    assert "code n=14 d=8 w=6 size=7" in out
    assert "johnson equality: 56/8 = 7: PASS" in out
    assert "A2(14,8,6) = 7" in out

    designs_checked = 0
    for p, alpha in [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1)]:
        F = field(p, alpha)
        q = F.q
        for d, i, j in class_shapes(p, alpha):
            S = class_representative(F, d, i, j)
            for k in range(2, q // 2 + 1):
                cp = ClassParams(p, alpha, k, d, i, j)
                if cp.congruence_violation(k) is not None or count_N(cp) == 0:
                    continue
                mask = next(m for m in orbit_union_masks(S, k)
                            if is_exact_stabilizer(S, m))
                params, matrix = orbit_design(S, mask)
                code_params, _ = design_to_code(matrix)
                assert johnson_check(code_params), (q, k, d, i, j)
                a2 = a2_determinations(S, k)
                assert a2.size == q
                designs_checked += 1
    with capsys.disabled():
        print(f"\nACCEPTANCE 6 (design/code pipeline; {designs_checked} orbit "
              f"designs at q<=13 pass axioms + Johnson equality): PASS")


def test_criterion_7_table_generation():
    """Tables for every prime power q <= 101 in < 60s apiece, rows valid."""
    slowest = 0.0
    rows_total = 0
    for p, alpha in PRIME_POWERS_101:
        q = p ** alpha
        start = time.monotonic()
        table = build_table(p, alpha)
        elapsed = time.monotonic() - start
        slowest = max(slowest, elapsed)
        assert elapsed < 60, f"table for q={q} took {elapsed:.0f}s"
        shapes = set(class_shapes(p, alpha))
        for k, d, odp, i, j, beta, N in table:
            cp = ClassParams(p, alpha, k, d, i, j)
            assert (d, i, j) in shapes
            assert k <= q // 2
            assert cp.congruence_violation(k) is None
            assert beta == cp.beta and odp == cp.odp
            assert N >= 0
            assert N == count_N(cp)
        rows_total += len(table)
        # the zero pattern: congruence-violating tuples count 0
        for d, i, j in class_shapes(p, alpha):
            for k in range(min(q, 2 * d * p ** (ClassParams(
                    p, alpha, 0, d, i, j).beta)) + 1):
                cp = ClassParams(p, alpha, k, d, i, j)
                if cp.congruence_violation(k) is not None:
                    assert count_N(cp) == 0, (q, d, i, j, k)
    print(f"\nACCEPTANCE 7 (tables for all q<=101; {rows_total} rows, "
          f"slowest field {slowest:.1f}s < 60s): PASS")


def test_criterion_8_positivity_fixtures():
    """Known families of subsets with prescribed stabilizers have positive
    counts: subspace stabilizers, trivial-class congruence families, and
    the product construction inside a proper subfield."""
    # stabilizer of an additive subspace H itself: class d = p**i - 1 with
    # |H| = p**beta, |H'| = p**i, at k = p**beta
    fixtures = 0
    for p, alpha in [(2, 3), (2, 4), (3, 3), (2, 6)]:
        q = p ** alpha
        pairs = [(0, alpha), (alpha, alpha)]
        pairs += [(beta, i) for beta in range(1, alpha)
                  for i in range(1, beta + 1)
                  if math.gcd(alpha, beta) % i == 0]
        for beta, i in pairs:
            d = p ** i - 1
            j = 0 if beta == 0 else (1 if beta == alpha else beta // i)
            cp = ClassParams(p, alpha, p ** beta, d, 1, j)
            assert cp.beta == beta
            assert count_N(cp) > 0, (q, beta, i)
            fixtures += 1
    # oracle cross-check of one such stabilizer at q = 16: the stabilizer
    # of H as a subset is exactly S(gamma**((q-1)/(p**i-1)), 0, H)
    F16 = field(2, 4)
    S = class_representative(F16, 3, 1, 1)     # |H| = 4, |H'| = 4
    got = stabilizer(F16, S.H.cosets()[0])
    assert got == Subgroup(F16, 3, 0, S.H)

    # trivial-translation congruence family: d = 1, beta = 0, with
    # k = 2 mod 4 (p = 2) or k = 0 mod p (p odd), 3 <= k <= q/2
    for p, alpha in [(2, 4), (2, 5), (2, 6), (5, 2), (3, 3), (7, 2)]:
        q = p ** alpha
        ks = (range(6, q // 2 + 1, 4) if p == 2
              else range(p, q // 2 + 1, p))
        for k in ks:
            if k < 3:
                continue
            assert count_N(ClassParams(p, alpha, k, 1, alpha, 0)) > 0, (q, k)
            fixtures += 1

    # product construction inside a proper subfield F_{p**beta}: a c-fold
    # symmetric subset of size k1 within each of d cosets of H, giving
    # N(S(gamma**((q-1)/c), 0, H), k1 * p**(beta*d)) > 0.
    # q = 25: c = 2, k1 = 2, |H| = 5;  q = 81: c = 2, k1 = 2, |H| = 9.
    q25 = count_N(ClassParams(5, 2, 10, 2, 1, 1))
    assert q25 > 0
    q81 = count_N(ClassParams(3, 4, 18, 2, 2, 1))
    assert q81 > 0
    # the q = 2**6 analogue with |H| = |H'| = 4 (d = 3), brute-checked in
    # development: N = 5 at k = 12
    assert count_N(ClassParams(2, 6, 12, 3, 1, 1)) == 5
    fixtures += 3
    print(f"\nACCEPTANCE 8 (positivity fixtures: {fixtures} instances): PASS")


def test_criterion_9_checks_survive_python_O():
    # python -O strips assert statements; every check in the library must
    # be a raise
    modules = sorted(Path(aglstab.__file__).parent.glob("*.py"))
    assert len(modules) >= 7
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        asserts = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Assert)]
        assert not asserts, (path.name, asserts)
    print(f"\nACCEPTANCE 9 (no assert statement in the {len(modules)} "
          f"library modules): PASS")
