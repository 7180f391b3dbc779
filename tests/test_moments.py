"""Moment counters Q_k, value histograms, six-tuple counts, and the moment bound."""

import importlib.util
import math
import pathlib
import random
import sys
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from weilsums import convolution, field, moments
from weilsums.field import GuardExceeded
from weilsums.sums import SparsePolynomial


def independent_q(G, nvec, k):
    """Direct 2k-tuple count, written without the package's tuple machinery."""
    p = G.modulus.p
    counts = {}
    for combo in product(G.elements, repeat=k):
        key = tuple(sum(pow(g, n, p) for g in combo) % p for n in nvec)
        counts[key] = counts.get(key, 0) + 1
    return sum(c * c for c in counts.values())


def test_q_trivial_cases():
    for p, tau in ((13, 4), (31, 6)):
        G = field.subgroup(p, tau)
        # k = 1 with one exponent: x^n = y^n has exactly tau solutions
        assert moments.q_bruteforce(G, (1,), 1) == tau
    G1 = field.subgroup(13, 1)
    assert moments.q_bruteforce(G1, (1, 2), 3) == 1


def test_q_example_frozen():
    G = field.subgroup(13, 4)
    assert moments.q_bruteforce(G, (1, 2), 2) == 28
    assert moments.q_bruteforce(G, (1, 2), 3) == 256
    assert moments.q_convolution(G, (1, 2), 3) == 256


def test_q_closed_form_pair():
    # for nvec (1, 2) and odd p, Q_2 = 2*tau^2 - tau
    for p in (5, 13, 29, 41):
        for tau in field.divisors(p - 1):
            G = field.subgroup(p, tau)
            assert moments.q_bruteforce(G, (1, 2), 2) == 2 * tau * tau - tau


def test_routes_agree_with_independent_count():
    rng = random.Random("qroutes")
    for _ in range(25):
        p = rng.choice((7, 11, 13, 17))
        tau = rng.choice(field.divisors(p - 1))
        G = field.subgroup(p, tau)
        k = rng.randrange(1, 4)
        nvec = rng.choice(((1,), (1, 2), (2, 3), (1, 3)))
        want = independent_q(G, nvec, k)
        assert moments.q_bruteforce(G, nvec, k) == want
        if len(nvec) <= 2:
            assert moments.q_convolution(G, nvec, k) == want


def test_bruteforce_matches_independent_count():
    # r = 1..3, k = 1..4, every subgroup; (2, 4, 6) and (3, 6, 9) share a factor with most tau
    cases = 0
    for p in (2, 3, 5, 7, 13, 31):
        for tau in field.divisors(p - 1):
            G = field.subgroup(p, tau)
            for nvec in ((1,), (2,), (1, 2), (2, 3), (1, 2, 3), (2, 4, 6), (3, 6, 9)):
                for k in (1, 2, 3, 4):
                    if tau**k <= 3000:
                        assert moments.q_bruteforce(G, nvec, k) == independent_q(G, nvec, k), (p, tau, nvec, k)
                        cases += 1
    assert cases > 500


def test_bruteforce_blocks(monkeypatch):
    # a block budget of 12 entries: many blocks, counted by table (p^r <= 12) or by
    # sorting with merges across blocks, on one key or on three coordinate columns,
    # in passes over windows of the first coordinate (some of them empty)
    wide = [(field.subgroup(p, tau), nvec, k) for p, tau, nvec, k in ((65537, 256, (1,), 2), (1009, 63, (1, 2), 3))]
    want = [moments.q_bruteforce(*case) for case in wide]
    monkeypatch.setattr(moments, "_CHUNK", 2**10)
    assert [moments.q_bruteforce(*case) for case in wide] == want
    monkeypatch.setattr(moments, "_CHUNK", 12)
    for p, tau, nvec, k in (
        (2, 1, (1, 2), 4),
        (3, 2, (1,), 4),
        (7, 6, (1,), 3),
        (13, 6, (1, 2), 3),
        (13, 12, (2, 3), 3),
        (31, 10, (1, 3), 3),
        (31, 5, (1, 2, 3), 4),
    ):
        G = field.subgroup(p, tau)
        assert moments.q_bruteforce(G, nvec, k) == independent_q(G, nvec, k), (p, tau, nvec, k)
    assert moments.q_bruteforce(field.subgroup(2**61 - 1, 6), (1, 2, 3), 3) == 996


def test_bruteforce_above_int64_keys():
    # p^3 >= 2^63: sums are counted as rows of three coordinates, not one key
    G = field.subgroup(2**61 - 1, 6)
    assert moments.q_bruteforce(G, (1, 2, 3), 3) == 996 == independent_q(G, (1, 2, 3), 3)
    assert moments.q_bruteforce(G, (1, 2, 3), 1) == 6


def test_q_invariant_under_exponent_folding():
    # exponents act on the subgroup only through their residue mod tau
    G = field.subgroup(31, 6)
    assert moments.q_bruteforce(G, (1, 2), 2) == moments.q_bruteforce(G, (7, 8), 2)
    assert moments.q_convolution(G, (2, 3), 3) == moments.q_convolution(G, (8, 9), 3)


def test_exponent_validation():
    G = field.subgroup(13, 4)
    for bad in ((), (0,), (2, 2), (3, 1), (1, -2)):
        with pytest.raises(ValueError):
            moments.q_bruteforce(G, bad, 2)


def test_guards():
    big = field.subgroup(1009, 1008)
    with pytest.raises(GuardExceeded) as exc:
        moments.q_bruteforce(big, (1, 2), 3)  # 1008^3 > 10^8
    assert exc.value.guard == "tau^k"
    assert exc.value.limit == moments.BRUTE_FORCE_LIMIT == 10**8
    with pytest.raises(GuardExceeded):
        moments.q_bruteforce(field.subgroup(2**61 - 1, 6), (1, 2, 3), 11)  # 6^11 > 10^8
    # three exponents: no guard on r beyond what each route spends
    assert moments.q_convolution(field.subgroup(13, 4), (1, 2, 3), 2) == 28
    # p^2 > 10^8 alone no longer refuses a cell: the quotient route takes two power vectors
    small = field.subgroup(10007, 2)
    assert moments.q_convolution(small, (1, 2), 2) == moments.q_bruteforce(small, (1, 2), 2)
    # tau = p - 1, k = 3: 5*10^7 pairs for the quotient route and a grid of 10^8 for the orbit route
    with pytest.raises(GuardExceeded) as exc:
        moments.q_convolution(field.subgroup(10007, 10006), (1, 2), 3)
    assert exc.value.guard == "orbit grid"
    assert exc.value.actual == 10007 * 10006 > exc.value.limit == moments.GRID_SIZE_LIMIT
    # at k = 2 the quotient route forms tau pairs; enumeration would visit tau^2 > 10^8 tuples,
    # so the count is checked against the closed form 2 tau^2 - tau (exponents (1, 2), p odd)
    assert moments.q_convolution(field.subgroup(10007, 10006), (1, 2), 2) == 2 * 10006**2 - 10006


@pytest.mark.parametrize("p, tau", ((100801, 150), (176401, 168)))
def test_small_subgroups_of_large_fields(p, tau):
    # tau near sqrt(p), where the paper's bounds are new: the quotient route, p^2 > 10^10
    G = field.subgroup(p, tau)
    hist = _subgroup_hist(G, (1, 2))
    assert moments._route(hist, 3, p, 2, G.cofactor, (1, 2)) == ("quotient", None)
    assert moments.q_convolution(G, (1, 2), 3) == moments.q_bruteforce(G, (1, 2), 3)


def test_sparse_keys_guard():
    # 370723 is the largest prime p with p^2 <= 2^37, the keys the sparse route packs
    G = field.subgroup(370723, 411)
    assert 370723**2 <= 2**37 < 370759**2
    assert moments.q_convolution(G, (1, 2), 2) == moments.q_bruteforce(G, (1, 2), 2)
    # the next prime: the quotient route takes two power vectors, and the sparse route refuses
    # the whole histogram and three exponents past p^3 = 2^37
    G = field.subgroup(370759, 2)
    assert moments.q_convolution(G, (1, 2), 2) == moments.q_bruteforce(G, (1, 2), 2)
    with pytest.raises(GuardExceeded) as exc:
        moments.j_histogram(G, (1, 2), (1, 1), 2)
    assert (exc.value.guard, exc.value.actual, exc.value.limit) == ("sparse keys", 370759**2, 2**37)
    with pytest.raises(GuardExceeded) as exc:
        moments.q_convolution(field.subgroup(5171, 2), (1, 2, 3), 2)
    assert (exc.value.guard, exc.value.actual, exc.value.limit) == ("sparse keys", 5171**3, 2**37)


def test_j_histogram_identities():
    rng = random.Random("jhist")
    for _ in range(15):
        p = rng.choice((7, 13, 17))
        tau = rng.choice(field.divisors(p - 1))
        G = field.subgroup(p, tau)
        k = rng.randrange(1, 4)
        nvec = rng.choice(((1,), (1, 2)))
        coeffs = tuple(rng.randrange(1, p) for _ in nvec)
        hist = moments.j_histogram(G, nvec, coeffs, k)
        assert hist.mass() == tau**k
        # nonzero coefficients are invertible, so the collision count is Q_k
        assert hist.sum_of_squares() == moments.q_bruteforce(G, nvec, k)


def test_j_histogram_three_exponents():
    G = field.subgroup(31, 15)
    hist = moments.j_histogram(G, (1, 2, 3), (1, 1, 1), 3)
    assert hist.vectors.shape[1] == 3
    assert hist.mass() == 15**3
    assert hist.sum_of_squares() == moments.q_bruteforce(G, (1, 2, 3), 3)


def test_j_histogram_k1_is_indicator():
    G = field.subgroup(13, 4)
    hist = moments.j_histogram(G, (1,), (1,), 1)
    assert dict(zip(hist.vectors[:, 0].tolist(), hist.counts.tolist())) == {g: 1 for g in G.elements}
    assert hist[8] == 1
    assert hist[2] == 0


def test_j_histogram_validation():
    G = field.subgroup(13, 4)
    with pytest.raises(ValueError):
        moments.j_histogram(G, (1, 2), (1, 13), 2)  # 13 = 0 mod 13
    with pytest.raises(ValueError):
        moments.j_histogram(G, (1, 2), (1,), 2)
    with pytest.raises(ValueError):
        moments.j_histogram(G, (1,), (1,), 0)


def test_t3_frozen_values():
    # exhaustive oracle over (F_5*)^6 gives 292
    assert moments.t3_count(5, 1, 1, 2) == 292
    # full multiplicative group with s = 1: T_3 = Q_3 for G = F_p^*
    G = field.subgroup(13, 12)
    assert moments.t3_count(13, 1, 1, 2) == moments.q_bruteforce(G, (1, 2), 3)


def test_t3_dilation_relation():
    # x -> x^s is d-to-1 onto the subgroup of order (p-1)/d, d = gcd(s, p-1),
    # so the six-tuple count factors as d^6 times a Q_3 over that subgroup
    for p, s, m, n in ((13, 3, 1, 2), (31, 2, 2, 3)):
        d = math.gcd(s, p - 1)
        G = field.subgroup(p, (p - 1) // d)
        t = moments.t3_count(p, s, m, n)
        assert t == d**6 * moments.q_bruteforce(G, (m, n), 3)


def test_t3_example_13():
    assert moments.t3_count(13, 3, 1, 2) == 186624  # 3^6 * 256


def test_t3_validation_and_guard():
    with pytest.raises(ValueError):
        moments.t3_count(13, 0, 1, 2)
    with pytest.raises(ValueError):
        moments.t3_count(13, 1, 2, 2)
    with pytest.raises(GuardExceeded):
        moments.t3_count(10007, 1, 1, 2)


def test_moment_inequality_frozen_instance():
    G = field.subgroup(13, 4)
    f = SparsePolynomial.parse("1*x^1+1*x^2")
    rep = moments.verify_moment_inequality(G, f, 3, 3)
    assert rep.holds
    assert rep.q_k == rep.q_l == 256
    assert abs(rep.magnitude - 1.5379263448409657) < 1e-12
    assert abs(rep.lhs - 2316.539218759517) < 1e-6
    assert rep.rhs == Fraction(45365592064)


def test_moment_inequality_trivial_group():
    # tau = 1: |S| = 1 and the right side is p^r
    G = field.subgroup(13, 1)
    f = SparsePolynomial.parse("1*x^1+1*x^2")
    rep = moments.verify_moment_inequality(G, f, 2, 3)
    assert abs(rep.lhs - 1.0) < 1e-12
    assert rep.rhs == Fraction(13 * 13)
    assert rep.holds


def test_moment_inequality_random_sweep():
    rng = random.Random("momineq")
    for _ in range(40):
        p = rng.choice((7, 13, 17, 31))
        tau = rng.choice(field.divisors(p - 1))
        G = field.subgroup(p, tau)
        exps = sorted(rng.sample(range(1, 2 * tau + 2), rng.randrange(1, 3)))
        f = SparsePolynomial.from_pairs((e, rng.randrange(1, p)) for e in exps)
        k = rng.choice((2, 3))
        l = rng.choice((2, 3))
        rep = moments.verify_moment_inequality(G, f, k, l)
        assert rep.holds


def test_moment_inequality_validation():
    G = field.subgroup(13, 4)
    f = SparsePolynomial.parse("1*x^1")
    with pytest.raises(ValueError):
        moments.verify_moment_inequality(G, f, 0, 2)
    with pytest.raises(ValueError):
        moments.verify_moment_inequality(G, SparsePolynomial.parse("13*x^1+1*x^2"), 2, 2)
    with pytest.raises(ValueError):
        moments.verify_moment_inequality(G, SparsePolynomial((), 5), 2, 2)


def test_q_lower_bounds():
    # Q_k >= tau^{2k} / p^r and Q_k >= tau^k (diagonal tuples)
    for p in (7, 13, 17):
        for tau in field.divisors(p - 1):
            G = field.subgroup(p, tau)
            for nvec in ((1,), (1, 2)):
                r = len(nvec)
                for k in (1, 2, 3):
                    q = moments.q_bruteforce(G, nvec, k)
                    assert q >= -(-(tau ** (2 * k)) // p**r)
                    assert q >= tau**k


def _routes(hist, k, p, r):
    """Q from the forced orbit route and from the forced sparse route."""
    mass = int(hist[1].sum())
    moduli = moments._moduli(p, p**r * mass ** (2 * k))
    sparse = convolution.sum_of_squares(convolution.self_convolution_power(hist, k, p, r))
    return moments._orbit_count(hist, k, p, r, moduli), sparse


def _subgroup_hist(G, nvec):
    return moments._histogram(moments._power_vectors(G, nvec), G.modulus.p)


def test_orbit_sparse_brute_agree_on_sweep():
    # the acceptance criterion-4 sweep: p <= 31, every subgroup, k <= 3
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for tau in field.divisors(p - 1):
            G = field.subgroup(p, tau)
            for k in (1, 2, 3):
                for nvec in ((1,), (1, 2), (2, 3), (1, 3)):
                    want = moments.q_bruteforce(G, nvec, k)
                    assert _routes(_subgroup_hist(G, nvec), k, p, len(nvec)) == (want, want), (p, tau, k, nvec)


@pytest.mark.parametrize(
    "p, tau, nvec, k, want",
    ((13, 4, (1, 2, 3), 2, 28), (211, 42, (1, 2, 3), 3, 428820), (31, 15, (1, 2, 3, 4), 3, 18285)),
)
def test_routes_agree_beyond_two_exponents(p, tau, nvec, k, want):
    G = field.subgroup(p, tau)
    assert _routes(_subgroup_hist(G, nvec), k, p, len(nvec)) == (want, want)
    assert moments.q_bruteforce(G, nvec, k) == want


def test_q18_three_exponents_meets_lower_bound():
    # kappa_3 = 18 at eps = 1/10, the order at which the induction applies Lemma 3.1 to 3-term f
    G, k = field.subgroup(101, 25), 18
    q = moments.q_convolution(G, (1, 2, 3), k)
    assert q >= -(-(25 ** (2 * k)) // 101**3)
    assert q >= 25**k


def test_orbit_agrees_on_random_cases():
    # first exponents sharing a factor with tau (several cosets of H_1, and
    # power maps that are not injective), k = 1, and the primes 2 and 3
    rng = random.Random("orbitroutes")
    primes = [p for p in range(2, 110) if field.is_prime(p)]
    cases = 0
    while cases < 40:
        p = rng.choice(primes if cases % 4 else (2, 3))
        tau = rng.choice(field.divisors(p - 1))
        r = rng.choice((1, 2))
        k = 1 if cases % 5 == 0 else rng.randrange(2, 5)
        shared = [d for d in field.divisors(tau) if d > 1]
        n1 = rng.choice(shared) * rng.randrange(1, 4) if shared and cases % 2 else rng.randrange(1, 6)
        nvec = (n1,) if r == 1 else (n1, n1 + rng.randrange(1, 7))
        hist = _subgroup_hist(field.subgroup(p, tau), nvec)
        if convolution.sparse_work(len(hist[1]), k, p**r) > 300_000:
            continue
        orbit, sparse = _routes(hist, k, p, r)
        assert orbit == sparse, (p, tau, nvec, k)
        if tau**k <= 20_000:
            assert orbit == independent_q(field.subgroup(p, tau), nvec, k)
        cases += 1


def test_split_root_tables_agree(monkeypatch):
    # the two-level tables used above p = _FULL_TABLE, forced onto small primes
    monkeypatch.setattr(moments, "_FULL_TABLE", 0)
    for p in (2, 3, 5, 13, 31, 61):
        for tau in field.divisors(p - 1):
            for nvec, k in (((1,), 3), ((1, 2), 2), ((2, 3), 3)):
                hist = _subgroup_hist(field.subgroup(p, tau), nvec)
                orbit, sparse = _routes(hist, k, p, len(nvec))
                assert orbit == sparse, (p, tau, nvec, k)


def test_route_without_moduli_is_guarded(monkeypatch):
    # with too few primes q = 1 (mod p) below 2^31, only the sparse route is left at r = 3 and
    # the quotient route at r <= 2, although the orbit route's grid would admit each cell
    monkeypatch.setattr(moments, "_moduli", lambda p, bound: None)
    with pytest.raises(GuardExceeded) as exc:
        moments.q_convolution(field.subgroup(461, 460), (1, 2, 3), 3)
    assert exc.value.guard == "sparse work"
    assert exc.value.limit == moments.SPARSE_WORK_LIMIT
    with pytest.raises(GuardExceeded) as exc:
        moments.q_convolution(field.subgroup(4999, 4998), (1, 2), 3)
    assert exc.value.guard == "quotient work"
    assert exc.value.actual > exc.value.limit == moments.QUOTIENT_WORK_LIMIT
    assert moments.q_convolution(field.subgroup(601, 30), (1, 2), 3) == moments.q_bruteforce(
        field.subgroup(601, 30), (1, 2), 3
    )


def test_t3_orbit_agrees_with_sparse():
    # t3_count's histogram: (x^{sm}, x^{sn}) over x in F_p*
    for p in [p for p in range(2, 62) if field.is_prime(p)]:
        for s, m, n in ((1, 1, 2), (2, 2, 3), (3, 1, 3)):
            hist = _subgroup_hist(field.subgroup(p, p - 1), (s * m, s * n))
            orbit, sparse = _routes(hist, 3, p, 2)
            assert orbit == sparse, (p, s, m, n)


def test_route_choice():
    def route(p, tau, nvec, k):
        G = field.subgroup(p, tau)
        return moments._route(_subgroup_hist(G, nvec), k, p, len(nvec), G.cofactor, nvec)[0]

    # criterion 13: tau = p - 1 on a 1009^2 grid, where a quotient step pairs about p/2 orbits with p vectors
    assert route(1009, 1008, (1, 2), 3) == "orbit"
    # tau = 10, k = 2: one step of 10 pairs against a 2-D grid pass
    assert route(601, 10, (1, 2), 2) == "quotient"
    # k = 1 needs no step at all
    assert route(1009, 1008, (1, 2), 1) == "quotient"
    # r = 1, k = 3 at p = 7561: quotient while the orbit route's fixed cost dominates (tools/route_costs.py:
    # 0.09 ms against 0.49 ms at tau = 9, 0.12 ms against 0.45 ms at 27, 2.8 ms against 0.76 ms at 7560)
    for tau, picked in ((9, "quotient"), (27, "quotient"), (7560, "orbit")):
        assert route(7561, tau, (1,), 3) == picked, tau
    # r = 3 has no quotient route: the sparse route below its pairs limit
    assert route(31, 15, (1, 2, 3), 2) == "sparse"


def test_route_costs_script_runs(monkeypatch, capsys):
    # tools/route_costs.py on the cells of its ladder below p = 900 (each against the orbit route, r = 1 to 3)
    path = pathlib.Path(__file__).parents[1] / "tools" / "route_costs.py"
    spec = importlib.util.spec_from_file_location("route_costs", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "LADDER", tuple(cell for cell in script.LADDER if cell[0] < 900))
    monkeypatch.setattr(sys, "argv", [str(path), "--repeat", "1"])
    script.main()
    lines = capsys.readouterr().out.splitlines()
    costs = ("_ORBIT_PASS", "_ORBIT_ROW", "_ORBIT_TABLE", "_QUOTIENT_PAIR", "_QUOTIENT_STEP", "_QUOTIENT_CALL", "_SPARSE_COST",
             "_SPARSE_STEP")
    assert [line.split(":")[0] for line in lines[-8:]] == list(costs)
    assert all(line.endswith(" orbit units") for line in lines[-8:])
    # every cell is timed on the quotient route (r <= 2) or the sparse route (r = 3) against the orbit route
    picked = [line.split()[-2] for line in lines if line.startswith("  ")]
    assert set(picked) == {"quotient", "orbit", "sparse"}


def test_moduli():
    for p in (2, 3, 1009):
        found = moments._moduli(p, 2**200)
        qs = [q for q, _ in found]
        assert math.prod(qs) > 2**200 and len(set(qs)) == len(qs)
        for q, w in found:
            assert q < 2**31 and q % p == 1 and field.is_prime(q)
            assert w != 1 and pow(w, p, q) == 1
    # fewer primes q = 1 (mod p) lie below 2^31 than this bound needs
    assert moments._moduli(1048573, 2**100000) is None


def test_j_histogram_work_guard():
    # the whole histogram of 1008^3 tuples on a 1009^2 grid is refused at once
    with pytest.raises(GuardExceeded) as exc:
        moments.j_histogram(field.subgroup(1009, 1008), (1, 2), (1, 1), 3)
    assert exc.value.guard == "sparse work"
    assert exc.value.limit == moments.SPARSE_WORK_LIMIT


def test_moment_inequality_large_k():
    # k = l = 40: |S|^3200 and the right side both leave the float range
    G = field.subgroup(31, 30)
    rep = moments.verify_moment_inequality(G, SparsePolynomial.parse("1*x^1"), 40, 40)
    assert rep.holds and rep.q_k == rep.q_l
    rep = moments.verify_moment_inequality(field.subgroup(31, 5), SparsePolynomial.parse("1*x^1+3*x^2"), 40, 40)
    assert rep.lhs == math.inf and rep.holds


def test_routes_agree_property():
    # the sparse and orbit routes are exact integer counts, so they agree on
    # every cell; k steps down until the sparse route stays cheap
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    primes = [p for p in range(2, 110) if field.is_prime(p)]

    @hyp.settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @hyp.given(
        st.sampled_from(primes),
        st.integers(0, 2**32),
        st.lists(st.integers(1, 12), min_size=1, max_size=2, unique=True),
        st.integers(1, 4),
    )
    def check(p, t, nvec, k):
        taus = field.divisors(p - 1)
        G = field.subgroup(p, taus[t % len(taus)])
        r = len(nvec)
        hist = _subgroup_hist(G, tuple(nvec))
        while k > 1 and convolution.sparse_work(len(hist[1]), k, p**r) > 300_000:
            k -= 1
        orbit, sparse = _routes(hist, k, p, r)
        assert orbit == sparse, (p, G.tau, nvec, k)

    check()


def test_quotient_route_matches_bruteforce():
    # every tau | p - 1 with tau^k <= 2*10^5 at random p <= ~700: exponent pairs sharing a factor,
    # sums that land on an axis or at 0 (tau even: g + (-g) = 0), tau = p - 1 as t3_count uses, k <= 4
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    primes = [p for p in range(3, 710) if field.is_prime(p)]
    pairs = ((1,), (2,), (1, 2), (2, 4), (3, 6), (1, 3), (2, 3), (4, 6), (1, 6))

    @hyp.settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @hyp.given(st.sampled_from(primes), st.sampled_from(pairs), st.integers(1, 4))
    def check(p, nvec, k):
        for tau in field.divisors(p - 1):
            if tau**k > 2 * 10**5:
                continue
            G = field.subgroup(p, tau)
            hist = _subgroup_hist(G, nvec)
            assert moments._quotient_count(hist, k, p, G.cofactor, nvec) == moments.q_bruteforce(G, nvec, k), (
                p, tau, nvec, k)

    check()


@pytest.mark.parametrize("p, k", ((101, 40), (257, 70)))
def test_quotient_route_object_counts(p, k):
    # G = {1, -1}: the sums j - (k - j) are distinct mod p, so Q_k = sum_j C(k, j)^2 = C(2k, k);
    # 2^80 > 2^63 takes the last sum in Python ints, and 2^70 every total
    G = field.subgroup(p, 2)
    assert moments._quotient_count(_subgroup_hist(G, (1,)), k, p, G.cofactor, (1,)) == math.comb(2 * k, k)
    assert moments.q_convolution(G, (1,), k) == math.comb(2 * k, k)


def test_q_convolution_takes_no_sparse_step_below_three_exponents(monkeypatch):
    # r <= 2 goes by the quotient or the orbit route, also where the orbit route has no moduli
    def refuse(*args):
        raise AssertionError("self_convolution_power called")

    monkeypatch.setattr(convolution, "self_convolution_power", refuse)
    for p, tau, nvec, k in ((31, 30, (1, 2), 3), (601, 10, (1,), 4), (1009, 1008, (1, 2), 3), (7561, 7560, (1,), 3),
                            (370723, 411, (1, 2), 2), (101, 25, (1, 2), 18), (13, 4, (2, 4), 1)):
        G = field.subgroup(p, tau)
        want = moments.q_convolution(G, nvec, k)
        if tau**k <= 10**6:
            assert want == moments.q_bruteforce(G, nvec, k)
    monkeypatch.setattr(moments, "_moduli", lambda p, bound: None)
    G = field.subgroup(601, 600)
    assert moments.q_convolution(G, (1, 2), 2) == moments.q_bruteforce(G, (1, 2), 2)


def test_quotient_route_memory():
    # formerly 19.8*10^6 sparse pairs and 584 MB; the quotient route forms 58480 pairs
    tracemalloc = pytest.importorskip("tracemalloc")
    G = field.subgroup(370261, 340)
    tracemalloc.start()
    try:
        assert moments.q_convolution(G, (1, 2), 3) == 234809440
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


def test_sum_orbits_past_the_packed_keys():
    # orbit labels that would pass 2^63 packed beside the entry index (10 bits for
    # 1000 entries, labels up to 49 * 2^48 > 2^53) take an argsort in
    # convolution._sum_equal, with the same sums
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 50, 1000, dtype=np.int64) * 2**48
    weights = rng.integers(1, 9, 1000, dtype=np.int64)
    got = convolution._sum_equal(labels.copy(), weights, 2**54, True)
    want = convolution._sum_equal(labels // 2**48, weights, 50, True)
    assert (got[0] == want[0] * 2**48).all() and (got[1] == want[1]).all()
    assert (labels[got[2]] == got[0]).all()
    # a merge of blocks keeps one representative of each label, on both routes
    parts = [
        (np.array([1, 3, 5]), np.array([1, 1, 2]), np.array([[10, 30, 50]])),
        (np.array([2, 3, 6]), np.array([4, 1, 1]), np.array([[20, 31, 60]])),
    ]
    for bound in (7, 2**62):
        merged, totals, reps = convolution._merge(parts, bound)
        assert merged.tolist() == [1, 2, 3, 5, 6] and totals.tolist() == [1, 4, 2, 2, 1]
        assert reps.shape == (1, 5) and reps[0, 2] in (30, 31)
        assert reps[0, [0, 1, 3, 4]].tolist() == [10, 20, 50, 60]


def test_second_route_differs(monkeypatch):
    # q_second_route takes the route that q_convolution does not, and agrees with enumeration
    calls = []
    for name in ("_quotient_count", "_orbit_count", "q_bruteforce"):
        real = getattr(moments, name)
        monkeypatch.setattr(moments, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    for p, tau, nvec in ((131, 130, (1, 2)), (211, 210, (2, 3)), (601, 40, (1, 2)), (421, 105, (2, 3))):
        G = field.subgroup(p, tau)
        hist = _subgroup_hist(G, nvec)
        picked = moments._route(hist, 3, p, 2, G.cofactor, nvec)[0]
        calls.clear()
        second = moments.q_second_route(G, nvec, 3)
        assert calls == ["_orbit_count" if picked == "quotient" else "_quotient_count"], (p, tau, picked)
        assert second == moments.q_convolution(G, nvec, 3) == moments.q_bruteforce(G, nvec, 3)
    # enumeration where the orbit route's grid refuses the cell
    G = field.subgroup(100801, 100)
    calls.clear()
    assert moments.q_second_route(G, (1, 2), 3) == moments.q_convolution(G, (1, 2), 3)
    assert calls[0] == "q_bruteforce"
    with pytest.raises(ValueError):
        moments.q_second_route(G, (1, 2, 3), 2)


def test_exponents_as_a_list():
    G = field.subgroup(31, 10)
    assert moments.q_convolution(G, [1, 2], 3) == moments.q_second_route(G, [1, 2], 3) == 5230
