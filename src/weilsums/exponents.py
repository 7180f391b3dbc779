"""Exact rational recursion for the saving exponents eta_n and the closed-form bounds.

eta_1 = eta_2 = 7*eps/27; for n >= 3,

    kappa_n = ceil((n - 2 - 7*eps/3) / (2*eta_{n-1}) + 3),
    eta_n   = 7*eps / (18*kappa_n).

Everything is computed in Fraction arithmetic; floats only appear in the
bound functions, at the boundary.
"""

import math
from dataclasses import dataclass
from fractions import Fraction


def as_fraction(x) -> Fraction:
    """Coerce int, Fraction, or a string like '7/10' to Fraction; floats rejected."""
    if isinstance(x, float):
        raise TypeError("pass an exact rational (Fraction, int, or 'a/b' string), not a float")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _check_eps(eps: Fraction):
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")


# memo keyed by (n, eps); plain dict writes are atomic under the GIL and the
# values are immutable, so concurrent readers are safe
_eta_memo: dict = {}


def eta(n: int, eps) -> Fraction:
    """Saving exponent eta_n(eps), exact."""
    eps = as_fraction(eps)
    _check_eps(eps)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= 2:
        return Fraction(7, 27) * eps
    if (known := _eta_memo.get((n, eps))) is not None:
        return known
    # fill the memo upward, so kappa(m, eps) finds eta_{m-1} there
    for m in range(3, n + 1):
        if (m, eps) not in _eta_memo:
            _eta_memo[(m, eps)] = Fraction(7, 18) * eps / kappa(m, eps)
    return _eta_memo[(n, eps)]


def kappa(n: int, eps) -> int:
    """Auxiliary moment order kappa_n(eps), exact ceiling."""
    eps = as_fraction(eps)
    _check_eps(eps)
    if n < 3:
        raise ValueError("kappa is defined for n >= 3")
    prev = eta(n - 1, eps)
    return math.ceil((n - 2 - Fraction(7, 3) * eps) / (2 * prev) + 3)


@dataclass(frozen=True)
class EtaTable:
    """Rows (n, kappa_n or None, eta_n) for n = 1..nmax at a fixed eps."""

    eps: Fraction
    rows: tuple


def eta_table(nmax: int, eps) -> EtaTable:
    eps = as_fraction(eps)
    _check_eps(eps)
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    rows = []
    for n in range(1, nmax + 1):
        rows.append((n, kappa(n, eps) if n >= 3 else None, eta(n, eps)))
    return EtaTable(eps, tuple(rows))


def _check_pt(p: int, tau: int):
    if p < 2:
        raise ValueError("p must be >= 2")
    if not (1 <= tau <= p - 1):
        raise ValueError(f"tau must lie in [1, p-1], got tau={tau}, p={p}")


def binomial_bound(p: int, tau: int) -> float:
    """tau^(20/27) * p^(1/9), the two-term (and Kloosterman) sum bound."""
    _check_pt(p, tau)
    return tau ** (20 / 27) * p ** (1 / 9)


def kloosterman_bound(p: int, tau: int) -> float:
    return binomial_bound(p, tau)


def monomial_bound(p: int, tau: int) -> float:
    """min(p^(1/2), tau^(1/2) p^(1/6) (log p)^(1/6)), the one-term sum bound."""
    _check_pt(p, tau)
    return min(math.sqrt(p), math.sqrt(tau) * p ** (1 / 6) * math.log(p) ** (1 / 6))


def q3_bound(p: int, tau: int) -> float:
    """tau^(11/3) + tau^5/p, the third-moment bound for two-exponent systems."""
    _check_pt(p, tau)
    return tau ** (11 / 3) + tau**5 / p


def curve_bound(d: int, p: int) -> float:
    """4 d^(4/3) p^(2/3) + 3p, the generic affine point-count bound for degree d."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if p < 2:
        raise ValueError("p must be >= 2")
    return 4 * d ** (4 / 3) * p ** (2 / 3) + 3 * p


def theorem_bound(p: int, tau: int, n: int, eps) -> float:
    """tau * p^(-eta_n(eps)); requires tau >= p^(3/7+eps)."""
    _check_pt(p, tau)
    eps = as_fraction(eps)
    rng = admissible_range(p, tau, eps)
    if not rng.above_lower:
        raise ValueError(f"tau={tau} is below p^(3/7+eps) for p={p}, eps={eps}")
    return _theorem_value(p, tau, n, eps)


def _theorem_value(p: int, tau: int, n: int, eps) -> float:
    """tau * p^(-eta_n(eps)) without the window check, for a caller that made it already."""
    return tau * p ** (-float(eta(n, eps)))


@dataclass(frozen=True)
class AdmissibleRange:
    """Exact verdicts for p^(3/7+eps) <= tau (lower) and tau <= p^(3/4) (upper)."""

    p: int
    tau: int
    eps: Fraction
    above_lower: bool
    below_upper: bool

    @property
    def inside(self) -> bool:
        return self.above_lower and self.below_upper


def window_limits(p: int, eps) -> tuple:
    """(lo, hi): the least tau with tau >= p^(3/7+eps) and the greatest with tau <= p^(3/4).

    For every tau, admissible_range(p, tau, eps) has above_lower = tau >= lo and
    below_upper = tau <= hi, so a sweep decides each prime's window once.  Both
    are exact: a float estimate of the root, then integer powers decide.
    """
    eps = as_fraction(eps)
    _check_eps(eps)
    lower = Fraction(3, 7) + eps
    a, b = lower.numerator, lower.denominator
    # tau^b >= p^a has no solution tau < p when a >= b; p stands for that
    lo = p
    if a < b:
        target = p**a
        lo = int(p ** (a / b))
        while lo > 0 and (lo - 1) ** b >= target:
            lo -= 1
        while lo**b < target:
            lo += 1
    # floor(floor(sqrt(x))^(1/2)) is the floor of x^(1/4)
    return lo, math.isqrt(math.isqrt(p**3))


def admissible_range(p: int, tau: int, eps) -> AdmissibleRange:
    """Window membership by exact integer power comparison, no floats."""
    eps = as_fraction(eps)
    _check_eps(eps)
    lower = Fraction(3, 7) + eps
    # tau >= p^(a/b)  <=>  tau^b >= p^a for positive integers
    above = tau ** lower.denominator >= p**lower.numerator
    below = tau**4 <= p**3
    return AdmissibleRange(p, tau, eps, above, below)


@dataclass(frozen=True)
class InductionLevel:
    """Parameter choice (k, l, u, v) at one level of the exponent induction."""

    level: int
    k: int
    l: int
    u: int
    v: int


def induction_trace(r: int, eps) -> list:
    """The (k, l, u, v) choices at levels r, r-1, ..., 3 down to the two-term base."""
    eps = as_fraction(eps)
    _check_eps(eps)
    if r < 3:
        raise ValueError("r must be >= 3")
    return [InductionLevel(level, kappa(level, eps), 3, level - 1, 2) for level in range(r, 2, -1)]
