"""Dense univariate polynomial arithmetic over F_p.

A polynomial is a list of coefficients in [0, p), lowest degree first, with
no trailing zeros; the zero polynomial is the empty list.  Inputs may carry
trailing zeros and unreduced coefficients; every result is trimmed and
reduced.
"""


def trim(f) -> list:
    """f as a list without trailing zero coefficients."""
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def mul(f, g, p: int) -> list:
    """f * g over F_p."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                out[i + j] += x * y
    return trim(c % p for c in out)


def sub(f, g, p: int) -> list:
    """f - g over F_p."""
    out = list(f) + [0] * (len(g) - len(f))
    for i, c in enumerate(g):
        out[i] -= c
    return trim(c % p for c in out)


def deriv(f, p: int) -> list:
    """The formal derivative f' over F_p."""
    return trim(i * c % p for i, c in enumerate(f) if i)


def _divide(f, g, p: int) -> tuple:
    """(quotient, remainder) of f divided by g over F_p; g must be nonzero."""
    g = trim(g)
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    f = trim(c % p for c in f)
    inv = pow(g[-1], p - 2, p)
    dg = len(g) - 1
    q = [0] * max(len(f) - dg, 0)
    while len(f) > dg:
        c = f.pop() * inv % p
        off = len(f) - dg
        q[off] = c
        for k in range(dg):
            f[off + k] = (f[off + k] - c * g[k]) % p
        while f and f[-1] == 0:
            f.pop()
    return q, f


def rem(f, g, p: int) -> list:
    """Remainder of f divided by g over F_p; g must be nonzero."""
    return _divide(f, g, p)[1]


def quo(f, g, p: int) -> list:
    """The exact quotient f / g over F_p; g must divide f."""
    q, r = _divide(f, g, p)
    if r:
        raise ArithmeticError("the divisor does not divide the dividend")
    return q


def power(f, e: int, p: int, modulus=None) -> list:
    """f^e over F_p for e >= 0, reduced modulo the polynomial modulus when one is given."""
    out = [1]
    base = trim(f) if modulus is None else rem(f, modulus, p)
    while e:
        if e & 1:
            out = mul(out, base, p)
            if modulus is not None:
                out = rem(out, modulus, p)
        e >>= 1
        if e:
            base = mul(base, base, p)
            if modulus is not None:
                base = rem(base, modulus, p)
    return out


def gcd(f, g, p: int) -> list:
    """Monic greatest common divisor of f and g over F_p (empty when both are zero)."""
    f, g = trim(c % p for c in f), trim(c % p for c in g)
    while g:
        f, g = g, rem(f, g, p)
    if not f:
        return f
    inv = pow(f[-1], p - 2, p)
    return [c * inv % p for c in f]
