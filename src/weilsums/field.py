"""Prime fields, multiplicative subgroups, additive characters, and the tables of
powers c*m^j mod q, and sums of them, that every orbit of F_p* is built from."""

import functools
import math
from collections import OrderedDict

import numpy as np

from . import poly

MAX_PRIME = 1 << 62
# Below this modulus a product of two residues fits in int64.
INT64_MODULUS_LIMIT = 1 << 31
CHAR_TABLE_LIMIT = 1 << 20


class GuardExceeded(ValueError):
    """A documented size guard was exceeded; carries the guard name."""

    def __init__(self, guard: str, actual, limit):
        self.guard = guard
        self.actual = actual
        self.limit = limit
        super().__init__(f"guard {guard}: {actual} exceeds limit {limit}")

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10**24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 2**64."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """Find a nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    # Deterministic parameter sweep; every composite below 2**62 falls to some (y0, c).
    for c in range(1, 64):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"factorization failed for {n}")


def factorize(n: int) -> dict:
    """Prime factorization of n >= 1 as {prime: multiplicity}."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict = {}
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_brent(m)
        stack.append(d)
        stack.append(m // d)
    return out


def divisors(n: int) -> list:
    """All positive divisors of n >= 1, sorted ascending."""
    out = [1]
    for q, mult in factorize(n).items():
        out = [d * q**i for d in out for i in range(mult + 1)]
    return sorted(out)


@functools.lru_cache(maxsize=4096)
def least_primitive_root(p: int) -> int:
    """Smallest positive primitive root modulo p, memoized per prime: every subgroup
    and complete sum asks for it, and each first call factorizes p - 1."""
    if p == 2:
        return 1
    fac = factorize(p - 1)
    exps = [(p - 1) // q for q in fac]
    for g in range(2, p):
        if all(pow(g, e, p) != 1 for e in exps):
            return g
    raise ArithmeticError(f"no primitive root found modulo {p}")


# Entries per block of a table of powers or of characters: a block's products and
# residues stay in cache, and a table or batch of any length holds one block of them
# at a time.
BLOCK = 1 << 14


def powers(c, m, n: int, q: int) -> np.ndarray:
    """c*m^j mod q for j = 0..n-1, as int64, for residues c, m below q < 2^62: the
    one-chain case of `chain_sums`, its blocks written into one result.

    With equal-length sequences c and m the result is an (R, n) array whose row
    i is c[i]*m[i]^j: the steps of all R chains are taken at once, so a batch
    pays the fixed numpy cost of a chain once.
    """
    one = isinstance(c, (int, np.integer))
    c, m = ((c,), (m,)) if one else (c, m)
    out = np.empty((len(c), n), dtype=np.int64)
    if out.size <= BLOCK:
        _chain_cell(q, c, m, (n, len(c), 1), BLOCK, out)  # one block, formed without a generator
    else:
        for _ in _chain_blocks(q, c, m, [(n, len(c), 1)], BLOCK, out.reshape(-1)):
            pass
    return out[0] if one else out


def chain_sums(q: int, cells: list, block: int = BLOCK, out=None):
    """Yield the rows of a batch of sums of power chains mod q < 2^62, one after another,
    in int64 blocks of at most `block` entries: every table of powers is built here.

    cells lists (count, rows) pairs, each row a list of (c, m) residue pairs
    and count entries long: entry j is the sum of c*m^j mod q over the row's
    chains.  A constant is a chain of ratio 1, and a row of no chains is 0.

    c*m^j is the giant step c*m^(s*a) times the baby step m^b for j = s*a + b,
    (s, g) = `_step_widths(top, block)` at the longest row, and one `power_steps`
    call takes the steps of every chain.  Each row is a run of giant-step rows of
    s entries, and a block is a slice of them: whole rows of a cell, or the giant
    steps of a row too long for the room left, which then spans several blocks.
    Each piece's products, summed over the chains of each row (`_chain_products`),
    are formed in one work array and reduced (`_reduce`) into the block
    (`_chain_piece`); a batch of one cell that fits one block is that one piece
    (`_chain_cell`).  The blocks share one buffer, so a yielded block holds until
    the next is asked for; with out given, each block is written in place into
    out, which then holds every row.
    """
    cs, ms, shapes = [], [], []
    for count, rows in cells:
        # each row padded with (0, 1) chains to the cell's widest, the first chain of every row first
        width = max(map(len, rows), default=1) or 1
        for j in range(width):
            for chains in rows:
                c, m = chains[j] if j < len(chains) else (0, 1)
                cs.append(c)
                ms.append(m)
        shapes.append((count, len(rows), width))
    return _chain_blocks(q, cs, ms, shapes, block, out)


def _chain_blocks(q: int, c, m, shapes: list, block: int, out):
    """The blocks of `chain_sums` of the cells of shapes, (count, rows, width) triples whose
    chains c[i]*m[i]^j follow one another in c and m as `chain_sums` lays them out."""
    reuse = out is None
    if reuse:
        out = np.empty(min(block, sum(count * rows for count, rows, _ in shapes)), dtype=np.int64)
    if len(shapes) == 1 and shapes[0][0] * shapes[0][1] <= block:
        count, rows, _ = shapes[0]
        if count * rows:
            _chain_cell(q, c, m, shapes[0], block, out[: rows * count].reshape(rows, count))
            yield out[: rows * count]
        return
    s, g = _step_widths(max(shapes, default=(0,))[0], block)
    giants, babies = power_steps(c, m, s, g, q)
    start = n = a = 0  # the block is out[start : start + n]; a is the cell's first chain
    for count, rows, width in shapes:
        giant = giants[a : a + rows * width].reshape(width, rows, g)
        baby = babies[a : a + rows * width].reshape(width, rows, s)
        a += rows * width
        gc = -(-count // s)
        r = a0 = 0  # the next entries: row r of the cell from its giant step a0
        while r < rows and count:
            room = block - n
            if a0 == 0 and count <= room:
                # whole rows, with a work array of at most a block, or of one row
                k, a1, valid = min(rows - r, room // count, block // (gc * s) or 1), gc, count
            else:
                k, a1 = 1, min(gc, a0 + room // s)
                valid = min(count, a1 * s) - a0 * s
            if a1 == a0:  # not one giant-step row fits: the block is done
                yield out[start : start + n]
                start, n = 0 if reuse else start + n, 0
                continue
            b = start + n
            _chain_piece(giant[:, r : r + k, a0:a1], baby[:, r : r + k], q, out[b : b + k * valid].reshape(k, valid))
            n += k * valid
            if a1 == gc:
                r, a0 = r + k, 0
            else:
                a0 = a1
    if n:
        yield out[start : start + n]


def _chain_cell(q: int, c, m, shape: tuple, block: int, out: np.ndarray) -> None:
    """The rows of a batch of one cell, shape (count, rows, width), that fits one block,
    into out (rows, count): one piece, without the bookkeeping of `_chain_blocks`' loop,
    so that a short table or sum costs about what a whole-array build did."""
    count, rows, width = shape
    s, g = _step_widths(count, block)
    giants, babies = power_steps(c, m, s, g, q)
    _chain_piece(giants.reshape(width, rows, g), babies.reshape(width, rows, s), q, out)


def _chain_piece(giants: np.ndarray, babies: np.ndarray, q: int, out: np.ndarray) -> None:
    """Reduce into out, (k, n), the first n entries of each row of the products of the
    (J, k, G) giants and the (J, k, S) babies, summed over their J chains: a piece of a
    block, its products formed in one work array of k*G*S entries."""
    k, n = out.shape
    products = np.empty((k, giants.shape[2] * babies.shape[2]), dtype=np.int64)
    _chain_products(giants, babies, q, products.reshape(k, giants.shape[2], babies.shape[2]))
    _reduce(products[:, :n], q, out)


def _step_widths(top: int, block: int) -> tuple:
    """(s, g): the baby and giant steps of every chain of a batch whose longest row
    has top entries, s*g >= top, with a giant-step row of s entries inside a block."""
    s = min(math.isqrt(max(top - 1, 0)) + 1, block)
    return s, -(-top // s) or 1


def _chain_products(giants: np.ndarray, babies: np.ndarray, q: int, out: np.ndarray) -> None:
    """out = the sums over chains j of the outer products giants[j, r] x babies[j, r],
    congruent to them mod q and below 2^63, for out (R, G, S), giants (J, R, G) and babies (J, R, S).

    The one function that forms products of steps.  A group of one chain per
    row is a broadcast product, multiplied in int64 (`np.multiply`) below
    INT64_MODULUS_LIMIT and reduced by `_multiply` above it.  Below the limit a
    larger group is one matmul of k chains, k the most whose products fit below
    2^63 beside a reduced residue: every product fits 2^21 times below q = 2^21,
    and twice below 2^31.  Above it each chain is a group.  The sum is reduced
    before each further group is added.
    """
    small = q < INT64_MODULUS_LIMIT
    if len(babies) == 1:
        if small:
            np.multiply(giants[0, :, :, None], babies[0, :, None, :], out=out)
        else:
            _multiply(giants[0, :, :, None], babies[0, :, None, :], q, out=out)
        return
    k = (2**63 - q) // max(q - 1, 1) ** 2 if small else 1
    part = out
    for j in range(0, len(babies), k):
        g, b = giants[j : j + k], babies[j : j + k]
        if j:
            np.remainder(out, q, out=out)
            if part is out:
                part = np.empty_like(out)
        if len(b) == 1:
            _chain_products(g, b, q, part)
        else:
            np.matmul(g.transpose(1, 2, 0), b.transpose(1, 0, 2), out=part)
        if part is not out:
            out += part


# Entries from which `_reduce` divides: numpy's integer floor_divide by a scalar
# multiplies, so a - (a // q)*q costs about 1.6 ns an int64 entry against 3.4 ns for
# np.remainder, but it takes three calls, and np.remainder is faster below a few
# hundred entries (tools/sum_costs.py, the `reduce` rows).
_DIVIDE_ENTRIES = 512


def _reduce(a: np.ndarray, q: int, out: np.ndarray) -> None:
    """out = a mod q for an int64 array a of entries in [0, 2^63) and q >= 1, into an
    array out of a's shape that does not overlap a."""
    if a.size < _DIVIDE_ENTRIES:
        np.remainder(a, q, out=out)
    else:
        np.floor_divide(a, q, out=out)
        out *= q
        np.subtract(a, out, out=out)


# Chains times steps below which `power_steps` takes its steps in a Python loop, at
# about 0.07 us a step; doubling costs about 20 us plus 5 us per level whatever the
# number of chains (2-core x86-64, Python 3.11, numpy 2.4: 30 chains of 16 + 16
# steps took 78 us in the loop and 52 us by doubling, 10 chains of 36 + 36 took
# 54 and 67 us).
_LOOP_STEPS = 768


def power_steps(c, m, s: int, g: int, q: int) -> tuple:
    """(giants, babies) of the chains c[i]*m[i]^j mod q: int64 arrays of shape (R, g)
    and (R, s), giants[i, a] = c[i]*m[i]^(s*a) and babies[i, b] = m[i]^b, for
    equal-length sequences c and m of residues below q < 2^62.

    Few steps are taken one at a time in Python ints.  More are taken by
    doubling, for every chain at once: the first w columns times m^w give the
    next w, and m^w is squared, so a table of width w costs about 2 log2(w)
    `_multiply` calls whatever the number of chains.
    """
    if len(c) * (s + g) < _LOOP_STEPS:
        babies, giants = [], []
        for ci, mi in zip(c, m):
            x = 1
            babies.append(x)
            for _ in range(s - 1):
                x = x * mi % q
                babies.append(x)
            stride = x * mi % q
            x = ci
            giants.append(x)
            for _ in range(g - 1):
                x = x * stride % q
                giants.append(x)
        return (np.array(giants, dtype=np.int64).reshape(-1, g), np.array(babies, dtype=np.int64).reshape(-1, s))
    m = np.array(m, dtype=np.int64)
    babies = _doubling(np.ones_like(m), m, s, q)
    stride = np.empty_like(m)
    _multiply(babies[:, -1], m, q, out=stride)
    return _doubling(np.array(c, dtype=np.int64), stride, g, q), babies


def _doubling(start: np.ndarray, ratio: np.ndarray, width: int, q: int) -> np.ndarray:
    """start[i]*ratio[i]^j mod q for j < width, as an (R, width) int64 array.

    It is built column-major, one row of R chains per j, so that each level
    multiplies whole rows: a row-major build multiplies R short rows per level,
    and took 145 us against 81 us for 420 chains of 35 steps (2-core x86-64).
    """
    out = np.empty((width, len(start)), dtype=np.int64)
    out[0] = start
    ratio = ratio.copy()  # ratio^w, squared in place
    w = 1
    while w < width:
        k = min(w, width - w)
        # steps w..w+k-1 are steps 0..k-1 times ratio^w
        _multiply(out[:k], ratio, q, out=out[w : w + k])
        w += k
        if w < width:
            _multiply(ratio, ratio, q, out=ratio)
    return out.T


def _multiply(a: np.ndarray, b: np.ndarray, q: int, out: np.ndarray) -> None:
    """out = a*b mod q for int64 residues below q < 2^62, broadcast, multiplied in
    int64 below INT64_MODULUS_LIMIT and as Python ints above: the one rule for
    the products of `power_steps`, `array_power` and `inverses`, and for those of
    `_chain_products` above the limit."""
    if q < INT64_MODULUS_LIMIT:
        np.multiply(a, b, out=out)
        np.remainder(out, q, out=out)
    else:
        out[:] = a.astype(object) * b % q


def array_power(t: np.ndarray, e: int, q: int) -> np.ndarray:
    """t^e mod q entrywise, as a new int64 array, for e >= 0 and an array t of residues below
    q < 2^62, read as int64.

    Square-and-multiply, each product formed by `_multiply`.
    """
    out = np.ones(t.shape, dtype=np.int64)
    base = t.astype(np.int64)
    while e:
        if e & 1:
            _multiply(out, base, q, out=out)
        e >>= 1
        if e:
            _multiply(base, base, q, out=base)
    return out


def inverses(t: np.ndarray, q: int) -> np.ndarray:
    """The inverse mod q of each nonzero residue of the int64 array t, and 0 where t is 0, as int64.

    One batch (Montgomery) inversion for every prime q < 2^62: t, with its zeros
    replaced by 1, is read in place as r = sqrt(n/64) rows of c entries (the last
    may be shorter).  A forward sweep takes prefix products down the columns, one
    `array_power` pass x^(q-2) inverts the c column products, and a backward sweep
    peels each entry's inverse off them: 6r numpy calls on c entries, where a
    Fermat pass over t would make 2 log2(q) calls on all n.  t is overwritten, so
    the inversion holds one more array of len(t) entries; a caller that reads t
    afterwards passes a copy.
    """
    n = len(t)
    zero = np.flatnonzero(t == 0)  # indices, not a mask: few entries are 0
    t[zero] = 1
    r = math.isqrt(n >> 6) + 1
    c = -(-n // r)
    pre = np.empty_like(t)
    # rows of t, and of pre: the products of rows 0..i of each column
    block = [t[i * c : (i + 1) * c] for i in range(r)]
    rows = [pre[i * c : (i + 1) * c] for i in range(r)]
    rows[0][:] = block[0]
    for i in range(1, r):
        w = len(block[i])
        _multiply(rows[i - 1][:w], block[i], q, out=rows[i])
    # the column products: the last row's, then the row above's where the last row is short
    w = len(block[-1])
    inv = array_power(np.concatenate((rows[-1], rows[max(r - 2, 0)][w:])), q - 2, q)
    # inv: the inverse of the column products of rows 0..i, from i = r - 1 down;
    # row i of the inverses, written over rows[i], is inv times rows[i - 1]
    for i in range(r - 1, 0, -1):
        w = len(block[i])
        _multiply(inv[:w], rows[i - 1][:w], q, out=rows[i])
        _multiply(inv[:w], block[i], q, out=inv[:w])
    rows[0][:] = inv
    pre[zero] = 0
    return pre


# Character tables held at once, in bytes: the half tables actually held, about
# sixteen of them at CHAR_TABLE_LIMIT (each den//2 + 1 complex128 entries).
CHAR_TABLE_BYTES = 8 * 16 * CHAR_TABLE_LIMIT


class _TableCache(OrderedDict):
    """den -> half table, least recently used first, and held: the bytes of the tables it holds.

    `_unit_table` is its one writer and keeps held up to date, so a build never
    adds up the tables already cached.
    """

    held = 0


_unit_tables = _TableCache()


def _unit_table(den: int) -> np.ndarray:
    """complex128 table of exp(2*pi*i*k/den) for k = 0..den//2 only, in a byte-bounded LRU cache.

    The entries above den/2 are not held: `_table_roots` reads them as conjugates.
    The table is built in blocks, so that the build holds it and one block of
    indices, where the indices of the whole half took 4 MB more at den near 10^6.
    """
    tab = _unit_tables.get(den)
    if tab is not None:
        _unit_tables.move_to_end(den)
        return tab
    tab = np.empty(den // 2 + 1, dtype=np.complex128)
    for k in range(0, len(tab), BLOCK):
        _cis(math.tau / den, np.arange(k, min(k + BLOCK, len(tab)), dtype=np.int64), out=tab[k : k + BLOCK])
    tab.flags.writeable = False  # every caller shares the cached table
    if tab.nbytes <= CHAR_TABLE_BYTES:
        while _unit_tables.held + tab.nbytes > CHAR_TABLE_BYTES:
            _unit_tables.held -= _unit_tables.popitem(last=False)[1].nbytes
        _unit_tables[den] = tab
        _unit_tables.held += tab.nbytes
    return tab


# the sign bit of a float64, as an int64 mask
_SIGN_BIT = np.int64(np.iinfo(np.int64).min)


def _table_roots(tab: np.ndarray, k: np.ndarray, den: int, out=None) -> np.ndarray:
    """exp(2*pi*i*z/den) for each z of an int64 array k with entries in [0, den), from
    the half table tab = _unit_table(den), into out, a complex128 array of k's shape
    (a new one if None), which it returns.

    The entry at z > den/2 is the one at j = den - z with its sine's sign bit
    flipped.  That is its exact value: the full build computed it at angle
    -(tau/den)*j, the exact negation of the angle at j, and libm's cos is even and
    its sin odd, bit for bit.  The sine at 1 <= j < den/2 is positive, so the
    flip is a conjugate; for even den the entry at den/2 is read, never flipped (its
    sine is a tiny number, negative for some den).  k is only read, and den is the
    one Python scalar that numpy converts.
    """
    j = np.subtract(den, k)
    np.minimum(j, k, out=j)
    # every j is in [0, den/2]: "clip" checks nothing and, unlike "raise", writes out unbuffered
    out = tab.take(j, out=out, mode="clip")
    # min(den - z, z) - z is negative, its sign bit set, exactly where den - z < z, that is z > den/2
    flip = np.subtract(j, k, out=j)
    np.bitwise_and(flip, _SIGN_BIT, out=flip)
    sine = out.view(np.int64)[..., 1::2]
    np.bitwise_xor(sine, flip, out=sine)
    return out


def _cis(scale: float, k: np.ndarray, den=None, out=None) -> np.ndarray:
    """cos(angle) + i*sin(angle) = exp(1j*angle) at angle = scale*k (/den), bit for bit, formed in
    the complex128 result out (a new array if None)."""
    if out is None:
        out = np.empty(k.shape, np.complex128)
    angle = np.multiply(scale, k, out=out.real)
    if den is not None:
        angle /= den
    np.sin(angle, out=out.imag)
    np.cos(angle, out=angle)
    return out


def unit_roots(k: np.ndarray, den: int, out=None) -> np.ndarray:
    """exp(2*pi*i*z/den) for each z of an int64 array k with entries in [0, den), into out, a
    complex128 array of k's shape (a new one if None): from the half table up to
    CHAR_TABLE_LIMIT, from cos and sin above it."""
    if den <= CHAR_TABLE_LIMIT:
        return _table_roots(_unit_table(den), k, den, out)
    # fold k into (-den/2, den/2] by integer ops, the one temporary beside the result
    folded = k + (den - 1) // 2
    folded %= den
    folded -= (den - 1) // 2
    return _cis(math.tau, folded, den, out)


class PrimeModulus:
    """A prime p < 2**62; char_table tabulates its additive character z -> exp(2*pi*i*z/p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool):
            raise TypeError("modulus must be an int")
        if p < 2 or p >= MAX_PRIME:
            raise ValueError(f"modulus out of range: {p}")
        if not is_prime(p):
            raise ValueError(f"modulus must be prime: {p}")
        self.p = p

    def __repr__(self):
        return f"PrimeModulus({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeModulus) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeModulus", self.p))

    def char_table(self):
        """The cached complex128 table of exp(2*pi*i*z/p) for z = 0..p//2, or None when p is too large
        to tabulate; `_table_roots` reads every z in [0, p) from it."""
        if self.p <= CHAR_TABLE_LIMIT:
            return _unit_table(self.p)
        return None


_modulus_cache: dict = {}


def prime_modulus(p) -> PrimeModulus:
    """Coerce an int (or PrimeModulus) to a cached PrimeModulus."""
    if isinstance(p, PrimeModulus):
        return p
    m = _modulus_cache.get(p)
    if m is None:
        m = PrimeModulus(p)
        _modulus_cache[p] = m
    return m


class SubgroupSpec:
    """Multiplicative subgroup of F_p* of order tau, generated by theta."""

    def __init__(self, modulus, tau: int, theta: int):
        self.modulus = prime_modulus(modulus)
        p = self.modulus.p
        if tau < 1 or (p - 1) % tau != 0:
            raise ValueError(f"tau={tau} does not divide p-1={p - 1}")
        theta %= p
        if theta == 0:
            raise ValueError("generator must be a unit")
        # theta must have order exactly tau, not a proper divisor
        if pow(theta, tau, p) != 1:
            raise ValueError(f"theta={theta} does not have order {tau} mod {p}")
        for q in factorize(tau):
            if pow(theta, tau // q, p) == 1:
                raise ValueError(f"theta={theta} has order dividing {tau // q}, not {tau}")
        self.tau = tau
        self.theta = theta
        self._elements = None

    @property
    def p(self) -> int:
        return self.modulus.p

    @property
    def cofactor(self) -> int:
        """Index s = (p-1)/tau of the subgroup in F_p*."""
        return (self.modulus.p - 1) // self.tau

    def enumerate(self):
        """Yield theta^1, theta^2, ..., theta^tau (= 1) in generator order."""
        p = self.modulus.p
        g = 1
        for _ in range(self.tau):
            g = g * self.theta % p
            yield g

    @property
    def elements(self) -> tuple:
        if self._elements is None:
            self._elements = tuple(self.enumerate())
        return self._elements

    def __contains__(self, x: int) -> bool:
        x %= self.modulus.p
        return x != 0 and pow(x, self.tau, self.modulus.p) == 1

    def __repr__(self):
        return f"SubgroupSpec(p={self.modulus.p}, tau={self.tau}, theta={self.theta})"


def subgroup(p, tau: int) -> SubgroupSpec:
    """Canonical order-tau subgroup of F_p*, generated by g**((p-1)/tau) for the least primitive root g."""
    mod = prime_modulus(p)
    if tau < 1 or (mod.p - 1) % tau != 0:
        raise ValueError(f"tau={tau} does not divide p-1={mod.p - 1}")
    g = least_primitive_root(mod.p)
    theta = pow(g, (mod.p - 1) // tau, mod.p)
    return SubgroupSpec(mod, tau, theta)


# Largest p whose discrete logarithms `orbit_labels` takes from a table: one int32 entry per
# residue, 64 MB at the limit, held for one prime at a time.
LOG_TABLE_LIMIT = 1 << 24


@functools.lru_cache(maxsize=1)
def log_table(p: int) -> np.ndarray:
    """Read-only int32 table of p entries: g^log[x] = x for x != 0 and the least primitive root g (log[0] = 0).

    The powers of g are formed in blocks of 2^20, so the build holds the table and one block.
    """
    if p > LOG_TABLE_LIMIT:
        raise GuardExceeded("log table", p, LOG_TABLE_LIMIT)
    g, n, block = least_primitive_root(p), p - 1, 1 << 20
    log = np.zeros(p, dtype=np.int32)
    for start in range(0, n, block):
        stop = min(n, start + block)
        log[powers(pow(g, start, p), g, stop - start, p)] = np.arange(start, stop, dtype=np.int32)
    log.setflags(write=False)
    return log


@functools.lru_cache(maxsize=64)
def orbit_labels(p: int, s: int, nvec: tuple) -> tuple:
    """(label, sizes, count) for the orbits of F_p^r, r = len(nvec) <= 2, under x -> (l^{s n_1} x_1, ..., l^{s n_r} x_r), l in F_p*.

    label maps r int64 arrays of residues to int64 labels, one per orbit;
    sizes lists (first label, orbit size) pairs in order, each size holding
    from its first label to the next; count is the number of orbits.  These
    are the orbits of the order-(p-1)/s subgroup acting with exponents nvec.
    For r = 1 the orbit of a != 0 is a coset of the (s n_1)-th powers,
    labelled a^(N/c) with N = p - 1 and c = gcd(s n_1, N), and 0 is labelled
    0: no table.  For r = 2, with d = gcd(n_1, n_2),
    n_i = d n_i', e1 n_1' + e2 n_2' = 1 and c = gcd(s d, N), a pair a = g^i,
    b = g^j != 0 is labelled (n_2' i - n_1' j mod N) c + (e1 i + e2 j mod c),
    below N c; (a, 0) and (0, b) follow with i mod gcd(s n_1, N) and j mod
    gcd(s n_2, N), and (0, 0) is last.  The logarithms come from `log_table`,
    fetched at each call, so no label keeps a table alive.
    """
    N = p - 1
    if len(nvec) == 1:
        c = math.gcd(s * nvec[0], N)
        return (lambda a: array_power(a, N // c, p)), ((0, 1), (1, N // c)), c + 1
    m, n = nvec
    d = math.gcd(m, n)
    c, ca, cb = math.gcd(s * d, N), math.gcd(s * m, N), math.gcd(s * n, N)
    on_a, on_b, origin = np.int64(N * c), np.int64(N * c + ca), np.int64(N * c + ca + cb)
    # each factor is reduced first, so the int64 products stay below N^2 whatever the exponents;
    # numpy scalars keep the sums and products of int32 logarithms in int64
    m1, n1 = m // d, n // d
    e1 = pow(m1, -1, n1)
    m1, n1, e1, e2 = (np.int64(x) for x in (m1 % N, n1 % N, e1 % c, (1 - e1 * m1) // n1 % c))

    def label(a, b):
        log = log_table(p)
        i, j = log[a], log[b]
        out = (n1 * i - m1 * j) % N
        if c > 1:
            out *= c
            out += (e1 * i + e2 * j) % c
        za, zb = a == 0, b == 0
        out[zb] = on_a + i[zb] % ca
        out[za] = on_b + j[za] % cb
        out[za & zb] = origin
        return out

    return label, ((0, N // c), (int(on_a), N // ca), (int(on_b), N // cb), (int(origin), 1)), int(origin) + 1


# Splitting fields F_{p^j} = F_p[X]/(f) of the roots of unity, in `poly`'s
# representation: the reference for the products that curves.delta_eval takes over F_p.


def _is_irreducible(f, p: int) -> bool:
    """Rabin irreducibility test for monic f of degree >= 1 over F_p."""
    j = len(f) - 1
    if j == 1:
        return True
    if f[0] == 0:  # divisible by X
        return False
    x = [0, 1]
    for q in factorize(j):
        # gcd(X^(p^(j/q)) - X, f) must be trivial
        h = poly.power(x, p ** (j // q), p, f)
        if len(poly.gcd(f, poly.sub(h, x, p), p)) != 1:
            return False
    return not poly.sub(poly.power(x, p**j, p, f), x, p)


@functools.lru_cache(maxsize=None)
def _least_irreducible(p: int, j: int) -> tuple:
    """Lexicographically least monic irreducible of degree j over F_p.

    Candidates X^j + c_{j-1} X^{j-1} + ... + c_0 are ordered by the tuple
    (c_{j-1}, ..., c_1, c_0).
    """
    if j == 1:
        return (0, 1)  # f = X
    for idx in range(p**j):
        # (c_0, ..., c_{j-1}) read off little-endian from idx, so that idx
        # orders candidates by (c_{j-1}, ..., c_0)
        f = tuple(idx // p**i % p for i in range(j)) + (1,)
        if _is_irreducible(f, p):
            return f
    raise ArithmeticError(f"no irreducible polynomial of degree {j} found over F_{p}")


def roots_of_unity(p, e: int):
    """All e-th roots of unity over F_p, in their splitting field F_{p^j} = F_p[X]/(f).

    Returns (f, roots): the lexicographically least monic irreducible f of degree
    j, and roots = [w^0, w^1, ..., w^(e-1)] for a deterministic primitive e-th
    root w, each a `poly` coefficient list reduced modulo f (roots[0] is [1]).
    No command calls it: it is the reference that the tests compare the
    degeneracy products of `curves.delta_eval`, taken over F_p, against.
    """
    P = prime_modulus(p).p
    if e < 1:
        raise ValueError("e must be >= 1")
    if e % P == 0:
        raise ValueError(f"e={e} is divisible by the characteristic {P}")
    j = 1
    acc = P % e
    while acc != 1 % e:
        acc = acc * P % e
        j += 1
        if j > 64:
            raise ArithmeticError("splitting degree exceeds supported range")
    f = list(_least_irreducible(P, j))
    if e == 1:
        return f, [[1]]
    cofactor = (P**j - 1) // e
    prime_parts = [e // q for q in factorize(e)]
    # scan field elements in index order until one powers to a primitive root
    for idx in range(1, P**j):
        w = poly.power([idx // P**i % P for i in range(j)], cofactor, P, f)
        if w == [1]:
            continue
        if all(poly.power(w, m, P, f) != [1] for m in prime_parts):
            roots = [[1]]
            for _ in range(e - 1):
                roots.append(poly.rem(poly.mul(roots[-1], w, P), f, P))
            return f, roots
    raise ArithmeticError(f"no primitive {e}-th root of unity found over F_{P}")
