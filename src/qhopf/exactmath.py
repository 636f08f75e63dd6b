"""Exact arithmetic in cyclotomic fields and sparse exact linear algebra.

Scalars are elements of Q(zeta_m), stored in the power basis of the m-th
cyclotomic polynomial Phi_m (m = 1 gives plain rationals) as integer
numerators ``num`` over one positive denominator ``den``.  The form is
canonical after every operation: ``num`` stops at the highest nonzero
power, so ``len(num) <= euler_phi(m)``, a rational is a 1-tuple and zero is
``()`` over 1; ``den > 0`` and ``gcd(den, *num) == 1``.  Equality on one
order is therefore a literal comparison.  The hash is that of the
normalised trace Tr(x) / phi(m), which embedding does not change, so it
agrees with ``==`` across orders.  Two scalars of different orders meet in
Q(zeta_lcm), the smallest field holding both, whether or not one order
divides the other.

A product convolves only the stored numerators, so a rational or a
low-degree value costs no more than its degree; powers x^k with k >= phi
are reduced by a per-order table of x^k mod Phi_m, built once; Phi_m is
monic, so the table is integer and no ``Fraction`` is made.  The public
constructor accepts rational coefficients of any length: it clears their
denominators, folds x^m = 1 and reduces through the same table.  An
inverse is the product of the other Galois conjugates over the rational
norm.  Only the public constructors and the read-only ``coeffs`` and
``to_fraction`` views use ``Fraction``.

A matrix stores row i as ``data[i]``, a dict from column index to the
nonzero entry there; it never stores a zero, just as a ``tensorspace.Tensor``
never does.  The constructor takes dense rows, ``from_entries`` takes
((row, col), entry) pairs to sum, ``from_flat`` takes distinct nonzero
entries at row-major positions, and ``dense`` is the one dense view.
Every operation reads only the stored entries.  A plain sum goes through
``collect``, which sums in one pass and never stores a zero: a zero term
is skipped before its key is read, so its field never meets the stored
one, and a key whose running sum cancels is deleted at once (a later
term on it stores it again).  Every sum of products in the engine goes
through ``collect_products``, which takes each product as its two
factors: it gathers the factors that land on each key into one dict and
writes each key's sum over its gathered entry there, multiplying a lone
product as ``times`` does (so a one of the same field costs no
multiplication) and summing two or more with ``sum_of_products``, as
integer numerators over one common denominator put in canonical form
once, with no intermediate ``Scalar``.  Here ``dot``,
``ExactMatrix.apply``, the matrix product and ``kron_combination`` sum
that way, each in the lcm of its factors' fields, where a matrix is
declared too.  Rank, kernel and
the batched solve ``solve_each``
use exact Gauss-Jordan elimination on sparse rows (no floats), which
negates each row's multiplier once and adds; ``solve`` is ``solve_each``
with one target, and ``inverse`` solves for the columns of the identity
in one elimination.

``rank`` first tries to certify full rank modulo a prime.  Each field
order m has one fixed prime p = 1 (mod m) and a primitive m-th root of
unity omega mod p, found on first use and cached.  Then Phi_m(omega) = 0
(mod p), so zeta_m -> omega (and zeta_d -> omega^(m/d) for an entry
stored at a divisor order d, as embedding does) is a ring homomorphism
into Z/p on the elements whose denominators p does not divide.  It
sends every minor of M to the same minor of M mod p, so rank (M mod p)
<= rank M, and rank (M mod p) = min(rows, cols) proves M has full rank.
Any other outcome -- a lower rank mod p, a denominator divisible by p,
or an entry whose order does not divide m -- falls back to ``_echelon``,
so every rank below full, and every kernel and solution, comes from
exact elimination.

``format_scalar`` writes the canonical literal of each distinct
``(num, den)`` once, through a bounded memo.

``kron_combination`` builds every action matrix, c F_1[i_1] (x) ... (x)
F_k[i_k] summed over the terms of a k-leg element, from the stored
entries of the factor matrices; ``kron`` is its one-term case.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from math import gcd, lcm, prod
from operator import add, mul, sub
from typing import Hashable, Iterable, Iterator, Sequence, TypeVar

K = TypeVar("K", bound=Hashable)


class IncompatibleOrders(ValueError):
    """Raised when a scalar is embedded into a field that does not hold it."""


class DivisionByZero(ZeroDivisionError):
    """Raised on inversion of the zero scalar or a singular matrix."""


# ---------------------------------------------------------------------------
# cyclotomic polynomials


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials, den monic up to sign.
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        assert c % den[-1] == 0
        q = c // den[-1]
        out[i] = q
        for j, d in enumerate(den):
            num[i + j] -= q * d
    assert all(c == 0 for c in num)
    return out


@cache
def cyclotomic_polynomial(m: int) -> list[int]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial."""
    if m < 1:
        raise ValueError(f"cyclotomic order must be positive, got {m}")
    # (x^m - 1) / prod of Phi_d over proper divisors d
    poly = [0] * (m + 1)
    poly[0], poly[m] = -1, 1
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_divide_exact(poly, cyclotomic_polynomial(d))
    return poly


@cache
def euler_phi(m: int) -> int:
    return len(cyclotomic_polynomial(m)) - 1


@cache
def _reduction_table(order: int) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
    """(phi, rows): row k - phi lists the nonzero (j, c) of x^k mod Phi_m,
    for phi <= k < max(2 phi - 1, m): every power a product of two reduced
    numerators, or an input folded by x^m = 1, can reach."""
    mod = cyclotomic_polynomial(order)
    phi = len(mod) - 1
    row = [-c for c in mod[:phi]]            # x^phi, as Phi_m is monic
    rows = []
    for _ in range(phi, max(2 * phi - 1, order)):
        rows.append(tuple((j, c) for j, c in enumerate(row) if c))
        top = row[-1]                        # x^(k+1) = x * x^k
        row = [0] + row[:-1]
        if top:
            row = [r - top * c for r, c in zip(row, mod)]
    return phi, tuple(rows)


def _is_prime(n: int) -> bool:
    # Miller-Rabin with the first twelve prime bases, exact below 3.3e24
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while not d % 2:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@cache
def _certificate_prime(order: int) -> tuple[int, tuple[int, ...]]:
    """(p, powers): the least prime p = 1 (mod m) above 2^29 and the powers
    omega^j mod p, j < m, of a primitive m-th root of unity omega mod p,
    found from g^((p - 1) / m) for g = 2, 3, ...  Then Phi_m(omega) = 0
    (mod p), so zeta_m -> omega is a ring map into Z/p."""
    p = ((1 << 29) // order + 1) * order + 1
    while not _is_prime(p):
        p += order
    factors = [q for q in range(2, order + 1) if order % q == 0 and _is_prime(q)]
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in factors):
        g += 1
    omega = pow(g, (p - 1) // order, p)
    return p, tuple(pow(omega, j, p) for j in range(order))


@cache
def _trace_weights(order: int) -> tuple[tuple[int, ...], int]:
    """(w, n) with Tr(zeta_m^j) / phi(m) = w[j] / n for j < phi(m).  For
    d = m / gcd(m, j), zeta_m^j is a primitive d-th root of unity, so the
    normalised trace is mu(d) / phi(d); mu(d), the sum of the primitive
    d-th roots, is minus the second-highest coefficient of Phi_d."""
    ds = [order // gcd(order, j) for j in range(euler_phi(order))]
    n = lcm(*(euler_phi(d) for d in ds))
    return tuple(-cyclotomic_polynomial(d)[-2] * (n // euler_phi(d)) for d in ds), n


def _canonical(order: int, poly: list[int], den: int) -> "Scalar":
    """The scalar poly(zeta_m) / den, for den > 0 and len(poly) no more
    than the table reaches: high powers reduced, trailing zeros dropped,
    common factor divided out.  May reuse poly."""
    phi, rows = _reduction_table(order)
    if len(poly) > phi:
        num = poly[:phi]
        for c, row in zip(poly[phi:], rows):
            if c:
                for j, t in row:
                    num[j] += c * t
    else:
        num = poly
    while num and not num[-1]:
        num.pop()
    return _lowest(order, num, den)


def _lowest(order: int, num: list[int], den: int) -> "Scalar":
    """The scalar with trimmed numerators num over den > 0, in lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
    return _make(order, tuple(num), den)


def _ratio(order: int, n: int, den: int) -> "Scalar":
    """The rational n / den for den > 0, in lowest terms."""
    if not n:
        return _constants(order)[0]
    if den != 1:
        g = gcd(n, den)
        if g != 1:
            n //= g
            den //= g
    s = object.__new__(Scalar)                  # _make, inlined on the hot path
    s.order, s.num, s.den = order, (n,), den
    return s


def _make(order: int, num: tuple[int, ...], den: int) -> "Scalar":
    # the internal constructor: (num, den) is already canonical
    s = object.__new__(Scalar)
    s.order, s.num, s.den = order, num, den
    return s


def _rational_inverse(s: "Scalar") -> "Scalar":
    # 1 / s for a nonzero rational s
    n = s.num[0]
    return _make(s.order, (s.den if n > 0 else -s.den,), abs(n))


# ---------------------------------------------------------------------------
# scalars


class Scalar:
    """An element of Q(zeta_m), exact and canonically reduced: integer
    power-basis numerators ``num``, up to the highest nonzero one, over a
    positive denominator ``den``."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs: Sequence[Fraction | int]):
        euler_phi(order)                         # rejects an order below 1
        fracs = [Fraction(c) for c in coeffs]
        den = lcm(*(f.denominator for f in fracs))
        poly = [0] * min(len(fracs), order)      # folded by x^m = 1
        for k, f in enumerate(fracs):
            poly[k % order] += f.numerator * (den // f.denominator)
        s = _canonical(order, poly, den)
        self.order, self.num, self.den = order, s.num, s.den

    # -- constructors

    @classmethod
    def rational(cls, p, q: int = 1, order: int = 1) -> "Scalar":
        val = Fraction(p, q) if q != 1 else Fraction(p)
        zero = _constants(order)[0]              # rejects an order below 1
        return _make(order, (val.numerator,), val.denominator) if val else zero

    @classmethod
    def zero(cls, order: int = 1) -> "Scalar":
        return _constants(order)[0]

    @classmethod
    def one(cls, order: int = 1) -> "Scalar":
        return _constants(order)[1]

    @classmethod
    def zeta(cls, order: int) -> "Scalar":
        """The primitive root of unity generating Q(zeta_m)."""
        return cls(order, [0, 1])

    # -- views and predicates

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The euler_phi(m) power-basis coefficients as ``Fraction``s."""
        pad = euler_phi(self.order) - len(self.num)
        return tuple(Fraction(n, self.den) for n in self.num) + (Fraction(0),) * pad

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.den == 1 and self.num == (1,)

    def is_rational(self) -> bool:
        return len(self.num) <= 1

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0] if self.num else 0, self.den)

    # -- field embeddings

    def embed(self, order: int) -> "Scalar":
        """Embed into Q(zeta_n) for a multiple n of the current order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise IncompatibleOrders(
                f"cannot embed Q(zeta_{self.order}) into Q(zeta_{order})"
            )
        if len(self.num) <= 1:
            return _make(order, self.num, self.den)
        step = order // self.order
        poly = [0] * ((len(self.num) - 1) * step + 1)
        poly[::step] = self.num
        return _canonical(order, poly, self.den)

    # -- arithmetic

    def _coerce(self, other: "Scalar") -> tuple["Scalar", "Scalar"]:
        # both scalars in Q(zeta_lcm), the smallest field holding both; the
        # callers handle equal orders inline, which saves a call on the hot
        # path
        m = lcm(self.order, other.order)
        return self.embed(m), other.embed(m)

    def _combine(self, other: "Scalar", op) -> "Scalar":
        # a op b for op in (add, sub), over the common denominator
        a, b = (self, other) if self.order == other.order else self._coerce(other)
        an, bn = a.num, b.num
        if len(an) == 1 == len(bn):                  # two nonzero rationals
            da, db = a.den, b.den
            if da == db:
                return _ratio(a.order, op(an[0], bn[0]), da)
            return _ratio(a.order, op(an[0] * db, bn[0] * da), da * db)
        if not bn:
            return a
        if not an:
            return b if op is add else -b
        pad = len(bn) - len(an)
        if pad > 0:
            an += (0,) * pad
        elif pad < 0:
            bn += (0,) * -pad
        if a.den == b.den:
            num, den = list(map(op, an, bn)), a.den
        else:
            da, db = a.den, b.den
            num, den = [op(x * db, y * da) for x, y in zip(an, bn)], da * db
        while num and not num[-1]:
            num.pop()
        return _lowest(a.order, num, den)

    def __add__(self, other: "Scalar") -> "Scalar":
        return self._combine(other, add)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self._combine(other, sub)

    def __neg__(self) -> "Scalar":
        return _make(self.order, tuple(-x for x in self.num), self.den)

    def __mul__(self, other: "Scalar") -> "Scalar":
        a, b = (self, other) if self.order == other.order else self._coerce(other)
        an, bn, den = a.num, b.num, a.den * b.den
        # r names the rational factor: a name the comprehensions close over
        # would become a cell variable, slowing the convolution loop below
        if len(an) == 1:
            r = an[0]
            if len(bn) == 1:
                return _ratio(a.order, r * bn[0], den)
            return _lowest(a.order, [r * y for y in bn], den)
        if len(bn) == 1:
            r = bn[0]
            return _lowest(a.order, [x * r for x in an], den)
        # a zero factor leaves prod empty or all zeros, trimmed to ()
        prod = [0] * (len(an) + len(bn) - 1)
        bnz = [(j, y) for j, y in enumerate(bn) if y]
        for i, x in enumerate(an):
            if x:
                for j, y in bnz:
                    prod[i + j] += x * y
        return _canonical(a.order, prod, den)

    def conjugate(self, k: int) -> "Scalar":
        """The Galois conjugate sigma_k, zeta_m -> zeta_m^k, for k prime to m."""
        if len(self.num) <= 1:
            return self
        m = self.order
        poly = [0] * m
        for j, x in enumerate(self.num):
            poly[j * k % m] = x
        return _canonical(m, poly, self.den)

    def inverse(self) -> "Scalar":
        """1 / a = (prod of the conjugates sigma_k(a), k != 1) / N(a), where
        the norm N(a) = a times that product is rational."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.is_rational():
            return _rational_inverse(self)
        m = self.order
        rest = prod((self.conjugate(k) for k in range(2, m) if gcd(k, m) == 1),
                    start=Scalar.one(m))
        return rest * _rational_inverse(self * rest)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inverse()

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inverse() ** (-n)
        result = Scalar.one(self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison and formatting

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        a, b = (self, other) if self.order == other.order else self._coerce(other)
        return a.num == b.num and a.den == b.den

    def __hash__(self) -> int:
        # the normalised trace Tr(x) / phi(m), as a reduced integer pair
        w, n = _trace_weights(self.order)
        t, d = sum(map(mul, self.num, w)), n * self.den
        g = gcd(t, d)
        return hash((t // g, d // g))

    def __repr__(self) -> str:
        return f"Scalar({self.order}, {self})"

    def __str__(self) -> str:
        return format_scalar(self)


@cache
def _constants(order: int) -> tuple[Scalar, Scalar]:
    """The zero and the one of Q(zeta_m)."""
    euler_phi(order)                             # rejects an order below 1
    return _make(order, (), 1), _make(order, (1,), 1)


def format_scalar(s: Scalar) -> str:
    """Canonical literal form, e.g. ``1/2*z^3 - 1`` (descending powers).
    The text depends only on ``(num, den)``, so each distinct pair is
    formatted once, through a bounded memo: a payload repeats few values
    many times."""
    return _format(s.num, s.den)


@lru_cache(maxsize=4096)
def _format(num: tuple[int, ...], den: int) -> str:
    terms = []
    for power in range(len(num) - 1, -1, -1):
        n = num[power]
        if not n:
            continue
        g = gcd(n, den)
        p, q = abs(n) // g, den // g
        c = str(p) if q == 1 else f"{p}/{q}"
        if power > 0:
            z = "z" if power == 1 else f"z^{power}"
            c = z if p == q == 1 else f"{c}*{z}"
        if not terms:
            terms.append(c if n > 0 else f"-{c}")
        else:
            terms.append(f"+ {c}" if n > 0 else f"- {c}")
    return " ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# vectors (plain lists of Scalar) and sparse matrices


def zero_vector(n: int, order: int = 1) -> list[Scalar]:
    z = Scalar.zero(order)
    return [z] * n


def basis_vector(n: int, i: int, order: int = 1) -> list[Scalar]:
    v = zero_vector(n, order)
    v[i] = Scalar.one(order)
    return v


def vec_eq(u: Sequence[Scalar], v: Sequence[Scalar]) -> bool:
    return len(u) == len(v) and all(x == y for x, y in zip(u, v))


def collect(terms: Iterable[tuple[K, Scalar]]) -> dict[K, Scalar]:
    """Sum the terms per key, in one pass that stores no zero: a zero term
    is skipped before its key is read, a key whose running sum cancels is
    deleted at once, and a later term on that key stores it again."""
    acc: dict[K, Scalar] = {}
    get = acc.get
    for k, c in terms:
        if not c.num:
            continue
        old = get(k)
        if old is None:
            acc[k] = c
        elif (c := old + c).num:
            acc[k] = c
        else:
            del acc[k]
    return acc


def times(a: Scalar, b: Scalar) -> Scalar:
    """a * b, skipping the multiplication by a one of the same field."""
    # identity matrices, slots and group-like structure constants are ones;
    # is_one, spelled out to save two calls on the hot path
    if b.den == 1 and b.num == (1,) and b.order == a.order:
        return a
    if a.den == 1 and a.num == (1,) and a.order == b.order:
        return b
    return a * b


def sum_of_products(flat: Sequence[Scalar], order: int) -> Scalar:
    """x_1 y_1 + x_2 y_2 + ... for flat = [x_1, y_1, x_2, y_2, ...], each
    factor in Q(zeta_m) for m = order or a divisor of it.  The products are
    summed as integer numerators over one common denominator, and the sum
    is put in canonical form once, at the end; while every factor is
    rational the sum is one integer, reduced by a single gcd."""
    n, den = 0, 1
    for i in range(0, len(flat), 2):
        x, y = flat[i], flat[i + 1]
        xn, yn = x.num, y.num
        if len(xn) != 1 or len(yn) != 1:
            if xn and yn:
                break                        # a non-rational product: leave the integer path
            continue                         # a zero factor
        p, q = xn[0] * yn[0], x.den * y.den
        if q == den:
            n += p
        elif not den % q:
            n += p * (den // q)
        else:
            n, den = n * q + p * den, den * q
    else:
        return _ratio(order, n, den)
    # numerators of the sum so far; a product of two reduced numerators has
    # at most 2 phi - 1 of them, which the reduction table reaches
    phi = euler_phi(order)
    poly = [0] * (2 * phi - 1)
    poly[0] = n
    for i in range(i, len(flat), 2):
        x, y = flat[i], flat[i + 1]
        if not x.num or not y.num:
            continue
        if x.order != order and len(x.num) > 1:
            x = x.embed(order)
        if y.order != order and len(y.num) > 1:
            y = y.embed(order)
        q = x.den * y.den
        if q == den:
            s = 1
        elif not den % q:
            s = den // q
        else:
            poly = [c * q for c in poly]
            s, den = den, den * q
        for a, xa in enumerate(x.num):
            if xa:
                xa *= s
                for b, yb in enumerate(y.num, a):
                    poly[b] += xa * yb
    return _canonical(order, poly, den)


def collect_products(terms: Iterable[tuple[K, Scalar, Scalar]], order: int) -> dict[K, Scalar]:
    """sum x y per key over the (key, x, y) terms, every factor in Q(zeta_m)
    for m = order or a divisor of it, storing no zero, keys in order of
    first appearance.  The factors that land on one key are gathered into
    one dict, and each key's sum is then written over its gathered entry in
    that same dict: a lone product is multiplied as ``times`` multiplies
    it, so a one of the same field costs no multiplication, and two or more
    are summed once by ``sum_of_products``, in Q(zeta_order).  The keys
    whose sums are zero are deleted after that pass."""
    # a key's first term is kept as it came, (key, x, y); a second one makes
    # the flat factor list [x_1, y_1, x_2, y_2, ...]
    flats: dict[K, tuple[K, Scalar, Scalar] | list[Scalar] | Scalar] = {}
    get = flats.get
    for t in terms:
        if (f := get(t[0])) is None:
            flats[t[0]] = t
        elif len(f) == 3:
            flats[t[0]] = [f[1], f[2], t[1], t[2]]
        else:
            f.append(t[1])
            f.append(t[2])
    # each key's sum is written over its gathered entry: a value may be
    # replaced while the dict is walked, a key may not be deleted
    zeros = []
    for k, f in flats.items():
        if len(f) == 3:
            x, y = f[1], f[2]            # times, inlined on the hot path
            if y.den == 1 and y.num == (1,) and y.order == x.order:
                s = x
            elif x.den == 1 and x.num == (1,) and x.order == y.order:
                s = y
            else:
                s = x * y
        else:
            s = sum_of_products(f, order)
        if s.num:
            flats[k] = s
        else:
            zeros.append(k)
    for k in zeros:
        del flats[k]
    return flats


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    """sum_i u[i] v[i] in the field of both, skipping the zeros of u."""
    order = lcm(*{x.order for x in u}, *{y.order for y in v})
    return collect_products(((0, x, y) for x, y in zip(u, v) if x.num), order).get(
        0, Scalar.zero(order))


Row = dict[int, Scalar]


def _columns(cols: Sequence[Sequence[Scalar]], rows: list[Row], start: int = 0) -> list[Row]:
    """Write the nonzero entries of the dense columns into the rows, column
    j at index start + j; returns the rows."""
    for j, col in enumerate(cols, start):
        for i, x in enumerate(col):
            if not x.is_zero():
                rows[i][j] = x
    return rows


class ExactMatrix:
    """Sparse matrix of Scalars with exact Gaussian elimination: row i is
    ``data[i]``, a dict from column index to nonzero entry."""

    __slots__ = ("rows", "cols", "order", "data")

    def __init__(self, rows: int, cols: int, order: int, data: Sequence[Sequence[Scalar]]):
        """A matrix from its dense rows."""
        self.rows, self.cols, self.order = rows, cols, order
        self.data = [{j: x for j, x in enumerate(row) if not x.is_zero()} for row in data]

    # -- constructors

    @classmethod
    def _of(cls, rows: int, cols: int, order: int, data: list[Row]) -> "ExactMatrix":
        # the rows must already be free of zeros
        m = object.__new__(cls)
        m.rows, m.cols, m.order, m.data = rows, cols, order, data
        return m

    @classmethod
    def from_entries(cls, rows: int, cols: int, order: int,
                     entries: Iterable[tuple[tuple[int, int], Scalar]]) -> "ExactMatrix":
        """A matrix from ((row, col), entry) pairs; repeated positions are
        summed and zeros are dropped."""
        data: list[Row] = [{} for _ in range(rows)]
        for (i, j), x in collect(entries).items():
            data[i][j] = x
        return cls._of(rows, cols, order, data)

    @classmethod
    def from_flat(cls, rows: int, cols: int, order: int,
                  entries: Iterable[tuple[int, Scalar]]) -> "ExactMatrix":
        """A matrix from (i * cols + j, entry) pairs, each position once and
        no entry zero, stored as given."""
        data: list[Row] = [{} for _ in range(rows)]
        for ij, x in entries:
            i, j = divmod(ij, cols)
            data[i][j] = x
        return cls._of(rows, cols, order, data)

    @classmethod
    def zeros(cls, rows: int, cols: int, order: int = 1) -> "ExactMatrix":
        return cls._of(rows, cols, order, [{} for _ in range(rows)])

    @classmethod
    def identity(cls, n: int, order: int = 1) -> "ExactMatrix":
        one = Scalar.one(order)
        return cls._of(n, n, order, [{i: one} for i in range(n)])

    # -- indexing

    @property
    def dense(self) -> list[list[Scalar]]:
        """The dense rows (new lists each call)."""
        z = Scalar.zero(self.order)
        return [[row.get(j, z) for j in range(self.cols)] for row in self.data]

    def __getitem__(self, ij: tuple[int, int]) -> Scalar:
        return self.data[ij[0]].get(ij[1], Scalar.zero(self.order))

    def __setitem__(self, ij: tuple[int, int], value: Scalar) -> None:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index {ij} out of range for {self.rows}x{self.cols}")
        if value.is_zero():
            self.data[i].pop(j, None)
        else:
            self.data[i][j] = value

    def nonzero(self) -> Iterator[tuple[tuple[int, int], Scalar]]:
        """The stored entries ((row, col), entry) in row-major order."""
        for i, row in enumerate(self.data):
            for j in sorted(row):
                yield (i, j), row[j]

    # -- linear structure

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.data == other.data

    def __hash__(self) -> None:  # mutable
        raise TypeError("ExactMatrix is unhashable")

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        assert self.rows == other.rows and self.cols == other.cols
        return ExactMatrix._of(self.rows, self.cols, lcm(self.order, other.order), [
            collect([*a.items(), *((j, -x) for j, x in b.items())])
            for a, b in zip(self.data, other.data)])

    def scale(self, c: Scalar) -> "ExactMatrix":
        return ExactMatrix._of(self.rows, self.cols, lcm(self.order, c.order), [
            {j: c * x for j, x in row.items()} if c.num else {} for row in self.data])

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        assert self.cols == other.rows, f"shape mismatch {self.cols} vs {other.rows}"
        b, cols = other.data, other.cols
        order = self.order if self.order == other.order else lcm(self.order, other.order)
        return ExactMatrix.from_flat(self.rows, cols, order, collect_products((
            (i * cols + j, x, y) for i, row in enumerate(self.data)
            for k, x in row.items() for j, y in b[k].items()), order).items())

    def apply(self, v: Sequence[Scalar]) -> list[Scalar]:
        """M v in the field of both, skipping the zeros of v."""
        assert self.cols == len(v)
        order = lcm(self.order, *{y.order for y in v})
        out = collect_products(((i, x, v[j]) for i, row in enumerate(self.data)
                                for j, x in row.items() if v[j].num), order)
        return [out.get(i, Scalar.zero(order)) for i in range(self.rows)]

    def transpose(self) -> "ExactMatrix":
        data: list[Row] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.data):
            for j, x in row.items():
                data[j][i] = x
        return ExactMatrix._of(self.cols, self.rows, self.order, data)

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        """Kronecker product; index (i1, i2) flattens to i1 * other.rows + i2."""
        return kron_combination([((0, 0), Scalar.one(self.order))], [[self], [other]])

    def trace(self) -> Scalar:
        return sum((row[i] for i, row in enumerate(self.data) if i in row),
                   Scalar.zero(self.order))

    # -- elimination

    def _echelon(self, targets: Sequence[Sequence[Scalar]] = ()) -> tuple[list[Row], list[int]]:
        """Reduced row echelon form of a working copy of [M | b_1 ... b_k],
        one column per target; returns (rows, pivot cols).  Pivots are
        taken only in M's columns, so each target column comes out as it
        would if it were eliminated alone."""
        m = _columns(targets, [dict(row) for row in self.data], self.cols)
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            pivot_row = next((i for i in range(r, self.rows) if c in m[i]), None)
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            inv = m[r][c].inverse()
            prow = m[r] = {j: inv * x for j, x in m[r].items()}
            for i, row in enumerate(m):
                if i != r and (f := row.get(c)) is not None:
                    f = -f                       # row += f * prow, one negation
                    for j, x in prow.items():
                        y = row.get(j)
                        y = f * x if y is None else y + f * x
                        if y.num:
                            row[j] = y
                        else:
                            del row[j]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return m, pivots

    def _full_rank_mod_p(self) -> bool:
        """True when the image of M mod the order's certificate prime p has
        rank min(rows, cols), which proves that M has full rank; False when
        it does not, or when an entry cannot be reduced mod p."""
        m = self.order
        p, powers = _certificate_prime(m)
        reduced: list[dict[int, int]] = []
        for row in self.data:
            out = {}
            for j, x in row.items():
                d = x.order
                if m % d or not x.den % p:
                    return False                 # not a divisor order, or p | den
                if len(x.num) == 1:
                    v = x.num[0]
                else:                            # zeta_d -> omega^(m/d), as embedding does
                    step = m // d
                    v = sum(c * powers[k * step] for k, c in enumerate(x.num))
                if x.den != 1:
                    v *= pow(x.den, -1, p)
                if v := v % p:
                    out[j] = v
            reduced.append(out)
        target = min(self.rows, self.cols)
        slack = self.cols - target               # columns that may lack a pivot
        r = 0
        for c in range(self.cols):
            if r == target:
                break
            pivot_row = next((i for i in range(r, self.rows) if c in reduced[i]), None)
            if pivot_row is None:
                slack -= 1
                if slack < 0:
                    return False
                continue
            reduced[r], reduced[pivot_row] = reduced[pivot_row], reduced[r]
            prow = reduced[r]
            inv = pow(prow.pop(c), -1, p)
            for row in reduced[r + 1:]:
                if (f := row.pop(c, None)) is not None:
                    f = f * inv % p
                    for j, x in prow.items():
                        if y := (row.get(j, 0) - f * x) % p:
                            row[j] = y
                        else:
                            row.pop(j, None)
            r += 1
        return r == target

    def rank(self) -> int:
        """The exact rank.  Full rank is proved modulo a prime when it can
        be (see the module docstring); every lower rank comes from
        ``_echelon``."""
        if self._full_rank_mod_p():
            return min(self.rows, self.cols)
        return len(self._echelon()[1])

    def kernel(self) -> list[list[Scalar]]:
        """Basis of the nullspace (each vector satisfies M v = 0)."""
        m, pivots = self._echelon()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for f in free:
            v = basis_vector(self.cols, f, self.order)
            for r, c in enumerate(pivots):
                if f in m[r]:
                    v[c] = -m[r][f]
            basis.append(v)
        return basis

    def solve_each(self, targets: Sequence[Sequence[Scalar]]) -> list[list[Scalar] | None]:
        """For each target b, one exact solution of M x = b (free variables
        zero), or None when b is outside the column space; one elimination
        serves every target."""
        assert all(len(b) == self.rows for b in targets)
        m, pivots = self._echelon(targets)
        rank = len(pivots)
        out: list[list[Scalar] | None] = []
        for j in range(self.cols, self.cols + len(targets)):
            if any(j in row for row in m[rank:]):
                out.append(None)
                continue
            x = zero_vector(self.cols, self.order)
            for r, c in enumerate(pivots):
                if j in m[r]:
                    x[c] = m[r][j]
            out.append(x)
        return out

    def solve(self, b: Sequence[Scalar]) -> list[Scalar] | None:
        """One exact solution of M x = b, or None when inconsistent."""
        return self.solve_each([b])[0]

    def inverse(self) -> "ExactMatrix":
        if self.rows != self.cols:
            raise DivisionByZero("inverse of a non-square matrix")
        cols = self.solve_each([basis_vector(self.rows, i, self.order) for i in range(self.rows)])
        if any(x is None for x in cols):
            raise DivisionByZero("matrix is singular")
        return matrix_from_columns(cols, self.order)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.dense)
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"


def stack_rows(mats: Sequence[ExactMatrix]) -> ExactMatrix:
    cols = mats[0].cols
    assert all(m.cols == cols for m in mats)
    data = [dict(row) for m in mats for row in m.data]
    return ExactMatrix._of(len(data), cols, lcm(*{m.order for m in mats}), data)


def matrix_from_columns(cols: Sequence[Sequence[Scalar]], order: int) -> ExactMatrix:
    n = len(cols[0])
    return ExactMatrix._of(n, len(cols), order, _columns(cols, [{} for _ in range(n)]))


def kron_combination(terms: Iterable[tuple[Sequence[int], Scalar]],
                     factors: Sequence[Sequence[ExactMatrix]]) -> ExactMatrix:
    """sum c F_1[i_1] (x) ... (x) F_k[i_k] over the (multi-index, c) terms,
    for lists F_m of equally shaped matrices, flattened as in ``kron``, and
    declared in the largest field of the matrices and coefficients.  Reads
    only the stored entries of the matrices the terms name, each matrix's
    entry list built on first use, and passes the product by the last
    factor's entry to ``collect_products``."""
    terms = [(idx, c) for idx, c in terms if c.num]
    shapes = [(f[0].rows, f[0].cols) for f in factors]
    order = lcm(*(f[0].order for f in factors), *{c.order for _, c in terms})
    # per factor: matrix index -> the (row, col, entry) of its stored entries
    supports: list[dict[int, list[tuple[int, int, Scalar]]]] = [{} for _ in factors]

    def stored(m: int, i: int) -> list[tuple[int, int, Scalar]]:
        nz = supports[m].get(i)
        if nz is None:
            nz = supports[m][i] = [(r, j, x) for r, row in enumerate(factors[m][i].data)
                                   for j, x in row.items()]
        return nz

    last = len(factors) - 1
    rows, cols = shapes[last]
    width = prod(c for _, c in shapes)

    def products():
        for idx, c in terms:
            part = [(0, 0, c)]
            for m in range(last):
                fr, fc = shapes[m]
                part = [(r0 * fr + r, c0 * fc + j, times(p, x))
                        for r0, c0, p in part for r, j, x in stored(m, idx[m])]
            nz = stored(last, idx[last])
            for r0, c0, p in part:
                base = r0 * rows * width + c0 * cols
                for r, j, x in nz:
                    yield base + r * width + j, p, x

    return ExactMatrix.from_flat(prod(r for r, _ in shapes), width, order,
                                 collect_products(products(), order).items())


def common_eigenvectors(mats: Sequence[ExactMatrix], values: Sequence[Scalar]) -> list[list[Scalar]]:
    """Basis of the vectors v with M v = c v for every pair (M, c), the
    kernel of the stacked matrices M - c 1."""
    ident = ExactMatrix.identity(mats[0].rows, mats[0].order)
    return stack_rows([m - ident.scale(c) for m, c in zip(mats, values)]).kernel()
