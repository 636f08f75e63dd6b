"""Exact arithmetic in cyclotomic fields and dense exact linear algebra.

Scalars are elements of Q(zeta_m), stored in the power basis of the m-th
cyclotomic polynomial (m = 1 gives plain rationals).  All arithmetic is
exact; every product is reduced modulo the cyclotomic polynomial, so
equality of scalars is literal equality of coefficient vectors.

Matrices are dense with Scalar entries.  Rank, kernel and the batched
solve ``solve_each`` use exact Gauss-Jordan elimination (no floats);
``solve`` is ``solve_each`` with one target, and ``inverse`` solves for
the columns of the identity in one elimination.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


class IncompatibleOrders(ValueError):
    """Raised when scalars from incompatible cyclotomic fields are mixed."""


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


_CYCLOTOMIC_CACHE: dict[int, list[int]] = {}


def cyclotomic_polynomial(m: int) -> list[int]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial."""
    if m < 1:
        raise ValueError(f"cyclotomic order must be positive, got {m}")
    if m in _CYCLOTOMIC_CACHE:
        return _CYCLOTOMIC_CACHE[m]
    # (x^m - 1) / prod of Phi_d over proper divisors d
    poly = [0] * (m + 1)
    poly[0], poly[m] = -1, 1
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_divide_exact(poly, cyclotomic_polynomial(d))
    _CYCLOTOMIC_CACHE[m] = poly
    return poly


def euler_phi(m: int) -> int:
    return len(cyclotomic_polynomial(m)) - 1


def _reduce_mod_cyclotomic(order: int, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    phi = euler_phi(order)
    mod = cyclotomic_polynomial(order)
    coeffs = list(coeffs)
    for i in range(len(coeffs) - 1, phi - 1, -1):
        c = coeffs[i]
        if c:
            for j in range(phi + 1):
                coeffs[i - phi + j] -= c * mod[j]
    coeffs = coeffs[:phi]
    coeffs += [Fraction(0)] * (phi - len(coeffs))
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# scalars


class Scalar:
    """An element of Q(zeta_m), exact and canonically reduced."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence[Fraction], reduce: bool = True):
        self.order = order
        if reduce:
            self.coeffs = _reduce_mod_cyclotomic(order, [Fraction(c) for c in coeffs])
        else:
            self.coeffs = tuple(coeffs)

    # -- constructors

    @classmethod
    def rational(cls, p, q: int = 1, order: int = 1) -> "Scalar":
        val = Fraction(p, q) if q != 1 else Fraction(p)
        phi = euler_phi(order)
        return cls(order, (val,) + (Fraction(0),) * (phi - 1), reduce=False)

    @classmethod
    def zero(cls, order: int = 1) -> "Scalar":
        return _CONST_CACHE(order)[0]

    @classmethod
    def one(cls, order: int = 1) -> "Scalar":
        return _CONST_CACHE(order)[1]

    @classmethod
    def zeta(cls, order: int) -> "Scalar":
        """The primitive root of unity generating Q(zeta_m)."""
        phi = euler_phi(order)
        coeffs = [Fraction(0)] * max(phi, 2)
        coeffs[1] = Fraction(1)
        return cls(order, coeffs)

    # -- predicates

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    # -- field embeddings

    def embed(self, order: int) -> "Scalar":
        """Embed into Q(zeta_n) for a multiple n of the current order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise IncompatibleOrders(
                f"cannot embed Q(zeta_{self.order}) into Q(zeta_{order})"
            )
        step = order // self.order
        out = [Fraction(0)] * (euler_phi(self.order) * step + 1)
        for i, c in enumerate(self.coeffs):
            out[i * step] = c
        return Scalar(order, out)

    # -- arithmetic

    def _coerce(self, other: "Scalar") -> tuple["Scalar", "Scalar"]:
        if self.order == other.order:
            return self, other
        if self.order % other.order == 0:
            return self, other.embed(self.order)
        if other.order % self.order == 0:
            return self.embed(other.order), other
        raise IncompatibleOrders(
            f"incompatible cyclotomic orders {self.order} and {other.order}"
        )

    def __add__(self, other: "Scalar") -> "Scalar":
        a, b = self._coerce(other)
        return Scalar(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)), reduce=False)

    def __sub__(self, other: "Scalar") -> "Scalar":
        a, b = self._coerce(other)
        return Scalar(a.order, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)), reduce=False)

    def __neg__(self) -> "Scalar":
        return Scalar(self.order, tuple(-x for x in self.coeffs), reduce=False)

    def __mul__(self, other: "Scalar") -> "Scalar":
        a, b = self._coerce(other)
        n = len(a.coeffs)
        if n == 1:
            return Scalar(a.order, (a.coeffs[0] * b.coeffs[0],), reduce=False)
        prod = [Fraction(0)] * (2 * n - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        prod[i + j] += x * y
        return Scalar(a.order, prod)

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.is_rational():
            return Scalar(self.order, (1 / self.coeffs[0],) + self.coeffs[1:], reduce=False)
        # extended Euclid for self (as polynomial) against the cyclotomic modulus
        mod = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r0, r1 = mod, list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            while r1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                inv = 1 / r1[0]
                return Scalar(self.order, [c * inv for c in s1])
            q = [Fraction(0)] * (len(r0) - len(r1) + 1)
            rem = list(r0)
            for i in range(len(q) - 1, -1, -1):
                c = rem[i + len(r1) - 1] / r1[-1]
                q[i] = c
                if c:
                    for j, d in enumerate(r1):
                        rem[i + j] -= c * d
            rem = rem[: len(r1) - 1]
            qs1 = [Fraction(0)] * (len(q) + len(s1) - 1)
            for i, x in enumerate(q):
                if x:
                    for j, y in enumerate(s1):
                        qs1[i + j] += x * y
            news = [Fraction(0)] * max(len(s0), len(qs1))
            for i, c in enumerate(s0):
                news[i] += c
            for i, c in enumerate(qs1):
                news[i] -= c
            r0, r1 = r1, rem
            s0, s1 = s1, news

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
        if self.order == other.order:
            return self.coeffs == other.coeffs
        a, b = self._coerce(other)
        return a.coeffs == b.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        return f"Scalar({self.order}, {self})"

    def __str__(self) -> str:
        return format_scalar(self)


def _CONST_CACHE(order: int, _cache: dict[int, tuple[Scalar, Scalar]] = {}) -> tuple[Scalar, Scalar]:
    if order not in _cache:
        phi = euler_phi(order)
        zero = Scalar(order, (Fraction(0),) * phi, reduce=False)
        one = Scalar(order, (Fraction(1),) + (Fraction(0),) * (phi - 1), reduce=False)
        _cache[order] = (zero, one)
    return _cache[order]


def format_scalar(s: Scalar) -> str:
    """Canonical literal form, e.g. ``1/2*z^3 - 1`` (descending powers)."""
    terms = []
    for power in range(len(s.coeffs) - 1, -1, -1):
        c = s.coeffs[power]
        if not c:
            continue
        if power == 0:
            body = str(abs(c))
        else:
            z = "z" if power == 1 else f"z^{power}"
            body = z if abs(c) == 1 else f"{abs(c)}*{z}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# vectors (plain lists of Scalar) and dense matrices


def zero_vector(n: int, order: int = 1) -> list[Scalar]:
    z = Scalar.zero(order)
    return [z] * n


def basis_vector(n: int, i: int, order: int = 1) -> list[Scalar]:
    v = zero_vector(n, order)
    v[i] = Scalar.one(order)
    return v


def vec_eq(u: Sequence[Scalar], v: Sequence[Scalar]) -> bool:
    return len(u) == len(v) and all(x == y for x, y in zip(u, v))


def vec_is_zero(v: Sequence[Scalar]) -> bool:
    return all(x.is_zero() for x in v)


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    """sum_i u[i] v[i], skipping the zeros of u."""
    acc = Scalar.zero(u[0].order)
    for a, b in zip(u, v):
        if not a.is_zero():
            acc = acc + a * b
    return acc


class ExactMatrix:
    """Dense matrix of Scalars with exact Gaussian elimination."""

    __slots__ = ("rows", "cols", "order", "data")

    def __init__(self, rows: int, cols: int, order: int, data: list[list[Scalar]]):
        self.rows = rows
        self.cols = cols
        self.order = order
        self.data = data

    @classmethod
    def zeros(cls, rows: int, cols: int, order: int = 1) -> "ExactMatrix":
        z = Scalar.zero(order)
        return cls(rows, cols, order, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int, order: int = 1) -> "ExactMatrix":
        m = cls.zeros(n, n, order)
        one = Scalar.one(order)
        for i in range(n):
            m.data[i][i] = one
        return m

    def __getitem__(self, ij: tuple[int, int]) -> Scalar:
        return self.data[ij[0]][ij[1]]

    def __setitem__(self, ij: tuple[int, int], value: Scalar) -> None:
        self.data[ij[0]][ij[1]] = value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(
                a == b for ra, rb in zip(self.data, other.data) for a, b in zip(ra, rb)
            )
        )

    def __hash__(self) -> None:  # mutable
        raise TypeError("ExactMatrix is unhashable")

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.data for x in row)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        assert self.rows == other.rows and self.cols == other.cols
        return ExactMatrix(
            self.rows, self.cols, self.order,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        assert self.rows == other.rows and self.cols == other.cols
        return ExactMatrix(
            self.rows, self.cols, self.order,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
        )

    def scale(self, c: Scalar) -> "ExactMatrix":
        return ExactMatrix(
            self.rows, self.cols, self.order,
            [[c * a for a in row] for row in self.data],
        )

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        # zero-skipping matmul; inputs here are typically sparse
        assert self.cols == other.rows, f"shape mismatch {self.cols} vs {other.rows}"
        out = ExactMatrix.zeros(self.rows, other.cols, self.order)
        odata = out.data
        bdata = other.data
        for i in range(self.rows):
            arow = self.data[i]
            orow = odata[i]
            for k in range(self.cols):
                a = arow[k]
                if a.is_zero():
                    continue
                brow = bdata[k]
                for j in range(other.cols):
                    b = brow[j]
                    if not b.is_zero():
                        orow[j] = orow[j] + a * b
        return out

    def apply(self, v: Sequence[Scalar]) -> list[Scalar]:
        assert self.cols == len(v)
        out = zero_vector(self.rows, self.order)
        support = [(j, x) for j, x in enumerate(v) if not x.is_zero()]
        for i, row in enumerate(self.data):
            acc = out[i]
            for j, x in support:
                if not row[j].is_zero():
                    acc = acc + row[j] * x
            out[i] = acc
        return out

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols, self.rows, self.order,
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        """Kronecker product; index (i1, i2) flattens to i1 * other.rows + i2."""
        out = ExactMatrix.zeros(self.rows * other.rows, self.cols * other.cols, self.order)
        for i1, row1 in enumerate(self.data):
            for j1, a in enumerate(row1):
                if a.is_zero():
                    continue
                for i2, row2 in enumerate(other.data):
                    for j2, b in enumerate(row2):
                        if not b.is_zero():
                            out.data[i1 * other.rows + i2][j1 * other.cols + j2] = a * b
        return out

    def trace(self) -> Scalar:
        acc = Scalar.zero(self.order)
        for i in range(min(self.rows, self.cols)):
            acc = acc + self.data[i][i]
        return acc

    # -- elimination

    def _echelon(self, targets: Sequence[Sequence[Scalar]] = ()) -> tuple[list[list[Scalar]], list[int]]:
        """Reduced row echelon form of a working copy of [M | b_1 ... b_k],
        one column per target; returns (rows, pivot cols).  Pivots are
        taken only in M's columns, so each target column comes out as it
        would if it were eliminated alone."""
        m = [row + [b[i] for b in targets] for i, row in enumerate(self.data)]
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            pivot_row = None
            for i in range(r, self.rows):
                if not m[i][c].is_zero():
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            inv = m[r][c].inverse()
            m[r] = [x if x.is_zero() else inv * x for x in m[r]]
            for i in range(self.rows):
                if i != r and not m[i][c].is_zero():
                    f = m[i][c]
                    m[i] = [a if b.is_zero() else a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return m, pivots

    def rank(self) -> int:
        return len(self._echelon()[1])

    def kernel(self) -> list[list[Scalar]]:
        """Basis of the nullspace (each vector satisfies M v = 0)."""
        m, pivots = self._echelon()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        one = Scalar.one(self.order)
        for f in free:
            v = zero_vector(self.cols, self.order)
            v[f] = one
            for r, c in enumerate(pivots):
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
            if any(not row[j].is_zero() for row in m[rank:]):
                out.append(None)
                continue
            x = zero_vector(self.cols, self.order)
            for r, c in enumerate(pivots):
                x[c] = m[r][j]
            out.append(x)
        return out

    def solve(self, b: Sequence[Scalar]) -> list[Scalar] | None:
        """One exact solution of M x = b, or None when inconsistent."""
        return self.solve_each([b])[0]

    def inverse(self) -> "ExactMatrix":
        if self.rows != self.cols:
            raise DivisionByZero("inverse of a non-square matrix")
        cols = self.solve_each(ExactMatrix.identity(self.rows, self.order).data)
        if any(x is None for x in cols):
            raise DivisionByZero("matrix is singular")
        return matrix_from_columns(cols, self.order)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"


def stack_rows(mats: Sequence[ExactMatrix]) -> ExactMatrix:
    cols = mats[0].cols
    data = []
    for m in mats:
        assert m.cols == cols
        data.extend(row[:] for row in m.data)
    return ExactMatrix(len(data), cols, mats[0].order, data)


def matrix_from_columns(cols: Sequence[Sequence[Scalar]], order: int) -> ExactMatrix:
    n = len(cols[0])
    return ExactMatrix(
        n, len(cols), order,
        [[cols[j][i] for j in range(len(cols))] for i in range(n)],
    )


def linear_combination(terms: Iterable[tuple[Scalar, ExactMatrix]], n: int,
                       order: int) -> ExactMatrix:
    """The n x n matrix sum c M over the (c, M) terms with c nonzero.

    ``terms`` may be a generator: each M is consumed as it is added, so
    only one of them need exist at a time.
    """
    out = ExactMatrix.zeros(n, n, order)
    for c, m in terms:
        if c.is_zero():
            continue
        assert m.rows == n and m.cols == n, f"term of shape {m.rows}x{m.cols}, expected {n}x{n}"
        for orow, mrow in zip(out.data, m.data):
            for j, b in enumerate(mrow):
                if not b.is_zero():
                    orow[j] = orow[j] + c * b
    return out


def common_eigenvectors(mats: Sequence[ExactMatrix], values: Sequence[Scalar]) -> list[list[Scalar]]:
    """Basis of the vectors v with M v = c v for every pair (M, c), the
    kernel of the stacked matrices M - c 1."""
    ident = ExactMatrix.identity(mats[0].rows, mats[0].order)
    return stack_rows([m - ident.scale(c) for m, c in zip(mats, values)]).kernel()
