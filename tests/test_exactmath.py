import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qhopf.exactmath import (
    DivisionByZero,
    ExactMatrix,
    IncompatibleOrders,
    Scalar,
    basis_vector,
    collect,
    collect_products,
    common_eigenvectors,
    cyclotomic_polynomial,
    dot,
    euler_phi,
    kron_combination,
    stack_rows,
    sum_of_products,
    times,
)
from qhopf.tensorspace import Tensor, as_matrix


def rat(p, q=1, order=1):
    return Scalar.rational(Fraction(p, q), order=order)


# ---------------------------------------------------------------------------
# cyclotomic polynomials and scalars


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]


def test_zeta4_squares_to_minus_one():
    z = Scalar.zeta(4)
    assert z * z == rat(-1, order=4)


def test_rational_inverse():
    assert rat(2).inverse() == rat(1, 2)


def test_embed_rational_is_identity_on_rationals():
    x = rat(1, 3).embed(8)
    assert x.order == 8
    assert x.is_rational() and x.to_fraction() == Fraction(1, 3)


def test_embed_generator():
    # zeta_4 inside Q(zeta_8) is zeta_8^2
    z4 = Scalar.zeta(4).embed(8)
    assert z4 == Scalar.zeta(8) ** 2


def test_embed_rejects_non_multiple():
    with pytest.raises(IncompatibleOrders):
        Scalar.zeta(4).embed(6)


def test_mixed_order_arithmetic_unifies():
    assert rat(1, 2) + Scalar.zero(4) == rat(1, 2, order=4)
    # neither order divides the other: both operands meet in Q(zeta_12)
    assert Scalar.zeta(4) * Scalar.zeta(6) == Scalar.zeta(12) ** 5


def test_orders_that_do_not_divide_meet_in_the_lcm():
    # zeta_3 = zeta_12^4 and zeta_4 = zeta_12^3
    assert Scalar.zeta(3) * Scalar.zeta(4) == Scalar.zeta(12) ** 7
    assert Scalar.zeta(3) + Scalar.zeta(4) == Scalar.zeta(12) ** 4 + Scalar.zeta(12) ** 3
    # a rank below full is found by elimination across the two orders
    z3, z4 = Scalar.zeta(3), Scalar.zeta(4)
    assert ExactMatrix(2, 2, 12, [[z3, z4], [z3, z4]]).rank() == 1


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        Scalar.zero(4).inverse()


def test_zeta_power_order():
    z = Scalar.zeta(8)
    assert (z ** 8).is_one()
    assert not (z ** 4).is_one()
    assert z ** 4 == rat(-1, order=8)
    assert z ** -1 == z ** 7
    assert (rat(2) ** -2).to_fraction() == Fraction(1, 4)


fractions_st = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def scalars(order):
    from qhopf.exactmath import euler_phi

    n = euler_phi(order)
    return st.lists(fractions_st, min_size=n, max_size=n).map(
        lambda cs: Scalar(order, [Fraction(c) for c in cs])
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 4, 6, 8]).flatmap(
    lambda m: st.tuples(scalars(m), scalars(m), scalars(m))))
def test_scalar_field_properties(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert (a * a.inverse()).is_one()


@settings(max_examples=40, deadline=None)
@given(scalars(12))
def test_scalar_add_mul_commute(a):
    b = Scalar.zeta(12) + rat(1, 2, order=12)
    assert a + b == b + a
    assert a * b == b * a


# ---------------------------------------------------------------------------
# the integer-numerator representation against a Fraction reference

# Phi_m written out, so the reference does not depend on exactmath
REF_PHI = {
    1: [-1, 1],
    2: [1, 1],
    3: [1, 1, 1],
    4: [1, 0, 1],
    5: [1, 1, 1, 1, 1],
    6: [1, -1, 1],
    8: [1, 0, 0, 0, 1],
    9: [1, 0, 0, 1, 0, 0, 1],
    12: [1, 0, -1, 0, 1],
    15: [1, -1, 0, 1, -1, 1, 0, -1, 1],
    16: [1, 0, 0, 0, 0, 0, 0, 0, 1],
    25: [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1],
}


def ref_reduce(order, poly):
    """poly(zeta_m) in the power basis: Fraction long division by Phi_m."""
    mod = REF_PHI[order]
    phi = len(mod) - 1
    p = [Fraction(c) for c in poly] + [Fraction(0)] * phi
    for i in range(len(p) - 1, phi - 1, -1):
        c = p[i]
        if c:
            for j in range(phi + 1):
                p[i - phi + j] -= c * mod[j]
    return tuple(p[:phi])


def ref_mul(order, p, q):
    prod = [Fraction(0)] * (len(p) + len(q))
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            prod[i + j] += x * y
    return ref_reduce(order, prod)


def assert_canonical(s, order):
    # numerators up to the highest nonzero power, in lowest terms; the gcd
    # makes zero () over 1
    phi = len(REF_PHI[order]) - 1
    assert len(s.num) <= phi and all(type(x) is int for x in s.num)
    assert not s.num or s.num[-1] != 0
    assert type(s.den) is int and s.den > 0
    assert math.gcd(s.den, *s.num) == 1


ref_coeffs = st.one_of(st.just(0), st.fractions(min_value=-6, max_value=6, max_denominator=6))


@pytest.mark.parametrize("order", sorted(REF_PHI))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_scalar_matches_fraction_reference(order, data):
    # inputs of any length: the constructor reduces them like any product
    raw = st.lists(ref_coeffs, max_size=2 * order + 2)
    pa, pb = data.draw(raw), data.draw(raw)
    a, b = Scalar(order, pa), Scalar(order, pb)
    ra, rb = ref_reduce(order, pa), ref_reduce(order, pb)
    for s, r in [
        (a, ra), (b, rb),
        (a * b, ref_mul(order, ra, rb)),
        (a + b, tuple(x + y for x, y in zip(ra, rb))),
        (a - b, tuple(x - y for x, y in zip(ra, rb))),
        (-a, tuple(-x for x in ra)),
    ]:
        assert_canonical(s, order)
        assert s.coeffs == r
        assert s == Scalar(order, r)
    if any(ra):
        inv = a.inverse()
        assert_canonical(inv, order)
        assert ref_mul(order, ra, inv.coeffs) == ref_reduce(order, [1])
    else:
        with pytest.raises(DivisionByZero):
            a.inverse()
    assert (a == b) == (ra == rb)
    # the Galois conjugate zeta -> zeta^k, by substitution and long division
    k = data.draw(st.sampled_from([k for k in range(1, order + 1) if math.gcd(k, order) == 1]))
    substituted = [Fraction(0)] * (k * len(ra) + 1)
    for j, x in enumerate(ra):
        substituted[j * k] += x
    conj = a.conjugate(k)
    assert_canonical(conj, order)
    assert conj.coeffs == ref_reduce(order, substituted)
    # the same value given unreduced: a plus a multiple of Phi_m
    q = data.draw(st.lists(ref_coeffs, max_size=order + 1))
    shifted = [Fraction(0)] * (len(q) + len(REF_PHI[order]) + len(pa))
    for i, x in enumerate(pa):
        shifted[i] += x
    for i, x in enumerate(q):
        for j, y in enumerate(REF_PHI[order]):
            shifted[i + j] += x * y
    same = Scalar(order, shifted)
    assert_canonical(same, order)
    assert same == a and hash(same) == hash(a) and str(same) == str(a)


@st.composite
def low_degree(draw, order):
    """Raw coefficients of 0, a rational, +-zeta^k or a two-term sum
    c zeta^j + d zeta^k, with j, k < m: the values most arithmetic sees."""
    q = st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(bool)
    power = st.integers(0, order - 1)

    def term(c, k):
        return [0] * k + [c]

    kind = draw(st.sampled_from(("zero", "rational", "root", "sum")))
    if kind == "zero":
        return []
    if kind == "rational":
        return [draw(q)]
    if kind == "root":
        return term(draw(st.sampled_from((1, -1))), draw(power))
    a, b = term(draw(q), draw(power)), term(draw(q), draw(power))
    return [x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)]


def ref_embed(order, target, coeffs):
    """A value of Q(zeta_d) in Q(zeta_n): zeta_d = zeta_n^(n/d)."""
    step = target // order
    poly = [Fraction(0)] * (step * len(coeffs))
    poly[::step] = coeffs
    return ref_reduce(target, poly)


@pytest.mark.parametrize("order", sorted(REF_PHI))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_low_degree_scalars_match_reference(order, data):
    # operands short of the full degree, which the trimmed form stores short
    divisors = [d for d in REF_PHI if order % d == 0]
    d = data.draw(st.sampled_from(divisors))
    pa, pb = data.draw(low_degree(d)), data.draw(low_degree(order))
    a, b = Scalar(d, pa), Scalar(order, pb)
    ra, rb = ref_embed(d, order, ref_reduce(d, pa)), ref_reduce(order, pb)
    wide = a.embed(order)
    for s, r in [
        (wide, ra), (b, rb),
        (a * b, ref_mul(order, ra, rb)), (b * a, ref_mul(order, ra, rb)),
        (a + b, tuple(x + y for x, y in zip(ra, rb))),
        (a - b, tuple(x - y for x, y in zip(ra, rb))),
        (b - a, tuple(y - x for x, y in zip(ra, rb))),
    ]:
        assert_canonical(s, order)
        assert s.order == order and s.coeffs == r
        assert s.is_zero() == (not any(r))
        assert s.is_one() == (r == ref_reduce(order, [1]))
        assert s.is_rational() == (not any(r[1:]))
        if s.is_rational():
            assert s.to_fraction() == r[0]
        else:
            with pytest.raises(ValueError):
                s.to_fraction()
    assert_canonical(a, d)
    assert (wide == a) and (a == wide) and hash(wide) == hash(a)
    if any(rb):
        inv = b.inverse()
        assert_canonical(inv, order)
        assert ref_mul(order, rb, inv.coeffs) == ref_reduce(order, [1])
    else:
        with pytest.raises(DivisionByZero):
            b.inverse()
    k = data.draw(st.sampled_from([k for k in range(1, order + 1) if math.gcd(k, order) == 1]))
    substituted = [Fraction(0)] * (k * len(rb) + 1)
    for j, x in enumerate(rb):
        substituted[j * k] += x
    conj = b.conjugate(k)
    assert_canonical(conj, order)
    assert conj.coeffs == ref_reduce(order, substituted)


def test_order_below_one_is_rejected():
    for make in (lambda: Scalar.rational(1, order=0), lambda: Scalar.rational(0, order=0),
                 lambda: Scalar.zero(0), lambda: Scalar.one(0), lambda: Scalar(0, [1])):
        with pytest.raises(ValueError):
            make()


def test_hash_agrees_with_equality_across_orders():
    assert Scalar.rational(1) == Scalar.one(4) and hash(Scalar.rational(1)) == hash(Scalar.one(4))
    z4, z8 = Scalar.zeta(4), Scalar.zeta(8) ** 2
    assert z4 == z8 and hash(z4) == hash(z8)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(REF_PHI)).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(ref_coeffs, max_size=2 * m), st.integers(1, 4))))
def test_hash_is_invariant_under_embedding(case):
    order, coeffs, multiple = case
    a = Scalar(order, coeffs)
    wide = a.embed(order * multiple)
    assert wide == a and hash(wide) == hash(a)


def test_unreduced_constructor_input():
    # zeta_8^8 as a coefficient list of length 9
    z8_8 = Scalar(8, [0] * 8 + [1])
    assert z8_8 == Scalar.one(8) and z8_8.num == (1,) and z8_8.den == 1
    # zeta_16^15 = -zeta_16^7, and 2/4 zeta_5^7 = 1/2 zeta_5^2
    assert Scalar(16, [0] * 15 + [1]) == -(Scalar.zeta(16) ** 7)
    half_z5_2 = Scalar(5, [0] * 7 + [Fraction(2, 4)])
    assert (half_z5_2.num, half_z5_2.den) == ((0, 0, 1), 2)


# ---------------------------------------------------------------------------
# matrices


def mat(rows, order=1):
    return ExactMatrix(
        len(rows), len(rows[0]), order,
        [[rat(x, order=order) for x in row] for row in rows],
    )


def test_kernel_of_repeated_rows():
    m = mat([[1, 1], [1, 1]])
    ker = m.kernel()
    assert len(ker) == 1
    v = ker[0]
    assert all(c.is_zero() for c in m.apply(v))
    # spans (1, -1)
    assert v[0] == -v[1] and not v[0].is_zero()


def test_kernel_of_identity_is_empty():
    assert ExactMatrix.identity(3).kernel() == []


def test_kernel_of_zero_matrix():
    ker = ExactMatrix.zeros(2, 2).kernel()
    assert len(ker) == 2
    m = ExactMatrix(2, 2, 1, [list(ker[0]), list(ker[1])])
    assert m.rank() == 2


def test_solve_identity():
    m = ExactMatrix.identity(3)
    b = [rat(5), rat(-2), rat(7, 3)]
    assert m.solve(b) == b


def test_solve_scalar_equation():
    assert mat([[2]]).solve([rat(1)]) == [rat(1, 2)]


def test_solve_inconsistent_returns_none():
    m = mat([[1, 1], [1, 1]])
    assert m.solve([rat(1), rat(2)]) is None


def test_solve_reproduces_rhs():
    m = mat([[1, 2, 0], [0, 1, 1]])
    b = [rat(3), rat(4)]
    x = m.solve(b)
    assert m.apply(x) == b


def test_inverse_roundtrip():
    m = mat([[1, 1], [0, 2]])
    assert m * m.inverse() == ExactMatrix.identity(2)
    with pytest.raises(DivisionByZero):
        mat([[1, 1], [2, 2]]).inverse()


small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-3, 3), min_size=c, max_size=c),
            min_size=r, max_size=r,
        ).map(lambda rows: mat(rows))
    )
)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_rank_nullity(m):
    ker = m.kernel()
    assert m.rank() + len(ker) == m.cols
    for v in ker:
        assert all(c.is_zero() for c in m.apply(v))


@settings(max_examples=40, deadline=None)
@given(small_matrices)
def test_solve_alignment(m):
    # a right-hand side built from a known solution is always solvable
    x = basis_vector(m.cols, 0)
    b = m.apply(x)
    sol = m.solve(b)
    assert sol is not None
    assert m.apply(sol) == b


def _rank_with(m, b):
    """rank [M | b]"""
    return ExactMatrix(m.rows, m.cols + 1, m.order,
                       [row + [x] for row, x in zip(m.dense, b)]).rank()


@st.composite
def systems(draw):
    # targets mix right-hand sides M x, which are consistent, with
    # arbitrary vectors, which may not be
    m = draw(small_matrices)

    def vectors(n):
        return st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(
            lambda v: [rat(c) for c in v])

    image = vectors(m.cols).map(m.apply)
    arbitrary = vectors(m.rows)
    return m, draw(st.lists(st.one_of(image, arbitrary), max_size=4))


Z4 = Scalar.zeta(4)
# rank 1 over Q(zeta_4): the second column is z times the first
Z4_SINGULAR = ExactMatrix(2, 2, 4, [[rat(1, order=4), Z4], [Z4, rat(-1, order=4)]])


@settings(max_examples=80, deadline=None)
@given(systems())
@example((Z4_SINGULAR, [[rat(1, order=4), rat(0, order=4)], [rat(1, order=4), Z4],
                        [rat(0, order=4), rat(0, order=4)]]))
def test_solve_each_matches_rank_criterion(system):
    # an inconsistent target before a consistent one must not disturb it
    m, targets = system
    sols = m.solve_each(targets)
    assert len(sols) == len(targets)
    rank = m.rank()
    for b, x in zip(targets, sols):
        assert (x is None) == (_rank_with(m, b) > rank)
        if x is not None:
            assert m.apply(x) == b
        assert m.solve(b) == x


square_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       min_size=n, max_size=n).map(mat))


@settings(max_examples=60, deadline=None)
@given(square_matrices)
@example(Z4_SINGULAR)
@example(ExactMatrix(2, 2, 4, [[rat(1, order=4), Z4], [rat(0, order=4), Z4]]))
def test_inverse_or_singular(m):
    ident = ExactMatrix.identity(m.rows, m.order)
    if m.rank() < m.rows:
        with pytest.raises(DivisionByZero):
            m.inverse()
    else:
        inv = m.inverse()
        assert m * inv == ident and inv * m == ident


# ---------------------------------------------------------------------------
# the full-rank certificate modulo a prime

CERTIFICATE_ORDERS = (1, 3, 4, 12, 16, 25)


@pytest.mark.parametrize("order", CERTIFICATE_ORDERS)
def test_certificate_prime_and_root(order):
    from qhopf.exactmath import _certificate_prime

    p, powers = _certificate_prime(order)
    assert p > 2 and all(p % d for d in range(2, math.isqrt(p) + 1))
    assert p % order == 1 % order
    omega = powers[1 % order]                    # for m = 1, omega = omega^0 = 1
    assert list(powers) == [pow(omega, j, p) for j in range(order)]
    assert pow(omega, order, p) == 1
    assert all(pow(omega, d, p) != 1 for d in range(1, order) if order % d == 0)
    assert sum(c * pow(omega, k, p) for k, c in enumerate(cyclotomic_polynomial(order))) % p == 0


def _random_entry(rng, order, d):
    # zero, or an element of Q(zeta_d), stored at order d or embedded
    if rng.random() < 0.3:
        return Scalar.zero(order)
    x = Scalar(d, [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                   for _ in range(euler_phi(d))])
    return x.embed(order) if rng.random() < 0.5 else x


def _random_matrix(rng, rows, cols, order, d):
    return ExactMatrix(rows, cols, order, [[_random_entry(rng, order, d) for _ in range(cols)]
                                           for _ in range(rows)])


def _counting_echelon(monkeypatch):
    calls = []
    echelon = ExactMatrix._echelon

    def counted(self, *args):
        calls.append(self)
        return echelon(self, *args)

    monkeypatch.setattr(ExactMatrix, "_echelon", counted)
    return calls


@pytest.mark.parametrize("order", CERTIFICATE_ORDERS)
def test_rank_certificate_matches_elimination(order, monkeypatch):
    rng = random.Random(order)
    cases = []
    divisors = [d for d in range(1, order + 1) if order % d == 0]
    for _ in range(8):
        # the entries come from one divisor field Q(zeta_d), as the fields
        # of two divisors need not embed into one another
        d = rng.choice(divisors)
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        cases.append(_random_matrix(rng, r, c, order, d))
        # a product through k < min(r, c) inner columns has rank at most k
        k = rng.randint(1, max(1, min(r, c) - 1))
        cases.append(_random_matrix(rng, r, k, order, d) * _random_matrix(rng, k, c, order, d))
    ranks = [len(m._echelon()[1]) for m in cases]
    assert any(rk == min(m.rows, m.cols) for m, rk in zip(cases, ranks))
    assert any(rk < min(m.rows, m.cols) for m, rk in zip(cases, ranks))
    calls = _counting_echelon(monkeypatch)
    for m, rk in zip(cases, ranks):
        calls.clear()
        assert m.rank() == rk
        # a full rank is certified without elimination; a lower one is eliminated
        assert len(calls) == (rk < min(m.rows, m.cols))


@pytest.mark.parametrize("order", CERTIFICATE_ORDERS)
def test_rank_certificate_falls_back_when_p_divides(order, monkeypatch):
    from qhopf.exactmath import _certificate_prime

    p, _ = _certificate_prime(order)
    calls = _counting_echelon(monkeypatch)
    # determinant p: rank 1 mod p, rank 2 over Q
    assert mat([[1, 1], [1, p + 1]], order).rank() == 2
    # an entry with denominator p cannot be reduced mod p
    assert ExactMatrix(2, 2, order, [[rat(1, p, order), rat(0, order=order)],
                                     [rat(1, order=order), rat(1, order=order)]]).rank() == 2
    assert len(calls) == 2


def test_kron_indexing():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    k = a.kron(b)
    # entry ((i1, i2), (j1, j2)) = a[i1, j1] b[i2, j2]
    assert k[0 * 2 + 1, 1 * 2 + 0] == rat(2)
    assert k[1 * 2 + 0, 0 * 2 + 1] == rat(3)


# ---------------------------------------------------------------------------
# sums of Kronecker products


def kron_combination_reference(terms, factors):
    """sum c F_1[i_1] (x) ... (x) F_k[i_k], entry by entry: row (r_1, ..., r_k)
    and column (j_1, ..., j_k) flatten row-major over the factor shapes."""
    shapes = [(f[0].rows, f[0].cols) for f in factors]
    order = factors[0][0].order
    rows, cols = math.prod(r for r, _ in shapes), math.prod(c for _, c in shapes)
    out = [[Scalar.zero(order)] * cols for _ in range(rows)]
    for idx, c in terms:
        for rs in itertools.product(*(range(r) for r, _ in shapes)):
            for js in itertools.product(*(range(c) for _, c in shapes)):
                row = col = 0
                x = c
                for (nr, nc), f, i, r, j in zip(shapes, factors, idx, rs, js):
                    row, col = row * nr + r, col * nc + j
                    x = x * f[i][r, j]
                out[row][col] = out[row][col] + x
    return ExactMatrix(rows, cols, order, out)


def small_scalars(order):
    # mostly zeros and ones, so products skip and cancel
    coeff = st.sampled_from([0, 0, 1, 1, -1, 2])
    return st.tuples(coeff, coeff).map(
        lambda ab: Scalar(order, [ab[0], ab[1] if order > 1 else 0]))


@st.composite
def kron_problems(draw):
    """(terms, factors): 1-3 factor lists of 1-3 equally shaped, possibly
    rectangular matrices, and up to four terms, which need not name every
    matrix and may repeat an index with cancelling coefficients."""
    order = draw(st.sampled_from([1, 4]))
    entries = small_scalars(order)
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        r, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        factors.append([
            ExactMatrix(r, c, order, [[draw(entries) for _ in range(c)] for _ in range(r)])
            for _ in range(draw(st.integers(1, 3)))])
    index = st.tuples(*(st.integers(0, len(f) - 1) for f in factors))
    terms = draw(st.lists(st.tuples(index, entries), max_size=4))
    if terms and draw(st.booleans()):
        idx, c = terms[0]
        terms.append((idx, -c))
    return terms, factors


TWO_BY_THREE = ExactMatrix(2, 3, 1, [[rat(1), rat(2), rat(0)], [rat(0), rat(3), rat(4)]])
THREE_BY_ONE = ExactMatrix(3, 1, 1, [[rat(5)], [rat(0)], [rat(-1)]])
ONES_3_BY_1 = ExactMatrix(3, 1, 1, [[rat(1)]] * 3)


@settings(max_examples=80, deadline=None)
@given(kron_problems())
@example(([], [[TWO_BY_THREE], [THREE_BY_ONE]]))
@example(([((0, 1), rat(2)), ((0, 1), rat(-2))], [[TWO_BY_THREE], [THREE_BY_ONE, ONES_3_BY_1]]))
@example(([((0, 0), rat(0)), ((0, 0), rat(3))], [[TWO_BY_THREE], [THREE_BY_ONE]]))
def test_kron_combination_matches_reference(problem):
    terms, factors = problem
    got = kron_combination(terms, factors)
    assert got == kron_combination_reference(terms, factors)
    assert (got.rows, got.cols) == (
        math.prod(f[0].rows for f in factors), math.prod(f[0].cols for f in factors))


# ---------------------------------------------------------------------------
# collect, the one sum-and-drop-zeros helper


def collect_reference(terms):
    # sum every term per key, then drop the zero sums
    acc = {}
    for k, c in terms:
        acc[k] = acc[k] + c if k in acc else c
    return {k: c for k, c in acc.items() if not c.is_zero()}


@st.composite
def keyed_terms(draw):
    """(key, c) terms at order 1 or 4 over a few keys: single terms, zero
    terms, cancelling pairs, and a key cancelled and then added again."""
    order = draw(st.sampled_from([1, 4]))
    keys, coeff = st.integers(0, 3), small_scalars(order)
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        k, c = draw(keys), draw(coeff)
        kind = draw(st.sampled_from(["term", "zero", "cancel", "readd"]))
        if kind == "term":
            terms.append((k, c))
        elif kind == "zero":
            terms.append((k, Scalar.zero(order)))
        else:
            terms += [(k, c), (k, -c)]
            if kind == "readd":
                terms.append((k, draw(coeff)))
    return terms


@settings(max_examples=150, deadline=None)
@given(keyed_terms())
@example([(0, rat(1)), (0, rat(-1)), (0, rat(2))])
@example([(1, rat(0)), (0, rat(3))])
@example([(2, rat(0, order=4)), (2, Scalar.zeta(4)), (2, -Scalar.zeta(4)), (2, rat(1, 2, 4))])
@example([(0, rat(1)), (1, rat(2)), (0, rat(-1)), (1, rat(-2)), (0, rat(5))])
def test_collect_matches_two_pass_reference(terms):
    got = collect(terms)
    assert got == collect_reference(terms)
    assert all(not c.is_zero() for c in got.values())


def test_collect_skips_a_zero_term_on_a_stored_key():
    # the zero is never added, so its field does not meet the stored one
    got = collect([("k", Scalar.one(2)), ("k", Scalar.zero(3))])
    assert got == {"k": Scalar.one(2)} and got["k"].order == 2


# ---------------------------------------------------------------------------
# sum_of_products and the matrix product


def sum_of_products_reference(flat, order):
    # chained * and +, one product and one sum at a time, in Q(zeta_order)
    acc = Scalar.zero(order)
    for x, y in zip(flat[0::2], flat[1::2]):
        acc = acc + x.embed(order) * y.embed(order)
    return acc


@st.composite
def product_sums(draw):
    """(flat, order): up to six products at order 1, 3, 4, 12 or 16 whose
    factors are zeros, rationals, roots of unity or two-term sums (so
    denominators differ and rationals meet non-rationals), each stored at
    the order or a divisor of it; sometimes a product and its negation."""
    order = draw(st.sampled_from([1, 3, 4, 12, 16]))
    divisors = [d for d in REF_PHI if order % d == 0]

    def factor():
        d = draw(st.sampled_from(divisors))
        return Scalar(d, draw(low_degree(d)))

    flat = []
    for _ in range(draw(st.integers(0, 6))):
        flat += [factor(), factor()]
    if flat and draw(st.booleans()):
        flat += [-flat[0], flat[1]]
    return flat, order


Z3, Z4 = Scalar.zeta(3), Scalar.zeta(4)


@settings(max_examples=200, deadline=None)
@given(product_sums())
@example(([rat(1, 2), rat(1, 3), rat(1, 3), rat(1, 2), rat(2, 5), rat(-5, 6)], 1))
@example(([rat(1, 2), rat(1, 3), rat(-1, 6), rat(1)], 1))
@example(([rat(1, 2, 3), Z3, rat(3, 4, 3), rat(2, 3, 3), Z3, Z3 * Z3], 3))
@example(([Z3, rat(1, 2), -Z3, rat(1, 2), rat(1, 3), rat(3)], 3))
@example(([Scalar.zero(4), Z4, Z4, Scalar.zero(4), rat(0), rat(5)], 4))
@example(([Z4, Z4, Z3, Z3, rat(1, 6), rat(1, 1, 12), Scalar.zeta(12), rat(1, 5, 12)], 12))
@example(([Scalar.zeta(16), Scalar.zeta(16) ** 15, Scalar.zeta(8), rat(-1, 2, 8)], 16))
@example(([], 12))
def test_sum_of_products_matches_chained_arithmetic(case):
    flat, order = case
    got = sum_of_products(flat, order)
    assert got.order == order
    assert_canonical(got, order)
    assert got == sum_of_products_reference(flat, order)


# ---------------------------------------------------------------------------
# collect_products, the keyed sum of products


@st.composite
def keyed_products(draw):
    """(terms, order): (key, x, y) terms over a few keys at order 1, 3, 4,
    12 or 16, each factor stored at the order or a divisor of it and drawn
    as a value, a zero or a one: lone products, sums, sums that cancel, and
    a key cancelled and then added again.  The two factors of a product
    lie in one field or one in a subfield of the other's, as ``times``
    needs."""
    order = draw(st.sampled_from([1, 3, 4, 12, 16]))
    divisors = [d for d in REF_PHI if order % d == 0]
    keys = st.integers(0, 3)

    def factor(d):
        kind = draw(st.sampled_from(["value", "value", "zero", "one"]))
        if kind == "zero":
            return Scalar.zero(d)
        return Scalar.one(d) if kind == "one" else Scalar(d, draw(low_degree(d)))

    def factors():
        d = draw(st.sampled_from(divisors))
        e = draw(st.sampled_from([e for e in divisors if d % e == 0 or e % d == 0]))
        return factor(d), factor(e)

    terms = []
    for _ in range(draw(st.integers(0, 6))):
        k, (x, y) = draw(keys), factors()
        terms.append((k, x, y))
        kind = draw(st.sampled_from(["term", "cancel", "readd"]))
        if kind != "term":
            terms.append((k, -x, y))
            if kind == "readd":
                terms.append((k, *factors()))
    return terms, order


ONE_1, ONE_4 = Scalar.one(1), Scalar.one(4)


@settings(max_examples=200, deadline=None)
@given(keyed_products())
# a one from a divisor field keeps the product in the larger field
@example(([(0, rat(1, 2), ONE_4)], 4))
@example(([(0, ONE_1, Z4)], 4))
@example(([(0, ONE_1, rat(1, 2, 4)), (0, ONE_4, Z4)], 4))
@example(([(0, Scalar.zeta(16), ONE_1), (1, Scalar.zeta(8), Scalar.zeta(16))], 16))
# a lone product, a zero factor, a sum that cancels, a key cancelled and re-added
@example(([(0, Z3, Z3)], 3))
@example(([(1, Scalar.zero(3), Z3), (2, rat(2), rat(0))], 3))
@example(([(0, Z4, Z4), (0, ONE_4, ONE_4)], 4))
@example(([(0, Z3, rat(1, 2)), (0, -Z3, rat(1, 2)), (0, rat(1, 3), Z3)], 3))
@example(([(0, Scalar.zeta(12), Z3), (0, -Scalar.zeta(12), Z3), (0, Z4, rat(2))], 12))
@example(([], 12))
def test_collect_products_matches_collect_of_times(case):
    terms, order = case
    got = collect_products(terms, order)
    # the reference sums in Q(zeta_order): values at orders 2 and 3 do not
    # meet in a sum of their own
    assert got == collect((k, times(x, y).embed(order)) for k, x, y in terms)
    lone = {k: (x, y) for k, x, y in terms}
    for k, c in got.items():
        assert_canonical(c, c.order)
        if sum(1 for key, _, _ in terms if key == k) == 1:
            assert c.order == times(*lone[k]).order
        else:
            assert c.order == order


def collect_products_reference(terms, order):
    # a plain running sum of x * y per key, in Q(zeta_order), keys in
    # order of first appearance, the zero sums dropped at the end
    acc = {}
    for k, x, y in terms:
        acc[k] = acc.get(k, Scalar.zero(order)) + (x * y).embed(order)
    return {k: c for k, c in acc.items() if c.num}


@settings(max_examples=200, deadline=None)
@given(keyed_products())
# a key whose terms cancel, between two surviving keys
@example(([(2, Z3, Z3), (0, Z3, rat(1, 2)), (1, rat(1, 2), Z3), (0, -Z3, rat(1, 2)),
           (1, Z3, Z3)], 3))
@example(([(3, Z4, Z4), (1, rat(0), Z4), (0, ONE_4, Z4)], 4))
# a lone product with a one of another field
@example(([(1, ONE_1, Z4), (0, rat(1, 2), ONE_4), (2, Z4, ONE_4)], 4))
def test_collect_products_matches_a_running_sum_per_key(case):
    terms, order = case
    got = collect_products(terms, order)
    want = collect_products_reference(terms, order)
    assert list(got) == list(want) and got == want
    assert all(c.num for c in got.values())
    for k, x, y in terms:
        if sum(1 for key, _, _ in terms if key == k) == 1 and k in got:
            # as times: a one of the other factor's field is skipped, and a
            # one of another field still lifts the product into the larger
            assert got[k].order == (x * y).order
            if y.is_one() and y.order == x.order:
                assert got[k] is x
            elif x.is_one() and x.order == y.order:
                assert got[k] is y


def apply_reference(m, v):
    # chained * and +, one product and one sum at a time, zeros included,
    # in the field of the matrix and the vector
    order = math.lcm(m.order, *(y.order for y in v))
    out = []
    for row in m.dense:
        acc = Scalar.zero(order)
        for x, y in zip(row, v):
            acc = acc + x * y
        out.append(acc)
    return out


@st.composite
def matrix_vectors(draw):
    """(m, v): a matrix at order 1, 3, 4 or 12 and a vector at any of those
    orders, so the vector may lie in a larger field than the matrix or in
    one that neither contains; entries as in product_sums, stored at the
    order or at 1, half of them zero; sometimes each column of m repeated
    against v's entry and its negation, so that every sum cancels."""
    order, vorder = (draw(st.sampled_from([1, 3, 4, 12])) for _ in range(2))

    def entry(o):
        if draw(st.booleans()):
            return Scalar.zero(o)
        d = draw(st.sampled_from([1, o]))
        return Scalar(d, draw(low_degree(d)))

    r, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    m = ExactMatrix(r, c, order, [[entry(order) for _ in range(c)] for _ in range(r)])
    v = [entry(vorder) for _ in range(c)]
    if draw(st.booleans()):
        one = Scalar.one(order)
        m = m.kron(ExactMatrix(1, 2, order, [[one, one]]))
        v = [x for y in v for x in (y, -y)]
    return m, v


@settings(max_examples=150, deadline=None)
@given(matrix_vectors())
@example((ExactMatrix(2, 2, 4, [[Z4, rat(1, 2, 4)], [rat(0, order=4), Z4]]),
          [Scalar.zeta(12), rat(0, order=12)]))
@example((ExactMatrix(1, 2, 3, [[Z3, rat(2, order=3)]]), [Z4, -Z4]))
@example((ExactMatrix(1, 2, 1, [[rat(1), rat(1)]]), [rat(1, 2), rat(-1, 2)]))
@example((ExactMatrix.zeros(2, 3, 12), [Scalar.zeta(12)] * 3))
def test_apply_and_dot_match_chained_sums(case):
    m, v = case
    want = apply_reference(m, v)
    order = math.lcm(m.order, *(y.order for y in v))
    got = m.apply(v)
    assert got == want
    for i, row in enumerate(m.dense):
        assert dot(row, v) == want[i]
        for c in (got[i], dot(row, v)):
            assert_canonical(c, c.order)
            assert order % c.order == 0


def test_apply_and_dot_lie_in_the_larger_field():
    # a vector in a larger field than its matrix gives entries in that field
    m = ExactMatrix(2, 2, 4, [[Z4, rat(1, 2, 4)], [rat(0, order=4), Z4]])
    v = [Scalar.zeta(12), rat(0, order=12)]
    assert [c.order for c in m.apply(v)] == [12, 12]
    assert dot(m.dense[1], v).order == 12
    assert dot([Z3, rat(1, order=3)], [Z4, Z4]).order == 12


def test_apply_and_dot_skip_zero_factors(monkeypatch):
    # no product with a zero of v (apply) or of u (dot) reaches the sum
    from qhopf import exactmath

    helper = exactmath.collect_products

    def checked(terms, order):
        terms = list(terms)
        assert all(x.num and y.num for _, x, y in terms)
        return helper(terms, order)

    monkeypatch.setattr(exactmath, "collect_products", checked)
    m = ExactMatrix(2, 3, 4, [[Z4, Z4, rat(1, order=4)], [rat(2, order=4), Z4, Z4]])
    v = [rat(0, order=4), Z4, rat(0, order=4)]
    assert m.apply(v) == [Z4 * Z4, Z4 * Z4]
    assert dot(v, m.dense[0]) == Z4 * Z4


def matrix_product_reference(a, b):
    # the dense triple loop
    out = [[Scalar.zero(a.order) for _ in range(b.cols)] for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            for k in range(a.cols):
                out[i][j] = out[i][j] + a[i, k].embed(a.order) * b[k, j].embed(a.order)
    return ExactMatrix(a.rows, b.cols, a.order, out)


@st.composite
def matrix_pairs(draw):
    """(a, b) composable, at order 1, 3, 4 or 12; entries as in
    product_sums, but stored at the order or at 1, half of them zero, and
    sometimes columns of a repeated against rows of b of opposite sign, so
    that every sum cancels."""
    order = draw(st.sampled_from([1, 3, 4, 12]))

    def entry():
        if draw(st.booleans()):
            return Scalar.zero(order)
        d = draw(st.sampled_from([1, order]))
        return Scalar(d, draw(low_degree(d)))

    r, k, c = (draw(st.integers(1, 4)) for _ in range(3))
    a = ExactMatrix(r, k, order, [[entry() for _ in range(k)] for _ in range(r)])
    b = ExactMatrix(k, c, order, [[entry() for _ in range(c)] for _ in range(k)])
    if draw(st.booleans()):
        one = Scalar.one(order)
        a = a.kron(ExactMatrix(1, 2, order, [[one, one]]))
        b = b.kron(ExactMatrix(2, 1, order, [[one], [-one]]))
    return a, b


@settings(max_examples=100, deadline=None)
@given(matrix_pairs())
@example((TWO_BY_THREE, THREE_BY_ONE))
@example((ExactMatrix.identity(3), TWO_BY_THREE.transpose()))
def test_matrix_product_matches_triple_loop(pair):
    a, b = pair
    got = a * b
    assert _is_sparse(got)
    assert got == matrix_product_reference(a, b)


def test_products_are_declared_in_the_larger_field(monkeypatch):
    # an order-1 factor no longer lowers the field of a product or a kron
    ident = ExactMatrix.identity(2)
    m = ExactMatrix(2, 2, 4, [[Z4, rat(1, 2, 4)], [rat(0, order=4), Z4]])
    for got in (ident * m, m * ident, ident.kron(m), m.kron(ident)):
        assert got.order == 4
        assert all(x.order == 4 for row in got.dense for x in row)
    # so full rank is certified in Q(zeta_4), without elimination
    monkeypatch.setattr(ExactMatrix, "_echelon", lambda self, targets=(): pytest.fail(
        "full rank was not certified"))
    assert (ident * m).rank() == 2
    assert ident.kron(m).rank() == 4


# ---------------------------------------------------------------------------
# the sparse invariant


def _is_sparse(m):
    """No row stores a zero and every stored column is in range."""
    return len(m.data) == m.rows and all(
        0 <= j < m.cols and not x.is_zero() for row in m.data for j, x in row.items())


@st.composite
def matrix_triples(draw):
    """(a, b, a2): a and a2 of one shape, b composable with them; the
    entries are mostly zeros and ones, so sums cancel."""
    order = draw(st.sampled_from([1, 4]))
    entries = small_scalars(order)
    r, k, c = (draw(st.integers(1, 3)) for _ in range(3))

    def matrix(rows, cols):
        return ExactMatrix(rows, cols, order,
                           [[draw(entries) for _ in range(cols)] for _ in range(rows)])

    return matrix(r, k), matrix(k, c), matrix(r, k)


@settings(max_examples=60, deadline=None)
@given(matrix_triples(), kron_problems())
@example((TWO_BY_THREE, THREE_BY_ONE, TWO_BY_THREE.scale(rat(-1))),
         ([((0, 1), rat(2)), ((0, 1), rat(-2))], [[TWO_BY_THREE], [THREE_BY_ONE, ONES_3_BY_1]]))
def test_sparse_invariant_under_matrix_operations(triple, problem):
    a, b, a2 = triple
    order = a.order
    zero, one = Scalar.zero(order), Scalar.one(order)
    # duplicated columns against rows of opposite sign: every product cancels
    cancelled = (a.kron(ExactMatrix(1, 2, order, [[one, one]]))
                 * b.kron(ExactMatrix(2, 1, order, [[one], [-one]])))
    square = a * a.transpose()
    t = Tensor.from_entries(square.rows, 2, order, square.nonzero())
    splits = [as_matrix(t, rows) for rows in (0, 1, 2)]
    terms, factors = problem
    combined = kron_combination(terms, factors)
    # zero the first stored entry, then a corner that may already be zero
    written = a.kron(b)
    dense = written.dense
    for i, j in [next(written.nonzero(), ((0, 0), zero))[0],
                 (written.rows - 1, written.cols - 1)]:
        written[i, j] = zero
        dense[i][j] = zero
    results = [a, b, cancelled, a - a, a - a2, a.scale(zero), a.scale(-one), a.transpose(),
               a.kron(b), stack_rows([a, a2]), *splits, combined, written]
    assert all(_is_sparse(m) for m in results)
    for s, t in [(cancelled, ExactMatrix.zeros(a.rows, b.cols, order)),
                 (a - a, ExactMatrix.zeros(a.rows, a.cols, order)),
                 (a.scale(zero), a - a), (a, a2), (a - a2, (a2 - a).scale(-one)),
                 (a.transpose().transpose(), a), (splits[1], square),
                 (combined, kron_combination_reference(terms, factors)),
                 (written, ExactMatrix(written.rows, written.cols, order, dense))]:
        assert (s == t) == (s.dense == t.dense)


# ---------------------------------------------------------------------------
# common eigenvectors


def common_eigenvectors_reference(mats, values):
    """The definition: the kernel of the stacked M - c 1, each shift built
    as a scaled identity and subtracted."""
    n = mats[0].rows
    return stack_rows([m - ExactMatrix.identity(n, m.order).scale(c)
                       for m, c in zip(mats, values)]).kernel()


@st.composite
def eigen_systems(draw):
    """(mats, values): 1-3 sparse n x n matrices, n <= 3, each at order 1
    or 4, and one value per matrix at order 1 or 4: zero, a small scalar,
    or a diagonal entry of its matrix, so that the shifted entry cancels
    (kept at order 4 when its matrix is)."""
    n = draw(st.integers(1, 3))
    mats, values = [], []
    for _ in range(draw(st.integers(1, 3))):
        order = draw(st.sampled_from([1, 4]))
        m = ExactMatrix(n, n, order, [[draw(small_scalars(order)) for _ in range(n)]
                                      for _ in range(n)])
        vorder = draw(st.sampled_from([1, 4]))
        kind = draw(st.sampled_from(("zero", "small", "diagonal")))
        if kind == "zero":
            c = Scalar.zero(vorder)
        elif kind == "small":
            c = draw(small_scalars(vorder))
        else:
            i = draw(st.integers(0, n - 1))
            c = m[i, i] if vorder % order else m[i, i].embed(vorder)
        mats.append(m)
        values.append(c)
    return mats, values


@settings(max_examples=200, deadline=None)
@given(eigen_systems())
@example(([ExactMatrix.identity(2, 4)], [Scalar.one(1)]))
@example(([ExactMatrix(2, 2, 1, [[rat(2), rat(0)], [rat(0), rat(0)]]), ExactMatrix.identity(2, 4)],
          [rat(2), Scalar.zero(4)]))
@example(([ExactMatrix(2, 2, 4, [[Z4, rat(1, order=4)], [rat(0, order=4), Z4]])], [Z4]))
def test_common_eigenvectors_match_the_definition(system):
    mats, values = system
    got, want = common_eigenvectors(mats, values), common_eigenvectors_reference(mats, values)
    assert got == want
    assert [[x.order for x in v] for v in got] == [[x.order for x in v] for v in want]
