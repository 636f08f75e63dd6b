import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from qhopf.exactmath import ExactMatrix, Scalar, stack_rows
from qhopf import tensorspace as ts
from qhopf.tensorspace import LegError, Tensor
from qhopf.qha import first_difference


@pytest.fixture(scope="module")
def z2(presets):
    return presets["group_Z2_trivialR"].algebra


def basis_tensor(dim, legs, idx, order=1):
    t = Tensor.zero(dim, legs, order)
    t[idx] = Scalar.one(order)
    return t


def test_unit_times_unit(z2):
    u = Tensor.unit(2, 2)
    assert ts.mul(u, u, z2.mult_table) == u


def test_group_element_squares_to_unit(z2):
    gg = basis_tensor(2, 2, (1, 1))
    assert ts.mul(gg, gg, z2.mult_table) == Tensor.unit(2, 2)


def test_coassociator_times_inverse(presets):
    alg = presets["twisted_double_Z2"].algebra
    assert ts.mul(alg.phi, alg.phi_inv, alg.mult_table) == Tensor.unit(4, 3, 4)


def test_leg_map_identity_and_antipode(z2):
    u = Tensor.unit(2, 2)
    assert ts.leg_map(u, 1, z2.antipode) == u
    g1 = basis_tensor(2, 2, (1, 0))
    assert ts.leg_map(g1, 1, z2.antipode) == g1  # S = id on Q[Z/2]


def test_coproduct_of_unit_leg(z2):
    one = Tensor.unit(2, 1)
    assert ts.coproduct_leg(one, 1, z2.cop_table) == Tensor.unit(2, 2)


def test_counit_middle_leg_of_coassociator(presets):
    for p in presets.values():
        alg = p.algebra
        got = ts.counit_leg(alg.phi, 2, alg.counit)
        assert got == Tensor.unit(alg.dim, 2, alg.order), p.name


def test_counitality_roundtrip(presets):
    for p in presets.values():
        alg = p.algebra
        t = alg.r_matrix
        for j in (1, 2):
            assert ts.counit_leg(
                ts.coproduct_leg(t, j, alg.cop_table), j, alg.counit) == t


def test_permute_swap():
    t = basis_tensor(3, 2, (1, 2))
    assert ts.permute(t, (2, 1)) == basis_tensor(3, 2, (2, 1))


def test_permute_matches_subscript_notation(presets):
    phi = presets["twisted_double_Z2"].algebra.phi
    p231 = ts.permute(phi, (2, 3, 1))
    for idx, c in phi.nonzero():
        assert p231[idx[1], idx[2], idx[0]] == c


def test_permute_group_action():
    t = basis_tensor(2, 3, (1, 0, 1))
    sigma, tau = (2, 3, 1), (3, 1, 2)
    composed = tuple(tau[s - 1] for s in sigma)
    assert ts.permute(ts.permute(t, tau), sigma) == ts.permute(t, composed)


def test_permute_inverse_roundtrip():
    t = basis_tensor(2, 3, (1, 1, 0))
    sigma = (2, 3, 1)
    inverse = tuple(sigma.index(l) + 1 for l in (1, 2, 3))
    assert ts.permute(ts.permute(t, sigma), inverse) == t


def test_embed_r_into_positions(z2):
    r13 = ts.embed(z2.r_matrix, 3, (1, 3))
    for idx, c in z2.r_matrix.nonzero():
        assert r13[idx[0], 0, idx[1]] == c
    assert r13 == Tensor.unit(2, 3)  # R = 1 x 1 here


def test_embed_rejects_bad_positions(z2):
    with pytest.raises(LegError):
        ts.embed(z2.r_matrix, 3, (3, 1))
    with pytest.raises(LegError):
        ts.embed(z2.r_matrix, 1, (1, 2))


def test_leg_out_of_range(z2):
    with pytest.raises(LegError):
        ts.leg_map(z2.r_matrix, 3, z2.antipode)
    with pytest.raises(LegError):
        ts.counit_leg(z2.r_matrix, 0, z2.counit)


def test_mul_mismatch(z2):
    with pytest.raises(LegError):
        ts.mul(Tensor.unit(2, 2), Tensor.unit(2, 3), z2.mult_table)


def test_merge_legs_requires_partition(z2):
    with pytest.raises(LegError):
        ts.merge_legs(z2.r_matrix, ((1, 1),), z2.mult_table)


def test_mul_associative_and_unital(presets):
    alg = presets["double_Z2"].algebra
    mt = alg.mult_table
    u = Tensor.unit(4, 2)
    a = alg.r_matrix
    b = alg.delta_of(alg.ribbon)
    c = ts.permute(alg.r_matrix, (2, 1))
    assert ts.mul(ts.mul(a, b, mt), c, mt) == ts.mul(a, ts.mul(b, c, mt), mt)
    assert ts.mul(u, a, mt) == a
    assert ts.mul(a, u, mt) == a


def _random_tensor(dim, legs, order, draw_fraction):
    coeffs = [Scalar.rational(draw_fraction(), order=order) for _ in range(dim**legs)]
    return Tensor(dim, legs, order, coeffs)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_mul_associativity_random_tensors(presets, data):
    alg = presets["twisted_double_Z2"].algebra
    mt = alg.mult_table
    legs = data.draw(st.integers(1, 2))

    def frac():
        return data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))

    a = _random_tensor(alg.dim, legs, alg.order, frac)
    b = _random_tensor(alg.dim, legs, alg.order, frac)
    c = _random_tensor(alg.dim, legs, alg.order, frac)
    u = Tensor.unit(alg.dim, legs, alg.order)
    assert ts.mul(ts.mul(a, b, mt), c, mt) == ts.mul(a, ts.mul(b, c, mt), mt)
    assert ts.mul(u, a, mt) == a
    assert ts.mul(a, u, mt) == a


def test_coproduct_leg_is_multiplicative(presets):
    # coproduct_leg distributes over mul exactly when the coproduct is an
    # algebra map, which holds on the presets
    for name in ("double_Z2", "twisted_double_Z2"):
        alg = presets[name].algebra
        mt = alg.mult_table
        s, t = alg.r_matrix, ts.permute(alg.r_matrix, (2, 1))
        for j in (1, 2):
            lhs = ts.coproduct_leg(ts.mul(s, t, mt), j, alg.cop_table)
            rhs = ts.mul(
                ts.coproduct_leg(s, j, alg.cop_table),
                ts.coproduct_leg(t, j, alg.cop_table),
                mt,
            )
            assert lhs == rhs


def test_merge_legs_orders_products(presets):
    alg = presets["twisted_double_Z2"].algebra
    t = basis_tensor(4, 2, (1, 2), order=4)
    merged = ts.merge_legs(t, ((1, 2),), alg.mult_table)
    assert merged == basis_tensor(4, 1, (3,), order=4)  # t * t^2 = t^3
    swapped = ts.merge_legs(t, ((2, 1),), alg.mult_table)
    assert swapped == basis_tensor(4, 1, (3,), order=4)  # commutative algebra


def test_tensor_product_concatenates(z2):
    a = basis_tensor(2, 1, (1,))
    b = basis_tensor(2, 2, (0, 1))
    assert ts.tensor_product(a, b) == basis_tensor(2, 3, (1, 0, 1))


# ---------------------------------------------------------------------------
# the sparse storage invariant


def _flat(t, idx):
    # row-major position, computed independently of tensorspace
    f = 0
    for i in idx:
        f = f * t.dim + i
    return f


def _check_invariant(t):
    entries = list(t.nonzero())
    flats = [_flat(t, idx) for idx, _ in entries]
    assert flats == sorted(set(flats))
    assert not any(c.is_zero() for _, c in entries)
    assert t.is_zero() == (not entries)
    dense = t.coeffs
    assert len(dense) == t.dim**t.legs
    assert sum(not c.is_zero() for c in dense) == len(entries)
    assert all(dense[f] == c for f, (_, c) in zip(flats, entries))


def _first_dense_difference(a, b):
    for idx, x, y in zip(ts.multi_indices(a.dim, a.legs), a.coeffs, b.coeffs):
        if x != y:
            return idx
    return None


def _sparse_tensor(data, alg, legs):
    order, dim = alg.order, alg.dim
    one = Scalar.one(order)
    values = [Scalar.zero(order), one, -one, Scalar.rational(1, 2, order=order)]
    if order > 1:
        values.append(Scalar.zeta(order))
    pick = st.sampled_from(values)
    t = Tensor(dim, legs, order, data.draw(st.lists(
        st.one_of(st.just(Scalar.zero(order)), pick),
        min_size=dim**legs, max_size=dim**legs)))
    indices = list(ts.multi_indices(dim, legs))
    for idx, v in data.draw(st.lists(st.tuples(st.sampled_from(indices), pick), max_size=4)):
        t[idx] = v
    return t


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sparse_invariant_under_leg_operations(presets, data):
    alg = presets[data.draw(st.sampled_from(["group_Z2_trivialR", "twisted_double_Z2"]))].algebra
    mt = alg.mult_table
    legs = data.draw(st.integers(1, 2))
    a = _sparse_tensor(data, alg, legs)
    b = _sparse_tensor(data, alg, legs)
    c = Tensor(alg.dim, legs, alg.order, a.coeffs)
    c[(0,) * legs] = Scalar.zero(alg.order)
    zero = Tensor.zero(alg.dim, legs, alg.order)
    ab, ba = ts.mul(a, b, mt), ts.mul(b, a, mt)
    results = [a, b, c, zero, a - a, a + b, a - b, ab, ba, ab - ba,
               a.scale(Scalar.zero(alg.order)), a.scale(-Scalar.one(alg.order)) + a,
               ts.merge_legs(ts.tensor_product(a, b), ((1, 2),) if legs == 1
                             else ((1, 3), (2, 4)), mt)]
    for t in results:
        _check_invariant(t)
    for s, t in [(a, b), (a, c), (a - a, zero), (ab, ba), (a + b, b + a),
                 (ab, results[-1]), (ab - ba, zero)]:
        assert (s == t) == (s.coeffs == t.coeffs)
        assert first_difference(s, t) == _first_dense_difference(s, t)


# ---------------------------------------------------------------------------
# matrices and tensors of more than four legs


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_as_matrix_places_entries_row_major(presets, data):
    alg = presets[data.draw(st.sampled_from(["group_Z2_trivialR", "twisted_double_Z2"]))].algebra
    legs = data.draw(st.integers(0, 3))
    rows = data.draw(st.integers(0, legs))
    t = _sparse_tensor(data, alg, legs)
    m = ts.as_matrix(t, rows)
    assert (m.rows, m.cols) == (alg.dim**rows, alg.dim ** (legs - rows))
    dense = [[Scalar.zero(alg.order)] * m.cols for _ in range(m.rows)]
    for idx, c in t.nonzero():
        dense[_flat(t, idx[:rows])][_flat(t, idx[rows:])] = c
    assert m.dense == dense


def test_as_matrix_rejects_bad_split():
    with pytest.raises(LegError):
        ts.as_matrix(Tensor.unit(2, 2), 3)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_five_to_eight_legs_merge_back(presets, data):
    alg = presets["twisted_double_Z2"].algebra
    mt = alg.mult_table
    legs = data.draw(st.integers(1, 4))
    extra = data.draw(st.integers(max(1, 5 - legs), 4))
    a = _sparse_tensor(data, alg, legs)
    padded = ts.tensor_product(a, Tensor.unit(alg.dim, extra, alg.order))
    assert padded.legs == legs + extra
    _check_invariant(padded)
    # each unit leg is multiplied into one leg of a, on either side
    groups = [[leg] for leg in range(1, legs + 1)]
    for j in range(extra):
        g = groups[j % legs]
        g.insert(data.draw(st.sampled_from([0, len(g)])), legs + 1 + j)
    assert ts.merge_legs(padded, groups, mt) == a


def test_six_and_eight_legs_merge_to_product(presets):
    alg = presets["twisted_double_Z2"].algebra
    mt, cop = alg.mult_table, alg.cop_table
    for a, b in [(alg.phi, alg.phi_inv),
                 (ts.coproduct_leg(alg.phi, 3, cop), ts.coproduct_leg(alg.phi_inv, 1, cop))]:
        both = ts.tensor_product(a, b)
        assert both.legs == 2 * a.legs
        pairs = [(leg, a.legs + leg) for leg in range(1, a.legs + 1)]
        assert ts.merge_legs(both, pairs, mt) == ts.mul(a, b, mt)
        assert not ts.mul(a, b, mt).is_zero()


# ---------------------------------------------------------------------------
# mul and merge_legs against a dense reference, on tables with multi-term
# products: no algebra of the test suite has one, so only these reach the
# general expansion beside the single-term path


def _table_scalars(order):
    # one, and -1, 1/2 and zeta_m, the single non-one coefficients
    return st.sampled_from([Scalar.one(order), Scalar.rational(-1, order=order),
                            Scalar.rational(1, 2, order=order), Scalar.zeta(order)])


@st.composite
def product_tables(draw, dim, order):
    """mult[i][j] empty, one term with coefficient one, one term with
    another coefficient, or several terms, possibly repeating an index
    with cancelling coefficients."""
    index = st.integers(0, dim - 1)
    scalars = _table_scalars(order)

    def entry():
        kind = draw(st.sampled_from(["empty", "one", "single", "multi"]))
        if kind == "empty":
            return []
        if kind == "one":
            return [(draw(index), Scalar.one(order))]
        if kind == "single":
            return [(draw(index), draw(scalars.filter(lambda c: not c.is_one())))]
        terms = [(draw(index), draw(scalars)) for _ in range(draw(st.integers(2, 3)))]
        if draw(st.booleans()):
            k, c = terms[0]
            terms.append((k, -c))
        return terms

    return [[entry() for _ in range(dim)] for _ in range(dim)]


@st.composite
def tensor_problems(draw):
    """(table, s, t): a table at one of the orders 1 and 4 and two tensors
    of one shape at one of them, not necessarily the same."""
    dim, legs = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    m_order, t_order = draw(st.sampled_from([1, 4])), draw(st.sampled_from([1, 4]))
    table = draw(product_tables(dim, m_order))
    coeff = st.sampled_from([Scalar.one(t_order), Scalar.rational(-1, order=t_order),
                             Scalar.rational(2, 3, order=t_order), Scalar.zeta(t_order)])
    index = st.tuples(*[st.integers(0, dim - 1)] * legs)

    def tensor():
        return Tensor._of(dim, legs, t_order, draw(st.dictionaries(index, coeff, max_size=4)))

    return table, tensor(), tensor()


@st.composite
def merge_problems(draw):
    """(table, factors, groups): the two tensors of a product problem, and
    a 1-leg third one at one of the orders 1 and 4 when the first has at
    most two legs; their legs, numbered in turn, are shuffled and cut into
    groups."""
    table, s, t = draw(tensor_problems())
    factors = [s, t]
    if s.legs <= 2 and draw(st.booleans()):
        order = draw(st.sampled_from([1, 4]))
        coeff = st.sampled_from([Scalar.one(order), Scalar.rational(-1, 2, order=order),
                                 Scalar.zeta(order)])
        factors.append(Tensor._of(s.dim, 1, order, draw(st.dictionaries(
            st.tuples(st.integers(0, s.dim - 1)), coeff, max_size=2))))
    n = sum(f.legs for f in factors)
    legs = draw(st.permutations(range(1, n + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1)))
    return table, tuple(factors), [legs[a:b] for a, b in zip([0, *cuts], [*cuts, n])]


def _dense_table(table):
    """c[i][j][k], every entry a Scalar of the table's order, and that order."""
    dim = len(table)
    order = next((c.order for row in table for e in row for _, c in e), 1)
    out = [[[Scalar.zero(order)] * dim for _ in range(dim)] for _ in range(dim)]
    for i, row in enumerate(table):
        for j, terms in enumerate(row):
            for k, c in terms:
                out[i][j][k] = out[i][j][k] + c
    return out, order


def _dense_product(dense, word, order):
    # e_{w_1} ... e_{w_n} as a coefficient vector, by plain multiplication
    dim = len(dense)
    vec = [Scalar.one(order) if k == word[0] else Scalar.zero(order) for k in range(dim)]
    for b in word[1:]:
        vec = [sum((vec[a] * dense[a][b][k] for a in range(dim)), Scalar.zero(order))
               for k in range(dim)]
    return vec


def _expected(dim, legs, terms):
    """sum over (c, vectors) of c times the tensor product of the vectors,
    every output index visited; the zeros are dropped."""
    out = {}
    for c, vecs in terms:
        for idx in itertools.product(range(dim), repeat=legs):
            x = c
            for vec, k in zip(vecs, idx):
                x = x * vec[k]
            out[idx] = out[idx] + x if idx in out else x
    return {idx: x for idx, x in out.items() if not x.is_zero()}


def _assert_entries(got, want, order):
    assert got.entries == want
    # a skipped multiplication by a one of another field leaves the order,
    # and the tensor is declared in the field its entries are in
    assert all(c.order == order for c in got.entries.values())
    assert got.order == order


ONE_1, ONE_4, HALF_4 = Scalar.one(1), Scalar.one(4), Scalar.rational(1, 2, order=4)
# products by a one of Q(zeta_4) on rational tensors, through both paths
ONES_4 = [[[(0, ONE_4)], [(1, ONE_4), (0, HALF_4), (1, -ONE_4)]],
          [[], [(1, ONE_4), (0, HALF_4)]]]
TWO_LEGS = Tensor._of(2, 2, 1, {(0, 0): ONE_1, (0, 1): ONE_1, (1, 1): Scalar.rational(2, 3)})
# e_0 e_0 = e_1, one term; e_1 e_0 is several terms in CHAIN_MULTI and none
# in CHAIN_EMPTY, so a group of three or more legs steps once and then sums
# or vanishes
HALF_1 = Scalar.rational(1, 2)
CHAIN_MULTI = [[[(1, ONE_1)], [(0, ONE_1)]], [[(0, HALF_1), (1, ONE_1)], [(0, ONE_1)]]]
CHAIN_EMPTY = [[[(1, ONE_1)], []], [[], [(0, ONE_1)]]]
# one-term rational constants, none of them a one of Q(zeta_4)
SINGLE_1 = [[[(0, ONE_1)], [(1, HALF_1)]], [[(1, -ONE_1)], [(0, ONE_1)]]]
THREE_LEGS_4 = Tensor._of(2, 3, 4, {(0, 1, 1): Scalar.zeta(4), (1, 0, 1): ONE_4,
                                    (0, 0, 0): HALF_4})
# both groups of each entry are multi-term products under ONES_4, so each
# entry expands into a product of two multi-term legs
FOUR_LEGS = Tensor._of(2, 4, 1, {(0, 1, 1, 1): Scalar.rational(2, 3), (1, 1, 0, 1): ONE_1})


@settings(max_examples=80, deadline=None)
@given(tensor_problems())
@example((ONES_4, TWO_LEGS, TWO_LEGS))
@example(([[[(0, ONE_4)]]], Tensor.unit(1, 2, 1), Tensor.unit(1, 2, 1)))
@example(([[[(0, -ONE_1), (0, Scalar.rational(1, 2))]]], Tensor.unit(1, 1, 4), Tensor.unit(1, 1, 4)))
@example(([[[(0, ONE_4), (1, HALF_4)], []], [[], []]], Tensor.unit(2, 1, 1), Tensor.unit(2, 1, 1)))
def test_mul_matches_dense_reference(problem):
    table, s, t = problem
    dense, m_order = _dense_table(table)
    want = _expected(s.dim, s.legs, (
        (cs * ct, [dense[a][b] for a, b in zip(i_s, i_t)])
        for i_s, cs in s.entries.items() for i_t, ct in t.entries.items()))
    _assert_entries(ts.mul(s, t, table), want, math.lcm(s.order, m_order))


@settings(max_examples=80, deadline=None)
@given(merge_problems())
@example((ONES_4, TWO_LEGS, [[2, 1]]))
@example((ONES_4, TWO_LEGS, [[2], [1]]))
@example(([[[(0, ONE_4)]]], Tensor.unit(1, 3, 1), [[3, 1, 2]]))
@example(([[[(0, HALF_4)]]], Tensor.unit(1, 3, 4), [[1, 2, 3]]))
@example((CHAIN_MULTI, Tensor.unit(2, 3, 1), [[1, 2, 3]]))
@example((CHAIN_EMPTY, Tensor.unit(2, 4, 1), [[1, 2, 3, 4]]))
@example((SINGLE_1, THREE_LEGS_4, [[3, 1, 2]]))
@example((ONES_4, FOUR_LEGS, [[1, 2], [3, 4]]))
@example((ONES_4, (TWO_LEGS, Tensor.unit(2, 1, 4), TWO_LEGS), [[5, 3, 1], [2, 4]]))
@example((CHAIN_MULTI, (Tensor.unit(2, 1, 4), TWO_LEGS, Tensor.unit(2, 1, 1)), [[4, 2, 1, 3]]))
@example((SINGLE_1, (THREE_LEGS_4, TWO_LEGS), [[1], [4, 2], [5], [3]]))
def test_merge_legs_matches_dense_reference(problem):
    # a factor sequence is merged as it stands and as the reference, its
    # outer product tensor_product(a, tensor_product(b, c)) merged as one
    # tensor; both must give the dense product of the reference's entries
    table, factors, groups = problem
    factors = (factors,) if isinstance(factors, Tensor) else factors
    t = factors[-1]
    for f in reversed(factors[:-1]):
        t = ts.tensor_product(f, t)
    dense, m_order = _dense_table(table)
    want = _expected(t.dim, len(groups), (
        (c, [_dense_product(dense, [idx[leg - 1] for leg in g], t.order) for g in groups])
        for idx, c in t.entries.items()))
    order = math.lcm(t.order, m_order) if any(len(g) > 1 for g in groups) else t.order
    _assert_entries(ts.merge_legs(t, groups, table), want, order)
    _assert_entries(ts.merge_legs(factors, groups, table), want, order)


def test_merge_legs_of_factors_is_declared_at_the_lcm_of_their_fields():
    # the factors' fields alone when no legs multiply, with the table's
    # field as soon as some do
    a, b = Tensor._of(2, 1, 1, {(1,): ONE_1}), Tensor._of(2, 1, 4, {(0,): Scalar.zeta(4)})
    got = ts.merge_legs((a, b), [[2], [1]], SINGLE_1)
    assert got.order == 4 and got.entries == {(0, 1): Scalar.zeta(4)}
    swap_4 = [[[(0, ONE_4)], [(1, ONE_4)]], [[(1, ONE_4)], [(0, ONE_4)]]]
    got = ts.merge_legs((a, a), [[1, 2]], swap_4)
    assert got.order == 4 and got.entries == {(0,): ONE_4}
    assert ts.as_matrix(got, 1).order == 4


def test_merge_legs_of_factors_rejects_bad_input(z2):
    a = Tensor.unit(2, 1)
    for factors, groups in [((a, Tensor.unit(3, 1)), [[1], [2]]),    # dims differ
                            ((a, a), [[1]]),                         # leg 2 unused
                            ((a, a), [[1, 1], [2]]),                 # leg 1 twice
                            ((a, a), [[1], [2], [3]])]:              # no leg 3
        with pytest.raises(LegError):
            ts.merge_legs(factors, groups, z2.mult_table)


def test_products_are_declared_in_the_field_of_the_table():
    # an order-1 tensor times an order-4 table is an order-4 tensor, and so
    # is its coefficient matrix
    t = Tensor.unit(1, 1, 1)
    table = [[[(0, ONE_4)]]]
    for got in (ts.mul(t, t, table), ts.merge_legs(Tensor.unit(1, 2, 1), [[1, 2]], table)):
        assert got.order == 4
        assert got.entries == {(0,): ONE_4} and got[(0,)].order == 4
        assert ts.as_matrix(got, 1).order == 4


def test_leg_operations_are_declared_in_the_field_they_sum_in():
    # an order-1 tensor met by an order-4 map, table, functional, tensor or
    # scalar gives an order-4 result, so a later sum is taken in Q(zeta_4)
    one, z = Scalar.one(1), Scalar.zeta(4)
    t = Tensor(2, 2, 1, [one] * 4)
    f = ExactMatrix(2, 2, 4, [[z, z], [z, z]])
    got = ts.contract_leg(ts.leg_map(t, 2, f), 2, [one, one])
    four_z = Scalar.rational(4) * z
    assert got.entries == {(0,): four_z, (1,): four_z}
    t4 = Tensor(2, 2, 4, [z] * 4)
    for got in (ts.leg_map(t, 2, f), ts.coproduct_leg(t, 1, [[((0, 0), z)], [((1, 1), z)]]),
                ts.contract_leg(t, 2, [z, z]), ts.tensor_product(t, t4), t + t4, t - t4,
                t.scale(z), got):
        assert got.order == 4
    ident = ExactMatrix.identity(2)
    for got in (ident - f, ident.scale(z), stack_rows([ident, f])):
        assert got.order == 4
