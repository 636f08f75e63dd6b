"""The coend elements, the internal characters and the braided Hopf check
read shared intermediates: the core phi^-1 M_12 phi, its product T with
(id x id x Delta)(phi^-1), the elements of A that several modules use
(each a cached view of ``QuasiHopfAlgebra``), and element actions on
L (x) L (x) L with no module built.  Each equals the product it replaces,
written out here, on every preset, Sweedler's H4, the generated D(Z/3) and
the rebased ``twisted_double_Z2``, whose basis products have several
terms."""

import pytest

from qhopf import tensorspace as ts
from qhopf.coend import coend_maps
from qhopf.exactmath import ExactMatrix
from qhopf.fileformat import parse_text
from qhopf.presets import PRESET_NAMES, preset
from qhopf.qha import drinfeld_element, monodromy
from qhopf.repcat import (
    associator,
    associator_inv,
    braiding,
    coadjoint_module,
    double_braiding,
    element_action,
    flip_matrix,
)
from qhopf.tensorspace import Tensor

from test_rebased import rebased_text
from test_sweedler import H4


INPUT_NAMES = [*PRESET_NAMES, "H4", "double_Z3", "rebased"]


@pytest.fixture(scope="module", params=INPUT_NAMES)
def alg(request, double_z3):
    if request.param == "H4":
        return parse_text(H4, source="H4")[0]
    if request.param == "double_Z3":
        return double_z3[1].algebra
    if request.param == "rebased":
        return parse_text(rebased_text())[0]
    return preset(request.param).algebra


def test_core_and_five_factor_elements(alg):
    mt, cop = alg.mult_table, alg.cop_table
    m = monodromy(alg)
    assert alg.monodromy_core == ts.mul_chain(
        [alg.phi_inv, ts.embed(m, 3, (1, 2)), alg.phi], mt)
    alpha_t = Tensor.from_vector(alg.alpha, alg.order)
    middle = [ts.embed(alg.phi_inv, 4, (2, 3, 4)), ts.embed(m, 4, (2, 3)),
              ts.embed(alg.phi, 4, (2, 3, 4)), ts.coproduct_leg(alg.phi_inv, 3, cop)]
    w = ts.mul_chain([ts.embed(ts.tensor_product(alpha_t, alpha_t), 4, (2, 4)), *middle], mt)
    x_q = ts.mul_chain([ts.coproduct_leg(alg.phi, 3, cop), *middle], mt)
    maps = coend_maps(alg)
    assert maps.w_tensor == w and maps.x_q == x_q


def test_views_equal_the_products_they_replace(alg):
    mt, cop, S = alg.mult_table, alg.cop_table, alg.antipode
    b = ts.mul(ts.coproduct_leg(alg.phi, 3, cop), ts.embed(alg.phi_inv, 4, (2, 3, 4)), mt)
    b_inv = ts.mul(ts.embed(alg.phi, 4, (2, 3, 4)), ts.coproduct_leg(alg.phi_inv, 3, cop), mt)
    assert alg.phi_split == b and alg.phi_split_inv == b_inv
    unit4 = Tensor.unit(alg.dim, 4, alg.order)
    assert ts.mul(b, b_inv, mt) == unit4 == ts.mul(b_inv, b, mt)
    q_tilde = ts.leg_map(ts.leg_map(alg.phi, 1, S), 1, alg.rmult_of(alg.alpha))
    assert alg.q_tilde == ts.merge_legs(q_tilde, ((1, 2), (3,)), mt)
    x_d = ts.leg_map(ts.leg_map(alg.phi, 3, S), 2, alg.rmult_of(alg.beta))
    x_d = ts.merge_legs(x_d, ((1,), (2, 3)), mt)
    assert alg.x_d == x_d
    assert alg.x_d_coproduct == ts.coproduct_leg(ts.coproduct_leg(x_d, 1, cop), 3, cop)


def test_drinfeld_and_pivotal_elements(alg):
    # u and u~ with the core S(x_d) and x -> x alpha built for each; every
    # input here is ribbon, so g = v^-1 u and u^-1 v are defined
    mt, S = alg.mult_table, alg.antipode

    def u_from(r):
        t = ts.tensor_product(ts.leg_map(alg.x_d, 2, S), r)
        t = ts.leg_map(ts.leg_map(t, 4, S), 4, alg.rmult_of(alg.alpha))
        return ts.merge_legs(t, ((2, 4, 3, 1),), mt).to_vector()

    u, u_tilde, u_inv = drinfeld_element(alg)
    assert u == u_from(alg.r_matrix) and u_tilde == u_from(alg.r_inv)
    g, g_inv = alg.pivotal_element, alg.pivotal_element_inv
    assert g == alg.product(alg.ribbon_inv, u) and g_inv == alg.product(u_inv, alg.ribbon)
    assert alg.product(g, g_inv) == alg.unit() == alg.product(g_inv, g)


def _kron_sum(t, modules):
    # sum c M_1[i_1] (x) ... (x) M_k[i_k], one kron at a time; subtracting
    # the negated terms from a zero matrix sums them
    dim = 1
    for m in modules:
        dim *= m.dim
    total = ExactMatrix.zeros(dim, dim, t.order)
    for idx, c in t.nonzero():
        term = modules[0].action[idx[0]].scale(-c)
        for m, i in zip(modules[1:], idx[1:]):
            term = term.kron(m.action[i])
        total = total - term
    return total


def test_element_action_reproduces_structure_morphisms(alg):
    L = coadjoint_module(alg)
    lll, ll = (L, L, L), (L, L)
    flip = flip_matrix(L.dim, L.dim, alg.order)
    assert element_action(alg.phi, lll) == associator(L, L, L).matrix == _kron_sum(alg.phi, lll)
    assert (element_action(alg.phi_inv, lll) == associator_inv(L, L, L).matrix
            == _kron_sum(alg.phi_inv, lll))
    assert (flip * element_action(alg.r_matrix, ll) == braiding(L, L).matrix
            == flip * _kron_sum(alg.r_matrix, ll))
    assert (element_action(monodromy(alg), ll) == double_braiding(L, L).matrix
            == _kron_sum(monodromy(alg), ll))
