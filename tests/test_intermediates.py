"""The coend elements, the internal characters and the braided Hopf check
read shared intermediates: the core phi^-1 M_12 phi, its product T with
(id x id x Delta)(phi^-1), and element actions on L (x) L (x) L with no
module built.  Each equals the product it replaces, written out here, on
every preset, Sweedler's H4 and the generated D(Z/3)."""

import random

import pytest

from qhopf import tensorspace as ts
from qhopf.coend import coend_maps
from qhopf.exactmath import ExactMatrix
from qhopf.fileformat import parse_text
from qhopf.presets import PRESET_NAMES, preset
from qhopf.qha import monodromy, monodromy_core
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

from test_benchmark_contract import INPUTS
from test_sweedler import H4


def _algebra(name):
    if name == "H4":
        return parse_text(H4, source="H4")[0]
    if name == "double_Z3":
        alg, simples = INPUTS.double_cyclic(3, 1, INPUTS.relabelling(random.Random(1), 9))
        return parse_text(INPUTS.serialize(alg, simples))[0]
    return preset(name).algebra


INPUT_NAMES = [*PRESET_NAMES, "H4", "double_Z3"]


@pytest.fixture(scope="module", params=INPUT_NAMES)
def alg(request):
    return _algebra(request.param)


def test_core_and_five_factor_elements(alg):
    mt, cop = alg.mult_table, alg.cop_table
    m = monodromy(alg)
    assert monodromy_core(alg) == ts.mul_chain(
        [alg.phi_inv, ts.embed(m, 3, (1, 2)), alg.phi], mt)
    alpha_t = Tensor.from_vector(alg.alpha, alg.order)
    middle = [ts.embed(alg.phi_inv, 4, (2, 3, 4)), ts.embed(m, 4, (2, 3)),
              ts.embed(alg.phi, 4, (2, 3, 4)), ts.coproduct_leg(alg.phi_inv, 3, cop)]
    w = ts.mul_chain([ts.embed(ts.tensor_product(alpha_t, alpha_t), 4, (2, 4)), *middle], mt)
    x_q = ts.mul_chain([ts.coproduct_leg(alg.phi, 3, cop), *middle], mt)
    maps = coend_maps(alg)
    assert maps.w_tensor == w and maps.x_q == x_q


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
