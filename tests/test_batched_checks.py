"""The module check and the fusion character oracle run in batch: one block
matrix identity per module, and the characters of every U (x) V from one
pass over the coproduct.  Each is compared here with the route it replaced,
kept as the reference: the pairwise loop of ``check_representation`` on
seeded single-entry mutants, and the two ``contract_leg`` calls per pair of
the oracle."""

import random

import pytest

from qhopf import tensorspace as ts
from qhopf.exactmath import ExactMatrix, Scalar, kron_combination
from qhopf.fileformat import parse_text
from qhopf.fusion import _tensor_characters
from qhopf.presets import PRESET_NAMES, preset
from qhopf.repcat import AModule, regular_module

from test_sweedler import H4


def check_representation_reference(M):
    """rho(e_0) = 1, then rho(e_i) rho(e_j) = sum c[i][j][k] rho(e_k) pair
    by pair, (i, j) in order."""
    A = M.alg
    if M.action[0] != ExactMatrix.identity(M.dim, A.order):
        return False, (0,)
    for i in range(A.dim):
        for j in range(A.dim):
            terms = (((k,), c) for k, c in A.mult_table[i][j])
            if M.action[i] * M.action[j] != kron_combination(terms, [M.action]):
                return False, (i, j)
    return True, None


def tensor_characters_reference(A, chars):
    """tr_{U (x) V}, U major, by contracting Delta(e_i) with tr_V on leg 3
    and then with tr_U on leg 2."""
    deltas = ts.coproduct_leg(ts.identity(A.dim, A.order), 2, A.cop_table)
    return [ts.contract_leg(ts.contract_leg(deltas, 3, cv), 2, cu).to_vector()
            for cu in chars for cv in chars]


def _modules(name, double_z3):
    if name == "H4":
        return [regular_module(parse_text(H4, source="H4")[0])]
    if name == "double_Z3":
        return double_z3[1].simples.simples
    return preset(name).simples.simples


def _mutant(module, rng):
    """The module with one entry of one action matrix changed: by +-1, by
    1/2, by a root of unity, or set to zero."""
    A = module.alg
    i, r, c = rng.randrange(A.dim), rng.randrange(module.dim), rng.randrange(module.dim)
    m = module.action[i]
    deltas = [Scalar.one(A.order), -Scalar.one(A.order), Scalar.rational(1, 2, A.order),
              Scalar.zeta(A.order), -m[r, c]]
    delta = rng.choice([d for d in deltas if not d.is_zero()])
    changed = ExactMatrix(m.rows, m.cols, m.order, m.dense)
    changed[r, c] = m[r, c] + delta
    return AModule(A, [changed if k == i else x for k, x in enumerate(module.action)])


@pytest.mark.parametrize("name,seed", [("twisted_double_Z2", 11), ("double_Z3", 12),
                                       ("H4", 13)])
def test_batched_representation_check_matches_pairwise_loop(double_z3, name, seed):
    rng = random.Random(seed)
    modules = _modules(name, double_z3)
    outcomes = []
    for module in modules:
        assert module.check_representation() == (True, None)
    for _ in range(60):
        mutant = _mutant(rng.choice(modules), rng)
        got = mutant.check_representation()
        assert got == check_representation_reference(mutant)
        outcomes.append(got)
    # the mutants reach both witnesses: rho(e_0) and a failing pair
    assert any(w == (0,) for _, w in outcomes)
    assert any(w is not None and len(w) == 2 for _, w in outcomes)


SIMPLE_PRESETS = [name for name in PRESET_NAMES if preset(name).simples is not None]


@pytest.mark.parametrize("name", [*SIMPLE_PRESETS, "double_Z3"])
def test_tensor_characters_match_contract_route(double_z3, name):
    if name == "double_Z3":
        alg, simples = double_z3[1].algebra, double_z3[1].simples
    else:
        alg, simples = preset(name).algebra, preset(name).simples
    chars = simples.characters
    got = _tensor_characters(alg, chars)
    assert len(got) == len(chars) ** 2
    assert got == tensor_characters_reference(alg, chars)
