import random
from typing import NamedTuple

import pytest

from qhopf.presets import PRESET_NAMES, preset
from qhopf.coend import coend_maps, factorisability
from qhopf.fileformat import parse_text
from qhopf.fusion import SimpleSet
from qhopf.modular import modular_data
from qhopf.qha import QuasiHopfAlgebra

FACTORISABLE = ("trivial", "double_Z2", "twisted_double_Z2")
HOPF = ("trivial", "group_Z2_trivialR", "double_Z2")


@pytest.fixture(scope="session")
def presets():
    return {name: preset(name) for name in PRESET_NAMES}


@pytest.fixture(scope="session")
def all_maps(presets):
    return {name: coend_maps(p.algebra) for name, p in presets.items()}


@pytest.fixture(scope="session")
def all_fact(presets, all_maps):
    return {name: factorisability(p.algebra, all_maps[name]) for name, p in presets.items()}


@pytest.fixture(scope="session")
def all_modular(presets, all_maps, all_fact):
    return {
        name: modular_data(presets[name].algebra, all_maps[name], all_fact[name])
        for name in FACTORISABLE
    }


class Definition(NamedTuple):
    text: str                  # the serialised definition file
    algebra: QuasiHopfAlgebra  # parsed from text, so the inverse ribbon is solved
    simples: SimpleSet


@pytest.fixture(scope="session")
def double_z3():
    """The generated D(Z/3) with k = 1 and k = 2, each in the basis order
    relabelling(Random(k)) of the benchmark's inputs, keyed by k."""
    from test_benchmark_contract import INPUTS

    out = {}
    for k in (1, 2):
        alg, simples = INPUTS.double_cyclic(3, k, INPUTS.relabelling(random.Random(k), 9))
        text = INPUTS.serialize(alg, simples)
        out[k] = Definition(text, *parse_text(text))
    return out


@pytest.fixture(scope="session")
def h4():
    """Sweedler's H4, the one input that is not unimodular."""
    from test_sweedler import H4

    alg, simples = parse_text(H4, source="H4")
    assert simples is None
    return alg
