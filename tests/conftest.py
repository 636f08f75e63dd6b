import pytest

from qhopf.presets import PRESET_NAMES, preset
from qhopf.coend import coend_maps, factorisability
from qhopf.modular import modular_data

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
