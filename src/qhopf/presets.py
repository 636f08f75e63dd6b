"""Built-in example algebras, shipped as definition files and certified
by the axiom checker.

The four presets:

* ``trivial``: the one-dimensional algebra.
* ``group_Z2_trivialR``: the group algebra of Z/2 with R = 1 x 1; a
  ribbon Hopf algebra that is not factorisable.
* ``double_Z2``: the Drinfeld double of the group algebra of Z/2.  In
  the basis used here (characters of the dual factor times group
  elements) it is the group algebra of Z/2 x Z/2 with a nontrivial
  R-matrix; factorisable ribbon Hopf.
* ``twisted_double_Z2``: the double of Z/2 twisted by the nontrivial
  3-cocycle (values (-1)^(ghk)).  As an algebra it is the group algebra
  of Z/4 generated by t; the coassociator is nontrivial, the antipode is
  the identity and the coevaluation element is t^2.  Factorisable ribbon
  quasi-Hopf over Q(zeta_4).

The ``.alg`` files under ``data/`` are the presets' only source.  They
are fixtures certified by ``qha.validate`` and by the digests of their
``report`` bytes, not ground truth.  Each file's ``flags`` line declares
which of ``factorisable``, ``semisimple`` and ``hopf`` hold;
``preset()`` reads them from there, and the test suite checks each one
against the engine.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from importlib import resources

from .exactmath import Scalar
from .qha import QuasiHopfAlgebra

PRESET_NAMES = ("trivial", "group_Z2_trivialR", "double_Z2", "twisted_double_Z2")


@dataclass
class Preset:
    name: str
    algebra: QuasiHopfAlgebra
    simples: "object"          # fusion.SimpleSet
    factorisable: bool
    semisimple: bool
    hopf: bool


def preset_path(name: str):
    if name not in PRESET_NAMES:
        raise KeyError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    return resources.files("qhopf.data").joinpath(f"{name}.alg")


def preset(name: str) -> Preset:
    """Load a preset from its shipped definition file."""
    from .cli import parse_text

    text = preset_path(name).read_text(encoding="utf-8")
    alg, simples = parse_text(text, source=f"preset:{name}")
    if simples is None:
        raise ValueError(f"preset {name} is missing its simple modules")
    # parse_text records each name on the file's flags line as a note
    declared = {f: f"flag {f}" in alg.notes for f in ("factorisable", "semisimple", "hopf")}
    return Preset(name=name, algebra=alg, simples=simples, **declared)


# ---------------------------------------------------------------------------
# mutation harness


_TENSOR_SITES = {"phi", "phi_inv", "r_matrix", "r_inv"}
_VECTOR_SITES = {"counit", "alpha", "beta", "ribbon", "ribbon_inv"}


def mutate(algebra: QuasiHopfAlgebra, site: tuple, delta: Scalar) -> QuasiHopfAlgebra:
    """Perturb a single structure-constant entry; no validation is run.

    ``site`` is (section, indices): e.g. ("mult", (i, j, k)),
    ("r_matrix", (i, j)), ("coproduct", (i, j, k)), ("antipode", (i, j)),
    ("alpha", (i,)).
    """
    section, idx = site
    # replace() builds a new instance from the fields alone, so no cached
    # view of the original is carried over
    out = copy.deepcopy(replace(algebra, name=f"{algebra.name}~mutated"))
    if section == "mult":
        i, j, k = idx
        out.mult[i][j][k] = out.mult[i][j][k] + delta
    elif section == "coproduct":
        i, j, k = idx
        out.coproduct[i][j, k] = out.coproduct[i][j, k] + delta
    elif section == "antipode":
        i, j = idx
        out.antipode[i, j] = out.antipode[i, j] + delta
    elif section in _TENSOR_SITES:
        t = getattr(out, section)
        t[idx] = t[idx] + delta
    elif section in _VECTOR_SITES:
        v = getattr(out, section)
        v[idx[0]] = v[idx[0]] + delta
    else:
        raise KeyError(f"unknown mutation site {section!r}")
    return out
