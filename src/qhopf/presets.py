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
``preset()`` parses a file with ``fileformat.parse_text`` and reads the
flags from there, and the test suite checks each one against the engine.
``mutate`` perturbs one structure constant, for the mutation harness.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from importlib import resources

from .exactmath import Scalar
from .fileformat import parse_text
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
    text = preset_path(name).read_text(encoding="utf-8")
    alg, simples = parse_text(text, source=f"preset:{name}")
    if simples is None:
        raise ValueError(f"preset {name} is missing its simple modules")
    # parse_text records each name on the file's flags line as a note
    declared = {f: f"flag {f}" in alg.notes for f in ("factorisable", "semisimple", "hopf")}
    return Preset(name=name, algebra=alg, simples=simples, **declared)


# ---------------------------------------------------------------------------
# mutation harness


# the structure constants a mutation may touch
_SITES = ("mult", "counit", "coproduct", "antipode", "phi", "phi_inv", "alpha", "beta",
          "r_matrix", "r_inv", "ribbon", "ribbon_inv")


def mutate(algebra: QuasiHopfAlgebra, site: tuple, delta: Scalar) -> QuasiHopfAlgebra:
    """Perturb a single structure-constant entry; no validation is run.

    ``site`` is (field, indices): e.g. ("mult", (i, j, k)),
    ("r_matrix", (i, j)), ("coproduct", (i, j, k)), ("alpha", (i,)).
    A vector field (counit, alpha, beta, ribbon, ribbon_inv) takes its one
    index, and a ``Tensor`` or ``ExactMatrix`` takes the whole tuple as
    one key, so ("antipode", (i, j)) is the matrix entry (i, j).  An entry
    that cancels leaves the stored ``Tensor``.
    """
    section, idx = site
    if section not in _SITES:
        raise KeyError(f"unknown mutation site {section!r}")
    # replace() builds a new instance from the fields alone, so no cached
    # view of the original is carried over
    out = copy.deepcopy(replace(algebra, name=f"{algebra.name}~mutated"))
    entries = getattr(out, section)
    key = idx[0] if isinstance(entries, list) else tuple(idx)
    entries[key] = entries[key] + delta
    return out
