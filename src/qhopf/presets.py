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

The ``.alg`` files under ``data/`` are generated from the builders in
this module (``python -m qhopf.presets --regenerate``) and are the
source of truth for ``preset()``; they are fixtures certified by
``qha.validate``, not ground truth.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources

from .exactmath import ExactMatrix, Scalar
from .tensorspace import Tensor
from .qha import QuasiHopfAlgebra

PRESET_NAMES = ("trivial", "group_Z2_trivialR", "double_Z2", "twisted_double_Z2")

RawSimples = list[tuple[str, int, list[list[list[Scalar]]]]]


@dataclass
class Preset:
    name: str
    algebra: QuasiHopfAlgebra
    simples: "object"          # fusion.SimpleSet
    factorisable: bool
    semisimple: bool
    hopf: bool


def _r(p, q: int = 1, order: int = 1) -> Scalar:
    return Scalar.rational(Fraction(p, q), order=order)


def _group_like_coproducts(dim: int, order: int) -> list[Tensor]:
    cops = []
    for i in range(dim):
        t = Tensor.zero(dim, 2, order)
        t[i, i] = Scalar.one(order)
        cops.append(t)
    return cops


def _mult_from_index_law(dim: int, order: int, law) -> list[list[list[Scalar]]]:
    zero, one = Scalar.zero(order), Scalar.one(order)
    return [
        [[one if k == law(i, j) else zero for k in range(dim)] for j in range(dim)]
        for i in range(dim)
    ]


def _build_trivial() -> tuple[QuasiHopfAlgebra, RawSimples]:
    order = 1
    one = Scalar.one(order)
    alg = QuasiHopfAlgebra(
        dim=1,
        order=order,
        mult=_mult_from_index_law(1, order, lambda i, j: 0),
        counit=[one],
        coproduct=_group_like_coproducts(1, order),
        antipode=ExactMatrix.identity(1, order),
        phi=Tensor.unit(1, 3, order),
        phi_inv=Tensor.unit(1, 3, order),
        alpha=[one],
        beta=[one],
        r_matrix=Tensor.unit(1, 2, order),
        r_inv=Tensor.unit(1, 2, order),
        ribbon=[one],
        ribbon_inv=[one],
        name="trivial",
    )
    simples: RawSimples = [("triv", 1, [[[one]]])]
    return alg, simples


def _build_group_z2() -> tuple[QuasiHopfAlgebra, RawSimples]:
    order = 1
    one = Scalar.one(order)
    alg = QuasiHopfAlgebra(
        dim=2,
        order=order,
        mult=_mult_from_index_law(2, order, lambda i, j: (i + j) % 2),
        counit=[one, one],
        coproduct=_group_like_coproducts(2, order),
        antipode=ExactMatrix.identity(2, order),
        phi=Tensor.unit(2, 3, order),
        phi_inv=Tensor.unit(2, 3, order),
        alpha=[one, Scalar.zero(order)],
        beta=[one, Scalar.zero(order)],
        r_matrix=Tensor.unit(2, 2, order),
        r_inv=Tensor.unit(2, 2, order),
        ribbon=[one, Scalar.zero(order)],
        ribbon_inv=[one, Scalar.zero(order)],
        name="group_Z2_trivialR",
    )
    z = Scalar.zero(order)
    simples: RawSimples = [
        ("s0", 1, [[[one]], [[one]]]),
        ("s1", 1, [[[one]], [[-one]]]),
    ]
    return alg, simples


def _build_double_z2() -> tuple[QuasiHopfAlgebra, RawSimples]:
    # Basis e_{2x+h} = a^x b^h in Z/2 x Z/2, where a spans the characters
    # of the dual factor and b the group factor of the double.
    order = 1
    one = Scalar.one(order)
    zero = Scalar.zero(order)
    half = _r(1, 2)
    dim = 4

    def law(i, j):
        return (2 * (((i >> 1) + (j >> 1)) % 2)) + (((i & 1) + (j & 1)) % 2)

    r = Tensor.zero(dim, 2, order)
    # (1/2)[(1 + a) x 1 + (1 - a) x b]; an involution, so its own inverse
    r[0, 0] = half
    r[2, 0] = half
    r[0, 1] = half
    r[2, 1] = -half
    ribbon = [half, half, half, -half]  # (1 + a + b - ab)/2, equal to its inverse

    alg = QuasiHopfAlgebra(
        dim=dim,
        order=order,
        mult=_mult_from_index_law(dim, order, law),
        counit=[one] * dim,
        coproduct=_group_like_coproducts(dim, order),
        antipode=ExactMatrix.identity(dim, order),
        phi=Tensor.unit(dim, 3, order),
        phi_inv=Tensor.unit(dim, 3, order),
        alpha=[one, zero, zero, zero],
        beta=[one, zero, zero, zero],
        r_matrix=r,
        r_inv=r,
        ribbon=ribbon,
        ribbon_inv=list(ribbon),
        name="double_Z2",
    )
    simples: RawSimples = []
    for s in (0, 1):
        for t in (0, 1):
            acts = [[[one if ((s * (i >> 1) + t * (i & 1)) % 2 == 0) else -one]]
                    for i in range(dim)]
            simples.append((f"s{s}{t}", 1, acts))
    return alg, simples


def _build_twisted_double_z2() -> tuple[QuasiHopfAlgebra, RawSimples]:
    # Algebra basis t^k, k = 0..3 (Z/4 as an algebra); the quasi-Hopf data
    # comes from the Dijkgraaf-Pasquier-Roche double of Z/2 with cocycle
    # (-1)^(ghk), rewritten in this diagonalising basis.
    order = 4
    one = Scalar.one(order)
    zero = Scalar.zero(order)
    half = _r(1, 2, order)
    dim = 4

    cop = []
    t0 = Tensor.zero(dim, 2, order)
    t0[0, 0] = one
    cop.append(t0)
    t1 = Tensor.zero(dim, 2, order)
    t1[1, 1] = half
    t1[3, 1] = half
    t1[1, 3] = half
    t1[3, 3] = -half
    cop.append(t1)
    t2 = Tensor.zero(dim, 2, order)
    t2[2, 2] = one
    cop.append(t2)
    t3 = Tensor.zero(dim, 2, order)
    t3[1, 3] = half
    t3[3, 3] = half
    t3[3, 1] = half
    t3[1, 1] = -half
    cop.append(t3)

    # coassociator 1 - 2 E x E x E with E = (1 - t^2)/2
    phi = Tensor.zero(dim, 3, order)
    phi[0, 0, 0] = one
    for x in (0, 1):
        for y in (0, 1):
            for z in (0, 1):
                sgn = -_r(1, 4, order) * _r((-1) ** (x + y + z), 1, order)
                idx = (2 * x, 2 * y, 2 * z)
                phi[idx] = phi[idx] + sgn

    r = Tensor.zero(dim, 2, order)
    r[0, 0] = half
    r[2, 0] = half
    r[0, 1] = half
    r[2, 1] = -half
    r_inv = Tensor.zero(dim, 2, order)
    r_inv[0, 0] = half
    r_inv[2, 0] = half
    r_inv[0, 3] = half
    r_inv[2, 3] = -half

    # ribbon (1 - t + t^2 + t^3)/2, fixed by the search in _solve_ribbon;
    # its inverse is (1 + t + t^2 - t^3)/2
    ribbon = [half, -half, half, half]
    ribbon_inv = [half, half, half, -half]

    alg = QuasiHopfAlgebra(
        dim=dim,
        order=order,
        mult=_mult_from_index_law(dim, order, lambda i, j: (i + j) % 4),
        counit=[one] * dim,
        coproduct=cop,
        antipode=ExactMatrix.identity(dim, order),
        phi=phi,
        phi_inv=phi,
        alpha=[one, zero, zero, zero],
        beta=[zero, zero, one, zero],
        r_matrix=r,
        r_inv=r_inv,
        ribbon=ribbon,
        ribbon_inv=ribbon_inv,
        name="twisted_double_Z2",
    )

    i_unit = Scalar.zeta(order)
    simples: RawSimples = []
    for j in range(4):
        acts = [[[i_unit ** ((j * k) % 4)]] for k in range(4)]
        simples.append((f"x{j}", 1, acts))
    return alg, simples


_BUILDERS = {
    "trivial": _build_trivial,
    "group_Z2_trivialR": _build_group_z2,
    "double_Z2": _build_double_z2,
    "twisted_double_Z2": _build_twisted_double_z2,
}

_FLAGS = {
    "trivial": dict(factorisable=True, semisimple=True, hopf=True),
    "group_Z2_trivialR": dict(factorisable=False, semisimple=True, hopf=True),
    "double_Z2": dict(factorisable=True, semisimple=True, hopf=True),
    "twisted_double_Z2": dict(factorisable=True, semisimple=True, hopf=False),
}


def build_algebra(name: str) -> tuple[QuasiHopfAlgebra, RawSimples]:
    """Construct a preset directly from its builder (used to regenerate
    the shipped definition files)."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    return _BUILDERS[name]()


def preset_path(name: str):
    if name not in _BUILDERS:
        raise KeyError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    return resources.files("qhopf.data").joinpath(f"{name}.alg")


def preset(name: str) -> Preset:
    """Load a preset from its shipped definition file."""
    from .cli import parse_text

    text = preset_path(name).read_text(encoding="utf-8")
    alg, simples = parse_text(text, source=f"preset:{name}")
    flags = _FLAGS[name]
    if simples is None:
        raise ValueError(f"preset {name} is missing its simple modules")
    return Preset(name=name, algebra=alg, simples=simples, **flags)


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


def _regenerate():
    from .cli import serialize
    import pathlib

    data_dir = pathlib.Path(__file__).parent / "data"
    data_dir.mkdir(exist_ok=True)
    headers = {
        "trivial": "one-dimensional algebra; every structure map trivial",
        "group_Z2_trivialR": "group algebra of Z/2 with trivial R-matrix (not factorisable)",
        "double_Z2": (
            "Drinfeld double of Q[Z/2] in the character basis: group algebra of\n"
            "# Z/2 x Z/2 (a = dual character, b = group generator) with\n"
            "# R = ((1+a) x 1 + (1-a) x b)/2 and ribbon (1+a+b-ab)/2"
        ),
        "twisted_double_Z2": (
            "double of Z/2 twisted by the 3-cocycle (-1)^(ghk), written in the\n"
            "# basis t^k that diagonalises the algebra to Q[Z/4]; coassociator\n"
            "# 1 - 2ExExE with E = (1-t^2)/2, coevaluation element t^2"
        ),
    }
    for name in PRESET_NAMES:
        alg, simples = build_algebra(name)
        flags = [k for k, v in _FLAGS[name].items() if v]
        text = serialize(alg, simples, flags=flags, comment=headers[name])
        (data_dir / f"{name}.alg").write_text(text, encoding="utf-8")
        print(f"wrote {name}.alg")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
