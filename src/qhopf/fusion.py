"""Internal characters as central elements and the Verlinde-style
computation of Grothendieck structure constants, cross-checked against a
character-theoretic decomposition oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactmath import ExactMatrix, Scalar, matrix_from_columns
from . import tensorspace as ts
from .tensorspace import Tensor
from .qha import QuasiHopfAlgebra, drinfeld_element, monodromy
from .repcat import AModule, tensor_module


class FusionError(ValueError):
    """Signals non-integral fusion coefficients or an oracle mismatch."""


@dataclass
class SimpleSet:
    """The simple modules with their trace functionals."""

    labels: list[str]
    simples: list[AModule]
    characters: list[list[Scalar]]     # characters[s][i] = tr_{S_s}(e_i)

    @classmethod
    def from_modules(cls, labeled: list[tuple[str, AModule]]) -> "SimpleSet":
        labels = [name for name, _ in labeled]
        mods = [m for _, m in labeled]
        chars = [[m.action[i].trace() for i in range(m.alg.dim)] for m in mods]
        return cls(labels, mods, chars)

    def validate(self, A: QuasiHopfAlgebra) -> list[str]:
        """Completeness checks; returns a list of problems (empty = good)."""
        problems = []
        for name, m in zip(self.labels, self.simples):
            ok, w = m.check_representation()
            if not ok:
                problems.append(f"{name}: representation property fails at {w}")
        if matrix_from_columns(self.characters, A.order).rank() != len(self.simples):
            problems.append("characters are linearly dependent")
        expect = A.dim - radical_dimension(A)
        got = sum(m.dim**2 for m in self.simples)
        if got != expect:
            problems.append(
                f"sum of squared dimensions is {got}, expected {expect} "
                "(dim A minus the radical)"
            )
        return problems


@dataclass
class FusionTable:
    labels: list[str]
    table: list[list[list[int]]]       # table[u][v][w]

    def entry(self, u: str, v: str, w: str) -> int:
        iu, iv, iw = (self.labels.index(x) for x in (u, v, w))
        return self.table[iu][iv][iw]


def radical_dimension(A: QuasiHopfAlgebra) -> int:
    """Nullity of the regular trace form (char-0 split criterion)."""
    b = ExactMatrix.zeros(A.dim, A.dim, A.order)
    for i in range(A.dim):
        for j in range(A.dim):
            b.data[i][j] = (A.left_mult[i] * A.left_mult[j]).trace()
    return A.dim - b.rank()


# ---------------------------------------------------------------------------
# internal characters as central elements


def _ribbon_weight(A: QuasiHopfAlgebra) -> list[Scalar]:
    if A.ribbon is None:
        raise ValueError("internal characters require ribbon data")
    u, _, u_inv = drinfeld_element(A)
    return A.product(u_inv, A.ribbon)


def _trace_functional(V: AModule) -> list[Scalar]:
    return [V.action[i].trace() for i in range(V.alg.dim)]


def _assert_central(A: QuasiHopfAlgebra, v: list[Scalar], what: str) -> None:
    if A.lmult_of(v) != A.rmult_of(v):
        raise ValueError(f"{what} is not central; input data is inconsistent")


def chi_central(A: QuasiHopfAlgebra, V: AModule) -> list[Scalar]:
    """The central element representing the modular S-image of the class
    function of V; the coefficients of the Verlinde expansion live in the
    span of these."""
    mt = A.mult_table
    w = _ribbon_weight(A)
    t = ts.mul(
        ts.mul(A.phi_inv, ts.embed(monodromy(A), 3, (1, 2)), mt), A.phi, mt
    )
    t = ts.leg_map(t, 2, A.rmult_of(A.beta))
    t = ts.leg_map(t, 2, A.antipode)
    t = ts.leg_map(t, 2, A.rmult_of(A.alpha))
    t = ts.merge_legs(t, ((1,), (2, 3)), mt)
    t = ts.leg_map(t, 2, A.lmult_of(w))
    chi = ts.contract_leg(t, 2, _trace_functional(V)).to_vector()
    _assert_central(A, chi, "internal character")
    return chi


def chi_central_hopf(A: QuasiHopfAlgebra, V: AModule) -> list[Scalar]:
    """Hopf-case short form: contraction of the monodromy against the
    quantum trace.  Oracle for :func:`chi_central` on Hopf inputs."""
    mt = A.mult_table
    w = _ribbon_weight(A)
    t = ts.leg_map(monodromy(A), 2, A.antipode)
    t = ts.leg_map(t, 2, A.lmult_of(w))
    return ts.contract_leg(t, 2, _trace_functional(V)).to_vector()


def phi_central(A: QuasiHopfAlgebra, V: AModule, cointegral: list[Scalar]) -> list[Scalar]:
    """The central element representing the class function of V itself,
    built through the cointegral."""
    mt = A.mult_table
    w = _ribbon_weight(A)
    alpha_t = Tensor.from_vector(A.alpha, A.order)
    beta_t = Tensor.from_vector(A.beta, A.order)

    t = ts.mul(
        ts.embed(A.phi, 4, (2, 3, 4)),
        ts.coproduct_leg(A.phi_inv, 3, A.cop_table),
        mt,
    )
    t = ts.leg_map(t, 1, A.rmult_of(A.beta))
    t = ts.leg_map(t, 2, A.antipode)
    t = ts.leg_map(t, 2, A.rmult_of(cointegral))
    f_tilde = ts.merge_legs(t, ((1, 2, 3), (4,)), mt)

    g = ts.mul_chain(
        [
            ts.embed(alpha_t, 3, (3,)),
            A.phi_inv,
            ts.coproduct_leg(f_tilde, 1, A.cop_table),
            A.phi,
            ts.embed(beta_t, 3, (2,)),
        ],
        mt,
    )
    g = ts.leg_map(g, 2, A.antipode)
    f = ts.merge_legs(g, ((1,), (2, 3)), mt)

    f = ts.leg_map(f, 2, A.lmult_of(w))
    phi_v = ts.contract_leg(f, 2, _trace_functional(V)).to_vector()
    _assert_central(A, phi_v, "class-function central element")
    return phi_v


def phi_central_hopf(A: QuasiHopfAlgebra, V: AModule, cointegral: list[Scalar]) -> list[Scalar]:
    """Hopf-case short form through the coproduct of the cointegral."""
    w = _ribbon_weight(A)
    t = A.delta_of(cointegral)
    t = ts.leg_map(t, 2, A.antipode)
    t = ts.leg_map(t, 2, A.lmult_of(w))
    return ts.contract_leg(t, 2, _trace_functional(V)).to_vector()


# ---------------------------------------------------------------------------
# Grothendieck decomposition oracle


def _as_nonneg_int(c: Scalar) -> int:
    if not c.is_rational():
        raise FusionError(f"non-rational multiplicity {c}")
    f: Fraction = c.to_fraction()
    if f.denominator != 1 or f < 0:
        raise FusionError(f"multiplicity {f} is not a non-negative integer")
    return int(f)


def grothendieck_class(M: AModule, simples: SimpleSet) -> list[int]:
    """Composition multiplicities of M, solved from the character system.

    Valid over characteristic zero with split simples; raises
    FusionError when the character system has no integral solution,
    which means the simple set is incomplete.
    """
    A = M.alg
    cmat = matrix_from_columns(simples.characters, A.order)
    target = _trace_functional(M)
    sol = cmat.solve(target)
    if sol is None:
        raise FusionError("character of the module is outside the simple span")
    return [_as_nonneg_int(c) for c in sol]


# ---------------------------------------------------------------------------
# the Verlinde table


def verlinde_fusion(
    A: QuasiHopfAlgebra, simples: SimpleSet, oracle: bool = True
) -> FusionTable:
    """Structure constants of the Grothendieck ring, from the expansion
    of products of the internal-character central elements.

    Every coefficient must come out a non-negative integer, and (with
    ``oracle`` on) must match the character-theoretic decomposition of
    the corresponding tensor-product module.  Raises FusionError first if
    the declared simples fail :meth:`SimpleSet.validate`.
    """
    problems = simples.validate(A)
    if problems:
        raise FusionError("declared simples are not a complete set of simple "
                          "modules: " + "; ".join(problems))
    n = len(simples.simples)
    chis = [chi_central(A, V) for V in simples.simples]
    cmat = matrix_from_columns(chis, A.order)
    if cmat.rank() != n:
        raise FusionError("internal characters are linearly dependent")
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for iu in range(n):
        for iv in range(n):
            prod = A.product(chis[iu], chis[iv])
            sol = cmat.solve(prod)
            if sol is None:
                raise FusionError(
                    "product of internal characters leaves their span "
                    f"at pair ({simples.labels[iu]}, {simples.labels[iv]})"
                )
            coeffs = [_as_nonneg_int(c) for c in sol]
            if oracle:
                tensor = tensor_module(simples.simples[iu], simples.simples[iv])
                expected = grothendieck_class(tensor, simples)
                if coeffs != expected:
                    raise FusionError(
                        f"Verlinde expansion {coeffs} disagrees with the "
                        f"character oracle {expected} at pair "
                        f"({simples.labels[iu]}, {simples.labels[iv]})"
                    )
            table[iu][iv] = coeffs
    return FusionTable(list(simples.labels), table)
