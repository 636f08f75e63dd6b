"""Internal characters as central elements and the Verlinde-style
computation of Grothendieck structure constants, cross-checked against a
character-theoretic decomposition oracle.

One builder, ``_central_elements``, makes the central elements of a list
of characters as the columns of one product: the coefficient matrix of a
character tensor times the matrix of the characters.  It checks them all
central with one product by ``QuasiHopfAlgebra.commutators``, and names
the first module whose element is not central, with the first basis
element e_i it does not commute with.  ``verlinde_fusion`` calls it on
all simples at once; ``chi_central`` and ``phi_central`` on one module.

The oracle is an identity check: for each pair (U, V) the Verlinde
coefficients N_uv^w must satisfy sum_w N_uv^w chi_w = chi_{U (x) V},
with every tensor-product character built in one pass over the
coproduct.  The simple characters are independent (``SimpleSet.validate``
proves it first), so the identity holds exactly when N_uv is the class
of U (x) V.  Only a pair that fails it is solved in the simple
characters, to name the class it should have or the multiplicity that
is not a non-negative integer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactmath import (
    ExactMatrix, Scalar, collect_products, matrix_from_columns, times, vec_eq)
from . import tensorspace as ts
from .tensorspace import Tensor
from .qha import QuasiHopfAlgebra, monodromy
from .repcat import AModule


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
        return cls(labels, mods, [_trace_functional(m) for m in mods])

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


def radical_dimension(A: QuasiHopfAlgebra) -> int:
    """Nullity of the regular trace form (char-0 split criterion), with
    tr(L_i L_j) = tr(L_{e_i e_j}) = sum_k c_ij^k tr(L_k)."""
    tr = [m.trace() for m in A.left_mult]
    return A.dim - ExactMatrix.from_flat(A.dim, A.dim, A.order, collect_products((
        (i * A.dim + j, c, tr[k]) for i, row in enumerate(A.mult_table)
        for j, terms in enumerate(row) for k, c in terms), A.order).items()).rank()


# ---------------------------------------------------------------------------
# internal characters as central elements


def _ribbon_weight(A: QuasiHopfAlgebra) -> list[Scalar]:
    if A.ribbon is None:
        raise ValueError("internal characters require ribbon data")
    return A.pivotal_element_inv


def _trace_functional(V: AModule) -> list[Scalar]:
    return [V.action[i].trace() for i in range(V.alg.dim)]


def _character_tensor(A: QuasiHopfAlgebra, core: Tensor) -> Tensor:
    """(core_1, w S(core_2 beta) alpha core_3) for a 3-leg core, with
    S(x beta) = S(beta) S(x) and w the ribbon weight: the 2-leg element
    whose leg-2 contraction with a character is a central element.  The
    monodromy core gives :func:`chi_central`."""
    factors = [ts.leg_map(core, 2, A.antipode)] + [Tensor.from_vector(x, A.order) for x in (
        A.antipode_of(A.beta), A.alpha, _ribbon_weight(A))]
    return ts.merge_legs(factors, ((1,), (6, 4, 2, 5, 3)), A.mult_table)


def _central_elements(A: QuasiHopfAlgebra, core: Tensor, characters: list[list[Scalar]],
                      labels: list[str], what: str) -> ExactMatrix:
    """Column s is leg 2 of the character tensor of ``core`` contracted with
    characters[s]: one product by the characters' matrix.  All columns are
    checked central with one product by ``QuasiHopfAlgebra.commutators``; a
    failure names the first label whose element fails and the first basis
    element e_i it does not commute with."""
    cmat = (ts.as_matrix(_character_tensor(A, core), 1)
            * matrix_from_columns(characters, A.order))
    if bad := min(((s, r) for (r, s), _ in (A.commutators * cmat).nonzero()), default=None):
        raise ValueError(f"{what} of {labels[bad[0]]} is not central (it does not commute "
                         f"with e_{bad[1] // A.dim}); input data is inconsistent")
    return cmat


def chi_central(A: QuasiHopfAlgebra, V: AModule) -> list[Scalar]:
    """The central element representing the modular S-image of the class
    function of V; the coefficients of the Verlinde expansion live in the
    span of these."""
    return _central_elements(A, A.monodromy_core, [_trace_functional(V)], [V.label],
                             "internal character").transpose().dense[0]


def chi_central_hopf(A: QuasiHopfAlgebra, V: AModule) -> list[Scalar]:
    """Hopf-case short form: contraction of the monodromy against the
    quantum trace.  Oracle for :func:`chi_central` on Hopf inputs."""
    w = _ribbon_weight(A)
    t = ts.leg_map(monodromy(A), 2, A.antipode)
    t = ts.leg_map(t, 2, A.lmult_of(w))
    return ts.contract_leg(t, 2, _trace_functional(V)).to_vector()


def _class_function_core(A: QuasiHopfAlgebra, cointegral: list[Scalar]) -> Tensor:
    """The core phi^-1 Delta(f~)_12 phi of :func:`phi_central`, whose alpha
    and beta the character tensor places."""
    mt = A.mult_table
    # f~ = (P_1 beta S(P_2) cointegral P_3, P_4) for P = ``A.phi_split_inv``
    f_tilde = ts.merge_legs(
        (ts.leg_map(A.phi_split_inv, 2, A.antipode), Tensor.from_vector(A.beta, A.order),
         Tensor.from_vector(cointegral, A.order)), ((1, 5, 2, 6, 3), (4,)), mt)
    return ts.mul_chain([A.phi_inv, ts.coproduct_leg(f_tilde, 1, A.cop_table), A.phi], mt)


def phi_central(A: QuasiHopfAlgebra, V: AModule, cointegral: list[Scalar]) -> list[Scalar]:
    """The central element representing the class function of V itself,
    built through the cointegral."""
    return _central_elements(A, _class_function_core(A, cointegral), [_trace_functional(V)],
                             [V.label], "class-function central element").transpose().dense[0]


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
    n = c.num[0] if c.num else 0
    if c.den != 1 or n < 0:
        raise FusionError(f"multiplicity {c.to_fraction()} is not a non-negative integer")
    return n


def _class_of(character: list[Scalar], simples: SimpleSet, order: int) -> list[int]:
    """The multiplicities of the simples in a character, solved in the
    simple characters; raises FusionError outside their span or when a
    multiplicity is not a non-negative integer."""
    coords = matrix_from_columns(simples.characters, order).solve(character)
    if coords is None:
        raise FusionError("character of the module is outside the simple span")
    return [_as_nonneg_int(c) for c in coords]


def _tensor_characters(A: QuasiHopfAlgebra, chars: list[list[Scalar]]) -> list[list[Scalar]]:
    """The characters of U (x) V for every pair of the given characters, U
    major: tr_{U (x) V}(e_i) = sum c tr_U(e_a) tr_V(e_b) over
    Delta(e_i) = sum c e_a (x) e_b, in one pass over the coproduct."""
    n = len(chars)
    nonzero = [[(iu, x) for iu, x in enumerate(col) if x.num] for col in zip(*chars)]
    return ExactMatrix.from_flat(n * n, A.dim, A.order, collect_products((
        ((iu * n + iv) * A.dim + i, times(c, xu), xv)
        for i, terms in enumerate(A.cop_table) for (a, b), c in terms
        for iu, xu in nonzero[a] for iv, xv in nonzero[b]), A.order).items()).dense


def _class_character(coeffs: list[int], characters: list[list[Scalar]],
                     order: int) -> list[Scalar]:
    """sum_w N_w chi_w, the character of the class with multiplicities N;
    a multiplicity 1, the usual one, costs no multiplication."""
    weights = [(Scalar.rational(c, order=order), chi) for c, chi in zip(coeffs, characters) if c]
    sums = collect_products(
        ((i, k, x) for k, chi in weights for i, x in enumerate(chi) if x.num), order)
    zero = Scalar.zero(order)
    return [sums.get(i, zero) for i in range(len(characters[0]))]


def grothendieck_class(M: AModule, simples: SimpleSet) -> list[int]:
    """Composition multiplicities of M, solved from the character system.

    Valid over characteristic zero with split simples; raises
    FusionError when the character system has no integral solution,
    which means the simple set is incomplete.
    """
    return _class_of(_trace_functional(M), simples, M.alg.order)


# ---------------------------------------------------------------------------
# the Verlinde table


def verlinde_fusion(A: QuasiHopfAlgebra, simples: SimpleSet) -> FusionTable:
    """Structure constants of the Grothendieck ring, from the expansion
    of products of the internal-character central elements.

    Every coefficient must come out a non-negative integer and must
    satisfy sum_w N_uv^w chi_w = chi_{U (x) V}, an identity check; only a
    pair that fails it is solved, for the class the error names.  Raises
    FusionError first if the declared simples fail :meth:`SimpleSet.validate`.
    """
    problems = simples.validate(A)
    if problems:
        raise FusionError("declared simples are not a complete set of simple "
                          "modules: " + "; ".join(problems))
    n = len(simples.simples)
    # column s is chi_central of simple s
    cmat = _central_elements(A, A.monodromy_core, simples.characters, simples.labels,
                             "internal character")
    chis = cmat.transpose().dense
    if cmat.rank() != n:
        raise FusionError("internal characters are linearly dependent")
    pairs = [(iu, iv) for iu in range(n) for iv in range(n)]
    expansions = cmat.solve_each([A.product(chis[iu], chis[iv]) for iu, iv in pairs])
    tensor_chars = _tensor_characters(A, simples.characters)
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    # checked pair by pair, so the first failing pair is the one reported
    for p, (iu, iv) in enumerate(pairs):
        where = f"({simples.labels[iu]}, {simples.labels[iv]})"
        if expansions[p] is None:
            raise FusionError(
                f"product of internal characters leaves their span at pair {where}")
        coeffs = [_as_nonneg_int(c) for c in expansions[p]]
        if not vec_eq(_class_character(coeffs, simples.characters, A.order), tensor_chars[p]):
            expected = _class_of(tensor_chars[p], simples, A.order)
            raise FusionError(
                f"Verlinde expansion {coeffs} disagrees with the "
                f"character oracle {expected} at pair {where}"
            )
        table[iu][iv] = coeffs
    return FusionTable(list(simples.labels), table)
