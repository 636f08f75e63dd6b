"""Centre, integrals/cointegrals and the projective SL(2,Z) action.

S_Z and T_Z are the restrictions to the centre of S_hat and T_hat on A;
``s_hat_pairing_form`` derives S_hat a second way, as its oracle.  No map
is built by a loop over basis indices.

The integral (:func:`integral_L`) and the cointegral (:func:`cointegral_L`)
are plain vectors; each function raises its own refusal when the value
it solves for does not exist or is not unique.

No square roots are ever taken: the pairing value of the integral is
carried along and all modular relations are asserted in their exactly
scaled forms (see the invariants exercised in the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactmath import (
    ExactMatrix,
    Scalar,
    common_eigenvectors,
    dot,
    matrix_from_columns,
)
from . import tensorspace as ts
from .tensorspace import Tensor
from .qha import QuasiHopfAlgebra, first_difference
from .coend import CoendMaps, FactorisabilityReport, q_form


@dataclass
class ModularData:
    center_basis: list[list[Scalar]]
    integral: list[Scalar]
    pairing_value: Scalar
    cointegral: list[Scalar]
    s_hat: ExactMatrix
    t_hat: ExactMatrix
    s_z: ExactMatrix                   # in center_basis coordinates
    t_z: ExactMatrix
    lam: Scalar


# ---------------------------------------------------------------------------
# centre


def center(A: QuasiHopfAlgebra) -> list[list[Scalar]]:
    """Basis of the centre: kernel of the stacked commutator maps."""
    return A.commutators.kernel()


# ---------------------------------------------------------------------------
# integral of the universal Hopf algebra


def integral_L(A: QuasiHopfAlgebra, maps: CoendMaps) -> list[Scalar]:
    """The two-sided integral of the universal Hopf algebra, a functional
    on A, echelon-normalised.

    Contracting either output leg of the transposed product against the
    functional gives the evaluation element times the functional:
    P_j lam = Q_j lam = alpha_j lam for the slices P_j[a, k] = mu[(j, k), a]
    and Q_j[a, k] = mu[(k, j), a].  The integral is unique up to scale,
    so the space has dimension 1 on valid inputs whether or not they are
    factorisable (only :func:`coend.factorisability` decides that);
    raises ValueError for any other dimension.
    """
    dim, order = A.dim, A.order
    slices: list[list] = [[] for _ in range(2 * dim)]   # P_0 .. P_dim-1, Q_0 .. Q_dim-1
    for (jk, a), c in maps.mu_hat.nonzero():
        j, k = divmod(jk, dim)
        slices[j].append(((a, k), c))
        slices[dim + k].append(((a, j), c))
    sols = common_eigenvectors(
        [ExactMatrix.from_entries(dim, dim, order, t) for t in slices], A.alpha + A.alpha)
    if len(sols) != 1:
        raise ValueError(f"two-sided integral space has dimension {len(sols)}, not 1")
    return sols[0]


def pairing_of(f: list[Scalar], g: list[Scalar], omega_hat: Tensor) -> Scalar:
    """<f x g, omega> with the flipped contraction convention."""
    return dot(g, ts.contract_leg(omega_hat, 2, f).to_vector())


def cointegral_L(A: QuasiHopfAlgebra, integral: list[Scalar]) -> list[Scalar]:
    """Two-sided integral of A, which spans the cointegrals of the
    universal Hopf algebra, scaled so that the integral pairs to 1 with it.

    Raises ValueError when A has no two-sided integral (A is not
    unimodular) or when the integral pairs to zero against it."""
    both = common_eigenvectors(A.left_mult + A.right_mult, A.counit + A.counit)
    if not both:
        raise ValueError("no two-sided integral of the algebra exists")
    val = dot(integral, both[0])
    if val.is_zero():
        raise ValueError("integral pairs to zero against the cointegral")
    inv = val.inverse()
    return [inv * x for x in both[0]]


# ---------------------------------------------------------------------------
# modular transformations


def s_t_hat(A: QuasiHopfAlgebra, maps: CoendMaps, integral: list[Scalar]):
    """The S-transformation on A (via the monodromy bilinear map and the
    integral) and the T-transformation (left multiplication by the
    inverse ribbon element)."""
    if A.ribbon_inv is None:
        raise ValueError("modular transformations require ribbon data")
    dim, order = A.dim, A.order
    # column a is the integral on the first leg of q_form(e_a, alpha)
    q = q_form(A, maps.x_q, ts.identity(dim, order), Tensor.from_vector(A.alpha, order))
    s_hat = ts.as_matrix(ts.contract_leg(q, 1, integral), 1)
    t_hat = A.lmult_of(A.ribbon_inv)
    return s_hat, t_hat


def s_hat_pairing_form(A: QuasiHopfAlgebra, maps: CoendMaps, integral: list[Scalar]) -> ExactMatrix:
    """Equivalent route to the S-transformation through the self-pairing
    element and the transposed coproduct; agrees entry by entry with
    :func:`s_t_hat` and serves as its oracle.

    Column a is sum K(S(r') a r'', S(q') w_1 q'') S(p') w_2 p'' over
    phi = p x q x r and omega = w_1 x w_2, with the bilinear form
    K(x, y) = <integral, delta_hat(x (x) y)>."""
    dim, order = A.dim, A.order
    # legs 1 to 6 are p', p'', q', q'', r', r''; 7 and 8 are omega; 9 and 10 the slot
    phi3 = ts.coproduct_leg(ts.coproduct_leg(ts.coproduct_leg(A.phi, 3, A.cop_table),
                                             2, A.cop_table), 1, A.cop_table)
    for leg in (1, 3, 5):
        phi3 = ts.leg_map(phi3, leg, A.antipode)
    # output legs (z, x, y, a); K pairs x and y for every a
    t = ts.merge_legs((phi3, maps.omega_hat, ts.identity(dim, order)),
                      ((1, 8, 2), (5, 10, 6), (3, 7, 4), (9,)), A.mult_table)
    k = matrix_from_columns([maps.delta_hat.transpose().apply(integral)], order)
    return ts.as_matrix(t, 1) * k.kron(ExactMatrix.identity(dim, order))


def sl2z_on_center(
    A: QuasiHopfAlgebra,
    s_hat: ExactMatrix,
    t_hat: ExactMatrix,
    center_basis: list[list[Scalar]],
):
    """The restrictions S_Z and T_Z of S_hat and T_hat to the centre, in
    centre coordinates, together with the projective constant from
    (S T)^3 = lam S^2.

    Raises ValueError if either map fails to preserve the centre (naming
    the first failing basis vector, S before T) or if exact
    proportionality fails (naming the first differing entry of the centre
    matrices); both identities are theorems, so a
    failure signals corrupted input or an implementation fault.
    """
    order = A.order
    # one elimination solves every column; S z and T z alternate, so the
    # first basis vector that fails is reported, with S checked before T
    coords = matrix_from_columns(center_basis, order).solve_each(
        [m.apply(z) for z in center_basis for m in (s_hat, t_hat)])
    s_cols, t_cols = coords[0::2], coords[1::2]
    for k, (z, s_col, t_col) in enumerate(zip(center_basis, s_cols, t_cols)):
        for name, col in (("S", s_col), ("T", t_col)):
            if col is None:
                raise ValueError(f"{name} does not preserve the centre at centre basis "
                                 f"vector {k} = [{', '.join(map(str, z))}]")
    s_z = matrix_from_columns(s_cols, order)
    t_z = matrix_from_columns(t_cols, order)

    st = s_z * t_z
    lhs = st * st * st
    rhs = s_z * s_z
    lam = next((lhs[ij] / c for ij, c in rhs.nonzero()), None)
    # located at the first entry off lam S^2, or of (S T)^3 when S^2 is zero
    w = first_difference(lhs, rhs if lam is None else rhs.scale(lam))
    if lam is None or w:
        raise ValueError(f"(S T)^3 is not proportional to S^2 at {w}")
    return s_z, t_z, lam


def modular_data(A: QuasiHopfAlgebra, maps: CoendMaps,
                 fact: FactorisabilityReport) -> ModularData:
    """Full modular pipeline; requires a factorisable ribbon input.  The
    copairing rank is read from ``fact``, the verdict of
    :func:`coend.factorisability` on ``maps``; every later refusal is
    raised by the stage that finds it."""
    if fact.rank_D != A.dim:
        raise ValueError(f"input is not factorisable (copairing rank {fact.rank_D} < {A.dim}); "
                         "the modular action needs it")
    integral = integral_L(A, maps)
    cointegral = cointegral_L(A, integral)
    s_hat, t_hat = s_t_hat(A, maps, integral)
    basis = center(A)
    s_z, t_z, lam = sl2z_on_center(A, s_hat, t_hat, basis)
    return ModularData(
        center_basis=basis,
        integral=integral,
        pairing_value=pairing_of(integral, integral, maps.omega_hat),
        cointegral=cointegral,
        s_hat=s_hat,
        t_hat=t_hat,
        s_z=s_z,
        t_z=t_z,
        lam=lam,
    )
