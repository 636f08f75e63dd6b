"""Centre, integrals/cointegrals and the projective SL(2,Z) action.

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
    stack_rows,
    zero_vector,
)
from . import tensorspace as ts
from .tensorspace import Tensor
from .qha import QuasiHopfAlgebra
# conjugation_action (the action S commutes with) lives in coend, beside
# coinvariant_elements, which uses it
from .coend import CoendMaps, coend_maps, conjugation_action, copairing  # noqa: F401


@dataclass
class IntegralResult:
    functional: list[Scalar] | None   # two-sided solution, echelon-normalised
    space_dim: int
    pairing_value: Scalar | None      # <lam x lam, omega>


@dataclass
class CointegralResult:
    element: list[Scalar] | None
    dim_two_sided: int
    normalized: bool                   # scaled so the integral pairs to 1


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
    lam_note: str


# ---------------------------------------------------------------------------
# centre


def center(A: QuasiHopfAlgebra) -> list[list[Scalar]]:
    """Basis of the centre: kernel of the stacked commutator maps."""
    mats = [A.left_mult[i] - A.right_mult[i] for i in range(A.dim)]
    return stack_rows(mats).kernel()


# ---------------------------------------------------------------------------
# integral of the universal Hopf algebra


def integral_L(A: QuasiHopfAlgebra, maps: CoendMaps) -> IntegralResult:
    """Solve the two-sided invariance conditions for a functional on A.

    The conditions say that contracting either output leg of the
    transposed product against the functional collapses to the
    evaluation element times the functional.  The solution space is
    1-dimensional exactly in the factorisable case; the dimension is
    reported either way.
    """
    dim, order = A.dim, A.order
    mu = maps.mu_hat
    rows: list[list[Scalar]] = []
    for a in range(dim):
        for j in range(dim):
            # sum_k mu[(j,k), a] lam_k = alpha_j lam_a
            row = [mu[j * dim + k, a] for k in range(dim)]
            row[a] = row[a] - A.alpha[j]
            rows.append(row)
            # sum_k mu[(k,j), a] lam_k = alpha_j lam_a
            row = [mu[k * dim + j, a] for k in range(dim)]
            row[a] = row[a] - A.alpha[j]
            rows.append(row)
    system = ExactMatrix(len(rows), dim, order, rows)
    sols = system.kernel()
    if len(sols) != 1:
        return IntegralResult(None, len(sols), None)
    lam = sols[0]
    k = pairing_of(lam, lam, maps.omega_hat, order)
    return IntegralResult(lam, 1, k)


def pairing_of(f: list[Scalar], g: list[Scalar], omega_hat: Tensor, order: int) -> Scalar:
    """<f x g, omega> with the flipped contraction convention."""
    acc = Scalar.zero(order)
    for (i, j), c in omega_hat.nonzero():
        acc = acc + c * f[j] * g[i]
    return acc


def cointegral_L(A: QuasiHopfAlgebra, integral: list[Scalar] | None = None) -> CointegralResult:
    """Two-sided integral of A, which spans the cointegrals of the
    universal Hopf algebra; normalised against the integral if given."""
    both = common_eigenvectors(A.left_mult + A.right_mult, A.counit + A.counit)
    if len(both) == 0:
        return CointegralResult(None, 0, False)
    c = both[0]
    normalized = False
    if integral is not None:
        val = dot(integral, c)
        if not val.is_zero():
            inv = val.inverse()
            c = [inv * x for x in c]
            normalized = True
    return CointegralResult(c, len(both), normalized)


# ---------------------------------------------------------------------------
# modular transformations


def s_t_hat(A: QuasiHopfAlgebra, maps: CoendMaps, integral: list[Scalar]):
    """The S-transformation on A (via the monodromy bilinear map and the
    integral) and the T-transformation (left multiplication by the
    inverse ribbon element)."""
    if A.ribbon_inv is None:
        raise ValueError("modular transformations require ribbon data")
    dim, order = A.dim, A.order
    # column a is the integral on the first leg of q_hat_apply(e_a, alpha);
    # legs 5, 6 and 7 are alpha and the slot (a, e_a)
    x = ts.leg_map(ts.leg_map(maps.x_q, 3, A.antipode), 1, A.antipode)
    slot = ts.tensor_product(Tensor.from_vector(A.alpha, order), ts.identity(dim, order))
    q = ts.merge_legs(ts.tensor_product(x, slot), ((3, 7, 4), (1, 5, 2), (6,)), A.mult_table)
    s_hat = ts.as_matrix(ts.contract_leg(q, 1, integral), 1)
    t_hat = A.lmult_of(A.ribbon_inv)
    return s_hat, t_hat


def s_hat_pairing_form(A: QuasiHopfAlgebra, maps: CoendMaps, integral: list[Scalar]) -> ExactMatrix:
    """Equivalent route to the S-transformation through the self-pairing
    element and the transposed coproduct; agrees entry by entry with
    :func:`s_t_hat` and serves as its oracle."""
    dim, order = A.dim, A.order
    omega = maps.omega_hat
    out = ExactMatrix.zeros(dim, dim, order)
    pair_cache: dict[tuple[int, int], ExactMatrix] = {}

    def sandwich(r1: int, r2: int) -> ExactMatrix:
        # x -> S(e_r1) x e_r2
        if (r1, r2) not in pair_cache:
            s_r1 = [A.antipode[r, r1] for r in range(dim)]
            pair_cache[(r1, r2)] = A.lmult_of(s_r1) * A.right_mult[r2]
        return pair_cache[(r1, r2)]

    for (p, q, r), c_phi in A.phi.nonzero():
        for (p1, p2), cp in A.cop_table[p]:
            for (q1, q2), cq in A.cop_table[q]:
                y_mid = sandwich(q1, q2)
                for (r1, r2), cr in A.cop_table[r]:
                    x_map = sandwich(r1, r2)
                    for (w1, w2), cw in omega.nonzero():
                        coeff = c_phi * cp * cq * cr * cw
                        y = [y_mid[i, w1] for i in range(dim)]
                        z_mat = sandwich(p1, p2)
                        z = [z_mat[i, w2] for i in range(dim)]
                        for a in range(dim):
                            x = [x_map[i, a] for i in range(dim)]
                            val = coeff * dot(integral, _delta_hat_pair(maps, x, y))
                            if not val.is_zero():
                                for i in range(dim):
                                    if not z[i].is_zero():
                                        out[i, a] = out[i, a] + val * z[i]
    return out


def _delta_hat_pair(maps: CoendMaps, x: list[Scalar], y: list[Scalar]) -> list[Scalar]:
    """The transposed coproduct applied to x (x) y."""
    dim = len(x)
    flat = zero_vector(dim * dim, x[0].order)
    for i, xi in enumerate(x):
        if not xi.is_zero():
            for j, yj in enumerate(y):
                if not yj.is_zero():
                    flat[i * dim + j] = xi * yj
    return maps.delta_hat.apply(flat)


def sl2z_on_center(
    A: QuasiHopfAlgebra,
    maps: CoendMaps,
    integral: list[Scalar],
    center_basis: list[list[Scalar]] | None = None,
):
    """The modular S and T maps on the centre, in centre coordinates,
    together with the projective constant from (S T)^3 = lam S^2.

    Raises ValueError if either map fails to preserve the centre (naming
    the first failing basis vector, S before T) or if exact
    proportionality fails; both identities are theorems, so a
    failure signals corrupted input or an implementation fault.
    """
    if A.ribbon_inv is None:
        raise ValueError("the modular action requires ribbon data")
    dim, order = A.dim, A.order
    if center_basis is None:
        center_basis = center(A)

    # prefix map x -> sum psi_1 beta S(psi_2) x psi_3
    t = ts.leg_map(A.phi_inv, 2, A.antipode)
    t = ts.leg_map(t, 1, A.rmult_of(A.beta))
    pre = A.two_sided_action(ts.merge_legs(t, ((1, 2), (3,)), A.mult_table))
    # S z = pre Omega K (alpha z), where Omega is omega_hat's coefficient
    # matrix and K[j][b] = <integral, delta_hat(e_j (x) e_b)>
    paired = maps.delta_hat.transpose().apply(integral)
    k_mat = ExactMatrix(dim, dim, order, [paired[j * dim:(j + 1) * dim] for j in range(dim)])
    s_mat = pre * ts.as_matrix(maps.omega_hat, 1) * k_mat

    # one elimination solves every column; S z and T z alternate, so the
    # first basis vector that fails is reported, with S checked before T
    coords = matrix_from_columns(center_basis, order).solve_each(
        [x for z in center_basis
         for x in (s_mat.apply(A.product(A.alpha, z)), A.product(A.ribbon_inv, z))])
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
    if lam is None or lhs != rhs.scale(lam):
        raise ValueError("(S T)^3 is not proportional to S^2")
    return s_z, t_z, lam


LAM_NOTE = (
    "integral fixed by echelon normalisation of the two-sided solution "
    "space (defined up to sign and scale); the projective constant "
    "rescales linearly with it"
)


def modular_data(A: QuasiHopfAlgebra, maps: CoendMaps | None = None) -> ModularData:
    """Full modular pipeline; requires a factorisable ribbon input."""
    if maps is None:
        maps = coend_maps(A)
    rank = ts.as_matrix(copairing(A, maps), 1).rank()
    if rank != A.dim:
        raise ValueError(
            f"input is not factorisable (copairing rank {rank} < {A.dim}); "
            "the modular action is only defined in the factorisable case"
        )
    integral = integral_L(A, maps)
    if integral.functional is None:
        raise ValueError(
            f"two-sided integral space has dimension {integral.space_dim}, not 1"
        )
    coint = cointegral_L(A, integral.functional)
    if coint.element is None:
        raise ValueError("no two-sided integral of the algebra exists")
    if not coint.normalized:
        raise ValueError("integral pairs to zero against the cointegral")
    s_hat, t_hat = s_t_hat(A, maps, integral.functional)
    basis = center(A)
    s_z, t_z, lam = sl2z_on_center(A, maps, integral.functional, basis)
    return ModularData(
        center_basis=basis,
        integral=integral.functional,
        pairing_value=integral.pairing_value,
        cointegral=coint.element,
        s_hat=s_hat,
        t_hat=t_hat,
        s_z=s_z,
        t_z=t_z,
        lam=lam,
        lam_note=LAM_NOTE,
    )
