"""Structure maps of the universal Hopf algebra on the dual space of A.

Everything is realised on the element side: the product, coproduct,
unit, counit and antipode of the dual-side Hopf algebra are stored as
exact matrices of their transposed ("hatted") versions acting on A, the
self-pairing as a 2-leg tensor.  The factorisability machinery computes
the associated copairing, the Bulacu-Torrecillas style monodromy matrix
and the restricted invariant-pairing map, which must agree on every
input.

Each map and each Hopf-case short form (``hopf_reduced_maps``) is one
slot contraction (see ``tensorspace``), with no loop over basis indices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactmath import ExactMatrix, Scalar, common_eigenvectors, matrix_from_columns
from . import tensorspace as ts
from .tensorspace import Tensor
from .qha import QuasiHopfAlgebra, drinfeld_element, drinfeld_twist, monodromy


@dataclass
class CoendMaps:
    """Transposed structure maps, plus the intermediate elements that
    build them (kept for reports and regression fixtures)."""

    mu_hat: ExactMatrix        # A -> A x A, column a flattened row-major
    delta_hat: ExactMatrix     # A x A -> A, column index (a, b) = a*dim + b
    eta_hat: list[Scalar]      # functional on A
    eps_hat: list[Scalar]      # element of A
    s_hat_L: ExactMatrix       # A -> A
    omega_hat: Tensor          # self-pairing element of A x A
    d_tensor: Tensor
    w_tensor: Tensor
    x_q: Tensor


@dataclass
class FactorisabilityReport:
    d_hat_L: Tensor
    rank_D: int
    m_bt: Tensor
    rank_BT: int
    omega_iso_rank: int
    invariants_dim: int
    coinvariants_dim: int
    is_factorisable: bool
    tests_agree: bool


# ---------------------------------------------------------------------------
# intermediate elements


def _w_and_x_q(A: QuasiHopfAlgebra) -> tuple[Tensor, Tensor]:
    """The 4-leg elements W and X_Q of ``CoendMaps``:

    W = (alpha x alpha)_24 phi^-1_234 M_23 phi_234 (id x id x Delta)(phi^-1),
    whose antipode-contraction is the self-pairing, and
    X_Q = (id x id x Delta)(phi) phi^-1_234 M_23 phi_234 (id x id x Delta)(phi^-1),
    the kernel of the monodromy bilinear map :func:`q_form`.  Both end in
    the same four factors T = core_234 (id x id x Delta)(phi^-1), with the
    core phi^-1 M_12 phi of ``QuasiHopfAlgebra.monodromy_core``, so T is
    built once."""
    mt = A.mult_table
    tail = ts.mul(ts.embed(A.monodromy_core, 4, (2, 3, 4)),
                  ts.coproduct_leg(A.phi_inv, 3, A.cop_table), mt)
    alpha = Tensor.from_vector(A.alpha, A.order)
    return (ts.merge_legs((tail, alpha, alpha), ((1,), (5, 2), (3,), (6, 4)), mt),
            ts.mul(ts.coproduct_leg(A.phi, 3, A.cop_table), tail, mt))


def element_d(A: QuasiHopfAlgebra) -> Tensor:
    """The 4-leg element B beta_2 behind the transposed coproduct, B the
    coassociator split by ``QuasiHopfAlgebra.phi_split``."""
    return ts.merge_legs((A.phi_split, Tensor.from_vector(A.beta, A.order)),
                         ((1,), (2, 5), (3,), (4,)), A.mult_table)


# ---------------------------------------------------------------------------
# the structure maps


def coend_maps(A: QuasiHopfAlgebra) -> CoendMaps:
    """All six transposed structure maps, built with leg operations."""
    dim, order = A.dim, A.order
    mt = A.mult_table
    cop = A.cop_table
    f, _, _ = drinfeld_twist(A)
    _, u_tilde, _ = drinfeld_element(A)
    ident = ts.identity(dim, order)

    # product: the 4-leg core C = B (R_spread psi), B of ``A.phi_split``;
    # column a is the 2-leg value (S(C_2) x S(C_1)) . f . Delta(a) . (C_3 x C_4)
    psi_t = ts.permute(ts.coproduct_leg(A.phi_inv, 3, cop), (1, 3, 4, 2))
    r_spread = ts.embed(
        ts.permute(ts.coproduct_leg(A.r_matrix, 2, cop), (2, 3, 1)), 4, (2, 3, 4)
    )
    core = ts.mul(A.phi_split, ts.mul(r_spread, psi_t, mt), mt)
    core = ts.permute(core, (2, 1, 3, 4))
    core = ts.leg_map(ts.leg_map(core, 1, A.antipode), 2, A.antipode)

    # column a feeds Delta(a) through the slot; f is folded into C first
    base = ts.mul(core, ts.embed(f, 4, (1, 2)), mt)
    slot = ts.coproduct_leg(ident, 2, cop)
    mu_hat = ts.as_matrix(ts.merge_legs((base, slot), ((1, 6, 3), (2, 7, 4), (5,)), mt), 2)

    # coproduct: column (a, b) is S(D_1) b D_2 S(D_3) a D_4
    d_tensor = element_d(A)
    d_base = ts.leg_map(ts.leg_map(d_tensor, 1, A.antipode), 3, A.antipode)
    # legs 5 to 8 are the slots (a, e_a) and (b, e_b)
    delta_hat = ts.as_matrix(ts.merge_legs(
        (d_base, ident, ident), ((1, 8, 2, 3, 6, 4), (5,), (7,)), mt), 1)

    # eta_hat(e_i) = eps(beta e_i), the counit read through left multiplication by beta
    eta_hat = A.lmult_of(A.beta).transpose().apply(A.counit)

    # antipode: column a is S(a R_1) u~ R_2 = S(R_1) S(a) u~ R_2
    factors = (ts.leg_map(A.r_matrix, 1, A.antipode), Tensor.from_vector(u_tilde, order),
               ts.leg_map(ident, 2, A.antipode))
    s_hat = ts.as_matrix(ts.merge_legs(factors, ((1, 5, 3, 2), (4,)), mt), 1)

    w_tensor, x_q = _w_and_x_q(A)
    t = ts.leg_map(ts.leg_map(w_tensor, 3, A.antipode), 1, A.antipode)
    omega_hat = ts.merge_legs(t, ((3, 4), (1, 2)), mt)

    return CoendMaps(
        mu_hat=mu_hat,
        delta_hat=delta_hat,
        eta_hat=eta_hat,
        eps_hat=list(A.alpha),
        s_hat_L=s_hat,
        omega_hat=omega_hat,
        d_tensor=d_tensor,
        w_tensor=w_tensor,
        x_q=x_q,
    )


def hopf_reduced_maps(A: QuasiHopfAlgebra) -> CoendMaps:
    """The short forms the structure maps collapse to when the
    coassociator is trivial and alpha = beta = 1.  Used as the reduction
    oracle against :func:`coend_maps` on genuinely Hopf inputs."""
    dim, order = A.dim, A.order
    mt = A.mult_table
    ident = ts.identity(dim, order)

    # product: column a is S(R_1) a' R_2 (x) a'' R_3, where
    # R_1 x R_2 x R_3 = R_2' x R_2'' x R_1 is (id x Delta)(R) with its legs turned
    r_spread = ts.permute(ts.coproduct_leg(A.r_matrix, 2, A.cop_table), (2, 3, 1))
    base = ts.leg_map(r_spread, 1, A.antipode)
    # legs 4, 5 and 6 are the slot (a, a', a'')
    slot = ts.coproduct_leg(ident, 2, A.cop_table)
    mu_hat = ts.as_matrix(ts.merge_legs((base, slot), ((1, 5, 2), (6, 3), (4,)), mt), 2)

    # coproduct: column (a, b) is b a
    delta_hat = ts.as_matrix(ts.merge_legs((ident, ident), ((4, 2), (1,), (3,)), mt), 1)

    # the inverse of u = S(R_2) R_1
    u_inv = A.invert_element(ts.merge_legs(
        ts.leg_map(ts.permute(A.r_matrix, (2, 1)), 1, A.antipode), ((1, 2),), mt))
    if u_inv is None:
        raise ValueError("drinfeld element of the Hopf reduction is singular")

    # antipode: column a is S(u^-1 a R_1) R_2 = S(R_1) S(a) S(u^-1) R_2
    factors = (ts.leg_map(A.r_matrix, 1, A.antipode), ts.leg_map(u_inv, 1, A.antipode),
               ts.leg_map(ident, 2, A.antipode))
    s_hat = ts.as_matrix(ts.merge_legs(factors, ((1, 5, 3, 2), (4,)), mt), 1)

    m = monodromy(A)
    omega_hat = ts.leg_map(ts.permute(m, (2, 1)), 1, A.antipode)

    return CoendMaps(
        mu_hat=mu_hat,
        delta_hat=delta_hat,
        eta_hat=list(A.counit),
        eps_hat=A.unit(),
        s_hat_L=s_hat,
        omega_hat=omega_hat,
        d_tensor=Tensor.unit(dim, 4, order),
        w_tensor=ts.embed(m, 4, (2, 3)),
        x_q=ts.embed(m, 4, (2, 3)),
    )


# ---------------------------------------------------------------------------
# the monodromy bilinear map


def q_form(A: QuasiHopfAlgebra, x_q: Tensor, a: Tensor, b: Tensor) -> Tensor:
    """The monodromy bilinear map (a, b) -> S(X_3) a X_4 (x) S(X_1) b X_2.

    Each argument is a 1-leg element or a 2-leg ``tensorspace.identity``
    slot, whose second leg is the element; the result's legs are the two
    outputs, then the first leg of each slot, a's before b's."""
    base = ts.leg_map(ts.leg_map(x_q, 3, A.antipode), 1, A.antipode)
    ea, eb = 4 + a.legs, 4 + a.legs + b.legs
    slots = [(first,) for first, arg in ((5, a), (ea + 1, b)) if arg.legs == 2]
    return ts.merge_legs((base, a, b), ((3, ea, 4), (1, eb, 2), *slots), A.mult_table)


def q_hat(A: QuasiHopfAlgebra, x_q: Tensor) -> ExactMatrix:
    """Matrix of :func:`q_form` on A x A; column index is (a, b)
    flattened row-major."""
    ident = ts.identity(A.dim, A.order)
    return ts.as_matrix(q_form(A, x_q, ident, ident), 2)


# ---------------------------------------------------------------------------
# factorisability


def copairing(A: QuasiHopfAlgebra, maps: CoendMaps) -> Tensor:
    """The 2-leg copairing S(X_2') w_1 X_2'' (x) S(X_1') w_2 X_1'' built
    from the self-pairing element w, X = x_d."""
    mt = A.mult_table
    t = ts.permute(A.x_d_coproduct, (3, 4, 1, 2))
    t = ts.leg_map(ts.leg_map(t, 1, A.antipode), 3, A.antipode)
    t = ts.mul(ts.embed(maps.omega_hat, 4, (2, 4)), t, mt)
    return ts.merge_legs(t, ((1, 2), (3, 4)), mt)


def bt_monodromy_matrix(A: QuasiHopfAlgebra) -> Tensor:
    """The 2-leg element whose partial contraction with functionals is the
    end-valued Drinfeld map."""
    mt = A.mult_table
    chain = ts.mul_chain(
        [
            ts.coproduct_leg(A.q_tilde, 2, A.cop_table),
            A.phi_inv,
            ts.embed(ts.permute(A.r_matrix, (2, 1)), 3, (1, 2)),
            ts.embed(A.r_matrix, 3, (1, 2)),
            ts.embed(A.x_d, 3, (1, 2)),
        ],
        mt,
    )
    chain = ts.leg_map(chain, 3, A.antipode)
    return ts.merge_legs(chain, ((1,), (2, 3)), mt)


def bt_monodromy_via_tangle_element(A: QuasiHopfAlgebra) -> Tensor:
    """Alternative route through the 4-leg tangle element; must agree with
    :func:`bt_monodromy_matrix` entry by entry."""
    mt = A.mult_table
    q = ts.mul_chain(
        [
            ts.embed(Tensor.from_vector(A.alpha, A.order), 4, (2,)),
            ts.coproduct_leg(A.phi, 3, A.cop_table),
            ts.embed(A.monodromy_core, 4, (2, 3, 4)),
            ts.embed(Tensor.from_vector(A.beta, A.order), 4, (3,)),
        ],
        mt,
    )
    q = ts.leg_map(ts.leg_map(q, 1, A.antipode), 4, A.antipode)
    return ts.merge_legs(q, ((1, 2), (3, 4)), mt)


def invariant_functionals(A: QuasiHopfAlgebra) -> list[list[Scalar]]:
    """Basis of functionals fixed by the coadjoint action."""
    return common_eigenvectors(A.coadjoint_action, A.counit)


def coinvariant_elements(A: QuasiHopfAlgebra) -> list[list[Scalar]]:
    """Basis of elements r with sum S(b') r b'' = eps(b) r for all b."""
    return common_eigenvectors(A.conjugation_action, A.counit)


def factorisability(A: QuasiHopfAlgebra, maps: CoendMaps) -> FactorisabilityReport:
    """Run all three non-degeneracy tests and report their agreement."""
    d_hat = copairing(A, maps)
    rank_d = ts.as_matrix(d_hat, 1).rank()

    m_bt = bt_monodromy_matrix(A)
    rank_bt = ts.as_matrix(m_bt, 1).rank()

    invs = invariant_functionals(A)
    coinvs = coinvariant_elements(A)
    # omega with its second leg restricted to the invariants, one column each
    omega_rank = (ts.as_matrix(maps.omega_hat, 1)
                  * matrix_from_columns(invs, A.order)).rank() if invs else 0
    # a valid algebra always has a nonzero invariant (the transposed unit),
    # so the vacuous zero-space case counts as degenerate
    omega_iso = len(invs) > 0 and omega_rank == len(invs) == len(coinvs)

    is_fact = rank_d == A.dim
    agree = (is_fact == (rank_bt == A.dim)) and (is_fact == omega_iso)
    return FactorisabilityReport(
        d_hat_L=d_hat,
        rank_D=rank_d,
        m_bt=m_bt,
        rank_BT=rank_bt,
        omega_iso_rank=omega_rank,
        invariants_dim=len(invs),
        coinvariants_dim=len(coinvs),
        is_factorisable=is_fact,
        tests_agree=agree,
    )
