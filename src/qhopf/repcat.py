"""Finite-dimensional modules over a quasi-Hopf algebra and the
categorical structure morphisms as exact matrices.

Every action matrix, of a module or of a k-leg element on a tensor product
of modules, is one ``exactmath.kron_combination`` of action lists.  For a
k-leg element that call is :func:`element_action`, which builds no
tensor product module: the associator, braiding and double braiding
morphisms wrap it, and ``verify_braided_hopf`` calls it directly.

Index conventions, fixed once:

* the basis of U (x) V is ordered (u, v) -> u * dim(V) + v, matching
  ``ExactMatrix.kron``;
* the dual module uses the dual basis with the same index as the primal
  basis, so double duals are identified with the original space by the
  identity matrix;
* functionals pair with elements of a tensor square in flipped order,
  <f (x) g, x (x) y> = f(y) g(x).  Dualising the transposed structure
  maps of the universal Hopf algebra therefore composes a transpose with
  one pair flip, ``flip_matrix(dim, dim, order)``, in
  :func:`dualised_structure`, the single place this happens.
"""

from __future__ import annotations

from math import lcm

from .exactmath import ExactMatrix, Scalar, collect_products, kron_combination, stack_rows
from . import tensorspace as ts
from .qha import AxiomReport, QuasiHopfAlgebra, drinfeld_twist, monodromy, validate
from .coend import CoendMaps, coend_maps


class AModule:
    """A left module given by one action matrix per algebra basis element."""

    def __init__(self, alg: QuasiHopfAlgebra, action: list[ExactMatrix], label: str = ""):
        self.alg = alg
        self.dim = action[0].rows if action else 0
        self.action = action
        self.label = label

    def act(self, v: list[Scalar]) -> ExactMatrix:
        return kron_combination((((i,), c) for i, c in enumerate(v)), [self.action])

    def check_representation(self) -> tuple[bool, tuple | None]:
        """rho(e_0) = 1 and rho(e_i) rho(e_j) = sum c[i][j][k] rho(e_k), the
        second as one identity of block matrices with block (i, j) on each
        side; the witness is the smallest failing (i, j)."""
        A, d, n = self.alg, self.dim, self.alg.dim
        if self.action[0] != ExactMatrix.identity(d, A.order):
            return False, (0,)
        # the column of blocks rho_i times the row of blocks rho_j
        row_of_blocks = stack_rows([m.transpose() for m in self.action]).transpose()
        lhs = stack_rows(self.action) * row_of_blocks
        entries = [list(m.nonzero()) for m in self.action]
        order = lcm(A.order, *{m.order for m in self.action})
        rhs = ExactMatrix.from_flat(n * d, n * d, order, collect_products((
            ((i * d + r) * n * d + j * d + s, c, x)
            for i, row in enumerate(A.mult_table) for j, terms in enumerate(row)
            for k, c in terms for (r, s), x in entries[k]), order).items())
        if lhs == rhs:
            return True, None
        return False, min((r // d, c // d) for (r, c), _ in (lhs - rhs).nonzero())

    def __repr__(self) -> str:
        return f"AModule({self.label or 'dim %d' % self.dim})"


class Morphism:
    """A linear map between modules; :meth:`is_intertwiner` checks it."""

    def __init__(self, source: AModule, target: AModule, matrix: ExactMatrix):
        self.source = source
        self.target = target
        self.matrix = matrix

    def is_intertwiner(self) -> tuple[bool, tuple | None]:
        for i in range(self.source.alg.dim):
            if self.matrix * self.source.action[i] != self.target.action[i] * self.matrix:
                return False, (i,)
        return True, None

    def __repr__(self) -> str:
        return f"Morphism({self.source!r} -> {self.target!r})"


# ---------------------------------------------------------------------------
# module constructions


def trivial_module(A: QuasiHopfAlgebra) -> AModule:
    return AModule(
        A,
        [ExactMatrix(1, 1, A.order, [[A.counit[i]]]) for i in range(A.dim)],
        label="1",
    )


def regular_module(A: QuasiHopfAlgebra) -> AModule:
    return AModule(A, list(A.left_mult), label="A")


def tensor_module(U: AModule, V: AModule) -> AModule:
    """Tensor product along the coproduct."""
    A = U.alg
    assert V.alg is A, "modules over different algebras"
    action = [kron_combination(terms, [U.action, V.action]) for terms in A.cop_table]
    return AModule(A, action, label=f"({U.label}x{V.label})")


def dual_module(U: AModule) -> AModule:
    """Dual with action through the antipode: (a.f)(u) = f(S(a) u)."""
    A = U.alg
    # column i of the antipode matrix is S(e_i)
    action = [U.act(s_ei).transpose() for s_ei in A.antipode.transpose().dense]
    return AModule(A, action, label=f"{U.label}*")


def coadjoint_module(A: QuasiHopfAlgebra) -> AModule:
    """The universal Hopf algebra object: the dual space with action
    (b.f)(x) = f(sum S(b') x b'')."""
    return AModule(A, A.coadjoint_action, label="L")


def adjoint_module(A: QuasiHopfAlgebra) -> AModule:
    """The end object: A with the action b.x = sum b' x S(b'')."""
    return AModule(A, A.adjoint_action, label="Adj")


# ---------------------------------------------------------------------------
# structure morphisms


def flip_matrix(m: int, n: int, order: int) -> ExactMatrix:
    one = Scalar.one(order)
    return ExactMatrix.from_entries(m * n, m * n, order, (
        ((v * m + u, u * n + v), one) for u in range(m) for v in range(n)))


def _flattened(mats: list[ExactMatrix]) -> ExactMatrix:
    """The matrix whose row a lists the entries of mats[a] row by row, the
    index order of ``ExactMatrix.kron``."""
    m = mats[0]
    return ExactMatrix.from_entries(len(mats), m.rows * m.cols, m.order, (
        ((a, r * m.cols + c), x) for a, mat in enumerate(mats) for (r, c), x in mat.nonzero()))


def element_action(t: ts.Tensor, modules) -> ExactMatrix:
    """The action of the k-leg element t on M_1 (x) ... (x) M_k, for the
    modules M_1, ..., M_k; no tensor product module is built."""
    return kron_combination(t.nonzero(), [m.action for m in modules])


def _braiding_matrix(U: AModule, V: AModule) -> ExactMatrix:
    return flip_matrix(U.dim, V.dim, U.alg.order) * element_action(U.alg.r_matrix, (U, V))


def associator(U: AModule, V: AModule, W: AModule) -> Morphism:
    """Coassociator action U (x) (V (x) W) -> (U (x) V) (x) W."""
    return Morphism(
        tensor_module(U, tensor_module(V, W)),
        tensor_module(tensor_module(U, V), W),
        element_action(U.alg.phi, (U, V, W)),
    )


def associator_inv(U: AModule, V: AModule, W: AModule) -> Morphism:
    return Morphism(
        tensor_module(tensor_module(U, V), W),
        tensor_module(U, tensor_module(V, W)),
        element_action(U.alg.phi_inv, (U, V, W)),
    )


def braiding(U: AModule, V: AModule) -> Morphism:
    """Flip after acting with the R-matrix."""
    return Morphism(tensor_module(U, V), tensor_module(V, U), _braiding_matrix(U, V))


def double_braiding(U: AModule, V: AModule) -> Morphism:
    """Monodromy action on U (x) V (no flip)."""
    return Morphism(tensor_module(U, V), tensor_module(U, V),
                    element_action(monodromy(U.alg), (U, V)))


def evaluation(U: AModule) -> Morphism:
    """U* (x) U -> 1, f (x) u -> f(alpha.u)."""
    A = U.alg
    m = _flattened([U.act(A.alpha)])
    return Morphism(tensor_module(dual_module(U), U), trivial_module(A), m)


def coevaluation(U: AModule) -> Morphism:
    """1 -> U (x) U*, 1 -> sum (beta.u_i) (x) u_i*."""
    A = U.alg
    m = _flattened([U.act(A.beta)]).transpose()
    return Morphism(trivial_module(A), tensor_module(U, dual_module(U)), m)


def _require_ribbon(A: QuasiHopfAlgebra):
    if A.ribbon is None or A.ribbon_inv is None:
        raise ValueError("operation requires ribbon data")


def ribbon_twist(U: AModule) -> Morphism:
    """Action of the inverse ribbon element."""
    A = U.alg
    _require_ribbon(A)
    return Morphism(U, U, U.act(A.ribbon_inv))


def pivotal(U: AModule) -> Morphism:
    """U -> U**, the double-dual identification twisted by v^-1 u."""
    A = U.alg
    _require_ribbon(A)
    return Morphism(U, dual_module(dual_module(U)), U.act(A.pivotal_element))


def evaluation_right(U: AModule) -> Morphism:
    """U (x) U* -> 1, w (x) f -> f(S(alpha) v^-1 u . w)."""
    A = U.alg
    _require_ribbon(A)
    w = A.product(A.antipode_of(A.alpha), A.pivotal_element)
    m = _flattened([U.act(w).transpose()])
    return Morphism(tensor_module(U, dual_module(U)), trivial_module(A), m)


def coevaluation_right(U: AModule) -> Morphism:
    """1 -> U* (x) U, 1 -> sum w_i* (x) (u^-1 v S(beta) . w_i)."""
    A = U.alg
    _require_ribbon(A)
    w = A.product(A.pivotal_element_inv, A.antipode_of(A.beta))
    m = _flattened([U.act(w).transpose()]).transpose()
    return Morphism(trivial_module(A), tensor_module(dual_module(U), U), m)


def structure_morphisms(U: AModule, V: AModule, W: AModule) -> dict[str, Morphism]:
    """All categorical structure data for the triple (U, V, W); the duality
    and twist entries refer to U."""
    out = {
        "associator": associator(U, V, W),
        "braiding": braiding(U, V),
        "ev": evaluation(U),
        "coev": coevaluation(U),
    }
    if U.alg.ribbon is not None:
        out["ev_right"] = evaluation_right(U)
        out["coev_right"] = coevaluation_right(U)
        out["ribbon"] = ribbon_twist(U)
        out["pivotal"] = pivotal(U)
    return out


# ---------------------------------------------------------------------------
# coend machinery in module form


def iota(M: AModule) -> Morphism:
    """M* (x) M -> L, f (x) m -> (a -> f(a.m))."""
    A = M.alg
    return Morphism(tensor_module(dual_module(M), M), coadjoint_module(A),
                    _flattened(M.action))


def j_end(M: AModule) -> Morphism:
    """Adj -> M (x) M*, a -> sum (a.m_i) (x) m_i*."""
    A = M.alg
    return Morphism(adjoint_module(A), tensor_module(M, dual_module(M)),
                    _flattened(M.action).transpose())


def dual_of_adjoint_iso(A: QuasiHopfAlgebra) -> Morphism:
    """The twist-conjugation isomorphism from the dual of the adjoint
    module to the universal Hopf algebra object.

    Raises ValueError when the underlying map fails to be invertible,
    which signals corrupted input data.
    """
    f, _, _ = drinfeld_twist(A)
    e = A.antipode_inv * A.two_sided_action(ts.leg_map(f, 2, A.antipode))
    if e.rank() != A.dim:
        raise ValueError("dual-of-adjoint comparison map is singular")
    return Morphism(
        dual_module(adjoint_module(A)), coadjoint_module(A), e.transpose()
    )


def hopf_tangle(X: AModule, Y: AModule) -> Morphism:
    """The dinatural map X* (x) X -> Y (x) Y* built from coevaluation, the
    double braiding and evaluation, with all coassociator insertions."""
    A = X.alg
    dx, dy = X.dim, Y.dim
    xs = dual_module(X)
    ys = dual_module(Y)
    i_xs = ExactMatrix.identity(dx, A.order)
    i_x = ExactMatrix.identity(dx, A.order)
    i_ys = ExactMatrix.identity(dy, A.order)
    yy = tensor_module(Y, ys)

    step2 = i_xs.kron(i_x).kron(coevaluation(Y).matrix)          # add Y Y*
    assoc_in = associator(X, Y, ys).matrix
    step3 = i_xs.kron(assoc_in)
    mono = double_braiding(X, Y).matrix
    step4 = i_xs.kron(mono.kron(i_ys))
    step5 = i_xs.kron(associator_inv(X, Y, ys).matrix)
    step6 = associator(xs, X, yy).matrix
    step7 = evaluation(X).matrix.kron(ExactMatrix.identity(dy * dy, A.order))
    m = step7 * step6 * step5 * step4 * step3 * step2
    return Morphism(tensor_module(xs, X), yy, m)


# ---------------------------------------------------------------------------
# the braided Hopf structure, as morphisms


def dualised_structure(A: QuasiHopfAlgebra, maps: CoendMaps):
    """Module-level structure morphisms of the universal Hopf algebra,
    obtained from the transposed maps by transpose plus pair flip."""
    L = coadjoint_module(A)
    LL = tensor_module(L, L)
    one_mod = trivial_module(A)
    flip = flip_matrix(A.dim, A.dim, A.order)

    mu = Morphism(LL, L, maps.mu_hat.transpose() * flip)
    delta = Morphism(L, LL, flip * maps.delta_hat.transpose())
    eta = Morphism(one_mod, L, ExactMatrix(A.dim, 1, A.order,
                                           [[c] for c in maps.eta_hat]))
    eps = Morphism(L, one_mod, ExactMatrix(1, A.dim, A.order, [list(maps.eps_hat)]))
    s_l = Morphism(L, L, maps.s_hat_L.transpose())
    omega = Morphism(LL, one_mod, _flattened([ts.as_matrix(maps.omega_hat, 1).transpose()]))
    return L, mu, delta, eta, eps, s_l, omega


def verify_braided_hopf(A: QuasiHopfAlgebra) -> AxiomReport:
    """Check, as exact matrix identities in the module category, that the
    dualised structure maps make the universal Hopf algebra object a Hopf
    algebra with a self-pairing whose product/coproduct and unit/counit
    are mutually adjoint, and whose antipode squares to the twist.

    On an input that fails ``validate`` the structure maps may not exist
    (a Drinfeld element or twist that is not invertible); when building
    them raises ``ValueError`` or ``ZeroDivisionError``, the failing
    ``validate`` report is returned instead, each failure located.  The
    error is raised again if ``validate`` passes."""
    try:
        L, mu, delta, eta, eps, s_l, omega = dualised_structure(A, coend_maps(A))
    except (ValueError, ZeroDivisionError):
        rep = validate(A)
        if rep.ok:
            raise
        return rep
    d = L.dim
    order = A.order
    rep = AxiomReport()

    i_l = ExactMatrix.identity(d, order)
    i_ll = ExactMatrix.identity(d * d, order)

    for name, mor in (("product", mu), ("coproduct", delta), ("unit", eta),
                      ("counit", eps), ("antipode", s_l), ("pairing", omega)):
        ok, w = mor.is_intertwiner()
        rep.add(f"module_morphism_{name}", ok, w)

    al = element_action(A.phi, (L, L, L))

    rep.compare("associativity",
                (mu.matrix * i_l.kron(mu.matrix), mu.matrix * mu.matrix.kron(i_l) * al))
    rep.compare("unitality", (mu.matrix * eta.matrix.kron(i_l), i_l),
                (mu.matrix * i_l.kron(eta.matrix), i_l))
    rep.compare("coassociativity", (delta.matrix.kron(i_l) * delta.matrix,
                                    al * i_l.kron(delta.matrix) * delta.matrix))
    rep.compare("counitality", (eps.matrix.kron(i_l) * delta.matrix, i_l),
                (i_l.kron(eps.matrix) * delta.matrix, i_l))

    # (L L)(L L) -> L((L L) L) by coherence, then the middle braiding
    al_inv = element_action(A.phi_inv, (L, L, L))
    lll = (L, L, mu.source)                                # mu.source is L (x) L
    coh_in = i_l.kron(al) * element_action(A.phi_inv, lll)
    coh_out = element_action(A.phi, lll) * i_l.kron(al_inv)
    mid = i_l.kron(_braiding_matrix(L, L)).kron(i_l)
    rhs = mu.matrix.kron(mu.matrix) * coh_out * mid * coh_in \
        * delta.matrix.kron(delta.matrix)
    rep.compare("coproduct_algebra_map", (delta.matrix * mu.matrix, rhs))
    rep.compare("unit_counit_compat",
                (delta.matrix * eta.matrix, eta.matrix.kron(eta.matrix)),
                (eps.matrix * mu.matrix, eps.matrix.kron(eps.matrix)),
                (eps.matrix * eta.matrix, ExactMatrix.identity(1, order)))

    eta_eps = eta.matrix * eps.matrix
    rep.compare("antipode_left", (mu.matrix * s_l.matrix.kron(i_l) * delta.matrix, eta_eps))
    rep.compare("antipode_right", (mu.matrix * i_l.kron(s_l.matrix) * delta.matrix, eta_eps))

    # pairing adjointness; inner pairing acts on the middle pair
    inner = i_l.kron(omega.matrix).kron(i_l)
    rep.compare("pairing_product_right",
                (omega.matrix * mu.matrix.kron(i_l),
                 omega.matrix * inner * coh_in * i_ll.kron(delta.matrix)))
    rep.compare("pairing_product_left",
                (omega.matrix * i_l.kron(mu.matrix),
                 omega.matrix * inner * coh_in * delta.matrix.kron(i_ll)))
    rep.compare("pairing_unit_right", (omega.matrix * i_l.kron(eta.matrix), eps.matrix))
    rep.compare("pairing_unit_left", (omega.matrix * eta.matrix.kron(i_l), eps.matrix))

    if A.ribbon is not None and A.ribbon_inv is not None:
        # the twist acts by ribbon_inv, and ribbon must undo it: a ribbon
        # changed without its solved inverse fails the second identity
        s2 = s_l.matrix * s_l.matrix
        rep.compare("antipode_square_is_twist", (s2, L.act(A.ribbon_inv)),
                    (s2 * L.act(A.ribbon), i_l))
    return rep
