"""Quasi-triangular ribbon quasi-Hopf algebra data and its axiom checker.

The algebra is given by structure constants over an exact cyclotomic
field: multiplication table, counit, coproduct, antipode matrix, the
coassociator and its inverse, evaluation/coevaluation elements, the
R-matrix and its inverse, and optional ribbon data.

The product and the coproduct are stored as 3-leg Tensors, as phi and R
are.  The views derived from them and from the other structure constants
are ``functools.cached_property`` values, built on first use, and each
one is the only builder of its element: every module that needs one
reads the view.  Besides the tables and matrices of the product and the
coproduct, they are the conjugation action and its transpose, the
coadjoint action, the adjoint action, the monodromy and its coassociator
conjugate phi^-1 M_12 phi, the coassociator split by the coproduct and
its inverse, q~ = S(phi_1) alpha phi_2 (x) phi_3, x_d and its double
coproduct, the Drinfeld elements, the pivotal element v^-1 u and its
inverse, and the Drinfeld twist.  The monodromy, the checked Drinfeld
elements and the twist are read through the module functions
``monodromy``, ``drinfeld_element`` and ``drinfeld_twist``.
:class:`QuasiHopfAlgebra` says what each view is.

Each family of matrices is built in one pass.  ``left_mult`` and
``right_mult`` write every ``(k, c)`` of ``mult_table`` straight into its
row and column.  The conjugation and adjoint actions of all basis elements
come from one helper, ``_coproduct_actions``: the slot (b, S(b'), b''), or
(b, b', S(b'')), times the slot (a, e_a) is one ``merge_legs`` call giving
(b, t_1 e_a t_2, a), which is split by b into the dim matrices.

``product`` multiplies two elements through ``mult_table`` and builds no
matrix, and an element that multiplies a leg of a tensor (alpha, beta,
u~) enters ``tensorspace.merge_legs`` as a 1-leg factor.  ``lmult_of``
and ``rmult_of`` build the matrix of x -> v x or x -> x v by
``kron_combination``, only where that matrix is the result or the check:
the Drinfeld element's S^2 identity, eta_hat, T_hat and the oracle routes
(``validate`` and the Hopf short forms of ``fusion``).

The Drinfeld twist's inverse is certified, not solved for.
``_twist_inverse`` builds it in closed form (Drinfeld, "Quasi-Hopf
algebras", Leningrad Math. J. 1, 1990, in this engine's leg conventions):
f^-1 = Delta(S(x_1) alpha x_2) delta (S x S)(Delta^op(x_3)) with x = phi,
delta = B_1 beta S(B_4) (x) B_2 beta S(B_3) and
B = (id x id x Delta)(phi) (1 x phi^-1).  One product f f^-1 = 1 x 1
certifies it, since a one-sided inverse in a finite-dimensional algebra is
two-sided; only when that check fails does ``invert_element`` solve the
dim^2 x dim^2 system, which also raises the error of a singular f.

``validate`` checks each defining identity as one tensor equation: the
basis elements it quantifies over are slots (``tensorspace.identity``),
whose index legs come first, and a failure is located at the first
differing multi-index, which starts with the failing basis tuple; a
check of several identities also records which of them failed.  The
Drinfeld element's own consistency checks name their first failing index
too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .exactmath import (
    DivisionByZero,
    ExactMatrix,
    Scalar,
    basis_vector,
    collect_products,
    dot,
    kron_combination,
    stack_rows,
)
from . import tensorspace as ts
from .tensorspace import Tensor


@dataclass
class QuasiHopfAlgebra:
    """Structure constants of a quasi-triangular quasi-Hopf algebra.

    Basis convention: e_0 is the unit.  ``mult`` is a 3-leg Tensor whose
    entry (i, j, k) is the coefficient of e_k in e_i e_j, and
    ``coproduct`` one whose entry (i, j, k) is the coefficient of
    e_j x e_k in Delta(e_i); they are the only stored forms of the product
    and the coproduct.  ``antipode`` has the image of e_i in column i.

    Derived views, each built once on first use and cached:

    * ``mult_table``: the ``(k, c)`` pairs of the entries (i, j, k) of
      ``mult``, at [i][j], the form the tensorspace products take;
    * ``left_mult`` / ``right_mult``: the matrices of x -> e_i x and
      x -> x e_i, both written from ``mult_table`` by ``_mult_matrices``,
      each (k, c) of table entry (i, j) into row k, column j of matrix i;
    * ``commutators``: the maps x -> e_i x - x e_i stacked, so x is
      central exactly when ``commutators`` sends it to zero;
    * ``cop_table``: the ``((j, k), c)`` pairs of the entries (i, j, k)
      of ``coproduct``, at [i];
    * ``antipode_inv``: the inverse of ``antipode``;
    * ``conjugation_action``: the matrices of x -> sum S(b') x b'' on A,
      and ``coadjoint_action``: their transposes, the action
      (b.f)(x) = f(sum S(b') x b'') on A* that underlies the universal
      Hopf algebra; ``adjoint_action``: b.x = sum b' x S(b'') on A; the
      conjugation and adjoint actions of every b are built together by
      ``_coproduct_actions``, one ``merge_legs`` call each;
    * ``monodromy_core``: phi^-1 M_12 phi for the monodromy M; the coend
      elements w and X_q, the tangle route of the monodromy matrix and the
      internal characters all start from it;
    * ``phi_split``: B = (id x id x Delta)(phi) (1 x phi^-1), behind the
      twist's inverse and the coend product and coproduct; and
      ``phi_split_inv``: its inverse (1 x phi) (id x id x Delta)(phi^-1),
      behind the twist's gamma and the class-function characters;
    * ``q_tilde``: S(phi_1) alpha phi_2 (x) phi_3, behind the twist's
      inverse and the monodromy matrix;
    * ``x_d``: phi_1 (x) phi_2 beta S(phi_3), and ``x_d_coproduct``: its
      image under Delta x Delta, behind the twist and the copairing;
    * ``_drinfeld_raw``: the triple (u, u~, u^-1) before any consistency
      check (u^-1 is None without ribbon data), with the core S(x_d)
      built once for u and u~; ``validate`` reads it, so
      a failed identity is reported rather than raised;
    * ``pivotal_element``: g = v^-1 u, and ``pivotal_element_inv``:
      u^-1 v; both need ribbon data, which their callers check;
    * the module functions ``monodromy``, ``drinfeld_element`` and
      ``drinfeld_twist`` read the cached ``_monodromy``, ``_drinfeld``
      (``_drinfeld_raw`` once its checks pass, else ``ValueError``) and
      ``_twist`` (f^-1 in certified closed form, solved only as a
      fallback).

    The caches assume the structure constants are not edited after a view
    has been read; ``presets.mutate`` returns a fresh, uncached instance.
    """

    dim: int
    order: int
    mult: Tensor
    counit: list[Scalar]
    coproduct: Tensor
    antipode: ExactMatrix
    phi: Tensor
    phi_inv: Tensor
    alpha: list[Scalar]
    beta: list[Scalar]
    r_matrix: Tensor
    r_inv: Tensor
    ribbon: list[Scalar] | None = None
    ribbon_inv: list[Scalar] | None = None
    name: str = ""
    notes: list[str] = field(default_factory=list)

    def __post_init__(self):
        # perfbench/inputs.py passes the product as a dense dim^3 list and the
        # coproduct as one 2-leg Tensor per basis element
        if isinstance(self.mult, list):
            self.mult = Tensor.from_entries(self.dim, 3, self.order, (
                ((i, j, k), c) for i, row in enumerate(self.mult)
                for j, ij in enumerate(row) for k, c in enumerate(ij) if c.num))
        if isinstance(self.coproduct, list):
            self.coproduct = Tensor.from_entries(self.dim, 3, self.order, (
                ((i, *idx), c) for i, t in enumerate(self.coproduct)
                for idx, c in t.entries.items()))

    # -- derived views ----------------------------------------------------

    @cached_property
    def mult_table(self) -> ts.MultTable:
        table: ts.MultTable = [[[] for _ in range(self.dim)] for _ in range(self.dim)]
        for (i, j, k), c in self.mult.nonzero():
            table[i][j].append((k, c))
        return table

    @cached_property
    def cop_table(self) -> ts.CopTable:
        table: ts.CopTable = [[] for _ in range(self.dim)]
        for (i, j, k), c in self.coproduct.nonzero():
            table[i].append(((j, k), c))
        return table

    def _mult_matrices(self, table) -> list[ExactMatrix]:
        # matrix i has column j equal to table[i][j]: each (k, c) there is
        # written into row k, column j
        mats = []
        for row in table:
            data: list[dict[int, Scalar]] = [{} for _ in range(self.dim)]
            for j, terms in enumerate(row):
                for k, c in terms:
                    data[k][j] = c
            mats.append(ExactMatrix._of(self.dim, self.dim, self.order, data))
        return mats

    @cached_property
    def left_mult(self) -> list[ExactMatrix]:
        return self._mult_matrices(self.mult_table)

    @cached_property
    def right_mult(self) -> list[ExactMatrix]:
        return self._mult_matrices(zip(*self.mult_table))

    @cached_property
    def commutators(self) -> ExactMatrix:
        return stack_rows([l - r for l, r in zip(self.left_mult, self.right_mult)])

    @cached_property
    def antipode_inv(self) -> ExactMatrix:
        return self.antipode.inverse()

    def _coproduct_actions(self, leg: int) -> list[ExactMatrix]:
        # matrix b is x -> sum t_1 x t_2 for t = Delta(e_b) with S on the
        # given leg of the coproduct: the slot (b, t_1, t_2) and the slot
        # (a, e_a) give (b, t_1 e_a t_2, a) in one merge_legs, split by b
        slot = ts.identity(self.dim, self.order)
        t = ts.leg_map(ts.coproduct_leg(slot, 2, self.cop_table), leg + 1, self.antipode)
        acted = ts.merge_legs((t, slot), ((1,), (2, 5, 3), (4,)), self.mult_table)
        data: list[list[dict[int, Scalar]]] = [[{} for _ in range(self.dim)]
                                               for _ in range(self.dim)]
        for (b, k, a), c in acted.entries.items():
            data[b][k][a] = c
        return [ExactMatrix._of(self.dim, self.dim, acted.order, rows) for rows in data]

    @cached_property
    def conjugation_action(self) -> list[ExactMatrix]:
        return self._coproduct_actions(1)

    @cached_property
    def coadjoint_action(self) -> list[ExactMatrix]:
        return [m.transpose() for m in self.conjugation_action]

    @cached_property
    def adjoint_action(self) -> list[ExactMatrix]:
        return self._coproduct_actions(2)

    @cached_property
    def _monodromy(self) -> Tensor:
        return ts.mul(ts.permute(self.r_matrix, (2, 1)), self.r_matrix, self.mult_table)

    @cached_property
    def monodromy_core(self) -> Tensor:
        return ts.mul_chain([self.phi_inv, ts.embed(self._monodromy, 3, (1, 2)), self.phi],
                            self.mult_table)

    @cached_property
    def phi_split(self) -> Tensor:
        return ts.mul(ts.coproduct_leg(self.phi, 3, self.cop_table),
                      ts.embed(self.phi_inv, 4, (2, 3, 4)), self.mult_table)

    @cached_property
    def phi_split_inv(self) -> Tensor:
        return ts.mul(ts.embed(self.phi, 4, (2, 3, 4)),
                      ts.coproduct_leg(self.phi_inv, 3, self.cop_table), self.mult_table)

    @cached_property
    def q_tilde(self) -> Tensor:
        alpha = Tensor.from_vector(self.alpha, self.order)
        return ts.merge_legs((ts.leg_map(self.phi, 1, self.antipode), alpha),
                             ((1, 4, 2), (3,)), self.mult_table)

    @cached_property
    def x_d(self) -> Tensor:
        beta = Tensor.from_vector(self.beta, self.order)
        return ts.merge_legs((ts.leg_map(self.phi, 3, self.antipode), beta),
                             ((1,), (2, 4, 3)), self.mult_table)

    @cached_property
    def x_d_coproduct(self) -> Tensor:
        return ts.coproduct_leg(ts.coproduct_leg(self.x_d, 1, self.cop_table), 3, self.cop_table)

    @cached_property
    def pivotal_element(self) -> list[Scalar]:
        return self.product(self.ribbon_inv, self._drinfeld[0])

    @cached_property
    def pivotal_element_inv(self) -> list[Scalar]:
        return self.product(self._drinfeld[2], self.ribbon)

    @cached_property
    def _drinfeld_raw(self) -> tuple:
        # (phi_1, S(phi_2 beta S(phi_3))), shared by u and u~
        core = ts.leg_map(self.x_d, 2, self.antipode)
        u, u_tilde = (_drinfeld_u_from(self, core, r) for r in (self.r_matrix, self.r_inv))
        u_inv = self.antipode_inv.apply(u_tilde) if self.ribbon is not None else None
        return u, u_tilde, u_inv

    @cached_property
    def _drinfeld(self) -> tuple:
        u, u_tilde, u_inv = self._drinfeld_raw
        if u_inv is not None:
            ut, uit = (Tensor.from_vector(x, self.order) for x in (u, u_inv))
            unit = Tensor.unit(self.dim, 1, self.order)
            if w := (first_difference(ts.mul(ut, uit, self.mult_table), unit)
                     or first_difference(ts.mul(uit, ut, self.mult_table), unit)):
                raise ValueError(f"drinfeld element is not invertible against S^-1(u~) at {w}")
            if w := first_difference(self.antipode * self.antipode,
                                     self.lmult_of(u) * self.rmult_of(u_inv)):
                raise ValueError(f"S^2 is not conjugation by the drinfeld element at {w}")
        return u, u_tilde, u_inv

    @cached_property
    def _twist(self) -> tuple:
        """(f, f^-1, gamma): f^-1 is the closed form ``_twist_inverse``
        when f f^-1 = 1 x 1, else the solve of ``invert_element``."""
        mt = self.mult_table
        t = ts.leg_map(ts.leg_map(self.phi_split_inv, 1, self.antipode), 2, self.antipode)
        alpha = Tensor.from_vector(self.alpha, self.order)
        gamma = ts.merge_legs((t, alpha, alpha), ((2, 5, 3), (1, 6, 4)), mt)

        c = ts.permute(self.x_d_coproduct, (2, 1, 3, 4))
        c = ts.leg_map(ts.leg_map(c, 1, self.antipode), 2, self.antipode)
        f = ts.merge_legs((c, gamma), ((1, 5, 3), (2, 6, 4)), mt)

        # a one-sided inverse in a finite-dimensional algebra is two-sided
        f_inv = _twist_inverse(self)
        if ts.mul(f, f_inv, mt) != Tensor.unit(self.dim, 2, self.order):
            f_inv = self.invert_element(f)
            if f_inv is None:
                raise DivisionByZero("drinfeld twist is not invertible")
        return f, f_inv, gamma

    # -- element helpers ---------------------------------------------------

    def unit(self) -> list[Scalar]:
        return basis_vector(self.dim, 0, self.order)

    def lmult_of(self, v: list[Scalar]) -> ExactMatrix:
        """Matrix of x -> v x."""
        return kron_combination((((i,), c) for i, c in enumerate(v)), [self.left_mult])

    def rmult_of(self, v: list[Scalar]) -> ExactMatrix:
        """Matrix of x -> x v."""
        return kron_combination((((i,), c) for i, c in enumerate(v)), [self.right_mult])

    def product(self, u: list[Scalar], v: list[Scalar]) -> list[Scalar]:
        """u v, expanded through ``mult_table``."""
        return ts.mul(Tensor.from_vector(u, self.order), Tensor.from_vector(v, self.order),
                      self.mult_table).to_vector()

    def counit_of(self, v: list[Scalar]) -> Scalar:
        return dot(v, self.counit)

    def antipode_of(self, v: list[Scalar]) -> list[Scalar]:
        return self.antipode.apply(v)

    def delta_of(self, v: list[Scalar]) -> Tensor:
        return ts.coproduct_leg(Tensor.from_vector(v, self.order), 1, self.cop_table)

    def two_sided_action(self, t: Tensor) -> ExactMatrix:
        """Matrix of x -> sum t[i, j] e_i x e_j for a 2-leg tensor t."""
        return ts.as_matrix(ts.merge_legs((t, ts.identity(self.dim, self.order)),
                                          ((1, 4, 2), (3,)), self.mult_table), 1)

    def invert_element(self, t: Tensor) -> Tensor | None:
        """Two-sided inverse of t in A^(x k) by exact linear solve."""
        # column a = (a_1, ..., a_k) is t (e_a_1 x ... x e_a_k); slot m
        # gives legs k + 2m - 1 (a_m) and k + 2m (e_a_m) of the product
        k, ms = t.legs, range(1, t.legs + 1)
        factors = [t] + [ts.identity(t.dim, t.order)] * k
        groups = [(m, k + 2 * m) for m in ms] + [(k + 2 * m - 1,) for m in ms]
        unit = Tensor.unit(t.dim, k, t.order)
        x = ts.as_matrix(ts.merge_legs(factors, groups, self.mult_table), k).solve(unit.coeffs)
        if x is None:
            return None
        inv = Tensor(t.dim, t.legs, t.order, x)
        if ts.mul(inv, t, self.mult_table) != unit:
            return None
        return inv


# ---------------------------------------------------------------------------
# axiom report


@dataclass
class CheckResult:
    name: str
    ok: bool
    witness: tuple | None = None
    identity: int | None = None      # the failing pair of a check of several

    def __str__(self) -> str:
        """``name@witness``, or ``name[k]@witness`` when the k-th identity
        of a check of several failed."""
        pair = "" if self.identity is None else f"[{self.identity}]"
        return f"{self.name}{pair}@{self.witness}"


class AxiomReport:
    """Ordered pass/fail record of every axiom check."""

    def __init__(self):
        self.results: list[CheckResult] = []

    def add(self, name: str, ok: bool, witness: tuple | None = None,
            identity: int | None = None):
        if ok:
            witness = identity = None
        self.results.append(CheckResult(name, ok, witness, identity))

    def compare(self, name: str, *pairs) -> None:
        """Record the identity lhs == rhs for each (lhs, rhs) pair; a failure
        is located at the first difference of the first unequal pair, and
        names that pair's position when there are several."""
        k = next((k for k, (a, b) in enumerate(pairs) if a != b), None)
        if k is None:
            self.add(name, True)
        else:
            self.add(name, False, first_difference(*pairs[k]), k if len(pairs) > 1 else None)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.ok]

    def __getitem__(self, name: str) -> CheckResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {
                    "name": r.name,
                    "ok": r.ok,
                    "witness": list(r.witness) if r.witness is not None else None,
                }
                for r in self.results
            ],
        }

    def __repr__(self) -> str:
        bad = self.failures()
        if not bad:
            return f"AxiomReport(ok, {len(self.results)} checks)"
        return "AxiomReport(FAIL: " + ", ".join(map(str, bad)) + ")"


# ---------------------------------------------------------------------------
# validation


def first_difference(a, b) -> tuple | None:
    """First index, in row-major order, where two Tensors, two ExactMatrix
    of one shape or two vectors of one length differ, else None: a
    multi-index, a (row, col) pair or a 1-tuple."""
    x, y = _stored(a), _stored(b)
    return min((k for k in x.keys() | y.keys() if x.get(k) != y.get(k)), default=None)


def _stored(x) -> dict:
    # the nonzero entries, keyed by index tuple
    if isinstance(x, Tensor):
        return x.entries
    if isinstance(x, ExactMatrix):
        return dict(x.nonzero())
    return {(i,): c for i, c in enumerate(x) if not c.is_zero()}


def validate(A: QuasiHopfAlgebra) -> AxiomReport:
    """Run every defining identity as one exact tensor equation.

    An identity in basis elements is checked on every basis tuple at once.
    Each basis argument is a slot (``tensorspace.identity``) whose index leg
    is a ``merge_legs`` group of its own and is never multiplied;
    associativity reads its two sides straight from ``mult_table``.  The
    index legs come first, so a failure is located at the first differing
    multi-index, which starts with the failing basis tuple.
    """
    rep = AxiomReport()
    dim, order = A.dim, A.order
    mt, cop, eps, S = A.mult_table, A.cop_table, A.counit, A.antipode
    one = Scalar.one(order)
    unit1 = Tensor.unit(dim, 1, order)
    unit2 = Tensor.unit(dim, 2, order)
    unit3 = Tensor.unit(dim, 3, order)
    eps_t = Tensor.from_vector(eps, order)

    slot = ts.identity(dim, order)                             # (a, e_a)
    prod = ts.merge_legs((slot, slot), ((1,), (3,), (2, 4)), mt)  # (a, b, e_a e_b)
    cop_slot = ts.coproduct_leg(slot, 2, cop)                  # (a, Delta(e_a))
    s_slot = ts.leg_map(slot, 2, S)                            # (a, S(e_a))

    rep.compare("unit_element", (ts.merge_legs((unit1, slot), ((2,), (1, 3)), mt), slot),
                (ts.merge_legs((unit1, slot), ((2,), (3, 1)), mt), slot))

    # (e_i e_j) e_k = e_i (e_j e_k), straight from the table
    rep.compare("associativity", (
        Tensor._of(dim, 4, order, collect_products((
            ((i, j, k, n), c, d) for i, row in enumerate(mt)
            for j, ij in enumerate(row) for m, c in ij
            for k, mk in enumerate(mt[m]) for n, d in mk), order)),
        Tensor._of(dim, 4, order, collect_products((
            ((i, j, k, n), c, d) for j, row in enumerate(mt)
            for k, jk in enumerate(row) for m, c in jk
            for i in range(dim) for n, d in mt[i][m]), order))))

    rep.compare("counit_algebra_map", (eps[:1], [one]),
                (ts.counit_leg(prod, 3, eps), ts.tensor_product(eps_t, eps_t)))
    rep.compare("coproduct_algebra_map", (ts.coproduct_leg(unit1, 1, cop), unit2),
                (ts.coproduct_leg(prod, 3, cop),
                 ts.merge_legs((cop_slot, cop_slot), ((1,), (4,), (2, 5), (3, 6)), mt)))
    rep.compare("counitality", (ts.counit_leg(cop_slot, 2, eps), slot),
                (ts.counit_leg(cop_slot, 3, eps), slot))
    rep.compare("quasi_coassociativity", (
        ts.merge_legs((ts.coproduct_leg(cop_slot, 2, cop), A.phi),
                      ((1,), (2, 5), (3, 6), (4, 7)), mt),
        ts.merge_legs((A.phi, ts.coproduct_leg(cop_slot, 3, cop)),
                      ((4,), (1, 5), (2, 6), (3, 7)), mt)))

    rep.compare("coassociator_counital", (ts.counit_leg(A.phi, 2, eps), unit2))

    lhs3 = ts.mul(ts.coproduct_leg(A.phi, 1, cop), ts.coproduct_leg(A.phi, 3, cop), mt)
    rhs3 = ts.mul_chain(
        [ts.embed(A.phi, 4, (1, 2, 3)),
         ts.coproduct_leg(A.phi, 2, cop),
         ts.embed(A.phi, 4, (2, 3, 4))], mt)
    rep.compare("three_cocycle", (lhs3, rhs3))
    rep.compare("coassociator_invertible", (ts.mul(A.phi, A.phi_inv, mt), unit3),
                (ts.mul(A.phi_inv, A.phi, mt), unit3))

    rep.compare("antipode_anti_homomorphism", (ts.leg_map(unit1, 1, S), unit1),
                (ts.leg_map(prod, 3, S),
                 ts.merge_legs((s_slot, s_slot), ((1,), (3,), (4, 2)), mt)))

    # S(x') alpha x'' = eps(x) alpha and x' beta S(x'') = eps(x) beta
    ralpha = A.rmult_of(A.alpha)
    rbeta = A.rmult_of(A.beta)
    rep.compare("antipode_zigzag", (
        ts.merge_legs(ts.leg_map(ts.leg_map(cop_slot, 2, S), 2, ralpha), ((1,), (2, 3)), mt),
        ts.tensor_product(eps_t, Tensor.from_vector(A.alpha, order))), (
        ts.merge_legs(ts.leg_map(ts.leg_map(cop_slot, 3, S), 2, rbeta), ((1,), (2, 3)), mt),
        ts.tensor_product(eps_t, Tensor.from_vector(A.beta, order))))

    t = ts.leg_map(ts.leg_map(ts.leg_map(ts.leg_map(
        A.phi, 1, S), 1, ralpha), 2, rbeta), 3, S)
    rep.compare("coassociator_antipode_left", (ts.merge_legs(t, ((1, 2, 3),), mt), unit1))
    t = ts.leg_map(ts.leg_map(ts.leg_map(A.phi_inv, 1, rbeta), 2, S), 2, ralpha)
    rep.compare("coassociator_antipode_right", (ts.merge_legs(t, ((1, 2, 3),), mt), unit1))

    # R-matrix axioms
    rep.compare("r_matrix_intertwines_coproduct", (
        ts.merge_legs((A.r_matrix, cop_slot), ((3,), (1, 4), (2, 5)), mt),
        ts.merge_legs((cop_slot, A.r_matrix), ((1,), (3, 4), (2, 5)), mt)))

    hex1_rhs = ts.mul_chain(
        [ts.permute(A.phi_inv, (2, 3, 1)),
         ts.embed(A.r_matrix, 3, (1, 3)),
         ts.permute(A.phi, (1, 3, 2)),
         ts.embed(A.r_matrix, 3, (2, 3)),
         A.phi_inv], mt)
    rep.compare("hexagon_coproduct_left",
                (ts.coproduct_leg(A.r_matrix, 1, cop), hex1_rhs))

    hex2_rhs = ts.mul_chain(
        [ts.permute(A.phi, (3, 1, 2)),
         ts.embed(A.r_matrix, 3, (1, 3)),
         ts.permute(A.phi_inv, (2, 1, 3)),
         ts.embed(A.r_matrix, 3, (1, 2)),
         A.phi], mt)
    rep.compare("hexagon_coproduct_right",
                (ts.coproduct_leg(A.r_matrix, 2, cop), hex2_rhs))
    rep.compare("r_matrix_counit", (ts.counit_leg(A.r_matrix, 1, eps), unit1),
                (ts.counit_leg(A.r_matrix, 2, eps), unit1))
    rep.compare("r_matrix_invertible", (ts.mul(A.r_matrix, A.r_inv, mt), unit2),
                (ts.mul(A.r_inv, A.r_matrix, mt), unit2))

    rank = S.rank()
    rep.add("antipode_invertible", rank == dim, (rank,))

    # ribbon axioms
    if A.ribbon is not None:
        v = A.ribbon
        vt = Tensor.from_vector(v, order)
        if A.ribbon_inv is None:
            rep.add("ribbon_invertible", False, (0,))
        else:
            rep.compare("ribbon_invertible",
                        (ts.mul(vt, Tensor.from_vector(A.ribbon_inv, order), mt), unit1))
        rep.compare("ribbon_central", (ts.merge_legs((slot, vt), ((1,), (3, 2)), mt),
                                       ts.merge_legs((slot, vt), ((1,), (2, 3)), mt)))

        m = monodromy(A)
        rep.compare("ribbon_monodromy",
                    (ts.mul(m, A.delta_of(v), mt), ts.tensor_product(vt, vt)))
        rep.compare("ribbon_antipode_fixed", (A.antipode_of(v), v))
        if rep["antipode_invertible"].ok:
            u = Tensor.from_vector(A._drinfeld_raw[0], order)
            rep.compare("ribbon_square", (ts.mul(vt, vt, mt), ts.mul(u, ts.leg_map(u, 1, S), mt)))
        rep.add("ribbon_counit", A.counit_of(v) == one, (0,))

    return rep


# ---------------------------------------------------------------------------
# derived elements


def monodromy(A: QuasiHopfAlgebra) -> Tensor:
    """The double-braiding element: flip of R times R."""
    return A._monodromy


def _twist_inverse(A: QuasiHopfAlgebra) -> Tensor:
    """The Drinfeld twist's inverse in the closed form of the module
    docstring, uncertified."""
    mt, cop, S = A.mult_table, A.cop_table, A.antipode
    # (Delta(S(x_1) alpha x_2), S(x_3'), S(x_3'')) from q~ = (S(x_1) alpha x_2, x_3)
    t = ts.coproduct_leg(ts.coproduct_leg(A.q_tilde, 2, cop), 1, cop)
    t = ts.leg_map(ts.leg_map(t, 3, S), 4, S)
    # (B_1, B_2, S(B_3), S(B_4)) and beta, then delta
    b = ts.leg_map(ts.leg_map(A.phi_split, 3, S), 4, S)
    beta = Tensor.from_vector(A.beta, A.order)
    delta = ts.merge_legs((b, beta, beta), ((1, 5, 4), (2, 6, 3)), mt)
    return ts.merge_legs((t, delta), ((1, 5, 4), (2, 6, 3)), mt)


def _drinfeld_u_from(A: QuasiHopfAlgebra, core: Tensor, r: Tensor) -> list[Scalar]:
    # the core comes from _drinfeld_raw; the product is core_2 S(r_2) alpha r_1 core_1
    alpha = Tensor.from_vector(A.alpha, A.order)
    return ts.merge_legs((core, ts.leg_map(r, 2, A.antipode), alpha),
                         ((2, 4, 5, 3, 1),), A.mult_table).to_vector()


def drinfeld_element(A: QuasiHopfAlgebra):
    """The element implementing the square of the antipode by conjugation,
    its inverse-braiding variant, and (with ribbon data) its inverse.

    Raises ValueError when the computed inverse fails u u^-1 = 1 or the
    conjugation identity, which signals corrupted input data.
    """
    return A._drinfeld


def drinfeld_twist(A: QuasiHopfAlgebra):
    """The invertible 2-leg element conjugating the coproduct of S(a) into
    (S x S) of the opposite coproduct, together with its gamma factor.

    f_inv is the closed form of the module docstring, certified by the one
    product f f_inv = 1 x 1; when that check fails it is solved for
    instead.  Returns (f, f_inv, gamma); raises DivisionByZero if f is
    singular.
    """
    return A._twist
