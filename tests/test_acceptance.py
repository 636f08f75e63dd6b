"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Every comparison is exact; tolerance is zero throughout."""

import json
import os
import subprocess
import sys

import pytest

from qhopf.exactmath import (DivisionByZero, Scalar, basis_vector, common_eigenvectors, dot,
                             matrix_from_columns, vec_eq, zero_vector)
from qhopf import tensorspace as ts
from qhopf.qha import validate
from qhopf.coend import coend_maps, factorisability, hopf_reduced_maps
from qhopf.repcat import (
    hopf_tangle,
    iota,
    j_end,
    regular_module,
    trivial_module,
    verify_braided_hopf,
)
from qhopf.fusion import chi_central, phi_central, verlinde_fusion
from qhopf.modular import cointegral_L, integral_L
from qhopf.presets import PRESET_NAMES, mutate
from qhopf.exactmath import ExactMatrix

FACTORISABLE = ("trivial", "double_Z2", "twisted_double_Z2")
HOPF = ("trivial", "group_Z2_trivialR", "double_Z2")


def _announce(number, name, ok):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def _mutation_sample(presets):
    """Deterministic sample of single-entry mutations of nonzero
    structure constants, spread over presets and sections."""
    sample = []
    for name in PRESET_NAMES:
        alg = presets[name].algebra
        sites = []
        sites.extend(("mult", idx) for idx, _ in list(alg.mult.nonzero())[:2])
        sites.extend(("phi", idx) for idx, _ in list(alg.phi.nonzero())[:1])
        sites.extend(("r_matrix", idx) for idx, _ in list(alg.r_matrix.nonzero())[:2])
        sites.extend(("coproduct", idx) for idx, _ in list(alg.coproduct.nonzero())[:1])
        sites.append(("antipode", (0, 0)))
        sites.append(("counit", (0,)))
        if not alg.alpha[0].is_zero():
            sites.append(("alpha", (0,)))
        for site in sites:
            sample.append((name, site, mutate(alg, site, Scalar.rational(1, order=alg.order))))
    return sample


@pytest.fixture(scope="module")
def mutants(presets):
    return _mutation_sample(presets)


def test_criterion_1_axiom_soundness(presets, mutants):
    ok = all(validate(p.algebra).ok for p in presets.values())
    assert len(mutants) >= 20, f"only {len(mutants)} sampled mutations"
    for name, site, bad in mutants:
        rep = validate(bad)
        witnessed = [r for r in rep.failures() if r.witness is not None]
        if rep.ok or not witnessed:
            ok = False
            print(f"  mutation {site} of {name}: no witnessed failure")
    _announce(1, "axiom soundness with located witnesses", ok)


def test_criterion_2_hopf_reduction(presets, all_maps):
    ok = True
    for name in HOPF:
        general = all_maps[name]
        short = hopf_reduced_maps(presets[name].algebra)
        same = (
            general.mu_hat == short.mu_hat
            and general.delta_hat == short.delta_hat
            and general.eta_hat == short.eta_hat
            and general.eps_hat == short.eps_hat
            and general.s_hat_L == short.s_hat_L
            and general.omega_hat == short.omega_hat
        )
        if not same:
            ok = False
            print(f"  reduction mismatch on {name}")
    _announce(2, "Hopf reduction of the structure maps", ok)


def test_criterion_3_braided_hopf(presets, all_maps):
    required = {
        "module_morphism_product", "module_morphism_coproduct",
        "module_morphism_unit", "module_morphism_counit",
        "module_morphism_antipode", "module_morphism_pairing",
        "associativity", "unitality", "coassociativity", "counitality",
        "coproduct_algebra_map", "unit_counit_compat",
        "antipode_left", "antipode_right",
        "pairing_product_left", "pairing_product_right",
        "pairing_unit_left", "pairing_unit_right",
        "antipode_square_is_twist",
    }
    ok = True
    for name, p in presets.items():
        rep = verify_braided_hopf(p.algebra)
        names = {r.name for r in rep.results}
        if not required <= names:
            ok = False
            print(f"  {name}: missing checks {required - names}")
        if not rep.ok:
            ok = False
            print(f"  {name}: {rep.failures()}")
    _announce(3, "braided Hopf axioms of the universal Hopf algebra", ok)


def test_criterion_4_factorisability_agreement(presets, all_maps, mutants):
    expected = {
        "trivial": True,
        "group_Z2_trivialR": False,
        "double_Z2": True,
        "twisted_double_Z2": True,
    }
    ok = True
    for name, p in presets.items():
        fact = factorisability(p.algebra, all_maps[name])
        if not fact.tests_agree or fact.is_factorisable != expected[name]:
            ok = False
            print(f"  preset {name}: verdicts {fact}")
    # mutated fixtures: the engine must either reject the input loudly or
    # return exactly agreeing copairing/monodromy ranks
    computable = 0
    for name, site, bad in mutants:
        try:
            fact = factorisability(bad, coend_maps(bad))
        except (ValueError, DivisionByZero):
            continue
        computable += 1
        if fact.rank_D != fact.rank_BT:
            ok = False
            print(f"  mutant {site} of {name}: rank_D {fact.rank_D} != rank_BT {fact.rank_BT}")
    if computable == 0:
        ok = False
        print("  no mutated fixture was computable; agreement clause vacuous")
    _announce(4, "factorisability triple agreement", ok)


def test_criterion_5_hopf_tangle(presets):
    ok = True
    for name in FACTORISABLE:
        p = presets[name]
        alg = p.algebra
        from qhopf.coend import bt_monodromy_matrix

        m_bt = bt_monodromy_matrix(alg)
        qbt = ExactMatrix(
            alg.dim, alg.dim, alg.order,
            [[m_bt[pidx, j] for pidx in range(alg.dim)] for j in range(alg.dim)],
        )
        mods = [trivial_module(alg), regular_module(alg)] + list(p.simples.simples)
        for X in mods:
            for Y in mods:
                lhs = hopf_tangle(X, Y).matrix
                rhs = j_end(Y).matrix * qbt * iota(X).matrix
                if lhs != rhs:
                    ok = False
                    print(f"  {name}: tangle mismatch at ({X.label}, {Y.label})")
    _announce(5, "Hopf tangle factors through the end-valued Drinfeld map", ok)


def test_criterion_6_integral_theory(presets, all_maps):
    ok = True
    for name in FACTORISABLE:
        alg = presets[name].algebra
        maps = all_maps[name]
        both = common_eigenvectors(alg.left_mult + alg.right_mult, alg.counit + alg.counit)
        if len(both) != 1:
            ok = False
            print(f"  {name}: cointegral two-sided dim {len(both)}")
            continue
        # integral_L and cointegral_L raise their own refusals
        integral = integral_L(alg, maps)
        c = cointegral_L(alg, integral)
        if not dot(integral, c).is_one():
            ok = False
            print(f"  {name}: integral pairs to {dot(integral, c)} against the cointegral")
        for a in range(alg.dim):
            eps_beta_a = alg.counit_of(
                alg.product(alg.beta, basis_vector(alg.dim, a, alg.order)))
            expected = [eps_beta_a * x for x in c]
            for position in ("left", "right"):
                flat = zero_vector(alg.dim * alg.dim, alg.order)
                for i, ci in enumerate(c):
                    if position == "left":
                        flat[i * alg.dim + a] = ci
                    else:
                        flat[a * alg.dim + i] = ci
                if not vec_eq(maps.delta_hat.apply(flat), expected):
                    ok = False
                    print(f"  {name}: {position} cointegral condition fails at {a}")
    _announce(6, "two-sided integral and cointegral conditions", ok)


def test_criterion_7_sl2z_relations(presets, all_maps, all_modular):
    ok = True
    for name in FACTORISABLE:
        alg = presets[name].algebra
        maps = all_maps[name]
        md = all_modular[name]
        k = md.pairing_value
        ss = md.s_hat * md.s_hat
        if ss != maps.s_hat_L.inverse().scale(k):
            ok = False
            print(f"  {name}: S^2 != k S_L^-1")
        kv = alg.two_sided_action(
            ts.leg_map(alg.delta_of(alg.ribbon), 1, alg.antipode))
        if ss * ss != kv.scale(k * k):
            ok = False
            print(f"  {name}: S^4 != k^2 K(v)")
        st = md.s_hat * md.t_hat
        lhs = st * st * st
        scalar = None
        for i in range(alg.dim):
            for j in range(alg.dim):
                if not ss[i, j].is_zero():
                    scalar = lhs[i, j] / ss[i, j]
                    break
            if scalar is not None:
                break
        if scalar is None or scalar.is_zero() or lhs != ss.scale(scalar):
            ok = False
            print(f"  {name}: (S T)^3 not proportional to S^2")
        if md.lam.is_zero():
            ok = False
            print(f"  {name}: projective constant vanishes")
        # both maps land in the centre: reconstruct their images from the
        # centre coordinates and confirm centrality element by element
        for col in range(len(md.center_basis)):
            for mat in (md.s_z, md.t_z):
                image = zero_vector(alg.dim, alg.order)
                for j in range(len(md.center_basis)):
                    cj = mat[j, col]
                    if not cj.is_zero():
                        for i in range(alg.dim):
                            image[i] = image[i] + md.center_basis[j][i] * cj
                if alg.lmult_of(image) != alg.rmult_of(image):
                    ok = False
                    print(f"  {name}: image of centre basis {col} not central")
    _announce(7, "modular relations in exactly scaled form", ok)


def test_criterion_8_verlinde(presets, all_modular):
    ok = True
    for name in ("double_Z2", "twisted_double_Z2"):
        p = presets[name]
        alg = p.algebra
        # oracle cross-check runs inside verlinde_fusion
        try:
            table = verlinde_fusion(alg, p.simples)
        except Exception as e:
            ok = False
            print(f"  {name}: fusion failed: {e}")
            continue
        # Klein four-group law: unit row, self-inverses, closure via the
        # third nontrivial label
        labels = table.labels
        n = len(labels)
        for v in range(n):
            if table.table[0][v] != [1 if w == v else 0 for w in range(n)]:
                ok = False
                print(f"  {name}: unit row broken at {labels[v]}")
        for u in range(1, n):
            if table.table[u][u] != [1, 0, 0, 0]:
                ok = False
                print(f"  {name}: {labels[u]} not self-inverse")
        others = [1, 2, 3]
        for u in others:
            for v in others:
                if u != v:
                    w = ({1, 2, 3} - {u, v}).pop()
                    if table.table[u][v][w] != 1 or sum(table.table[u][v]) != 1:
                        ok = False
                        print(f"  {name}: {labels[u]} x {labels[v]} != {labels[w]}")
        md = all_modular[name]
        cmat = matrix_from_columns(md.center_basis, alg.order)
        for lbl, V in zip(p.simples.labels, p.simples.simples):
            chi = chi_central(alg, V)
            phi = phi_central(alg, V, md.cointegral)
            coords = cmat.solve(phi)
            sz = md.s_z.apply(coords)
            recon = zero_vector(alg.dim, alg.order)
            for j, cj in enumerate(sz):
                for i in range(alg.dim):
                    recon[i] = recon[i] + md.center_basis[j][i] * cj
            if not vec_eq(chi, recon):
                ok = False
                print(f"  {name}: chi != S_Z(phi) for {lbl}")
    _announce(8, "Verlinde table equals the character oracle and the group law", ok)


def test_criterion_9_determinism(tmp_path):
    outputs = []
    for seed, threads in (("0", "1"), ("12345", "4")):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        env["OMP_NUM_THREADS"] = threads
        proc = subprocess.run(
            [sys.executable, "-m", "qhopf.cli", "report", "twisted_double_Z2"],
            capture_output=True,
            env=env,
            check=True,
        )
        outputs.append(proc.stdout)
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    json.loads(outputs[0])  # well-formed
    _announce(9, "byte-identical reports across runs and environments", ok)
