"""`twisted_double_Z2` in a rebased basis: the first input whose basis
products have several terms.

The new basis is e'_0 = e_0 and e'_j = e_1 + ... + e_j, the columns of the
integer unitriangular matrix P.  Coordinates change by P^-1, so an element
(phi, R, alpha, ...) is mapped by P^-1 on every leg; a structure map is
fed its inputs through P^T and its outputs through P^-1.  In the new basis
9 of the 16 products e'_i e'_j have more than one term, so the sums of
several structure constants that no shipped input reaches run on a real
algebra.  The rebased algebra is the same algebra: its axioms, verdicts,
centre, projective constant and fusion table by label are the preset's.
"""

import hashlib
import json
import pathlib

from click.testing import CliRunner

from qhopf import tensorspace as ts
from qhopf.cli import main, parse_text, serialize
from qhopf.exactmath import ExactMatrix, Scalar
from qhopf.presets import preset
from qhopf.qha import QuasiHopfAlgebra, validate
from qhopf.repcat import verify_braided_hopf
from qhopf.tensorspace import Tensor

PRESET = "twisted_double_Z2"

# SHA-256 of the report bytes of rebased.alg, run from the file's directory
REBASED_DIGEST = "f36945f968991451afea85a8bfd25899ed03e9e72db9eb0a673e5630fa56cd32"


def rebased_text() -> str:
    """The definition file of the preset in the basis e'_j = e_1 + ... + e_j."""
    p = preset(PRESET)
    A, n, order = p.algebra, p.algebra.dim, p.algebra.order
    one, zero = Scalar.one(order), Scalar.zero(order)
    basis = ExactMatrix(n, n, order, [[one if (i == j == 0 or 1 <= i <= j) else zero
                                       for j in range(n)] for i in range(n)])
    inv, inputs = basis.inverse(), basis.transpose()

    def rebase(t: Tensor, ins: int = 0) -> Tensor:
        # the first ins legs are inputs, mapped by P^T; the others by P^-1
        for leg in range(1, t.legs + 1):
            t = ts.leg_map(t, leg, inputs if leg <= ins else inv)
        return t

    mult = rebase(Tensor(n, 3, order, [c for row in A.mult for ij in row for c in ij]), 2).coeffs
    cop = rebase(Tensor(n, 3, order, [c for t in A.coproduct for c in t.coeffs]), 1).coeffs
    rebased = QuasiHopfAlgebra(
        dim=n, order=order,
        mult=[[mult[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)] for i in range(n)],
        counit=inputs.apply(A.counit),
        coproduct=[Tensor(n, 2, order, cop[i * n * n:(i + 1) * n * n]) for i in range(n)],
        antipode=inv * A.antipode * basis,
        phi=rebase(A.phi), phi_inv=rebase(A.phi_inv),
        alpha=inv.apply(A.alpha), beta=inv.apply(A.beta),
        r_matrix=rebase(A.r_matrix), r_inv=rebase(A.r_inv),
        ribbon=inv.apply(A.ribbon), name=f"{PRESET} rebased")
    columns = basis.transpose().dense
    simples = [(label, m.dim, [m.act(col).dense for col in columns])
               for label, m in zip(p.simples.labels, p.simples.simples)]
    return serialize(rebased, simples, comment=rebased.name)


def test_rebased_products_have_several_terms():
    A, _ = parse_text(rebased_text())
    lengths = [len(terms) for row in A.mult_table for terms in row]
    assert sum(1 for k in lengths if k > 1) == 9


def test_rebased_algebra_passes_every_check():
    A, simples = parse_text(rebased_text())
    assert validate(A).ok, validate(A).failures()
    rep = verify_braided_hopf(A)
    assert rep.ok, rep.failures()
    assert len(rep.results) == 19
    assert len(simples.simples) == 4


def _report(tmp_path, monkeypatch, name, args):
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(main, ["report", *args, "--out", name])
    assert result.exit_code == 0, result.output
    return pathlib.Path(name).read_bytes()


def test_rebased_report_matches_the_preset(tmp_path, monkeypatch):
    (tmp_path / "rebased.alg").write_text(rebased_text(), encoding="utf-8")
    data = _report(tmp_path, monkeypatch, "rebased.json", ["rebased.alg"])
    assert hashlib.sha256(data).hexdigest() == REBASED_DIGEST
    got = json.loads(data)
    want = json.loads(_report(tmp_path, monkeypatch, "preset.json", [PRESET]))
    assert got["check"]["ok"] and want["check"]["ok"]
    assert [c["name"] for c in got["check"]["checks"]] == \
        [c["name"] for c in want["check"]["checks"]]
    verdicts = ("is_factorisable", "tests_agree", "rank_BT", "rank_D", "omega_iso_rank",
                "invariants_dim", "coinvariants_dim")
    assert {k: got["factorisability"][k] for k in verdicts} == \
        {k: want["factorisability"][k] for k in verdicts}
    assert len(got["modular"]["center_basis"]) == 4
    assert got["modular"]["lambda"] == want["modular"]["lambda"] == "1/2"

    def by_label(doc):
        return {(r["U"], r["V"], r["W"]): r["N"] for r in doc["fusion"]["table"]}

    assert got["fusion"]["labels"] == want["fusion"]["labels"]
    assert by_label(got) == by_label(want)
