"""Seeded benchmark inputs, written as definition files through the CLI
serialiser, together with the oracle each output is checked against.

An input is one *operation* of a pass.  Each is a dict with a ``kind``:

* ``report``: ``qhopf report ARGS --out OUT``; ``oracle`` says how the
  exit code and the output bytes are judged;
* ``braided``: ``repcat.verify_braided_hopf`` on a preset, loaded through
  ``presets.preset``; the oracle is ``.ok``.

Everything below is a function of the seed alone, so the same seed gives
the same files byte for byte.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

from qhopf import presets
from qhopf.cli import algebras_equal, parse_text, serialize
from qhopf.exactmath import ExactMatrix, Scalar
from qhopf.qha import QuasiHopfAlgebra
from qhopf.tensorspace import Tensor

# SHA-256 of the `qhopf report` bytes of each preset; these held at the
# commit that introduced the benchmark and are the byte-identity oracle.
PRESET_DIGESTS = {
    ("trivial",): "427b35d35c62a1f027b7932bfadfa70cbbfdea52b63977469629076a75429768",
    ("group_Z2_trivialR",): "95a3164b3ed3e794eefa6c32facdad544c6d85f1535e006b8efc89e984021819",
    ("double_Z2",): "f218fa0c3869703ccd06e688935a147b5d083b1a0174dc97b8e8884d0319b9e2",
    ("twisted_double_Z2",): "b5b9b2ec0b8ef98e241589d54cc650abb0ae8f342079fc78099b508894062c92",
    ("double_Z2", "--field-order", "16"):
        "ef3731756d9e9075a00824bbe3f10879695d9bb15a13e5eecad9c89b7b29d314",
    ("twisted_double_Z2", "--field-order", "16"):
        "5fa883239cd5824bc3669721afc23f0b9673d4517377f3de78b54904b15c9d44",
}

# Single-entry mutation sites of twisted_double_Z2 (dim 4) and the deltas
# drawn for them.  Every combination fails `validate`; see README.md.
MUTANT_SECTIONS = {"mult": 3, "coproduct": 3, "antipode": 2, "phi": 3, "r_matrix": 2}
MUTANT_DELTAS = (Fraction(1), Fraction(-1, 2))

GROUPS_8 = ((8,), (2, 4), (2, 2, 2))
GROUPS_12 = ((12,), (2, 6))


# ---------------------------------------------------------------------------
# builders


def _root(n: int):
    """Field order and a primitive n-th root of unity in it (Q for n <= 2)."""
    if n <= 2:
        return 1, Scalar.rational(-1 if n == 2 else 1)
    return n, Scalar.zeta(n)


def _group_hopf(dim: int, order: int, law, inverse, label) -> dict:
    """Structure maps of the group algebra of a finite group whose natural
    index i (0 = identity) is stored at basis position label[i]."""
    zero, one = Scalar.zero(order), Scalar.one(order)
    mult = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    coproduct = [Tensor.zero(dim, 2, order) for _ in range(dim)]
    antipode = ExactMatrix.zeros(dim, dim, order)
    for i in range(dim):
        for j in range(dim):
            mult[label[i]][label[j]][label[law(i, j)]] = one
        coproduct[label[i]][label[i], label[i]] = one
        antipode.data[label[inverse(i)]][label[i]] = one
    unit = [one] + [zero] * (dim - 1)
    return dict(
        dim=dim, order=order, mult=mult, counit=[one] * dim, coproduct=coproduct,
        antipode=antipode, phi=Tensor.unit(dim, 3, order),
        phi_inv=Tensor.unit(dim, 3, order), alpha=list(unit), beta=list(unit),
    )


def group_algebra(shape: tuple[int, ...], label: list[int]) -> QuasiHopfAlgebra:
    """Q[G] for G = Z/n1 x ... x Z/nr with R = 1 x 1 and ribbon 1."""
    elems = list(product(*(range(n) for n in shape)))
    index = {g: i for i, g in enumerate(elems)}

    def law(i, j):
        return index[tuple((a + b) % n for a, b, n in zip(elems[i], elems[j], shape))]

    def inverse(i):
        return index[tuple(-a % n for a, n in zip(elems[i], shape))]

    dim = len(elems)
    data = _group_hopf(dim, 1, law, inverse, label)
    return QuasiHopfAlgebra(
        **data, r_matrix=Tensor.unit(dim, 2, 1), r_inv=Tensor.unit(dim, 2, 1),
        ribbon=list(data["alpha"]),
        name="Q[" + " x ".join(f"Z/{n}" for n in shape) + "]",
    )


def double_cyclic(n: int, k: int, label: list[int]):
    """The Drinfeld double D(Z/n) over Q(zeta_n) and its n^2 simples.

    Natural index n*x + h is a^x b^h, with a a character of the dual factor
    and b the group generator; delta_g = (1/n) sum_x zeta^(-kgx) a^x,
    R = sum_g delta_g x b^g and ribbon sum_g delta_g b^(-g).
    """
    order, zeta = _root(n)
    dim = n * n

    def law(i, j):
        return n * ((i // n + j // n) % n) + (i + j) % n

    def inverse(i):
        return n * (-(i // n) % n) + (-i % n)

    data = _group_hopf(dim, order, law, inverse, label)
    inv_n = Scalar.rational(Fraction(1, n), order=order)
    r, r_inv = Tensor.zero(dim, 2, order), Tensor.zero(dim, 2, order)
    ribbon = [Scalar.zero(order)] * dim
    for g in range(n):
        for x in range(n):
            c = inv_n * zeta ** (-k * g * x % n)     # coefficient of a^x in delta_g
            r[label[n * x], label[g]] = c
            r_inv[label[n * x], label[-g % n]] = c
            ribbon[label[n * x + (-g % n)]] = c
    # ribbon_inv is not part of the file format; parsing solves for it
    alg = QuasiHopfAlgebra(
        **data, r_matrix=r, r_inv=r_inv, ribbon=ribbon, name=f"D(Z/{n}) k={k}",
    )
    simples = []
    for s in range(n):
        for t in range(n):
            acts = [None] * dim
            for i in range(dim):
                acts[label[i]] = [[zeta ** ((s * (i // n) + t * (i % n)) % n)]]
            simples.append((f"s{s}{t}", 1, acts))
    return alg, simples


def relabelling(rng: random.Random, dim: int) -> list[int]:
    """A permutation of the basis that keeps the unit at position 0."""
    rest = list(range(1, dim))
    rng.shuffle(rest)
    return [0] + rest


def twisted_mutant(rng: random.Random):
    """twisted_double_Z2 with one structure constant perturbed."""
    base = presets.preset("twisted_double_Z2")
    section = rng.choice(sorted(MUTANT_SECTIONS))
    idx = tuple(rng.randrange(base.algebra.dim) for _ in range(MUTANT_SECTIONS[section]))
    delta = rng.choice(MUTANT_DELTAS)
    alg = presets.mutate(base.algebra, (section, idx),
                         Scalar.rational(delta, order=base.algebra.order))
    return alg, base.simples, f"{section}{list(idx)} += {delta}"


def self_check() -> None:
    """The generated D(Z/2) with k = 1 must be the shipped double_Z2."""
    alg, _ = double_cyclic(2, 1, list(range(4)))
    text = presets.preset_path("double_Z2").read_text(encoding="utf-8")
    shipped, _ = parse_text(text, source="preset:double_Z2")
    if not algebras_equal(alg, shipped):
        raise RuntimeError("generated D(Z/2) differs from the shipped double_Z2")


# ---------------------------------------------------------------------------
# workloads


def _write(workdir, name: str, alg, simples=None, comment=None) -> str:
    path = workdir / f"{name}.alg"
    path.write_text(serialize(alg, simples, comment=comment), encoding="utf-8")
    return str(path)


def _report(workdir, name: str, args: list[str], oracle: dict) -> dict:
    return {"kind": "report", "name": name, "args": list(args),
            "out": str(workdir / f"{name}.json"), "oracle": oracle}


def presets_ops(rng: random.Random, workdir) -> list[dict]:
    ops = [
        _report(workdir, a[0] + (f"_o{a[-1]}" if len(a) > 1 else ""), list(a),
                {"type": "digest", "sha256": digest})
        for a, digest in PRESET_DIGESTS.items()
    ]
    for i in range(2):
        alg, simples, what = twisted_mutant(rng)
        path = _write(workdir, f"mutant{i}", alg, simples, comment=what)
        ops.append(_report(workdir, f"mutant{i}", [path], {"type": "mutant"}))
    ops += [{"kind": "braided", "name": f"braided_{p}", "preset": p}
            for p in presets.PRESET_NAMES]
    return ops


def group_ladder_ops(rng: random.Random, workdir) -> list[dict]:
    ops = []
    for shapes in (GROUPS_8, GROUPS_12):
        shape = rng.choice(shapes)
        dim = math.prod(shape)
        alg = group_algebra(shape, relabelling(rng, dim))
        name = "Q_" + "x".join(f"Z{n}" for n in shape)
        path = _write(workdir, name, alg, comment=alg.name)
        ops.append(_report(workdir, name, [path], {"type": "group", "order": dim}))
    return ops


def double_z3_ops(rng: random.Random, workdir) -> list[dict]:
    k = rng.choice((1, 2))
    alg, simples = double_cyclic(3, k, relabelling(rng, 9))
    name = f"D_Z3_k{k}"
    path = _write(workdir, name, alg, simples, comment=alg.name)
    return [_report(workdir, name, [path],
                    {"type": "double", "n": 3, "lambda": "1/3"})]


WORKLOADS = {
    "presets": presets_ops,
    "group_ladder": group_ladder_ops,
    "double_Z3": double_z3_ops,
}


def make_ops(workload: str, seed: int, workdir) -> list[dict]:
    """Write the workload's definition files and return its operations."""
    self_check()
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), workdir)
