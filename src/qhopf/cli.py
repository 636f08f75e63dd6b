"""Definition-file parsing, canonical serialisation and the command line.

File format (``.alg``): a header followed by sparse sections.  Lines are
``#``-commented; omitted entries are zero; basis element 0 is the unit.

    dim 4
    field 4                    # cyclotomic order m, 1 = rationals
    flags factorisable semisimple

    mult:                      # i j k = coefficient of e_k in e_i e_j
    0 0 0 = 1
    ...
    counit:                    # i = eps(e_i)
    coproduct:                 # i j k = coefficient of e_j x e_k in Delta(e_i)
    antipode:                  # i j = coefficient of e_j in S(e_i)
    phi:                       # i j k = coefficient of e_i x e_j x e_k
    phi_inv:                   # optional; solved for when omitted
    alpha:
    beta:
    R:                         # i j = coefficient of e_i x e_j
    R_inv:                     # optional; solved for when omitted
    ribbon:                    # optional
    simple NAME dim D:         # a r c = action of e_a, matrix entry (r, c)

Scalar literals are sums of products of rationals ``p/q`` and powers of
the cyclotomic generator ``z``, e.g. ``1/2*z^3 - 1``.

Exit codes: 0 success, 1 mathematically invalid input (axiom failure),
2 I/O or parse error.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import click

from .exactmath import ExactMatrix, Scalar, format_scalar
from .tensorspace import Tensor
from .qha import (
    QuasiHopfAlgebra,
    drinfeld_element,
    drinfeld_twist,
    monodromy,
    validate,
)


SCHEMA_VERSION = 1       # version of the file format and JSON payloads


class ParseError(Exception):
    def __init__(self, msg: str, source: str = "<string>", line: int | None = None,
                 col: int | None = None):
        self.msg = msg
        self.source = source
        self.line = line
        self.col = col
        where = source
        if line is not None:
            where += f":{line}"
            if col is not None:
                where += f":{col}"
        super().__init__(f"{where}: {msg}")


# ---------------------------------------------------------------------------
# scalar literals


def _tokenize_scalar(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
        elif ch == "z":
            tokens.append(("z", "z", i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r} in scalar literal", col=i)
    tokens.append(("end", None, len(text)))
    return tokens


class _ScalarParser:
    def __init__(self, text: str, order: int):
        self.tokens = _tokenize_scalar(text)
        self.pos = 0
        self.order = order

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind: str | None = None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", col=tok[2])
        self.pos += 1
        return tok

    def parse(self) -> Scalar:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing {tok[0]!r} in scalar literal", col=tok[2])
        return value

    def expr(self) -> Scalar:
        sign = 1
        tok = self.peek()
        if tok[0] in "+-":
            self.take()
            sign = -1 if tok[0] == "-" else 1
        acc = self.term()
        if sign < 0:
            acc = -acc
        while self.peek()[0] in "+-":
            op = self.take()[0]
            t = self.term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def term(self) -> Scalar:
        acc = self.factor()
        while self.peek()[0] == "*":
            self.take()
            acc = acc * self.factor()
        return acc

    def factor(self) -> Scalar:
        tok = self.peek()
        if tok[0] == "-":
            self.take()
            return -self.factor()
        if tok[0] == "(":
            self.take()
            v = self.expr()
            self.take(")")
            return v
        if tok[0] == "int":
            self.take()
            num = tok[1]
            if self.peek()[0] == "/":
                self.take()
                den = self.take("int")[1]
                if den == 0:
                    raise ParseError("zero denominator", col=tok[2])
                return Scalar.rational(Fraction(num, den), order=self.order)
            return Scalar.rational(num, order=self.order)
        if tok[0] == "z":
            self.take()
            power = 1
            if self.peek()[0] == "^":
                self.take()
                power = self.take("int")[1]
            return Scalar.zeta(self.order) ** power
        raise ParseError(f"unexpected {tok[0]!r} in scalar literal", col=tok[2])


def parse_scalar(text: str, order: int) -> Scalar:
    """Parse a scalar literal in Q(zeta_order); canonical and exact."""
    return _ScalarParser(text, order).parse()


# ---------------------------------------------------------------------------
# algebra files

_SECTION_ARITY = {
    "mult": 3,
    "counit": 1,
    "coproduct": 3,
    "antipode": 2,
    "phi": 3,
    "phi_inv": 3,
    "alpha": 1,
    "beta": 1,
    "R": 2,
    "R_inv": 2,
    "ribbon": 1,
}
_MANDATORY = ("mult", "counit", "coproduct", "antipode", "phi", "alpha", "beta", "R")


def parse_text(text: str, source: str = "<string>", field_order: int | None = None):
    """Parse a definition file into an algebra and its optional simple
    modules.  ``field_order`` embeds everything into a larger cyclotomic
    field (must be a multiple of the declared order)."""
    from .repcat import module_from_action
    from .fusion import SimpleSet

    dim: int | None = None
    order: int | None = None
    flags: list[str] = []
    sections: dict[str, list[tuple[tuple[int, ...], Scalar]]] = {}
    simples: list[dict] = []
    current: str | None = None
    current_simple: dict | None = None

    def err(msg, line_no, col=None):
        raise ParseError(msg, source, line_no, col)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split()
        if dim is None or order is None:
            if head[0] == "dim" and len(head) == 2 and head[1].isdigit():
                dim = int(head[1])
                continue
            if head[0] == "field" and len(head) == 2 and head[1].isdigit():
                order = int(head[1])
                if order == 0:
                    err("field order must be positive, got 0", line_no)
                continue
        if head[0] == "flags":
            flags = head[1:]
            continue
        if line.endswith(":"):
            name = line[:-1].strip()
            if name.split() and name.split()[0] == "simple":
                parts = name.split()
                if len(parts) != 4 or parts[2] != "dim" or not parts[3].isdigit():
                    err(f"malformed simple header {line!r} "
                        "(expected 'simple NAME dim D:')", line_no)
                current_simple = {"label": parts[1], "dim": int(parts[3]), "entries": []}
                simples.append(current_simple)
                current = "simple"
                continue
            if name not in _SECTION_ARITY:
                err(f"unknown section {name!r}", line_no)
            if dim is None or order is None:
                err("sections must come after the 'dim' and 'field' header", line_no)
            current = name
            sections.setdefault(name, [])
            current_simple = None
            continue
        if "=" in line:
            if current is None:
                err("entry before any section header", line_no)
            lhs, rhs = line.split("=", 1)
            idx_parts = lhs.split()
            arity = 3 if current == "simple" else _SECTION_ARITY[current]
            if len(idx_parts) != arity:
                err(f"expected {arity} indices in section {current!r}, "
                    f"got {len(idx_parts)}", line_no)
            try:
                idx = tuple(int(p) for p in idx_parts)
            except ValueError:
                err(f"non-integer index in {lhs.strip()!r}", line_no)
            try:
                value = parse_scalar(rhs.strip(), order)
            except ParseError as e:
                err(f"bad scalar literal {rhs.strip()!r}: {e.msg}", line_no, e.col)
            if current == "simple":
                d = current_simple["dim"]
                a, r, c = idx
                if not (0 <= a < dim and 0 <= r < d and 0 <= c < d):
                    err(f"index {idx} out of range for simple of dim {d}", line_no)
                current_simple["entries"].append((idx, value))
            else:
                for i in idx:
                    if not 0 <= i < dim:
                        err(f"index {i} out of range 0..{dim - 1}", line_no)
                sections[current].append((idx, value))
            continue
        err(f"cannot parse line {line!r}", line_no)

    if dim is None:
        raise ParseError("missing 'dim' header", source)
    if order is None:
        raise ParseError("missing 'field' header", source)
    for name in _MANDATORY:
        if not sections.get(name):
            raise ParseError(f"missing or empty mandatory section {name!r}", source)

    zero = Scalar.zero(order)

    def vector_of(name: str) -> list[Scalar]:
        v = [zero] * dim
        for (i,), c in sections.get(name, []):
            v[i] = v[i] + c
        return v

    def tensor_of(name: str, legs: int) -> Tensor | None:
        if name not in sections:
            return None
        t = Tensor.zero(dim, legs, order)
        for idx, c in sections[name]:
            t[idx] = t[idx] + c
        return t

    mult = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), c in sections["mult"]:
        mult[i][j][k] = mult[i][j][k] + c

    coproduct = [Tensor.zero(dim, 2, order) for _ in range(dim)]
    for (i, j, k), c in sections["coproduct"]:
        coproduct[i][j, k] = coproduct[i][j, k] + c

    antipode = ExactMatrix.from_entries(
        dim, dim, order, (((j, i), c) for (i, j), c in sections["antipode"]))

    alg = QuasiHopfAlgebra(
        dim=dim,
        order=order,
        mult=mult,
        counit=vector_of("counit"),
        coproduct=coproduct,
        antipode=antipode,
        phi=tensor_of("phi", 3),
        phi_inv=tensor_of("phi_inv", 3) or Tensor.zero(dim, 3, order),
        alpha=vector_of("alpha"),
        beta=vector_of("beta"),
        r_matrix=tensor_of("R", 2),
        r_inv=tensor_of("R_inv", 2) or Tensor.zero(dim, 2, order),
        ribbon=vector_of("ribbon") if "ribbon" in sections else None,
        ribbon_inv=None,
        name=source,
    )

    # solve for the inverses that were not given; a failed solve leaves a
    # zero placeholder so that validate() reports the problem
    if "phi_inv" not in sections:
        inv = alg.invert_element(alg.phi)
        alg.phi_inv = inv if inv is not None else Tensor.zero(dim, 3, order)
        alg.notes.append("phi_inv solved from phi" if inv is not None
                         else "phi is not invertible")
    if "R_inv" not in sections:
        inv = alg.invert_element(alg.r_matrix)
        alg.r_inv = inv if inv is not None else Tensor.zero(dim, 2, order)
        alg.notes.append("R_inv solved from R" if inv is not None
                         else "R is not invertible")
    if alg.ribbon is not None:
        inv = alg.invert_element(Tensor.from_vector(alg.ribbon, order))
        if inv is not None:
            alg.ribbon_inv = inv.to_vector()
            alg.notes.append("ribbon_inv solved from ribbon")
        else:
            alg.ribbon_inv = [zero] * dim
            alg.notes.append("ribbon is not invertible")
    alg.notes.extend(f"flag {f}" for f in flags)

    if field_order is not None:
        if field_order < 1 or field_order % order != 0:
            raise ParseError(
                f"field order {field_order} is not a positive multiple of declared {order}",
                source,
            )
        if field_order != order:
            alg = embed_algebra(alg, field_order)

    simple_set = None
    if simples:
        labeled = []
        for s in simples:
            d = s["dim"]
            mats = [[[Scalar.zero(alg.order)] * d for _ in range(d)] for _ in range(dim)]
            for (a, r, c), val in s["entries"]:
                if alg.order != order:
                    val = val.embed(alg.order)
                mats[a][r][c] = mats[a][r][c] + val
            labeled.append((s["label"], module_from_action(alg, mats, s["label"])))
        simple_set = SimpleSet.from_modules(labeled)

    return alg, simple_set


def embed_algebra(A: QuasiHopfAlgebra, order: int) -> QuasiHopfAlgebra:
    """Embed every structure constant into a larger cyclotomic field."""

    def ev(v):
        return [c.embed(order) for c in v]

    def et(t: Tensor) -> Tensor:
        return Tensor.from_entries(t.dim, t.legs, order,
                                   [(idx, c.embed(order)) for idx, c in t.entries.items()])

    def em(m: ExactMatrix) -> ExactMatrix:
        return ExactMatrix.from_entries(m.rows, m.cols, order,
                                        ((ij, c.embed(order)) for ij, c in m.nonzero()))

    return QuasiHopfAlgebra(
        dim=A.dim,
        order=order,
        mult=[[ev(col) for col in row] for row in A.mult],
        counit=ev(A.counit),
        coproduct=[et(t) for t in A.coproduct],
        antipode=em(A.antipode),
        phi=et(A.phi),
        phi_inv=et(A.phi_inv),
        alpha=ev(A.alpha),
        beta=ev(A.beta),
        r_matrix=et(A.r_matrix),
        r_inv=et(A.r_inv),
        ribbon=ev(A.ribbon) if A.ribbon is not None else None,
        ribbon_inv=ev(A.ribbon_inv) if A.ribbon_inv is not None else None,
        name=A.name,
        notes=A.notes + [f"embedded into cyclotomic order {order}"],
    )


# ---------------------------------------------------------------------------
# serialisation


def _entry_lines(entries) -> list[str]:
    return [
        " ".join(str(i) for i in idx) + " = " + format_scalar(c)
        for idx, c in sorted(entries, key=lambda e: e[0])
        if not c.is_zero()
    ]


def serialize(A: QuasiHopfAlgebra, simples=None, flags: list[str] | None = None,
              comment: str | None = None) -> str:
    """Canonical text form; parse_text(serialize(A)) reproduces A exactly."""
    out = []
    if comment:
        out.append(f"# {comment}")
    out.append(f"dim {A.dim}")
    out.append(f"field {A.order}")
    if flags:
        out.append("flags " + " ".join(sorted(flags)))
    out.append("")

    def emit(name, entries):
        lines = _entry_lines(entries)
        if lines:
            out.append(name + ":")
            out.extend(lines)
            out.append("")

    emit("mult", [((i, j, k), A.mult[i][j][k])
                  for i in range(A.dim) for j in range(A.dim) for k in range(A.dim)])
    emit("counit", [((i,), A.counit[i]) for i in range(A.dim)])
    emit("coproduct", [((i,) + idx, c)
                       for i in range(A.dim) for idx, c in A.coproduct[i].nonzero()])
    emit("antipode", [((j, i), c) for (i, j), c in A.antipode.nonzero()])
    emit("phi", list(A.phi.nonzero()))
    emit("phi_inv", list(A.phi_inv.nonzero()))
    emit("alpha", [((i,), A.alpha[i]) for i in range(A.dim)])
    emit("beta", [((i,), A.beta[i]) for i in range(A.dim)])
    emit("R", list(A.r_matrix.nonzero()))
    emit("R_inv", list(A.r_inv.nonzero()))
    if A.ribbon is not None:
        emit("ribbon", [((i,), A.ribbon[i]) for i in range(A.dim)])

    if simples is not None:
        items = _simples_items(simples)
        for label, d, mats in items:
            entries = []
            for a in range(A.dim):
                for r in range(d):
                    for c in range(d):
                        entries.append(((a, r, c), mats[a][r][c]))
            lines = _entry_lines(entries)
            out.append(f"simple {label} dim {d}:")
            out.extend(lines)
            out.append("")
    return "\n".join(out).rstrip() + "\n"


def _simples_items(simples):
    # accepts a SimpleSet or raw (label, dim, mats) triples
    if hasattr(simples, "simples"):
        items = []
        for label, mod in zip(simples.labels, simples.simples):
            mats = [mod.action[a].dense for a in range(mod.alg.dim)]
            items.append((label, mod.dim, mats))
        return items
    return simples


def algebras_equal(a: QuasiHopfAlgebra, b: QuasiHopfAlgebra) -> bool:
    """Semantic equality of all structure data."""
    if (a.dim, a.order) != (b.dim, b.order):
        return False
    if any(a.mult[i][j][k] != b.mult[i][j][k]
           for i in range(a.dim) for j in range(a.dim) for k in range(a.dim)):
        return False
    vecs = [(a.counit, b.counit), (a.alpha, b.alpha), (a.beta, b.beta)]
    if (a.ribbon is None) != (b.ribbon is None):
        return False
    if a.ribbon is not None:
        vecs.append((a.ribbon, b.ribbon))
    if any(x != y for u, v in vecs for x, y in zip(u, v)):
        return False
    return (
        a.coproduct == b.coproduct
        and a.antipode == b.antipode
        and a.phi == b.phi
        and a.phi_inv == b.phi_inv
        and a.r_matrix == b.r_matrix
        and a.r_inv == b.r_inv
    )


# ---------------------------------------------------------------------------
# JSON rendering helpers


def vector_json(v) -> list[str]:
    return [format_scalar(c) for c in v]


def matrix_json(m: ExactMatrix) -> list[list[str]]:
    return [[format_scalar(c) for c in row] for row in m.dense]


def tensor_json(t: Tensor) -> dict:
    return {
        "dim": t.dim,
        "legs": t.legs,
        "entries": [[list(idx), format_scalar(c)] for idx, c in t.nonzero()],
    }


def _to_markdown(obj, title: str) -> str:
    lines = [f"# {title}", ""]

    def is_table(value):
        return (
            isinstance(value, list)
            and value
            and all(isinstance(r, dict) for r in value)
            and len({tuple(r.keys()) for r in value}) == 1
        )

    def walk(key, value, depth):
        pad = "  " * depth
        if isinstance(value, dict):
            lines.append(f"{pad}- **{key}**:")
            for k in value:
                walk(k, value[k], depth + 1)
        elif is_table(value):
            cols = list(value[0].keys())
            lines.append(f"{pad}- **{key}**:")
            lines.append(f"{pad}  | " + " | ".join(cols) + " |")
            lines.append(f"{pad}  |" + "---|" * len(cols))
            for row in value:
                lines.append(
                    f"{pad}  | " + " | ".join(str(row[c]) for c in cols) + " |"
                )
        elif isinstance(value, list) and value and isinstance(value[0], list):
            lines.append(f"{pad}- **{key}**:")
            for row in value:
                lines.append(f"{pad}  - `{row}`")
        else:
            lines.append(f"{pad}- **{key}**: `{value}`")

    for k, v in obj.items():
        walk(k, v, 0)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command implementations


def _resolve(path: str):
    from .presets import PRESET_NAMES, preset_path

    if path in PRESET_NAMES:
        return preset_path(path).read_text(encoding="utf-8"), f"preset:{path}"
    import pathlib

    p = pathlib.Path(path)
    return p.read_text(encoding="utf-8"), str(path)


def _load(path: str, field_order: int | None):
    text, source = _resolve(path)
    return parse_text(text, source=source, field_order=field_order) + (source,)


def _check_payload(A: QuasiHopfAlgebra):
    rep = validate(A)
    return rep, {"notes": sorted(A.notes), **rep.as_dict()}


def _derived_payload(A: QuasiHopfAlgebra):
    f, f_inv, gamma = drinfeld_twist(A)
    u, u_tilde, u_inv = drinfeld_element(A)
    return {
        "twist_f": tensor_json(f),
        "twist_f_inv": tensor_json(f_inv),
        "twist_gamma": tensor_json(gamma),
        "u": vector_json(u),
        "u_tilde": vector_json(u_tilde),
        "u_inv": vector_json(u_inv) if u_inv is not None else None,
        "monodromy": tensor_json(monodromy(A)),
    }


def _coend_payload(A: QuasiHopfAlgebra, maps=None):
    from .coend import coend_maps

    maps = maps or coend_maps(A)
    return maps, {
        "mu_hat": matrix_json(maps.mu_hat),
        "delta_hat": matrix_json(maps.delta_hat),
        "eta_hat": vector_json(maps.eta_hat),
        "eps_hat": vector_json(maps.eps_hat),
        "s_hat_L": matrix_json(maps.s_hat_L),
        "omega_hat": tensor_json(maps.omega_hat),
        "intermediates": {
            "D": tensor_json(maps.d_tensor),
            "W": tensor_json(maps.w_tensor),
            "X_Q": tensor_json(maps.x_q),
            "X_D": tensor_json(maps.x_d),
        },
    }


def _fact_payload(A: QuasiHopfAlgebra, maps):
    from .coend import factorisability

    fact = factorisability(A, maps)
    return fact, {
        "d_hat_L": tensor_json(fact.d_hat_L),
        "rank_D": fact.rank_D,
        "m_bt": tensor_json(fact.m_bt),
        "rank_BT": fact.rank_BT,
        "omega_iso_rank": fact.omega_iso_rank,
        "invariants_dim": fact.invariants_dim,
        "coinvariants_dim": fact.coinvariants_dim,
        "is_factorisable": fact.is_factorisable,
        "tests_agree": fact.tests_agree,
    }


def _modular_payload(A: QuasiHopfAlgebra, maps, projective: bool):
    from .modular import modular_data

    md = modular_data(A, maps)
    payload = {
        "center_basis": [vector_json(z) for z in md.center_basis],
        "integral": vector_json(md.integral),
        "pairing_value": format_scalar(md.pairing_value),
        "cointegral": vector_json(md.cointegral),
        "S_hat": matrix_json(md.s_hat),
        "T_hat": matrix_json(md.t_hat),
        "S_Z": matrix_json(md.s_z),
        "T_Z": matrix_json(md.t_z),
        "lambda": format_scalar(md.lam),
    }
    if not projective:
        payload["normalisation_note"] = md.lam_note
    return md, payload


def _fusion_payload(A: QuasiHopfAlgebra, simples, oracle: bool):
    from .fusion import verlinde_fusion

    table = verlinde_fusion(A, simples, oracle=oracle)
    return table, {
        "labels": table.labels,
        "table": [
            {"U": table.labels[u], "V": table.labels[v], "W": table.labels[w],
             "N": table.table[u][v][w]}
            for u in range(len(table.labels))
            for v in range(len(table.labels))
            for w in range(len(table.labels))
        ],
    }


def _fusion_csv(table) -> str:
    lines = ["U,V,W,N"]
    n = len(table.labels)
    for u in range(n):
        for v in range(n):
            for w in range(n):
                lines.append(
                    f"{table.labels[u]},{table.labels[v]},"
                    f"{table.labels[w]},{table.table[u][v][w]}"
                )
    return "\n".join(lines) + "\n"


def _emit(payload, output: str, out, title: str, csv_text: str | None = None):
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    if output == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif output == "csv":
        if csv_text is None:
            raise click.UsageError("csv output is only available for 'fusion'")
        text = csv_text
    else:
        text = _to_markdown(payload, title)
    if out:
        import pathlib

        pathlib.Path(out).write_bytes(text.encode("utf-8"))
    else:
        click.echo(text, nl=False)


def _common_options(fn):
    fn = click.argument("path")(fn)
    fn = click.option("--output", type=click.Choice(["json", "csv", "md"]),
                      default="json", show_default=True)(fn)
    fn = click.option("--out", type=click.Path(), default=None,
                      help="write the report to a file instead of stdout")(fn)
    fn = click.option("--field-order", type=int, default=None,
                      help="embed into Q(zeta_N); N must be a multiple of the "
                           "declared order")(fn)
    return fn


def _run_guarded(fn):
    try:
        fn()
    except ParseError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(2)
    except OSError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(2)
    except ValueError as e:
        click.echo(f"invalid input: {e}", err=True)
        sys.exit(1)


def _validated(A):
    rep = validate(A)
    if not rep.ok:
        bad = ", ".join(f"{r.name}@{r.witness}" for r in rep.failures())
        click.echo(f"axiom failure: {bad}", err=True)
        sys.exit(1)
    return rep


@click.group()
@click.version_option()
def main():
    """Exact computations for ribbon quasi-Hopf algebras.

    PATH is a definition file or one of the preset names
    trivial, group_Z2_trivialR, double_Z2, twisted_double_Z2.
    """


@main.command()
@_common_options
def check(path, output, out, field_order):
    """Validate every axiom and report pass/fail with witnesses."""

    def go():
        A, _, source = _load(path, field_order)
        rep, payload = _check_payload(A)
        payload = {"algebra": source, **payload}
        _emit(payload, output, out, f"axiom report for {source}")
        if not rep.ok:
            sys.exit(1)

    _run_guarded(go)


@main.command()
@_common_options
def derived(path, output, out, field_order):
    """Drinfeld twist, Drinfeld elements and monodromy."""

    def go():
        A, _, source = _load(path, field_order)
        _validated(A)
        _emit({"algebra": source, **_derived_payload(A)}, output, out,
              f"derived elements of {source}")

    _run_guarded(go)


@main.command()
@_common_options
def coend(path, output, out, field_order):
    """Structure maps of the universal Hopf algebra on the dual."""

    def go():
        A, _, source = _load(path, field_order)
        _validated(A)
        _, payload = _coend_payload(A)
        _emit({"algebra": source, **payload}, output, out,
              f"universal Hopf algebra maps of {source}")

    _run_guarded(go)


@main.command()
@_common_options
def factorisable(path, output, out, field_order):
    """Run all three non-degeneracy tests."""

    def go():
        A, _, source = _load(path, field_order)
        _validated(A)
        from .coend import coend_maps

        maps = coend_maps(A)
        _, payload = _fact_payload(A, maps)
        _emit({"algebra": source, **payload}, output, out,
              f"factorisability of {source}")

    _run_guarded(go)


@main.command()
@_common_options
@click.option("--projective", is_flag=True,
              help="omit the normalisation notes from the output")
def modular(path, output, out, field_order, projective):
    """Centre, integral, cointegral and the modular S/T action."""

    def go():
        A, _, source = _load(path, field_order)
        _validated(A)
        from .coend import coend_maps

        maps = coend_maps(A)
        _, payload = _modular_payload(A, maps, projective)
        _emit({"algebra": source, **payload}, output, out,
              f"modular data of {source}")

    _run_guarded(go)


@main.command()
@_common_options
@click.option("--oracle/--no-oracle", default=True, show_default=True,
              help="cross-check against the character decomposition")
def fusion(path, output, out, field_order, oracle):
    """Verlinde fusion table from internal characters."""

    def go():
        A, simples, source = _load(path, field_order)
        if simples is None:
            raise ParseError("fusion requires a 'simple' section", source)
        _validated(A)
        table, payload = _fusion_payload(A, simples, oracle)
        _emit({"algebra": source, **payload}, output, out,
              f"fusion table of {source}", csv_text=_fusion_csv(table))

    _run_guarded(go)


@main.command()
@_common_options
@click.option("--projective", is_flag=True)
@click.option("--oracle/--no-oracle", default=True, show_default=True)
def report(path, output, out, field_order, projective, oracle):
    """Everything in one document."""

    def go():
        A, simples, source = _load(path, field_order)
        rep, check_payload = _check_payload(A)
        doc = {"algebra": source, "dim": A.dim, "field_order": A.order,
               "check": check_payload}
        if not rep.ok:
            _emit(doc, output, out, f"report for {source}")
            sys.exit(1)
        from .coend import coend_maps

        maps = coend_maps(A)
        doc["derived"] = _derived_payload(A)
        _, doc["coend"] = _coend_payload(A, maps)
        fact, doc["factorisability"] = _fact_payload(A, maps)
        if fact.is_factorisable and A.ribbon is not None:
            _, doc["modular"] = _modular_payload(A, maps, projective)
        else:
            doc["modular"] = None
            doc["modular_skipped"] = "requires a factorisable ribbon algebra"
        if simples is not None and fact.is_factorisable:
            _, doc["fusion"] = _fusion_payload(A, simples, oracle)
        else:
            doc["fusion"] = None
            doc["fusion_skipped"] = (
                "no simple modules declared" if simples is None
                else "input is not factorisable"
            )
        _emit(doc, output, out, f"report for {source}")

    _run_guarded(go)


if __name__ == "__main__":
    main()
