"""The definition-file format: parsing and canonical serialisation.

This module is the engine's one input boundary; the command line,
``presets`` and the tests read and write algebras only through it.

File format (``.alg``): a header followed by sparse sections.  Lines are
``#``-commented; omitted entries are zero, repeated entries add up, and
basis element 0 is the unit.

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

The ``dim`` and ``field`` headers each appear once.  Every number in a
header, an index or a literal is ASCII digits only (``str.isdigit`` and
``int`` accept more: superscripts, other scripts' digits, '+0' and
'1_0'), and one longer than Python's integer string conversion limit
(``sys.get_int_max_str_digits``) is a ``ParseError`` at its line.  A
section header fixes one bound per index (dim, or (dim, D, D) for a
simple), and one path checks, bounds and stores the entries of every
section.  An omitted inverse is solved for, with a note.  Scalar
literals are sums of products of rationals ``p/q`` and powers of the
cyclotomic generator ``z``, e.g. ``1/2*z^3 - 1``; one nested too deeply
is a ``ParseError``, as is (in ``cli``) a file that is not UTF-8.
``parse_text`` can embed the algebra into a larger cyclotomic field:
each literal is parsed in the declared field and embedded as it is read.
Within one call each distinct literal text is parsed and embedded once,
and every entry with that text shares the resulting ``Scalar``.  A
refused literal is located by line and by its column in that line, and
its message repeats only the start of a long literal.

``serialize`` writes the canonical form, and ``parse_text`` reads it back
exactly; ``algebras_equal`` compares two algebras by that text.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cache

from .exactmath import ExactMatrix, Scalar, format_scalar
from .tensorspace import Tensor
from .qha import QuasiHopfAlgebra


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


def _is_digits(text: str) -> bool:
    # str.isdigit also accepts superscripts and other scripts' digits
    return text.isascii() and text.isdigit()


def _int_of(digits: str, source: str = "<string>", line: int | None = None,
            col: int | None = None) -> int:
    # int() refuses a string of ASCII digits only past the conversion limit
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"number of {len(digits)} digits exceeds the limit of "
                         f"{sys.get_int_max_str_digits()}", source, line, col) from None


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
        elif "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("int", _int_of(text[i:j], col=i), i))
            i = j
        elif ch == "z":
            tokens.append(("z", "z", i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r} in scalar literal", col=i)
    tokens.append(("end", None, len(text)))
    return tokens


@cache
def _zeta_powers(order: int) -> tuple[Scalar, ...]:
    """zeta_order ** k for k = 0 .. order - 1, built once per field:
    Scalars are immutable values, so every literal z^k can share one."""
    zeta = Scalar.zeta(order)                    # rejects an order below 1
    powers = [Scalar.one(order)]
    for _ in range(order - 1):
        powers.append(powers[-1] * zeta)
    return tuple(powers)


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
        # a leading minus is factor()'s unary minus
        if self.peek()[0] == "+":
            self.take()
        acc = self.term()
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
            return _zeta_powers(self.order)[power % self.order]
        raise ParseError(f"unexpected {tok[0]!r} in scalar literal", col=tok[2])


def parse_scalar(text: str, order: int) -> Scalar:
    """Parse a scalar literal in Q(zeta_order); canonical and exact.  A
    literal nested past the interpreter's recursion limit is refused at the
    token the parser had reached."""
    parser = _ScalarParser(text, order)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("literal is nested too deeply", col=parser.peek()[2]) from None


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
_ECHO = 24               # characters of a refused literal its message repeats
_MANDATORY = ("mult", "counit", "coproduct", "antipode", "phi", "alpha", "beta", "R")


def parse_text(text: str, source: str = "<string>", field_order: int | None = None):
    """Parse a definition file into an algebra and its optional simple
    modules.  ``field_order`` embeds everything into a larger cyclotomic
    field (must be a multiple of the declared order)."""
    from .repcat import AModule
    from .fusion import SimpleSet

    dim: int | None = None
    declared: int | None = None     # the file's field; order is the target field
    order: int | None = None
    flags: list[str] = []
    sections: dict[str, list[tuple[tuple[int, ...], Scalar]]] = {}
    simples: list[tuple[str, int, list]] = []     # (label, D, entries)
    # the open section: current names it in messages, and its header sets
    # bounds (one exclusive bound per index) and entries (where they go)
    current: str | None = None
    # each distinct literal text, parsed and embedded once; a Scalar is an
    # immutable value, so every entry with that text shares it
    literals: dict[str, Scalar] = {}

    def err(msg, line_no, col=None):
        raise ParseError(msg, source, line_no, col)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split()
        if head[0] in ("dim", "field"):
            if len(head) != 2 or not _is_digits(head[1]):
                err(f"malformed {head[0]} header {line!r} (expected '{head[0]} N')", line_no)
            if (dim if head[0] == "dim" else declared) is not None:
                err(f"repeated {head[0]!r} header", line_no)
            if head[0] == "dim":
                dim = _int_of(head[1], source, line_no)
            else:
                declared = _int_of(head[1], source, line_no)
                if declared == 0:
                    err("field order must be positive, got 0", line_no)
                order = declared if field_order is None else field_order
                if order < 1 or order % declared != 0:
                    err(f"field order {field_order} is not a positive multiple "
                        f"of declared {declared}", line_no)
        elif head[0] == "flags":
            flags = head[1:]
        elif line.endswith(":"):
            name = line[:-1].strip()
            parts = name.split()
            is_simple = bool(parts) and parts[0] == "simple"
            if is_simple and (len(parts) != 4 or parts[2] != "dim" or not _is_digits(parts[3])):
                err(f"malformed simple header {line!r} "
                    "(expected 'simple NAME dim D:')", line_no)
            if not is_simple and name not in _SECTION_ARITY:
                err(f"unknown section {name!r}", line_no)
            if dim is None or order is None:
                err("sections must come after the 'dim' and 'field' header", line_no)
            if is_simple:
                d = _int_of(parts[3], source, line_no)
                current, bounds, entries = "simple", (dim, d, d), []
                simples.append((parts[1], d, entries))
            else:
                current, bounds = name, (dim,) * _SECTION_ARITY[name]
                entries = sections.setdefault(name, [])
        elif "=" in line:
            if current is None:
                err("entry before any section header", line_no)
            lhs, rhs = line.split("=", 1)
            idx_parts = lhs.split()
            if len(idx_parts) != len(bounds):
                err(f"expected {len(bounds)} indices in section {current!r}, "
                    f"got {len(idx_parts)}", line_no)
            if not all(map(_is_digits, idx_parts)):
                err(f"non-integer index in {lhs.strip()!r}", line_no)
            idx = tuple(_int_of(p, source, line_no) for p in idx_parts)
            literal = rhs.strip()
            value = literals.get(literal)
            if value is None:
                try:
                    value = literals[literal] = parse_scalar(literal, declared).embed(order)
                except ParseError as e:
                    # the column, counted from 1 in the raw line, locates the
                    # fault, so the message echoes only a long literal's start
                    col = len(raw) - len(raw.lstrip()) + len(line) - len(rhs.lstrip()) + e.col + 1
                    shown = repr(literal) if len(literal) <= _ECHO else f"{literal[:_ECHO]!r}..."
                    err(f"bad scalar literal {shown}: {e.msg}", line_no, col)
            for i, bound in zip(idx, bounds):
                if not 0 <= i < bound:
                    err(f"index {idx} out of range for {current} of dim {bound}", line_no)
            entries.append((idx, value))
        else:
            err(f"cannot parse line {line!r}", line_no)

    if dim is None:
        raise ParseError("missing 'dim' header", source)
    if order is None:
        raise ParseError("missing 'field' header", source)
    for name in _MANDATORY:
        if not sections.get(name):
            raise ParseError(f"missing or empty mandatory section {name!r}", source)

    # repeated indices are summed and zeros dropped by the sparse types;
    # an omitted optional section is zero
    def tensor_of(name: str, legs: int) -> Tensor:
        return Tensor.from_entries(dim, legs, order, sections.get(name, []))

    def vector_of(name: str) -> list[Scalar]:
        return tensor_of(name, 1).to_vector()

    def by_first(entries):
        # the entries (i, *rest) as one list of (rest, value) per i < dim
        out: list[list] = [[] for _ in range(dim)]
        for (i, *rest), c in entries:
            out[i].append((tuple(rest), c))
        return out

    # the dense mult shares one zero; its inner lists are distinct, since
    # presets.mutate edits them in place
    zero = Scalar.zero(order)
    mult = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), c in tensor_of("mult", 3).entries.items():
        mult[i][j][k] = c
    alg = QuasiHopfAlgebra(
        dim=dim,
        order=order,
        mult=mult,
        counit=vector_of("counit"),
        coproduct=[Tensor.from_entries(dim, 2, order, e)
                   for e in by_first(sections["coproduct"])],
        antipode=ExactMatrix.from_entries(
            dim, dim, order, (((j, i), c) for (i, j), c in sections["antipode"])),
        phi=tensor_of("phi", 3),
        phi_inv=tensor_of("phi_inv", 3),
        alpha=vector_of("alpha"),
        beta=vector_of("beta"),
        r_matrix=tensor_of("R", 2),
        r_inv=tensor_of("R_inv", 2),
        ribbon=vector_of("ribbon") if "ribbon" in sections else None,
        ribbon_inv=None,
        name=source,
    )

    def solved_inverse(name: str, t: Tensor) -> Tensor:
        # the inverse of an element whose inverse the file omits; a failed
        # solve leaves a zero placeholder so that validate() reports it
        inv = alg.invert_element(t)
        alg.notes.append(f"{name}_inv solved from {name}" if inv is not None
                         else f"{name} is not invertible")
        return inv if inv is not None else Tensor.zero(dim, t.legs, order)

    if "phi_inv" not in sections:
        alg.phi_inv = solved_inverse("phi", alg.phi)
    if "R_inv" not in sections:
        alg.r_inv = solved_inverse("R", alg.r_matrix)
    if alg.ribbon is not None:
        alg.ribbon_inv = solved_inverse("ribbon", tensor_of("ribbon", 1)).to_vector()
    alg.notes.extend(f"flag {f}" for f in flags)
    if order != declared:
        alg.notes.append(f"embedded into cyclotomic order {order}")

    simple_set = None
    if simples:
        simple_set = SimpleSet.from_modules([(label, AModule(alg, [
            ExactMatrix.from_entries(d, d, order, e) for e in by_first(found)], label))
            for label, d, found in simples])

    return alg, simple_set


# ---------------------------------------------------------------------------
# serialisation


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

    def emit(name, entries, always=False):
        # a section that must be present (ribbon, simples) is kept even when
        # all its entries are zero, so that parsing restores it
        lines = [" ".join(str(i) for i in idx) + " = " + format_scalar(c)
                 for idx, c in sorted(entries, key=lambda e: e[0]) if not c.is_zero()]
        if lines or always:
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
        emit("ribbon", [((i,), A.ribbon[i]) for i in range(A.dim)], always=True)
    for label, d, mats in _simples_items(simples or ()):
        emit(f"simple {label} dim {d}", [((a, r, c), mats[a][r][c]) for a in range(A.dim)
                                         for r in range(d) for c in range(d)], always=True)
    return "\n".join(out).rstrip() + "\n"


def _simples_items(simples):
    # accepts a SimpleSet or raw (label, dim, mats) triples
    if hasattr(simples, "simples"):
        return [(label, mod.dim, [mod.action[a].dense for a in range(mod.alg.dim)])
                for label, mod in zip(simples.labels, simples.simples)]
    return simples


def algebras_equal(a: QuasiHopfAlgebra, b: QuasiHopfAlgebra) -> bool:
    """Equality of all structure data the file format holds (everything
    but the name, the notes and the solved ``ribbon_inv``), compared by
    canonical text: ``serialize`` writes each such algebra one way."""
    return serialize(a) == serialize(b)
