"""The ``qhopf`` command.

Each subcommand reads a definition file or a preset through
``fileformat.parse_text`` and writes a JSON (or csv, or markdown) payload
that carries ``schema_version``.  ``report`` checks the axioms, then runs
every stage of ``STAGES`` in order; a stage command runs one of them and
prints exactly that section of the report.  Every command takes the same
options, ``--output``, ``--out`` and ``--field-order``; none changes what
a stage computes or writes.  The parser and serialiser
live in ``fileformat``; their names are imported here too, so
``cli.parse_text``, ``cli.serialize`` and the rest keep working.

Exit codes: 0 success, 1 mathematically invalid input (axiom failure) or,
for a stage command, an input that cannot have the stage, 2 I/O or parse
error.  One decorator, ``_guarded``, maps exceptions to these codes.
"""

from __future__ import annotations

import functools
import sys
from json.encoder import encode_basestring_ascii

import click

from .exactmath import ExactMatrix, format_scalar
from .fileformat import (  # noqa: F401  (re-exported for callers of cli)
    SCHEMA_VERSION,
    ParseError,
    algebras_equal,
    parse_scalar,
    parse_text,
    serialize,
)
from .tensorspace import Tensor
from .qha import (
    QuasiHopfAlgebra,
    drinfeld_element,
    drinfeld_twist,
    monodromy,
    validate,
)


# ---------------------------------------------------------------------------
# JSON rendering helpers


def vector_json(v) -> list[str]:
    return [format_scalar(c) for c in v]


def matrix_json(m: ExactMatrix) -> list[list[str]]:
    # only the stored entries are formatted; every other one is "0"
    out = []
    for row in m.data:
        r = ["0"] * m.cols
        for j, x in row.items():
            r[j] = format_scalar(x)
        out.append(r)
    return out


def tensor_json(t: Tensor) -> dict:
    return {
        "dim": t.dim,
        "legs": t.legs,
        "entries": [[list(idx), format_scalar(c)] for idx, c in t.nonzero()],
    }


def _json_text(obj, pad: str = "\n") -> str:
    """obj as ``json.dumps(obj, indent=2, sort_keys=True)`` writes it, for
    the payloads of this module: str-keyed dicts, lists, tuples, str, int,
    bool and None.  ``pad`` is the newline and indent before obj's closing
    bracket.  Each container is one ``join`` of its items' text, so no list
    of every chunk of the document is built."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{" + inner + ("," + inner).join([
            f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
            for k, v in sorted(obj.items())]) + pad + "}"
    if not obj:
        return "[]"
    # most items are strings (the formatted scalars) or ints (indices)
    return "[" + inner + ("," + inner).join([
        encode_basestring_ascii(x) if type(x) is str
        else int.__repr__(x) if type(x) is int else _json_text(x, inner)
        for x in obj]) + pad + "]"


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

    data = pathlib.Path(path).read_bytes()
    try:
        return data.decode("utf-8"), str(path)
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text ({e.reason} at byte offset {e.start})", str(path),
                         data[:e.start].count(b"\n") + 1) from None


def _load(path: str, field_order: int | None):
    # calls this module's parse_text, the name perfbench's tracer wraps
    text, source = _resolve(path)
    return parse_text(text, source=source, field_order=field_order) + (source,)


def _check_payload(A: QuasiHopfAlgebra, strict: bool) -> dict:
    """The axiom report of ``validate``.  With ``strict``, a failing axiom
    ends the command instead: exit 1, the failures on stderr, nothing on
    stdout."""
    rep = validate(A)
    if strict and not rep.ok:
        click.echo(f"axiom failure: {', '.join(map(str, rep.failures()))}", err=True)
        sys.exit(1)
    return {"notes": sorted(A.notes), **rep.as_dict()}


# the stages of ``report`` after ``check``, in order; each names a builder of ``_Stages``
STAGES = ("derived", "coend", "factorisability", "modular", "fusion")

# the modular payload's note on the normalisation of the integral and lambda
LAM_NOTE = (
    "integral fixed by echelon normalisation of the two-sided solution "
    "space (defined up to sign and scale); the projective constant "
    "rescales linearly with it"
)


class _Stages:
    """The stage builders on one validated algebra.  Each returns the
    stage's payload, or a string: the reason the input cannot have that
    stage.  The coend maps and the factorisability verdict are built once,
    on first use."""

    def __init__(self, A: QuasiHopfAlgebra, simples):
        self.A, self.simples = A, simples

    @functools.cached_property
    def maps(self):
        from .coend import coend_maps

        return coend_maps(self.A)

    @functools.cached_property
    def fact(self):
        from .coend import factorisability

        return factorisability(self.A, self.maps)

    def derived(self) -> dict:
        f, f_inv, gamma = drinfeld_twist(self.A)
        u, u_tilde, u_inv = drinfeld_element(self.A)
        return {
            "twist_f": tensor_json(f),
            "twist_f_inv": tensor_json(f_inv),
            "twist_gamma": tensor_json(gamma),
            "u": vector_json(u),
            "u_tilde": vector_json(u_tilde),
            "u_inv": vector_json(u_inv) if u_inv is not None else None,
            "monodromy": tensor_json(monodromy(self.A)),
        }

    def coend(self) -> dict:
        return {
            "mu_hat": matrix_json(self.maps.mu_hat),
            "delta_hat": matrix_json(self.maps.delta_hat),
            "eta_hat": vector_json(self.maps.eta_hat),
            "eps_hat": vector_json(self.maps.eps_hat),
            "s_hat_L": matrix_json(self.maps.s_hat_L),
            "omega_hat": tensor_json(self.maps.omega_hat),
            "intermediates": {
                "D": tensor_json(self.maps.d_tensor),
                "W": tensor_json(self.maps.w_tensor),
                "X_Q": tensor_json(self.maps.x_q),
                "X_D": tensor_json(self.A.x_d),
            },
        }

    def factorisability(self) -> dict:
        return {
            "d_hat_L": tensor_json(self.fact.d_hat_L),
            "rank_D": self.fact.rank_D,
            "m_bt": tensor_json(self.fact.m_bt),
            "rank_BT": self.fact.rank_BT,
            "omega_iso_rank": self.fact.omega_iso_rank,
            "invariants_dim": self.fact.invariants_dim,
            "coinvariants_dim": self.fact.coinvariants_dim,
            "is_factorisable": self.fact.is_factorisable,
            "tests_agree": self.fact.tests_agree,
        }

    def modular(self) -> dict | str:
        if not self.fact.is_factorisable or self.A.ribbon is None:
            return "requires a factorisable ribbon algebra"
        from .modular import modular_data

        md = modular_data(self.A, self.maps, self.fact)
        return {
            "center_basis": [vector_json(z) for z in md.center_basis],
            "integral": vector_json(md.integral),
            "pairing_value": format_scalar(md.pairing_value),
            "cointegral": vector_json(md.cointegral),
            "S_hat": matrix_json(md.s_hat),
            "T_hat": matrix_json(md.t_hat),
            "S_Z": matrix_json(md.s_z),
            "T_Z": matrix_json(md.t_z),
            "lambda": format_scalar(md.lam),
            "normalisation_note": LAM_NOTE,
        }

    def fusion(self) -> dict | str:
        if self.simples is None:
            return "no simple modules declared"
        if not self.fact.is_factorisable:
            return "input is not factorisable"
        if self.A.ribbon is None:
            return "requires ribbon data"
        from .fusion import verlinde_fusion

        table = verlinde_fusion(self.A, self.simples)
        return {
            "labels": table.labels,
            "table": [
                {"U": table.labels[u], "V": table.labels[v], "W": table.labels[w], "N": n}
                for u, row in enumerate(table.table)
                for v, counts in enumerate(row)
                for w, n in enumerate(counts)
            ],
        }


def _fusion_csv(rows: list[dict]) -> str:
    return "U,V,W,N\n" + "".join(f"{r['U']},{r['V']},{r['W']},{r['N']}\n" for r in rows)


def _emit(payload, output: str, out, title: str, csv_text: str | None = None):
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    if output == "json":
        text = _json_text(payload) + "\n"
    elif output == "csv":                     # offered by 'fusion' only
        text = csv_text
    else:
        text = _to_markdown(payload, title)
    if out:
        import pathlib

        pathlib.Path(out).write_bytes(text.encode("utf-8"))
    else:
        click.echo(text, nl=False)


def _common_options(fn, formats=("json", "md")):
    fn = click.argument("path")(fn)
    fn = click.option("--output", type=click.Choice(formats),
                      default="json", show_default=True)(fn)
    fn = click.option("--out", type=click.Path(), default=None,
                      help="write the report to a file instead of stdout")(fn)
    fn = click.option("--field-order", type=int, default=None,
                      help="embed into Q(zeta_N); N must be a multiple of the "
                           "declared order")(fn)
    return fn


def _guarded(fn):
    """Map the errors of a command body to the exit codes: a parse or I/O
    error exits 2, invalid input (``ValueError``) exits 1."""

    @functools.wraps(fn)
    def run(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except (ParseError, OSError) as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(2)
        except ValueError as e:
            click.echo(f"invalid input: {e}", err=True)
            sys.exit(1)

    return run


@click.group()
@click.version_option()
def main():
    """Exact computations for ribbon quasi-Hopf algebras.

    PATH is a definition file or one of the preset names
    trivial, group_Z2_trivialR, double_Z2, twisted_double_Z2.
    """


@main.command()
@_common_options
@_guarded
def check(path, output, out, field_order):
    """Validate every axiom and report pass/fail with witnesses."""
    A, _, source = _load(path, field_order)
    payload = {"algebra": source, **_check_payload(A, strict=False)}
    _emit(payload, output, out, f"axiom report for {source}")
    if not payload["ok"]:
        sys.exit(1)


@_guarded
def _run_stage(stage, title, path, output, out, field_order):
    """One stage of ``report``: exit 1 with its skip reason on stderr when
    the input cannot have it."""
    A, simples, source = _load(path, field_order)
    if stage == "fusion" and simples is None:
        raise ParseError("fusion requires a 'simple' section", source)
    _check_payload(A, strict=True)
    payload = getattr(_Stages(A, simples), stage)()
    if isinstance(payload, str):
        click.echo(f"{stage}: {payload}", err=True)
        sys.exit(1)
    _emit({"algebra": source, **payload}, output, out, f"{title} of {source}",
          csv_text=_fusion_csv(payload["table"]) if output == "csv" else None)


@main.command()
@_common_options
def derived(path, output, out, field_order):
    """Drinfeld twist, Drinfeld elements and monodromy."""
    _run_stage("derived", "derived elements", path, output, out, field_order)


@main.command()
@_common_options
def coend(path, output, out, field_order):
    """Structure maps of the universal Hopf algebra on the dual."""
    _run_stage("coend", "universal Hopf algebra maps", path, output, out, field_order)


@main.command()
@_common_options
def factorisable(path, output, out, field_order):
    """Run all three non-degeneracy tests."""
    _run_stage("factorisability", "factorisability", path, output, out, field_order)


@main.command()
@_common_options
def modular(path, output, out, field_order):
    """Centre, integral, cointegral and the modular S/T action."""
    _run_stage("modular", "modular data", path, output, out, field_order)


@main.command()
@functools.partial(_common_options, formats=("json", "csv", "md"))
def fusion(path, output, out, field_order):
    """Verlinde fusion table from internal characters."""
    _run_stage("fusion", "fusion table", path, output, out, field_order)


@main.command()
@_common_options
@_guarded
def report(path, output, out, field_order):
    """Everything in one document."""
    A, simples, source = _load(path, field_order)
    doc = {"algebra": source, "dim": A.dim, "field_order": A.order,
           "check": _check_payload(A, strict=False)}
    if not doc["check"]["ok"]:
        _emit(doc, output, out, f"report for {source}")
        sys.exit(1)
    stages = _Stages(A, simples)
    for stage in STAGES:
        payload = getattr(stages, stage)()
        if isinstance(payload, str):
            doc[stage], doc[f"{stage}_skipped"] = None, payload
        else:
            doc[stage] = payload
    _emit(doc, output, out, f"report for {source}")


if __name__ == "__main__":
    main()
