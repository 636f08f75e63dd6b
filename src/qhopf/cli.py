"""The ``qhopf`` command.

Each subcommand reads a definition file or a preset through
``fileformat.parse_text``, runs one stage of the engine and writes a JSON
(or csv, or markdown) payload that carries ``schema_version``.  The
parser and serialiser live in ``fileformat``; their names are imported
here too, so ``cli.parse_text``, ``cli.serialize`` and the rest keep
working.

Exit codes: 0 success, 1 mathematically invalid input (axiom failure),
2 I/O or parse error.  One decorator, ``_guarded``, maps exceptions to
these codes for every subcommand.
"""

from __future__ import annotations

import functools
import json
import sys

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
    # calls this module's parse_text, the name perfbench's tracer wraps
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


def _validated(A):
    rep = validate(A)
    if not rep.ok:
        bad = ", ".join(map(str, rep.failures()))
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
@_guarded
def check(path, output, out, field_order):
    """Validate every axiom and report pass/fail with witnesses."""
    A, _, source = _load(path, field_order)
    rep, payload = _check_payload(A)
    payload = {"algebra": source, **payload}
    _emit(payload, output, out, f"axiom report for {source}")
    if not rep.ok:
        sys.exit(1)


@main.command()
@_common_options
@_guarded
def derived(path, output, out, field_order):
    """Drinfeld twist, Drinfeld elements and monodromy."""
    A, _, source = _load(path, field_order)
    _validated(A)
    _emit({"algebra": source, **_derived_payload(A)}, output, out,
          f"derived elements of {source}")


@main.command()
@_common_options
@_guarded
def coend(path, output, out, field_order):
    """Structure maps of the universal Hopf algebra on the dual."""
    A, _, source = _load(path, field_order)
    _validated(A)
    _, payload = _coend_payload(A)
    _emit({"algebra": source, **payload}, output, out,
          f"universal Hopf algebra maps of {source}")


@main.command()
@_common_options
@_guarded
def factorisable(path, output, out, field_order):
    """Run all three non-degeneracy tests."""
    A, _, source = _load(path, field_order)
    _validated(A)
    from .coend import coend_maps

    maps = coend_maps(A)
    _, payload = _fact_payload(A, maps)
    _emit({"algebra": source, **payload}, output, out,
          f"factorisability of {source}")


@main.command()
@_common_options
@click.option("--projective", is_flag=True,
              help="omit the normalisation notes from the output")
@_guarded
def modular(path, output, out, field_order, projective):
    """Centre, integral, cointegral and the modular S/T action."""
    A, _, source = _load(path, field_order)
    _validated(A)
    from .coend import coend_maps

    maps = coend_maps(A)
    _, payload = _modular_payload(A, maps, projective)
    _emit({"algebra": source, **payload}, output, out,
          f"modular data of {source}")


@main.command()
@_common_options
@click.option("--oracle/--no-oracle", default=True, show_default=True,
              help="cross-check against the character decomposition")
@_guarded
def fusion(path, output, out, field_order, oracle):
    """Verlinde fusion table from internal characters."""
    A, simples, source = _load(path, field_order)
    if simples is None:
        raise ParseError("fusion requires a 'simple' section", source)
    _validated(A)
    from .coend import coend_maps, require_factorisable

    require_factorisable(A, coend_maps(A))
    table, payload = _fusion_payload(A, simples, oracle)
    _emit({"algebra": source, **payload}, output, out,
          f"fusion table of {source}", csv_text=_fusion_csv(table))


@main.command()
@_common_options
@click.option("--projective", is_flag=True)
@click.option("--oracle/--no-oracle", default=True, show_default=True)
@_guarded
def report(path, output, out, field_order, projective, oracle):
    """Everything in one document."""
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
    if simples is not None and fact.is_factorisable and A.ribbon is not None:
        _, doc["fusion"] = _fusion_payload(A, simples, oracle)
    else:
        doc["fusion"] = None
        doc["fusion_skipped"] = (
            "no simple modules declared" if simples is None
            else "input is not factorisable" if not fact.is_factorisable
            else "requires ribbon data"
        )
    _emit(doc, output, out, f"report for {source}")


if __name__ == "__main__":
    main()
