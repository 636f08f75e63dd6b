"""Outside-in tracer: wraps the engine's public functions without editing
them, and collects per-layer self times and counts for one pass.

A wrapped function is replaced at every site that looks it up: each
``qhopf`` module global bound to it (``cli`` binds ``validate`` and the
derived-element functions by name; ``coend``, ``repcat`` and ``fusion`` do
the same with ``qha`` names), or the class attribute for a method.

Spans are outermost-only per family: a call made while another call of
the same family is active runs unwrapped, so that helper chains
(``mul_chain`` -> ``mul``) are counted once.  A span's self time is its
duration minus that of the spans it encloses.  ``Scalar.is_zero`` is deliberately not wrapped (it is called
millions of times per pass); the scan volume of ``Tensor.nonzero`` is
computed from the tensor's shape instead.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("cli", "qha", "coend", "modular", "fusion", "repcat", "tensorspace",
           "exactmath", "presets")

TENSOR_FUNCS = ("mul", "mul_chain", "merge_legs", "leg_map", "coproduct_leg",
                "counit_leg", "permute", "embed", "tensor_product", "contract_leg")
TENSOR_METHODS = ("__add__", "__sub__", "scale", "__eq__", "is_zero")


def _echelon_cells(m, *args):
    return m.rows * m.cols


def _matmul_mults(a, b):
    return a.rows * a.cols * b.cols


def _kron_cells(a, b):
    return a.rows * b.rows * a.cols * b.cols


# family -> (what each span adds to the family's work counter,
#            [(module, function name) | (module, class, method name)])
FAMILIES = {
    "cli.parse_text": (None, [("cli", "parse_text")]),
    "cli.emit": (None, [("cli", "_emit")]),
    "qha.validate": (None, [("qha", "validate")]),
    "qha.derived": (None, [("qha", f) for f in
                           ("drinfeld_twist", "drinfeld_element", "monodromy")]),
    "coend.coend_maps": (None, [("coend", "coend_maps")]),
    "coend.factorisability": (None, [("coend", "factorisability")]),
    "modular.modular_data": (None, [("modular", "modular_data")]),
    "fusion.verlinde_fusion": (None, [("fusion", "verlinde_fusion")]),
    "repcat.verify_braided_hopf": (None, [("repcat", "verify_braided_hopf")]),
    "tensorspace.ops": (None, [("tensorspace", f) for f in TENSOR_FUNCS]
                        + [("tensorspace", "Tensor", m) for m in TENSOR_METHODS]),
    "exactmath.echelon": (("cells", _echelon_cells),
                          [("exactmath", "ExactMatrix", m)
                           for m in ("rank", "kernel", "solve", "inverse")]),
    "exactmath.matmul": (("mults", _matmul_mults),
                         [("exactmath", "ExactMatrix", "__mul__")]),
    "exactmath.kron": (("cells", _kron_cells), [("exactmath", "ExactMatrix", "kron")]),
}


class Tracer:
    """Installs the wrappers on ``install()`` and removes them on
    ``uninstall()``; ``take()`` returns and resets the collected totals."""

    def __init__(self):
        self.modules = {m: importlib.import_module(f"qhopf.{m}") for m in MODULES}
        self._undo: list[tuple[object, str, object]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.scalar_mul: Counter[int] = Counter()
        self.scalar_inv: Counter[int] = Counter()
        self._active: Counter[str] = Counter()
        self._stack: list[list[float]] = []

    def take(self) -> tuple[dict[str, float], Counter, Counter, Counter]:
        """Totals since the last call; the wrappers keep their containers,
        so they are copied and cleared in place."""
        out = (dict(self.self_s), Counter(self.counts), Counter(self.scalar_mul),
               Counter(self.scalar_inv))
        for c in (self.self_s, self.counts, self.scalar_mul, self.scalar_inv):
            c.clear()
        return out

    # -- wrappers

    def _span(self, family: str, work, fn):
        active, counts, self_s = self._active, self.counts, self.self_s
        stack = self._stack
        calls_key = family + "_calls"
        work_key = f"{family}_{work[0]}" if work else None
        work_fn = work[1] if work else None

        def wrapper(*args, **kwargs):
            if active[family]:
                return fn(*args, **kwargs)
            active[family] += 1
            counts[calls_key] += 1
            if work_fn is not None:
                counts[work_key] += work_fn(*args)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                stack.pop()
                active[family] -= 1
                self_s[family] += d - frame[0]
                if stack:
                    stack[-1][0] += d

        wrapper.__wrapped__ = fn
        return wrapper

    def _scalar_wrappers(self, Scalar):
        muls, invs = self.scalar_mul, self.scalar_inv
        mul, inverse = Scalar.__mul__, Scalar.inverse

        def scalar_mul(a, b):
            muls[a.order if a.order >= b.order else b.order] += 1
            return mul(a, b)

        def scalar_inverse(a):
            invs[a.order] += 1
            return inverse(a)

        return {"__mul__": scalar_mul, "inverse": scalar_inverse}

    def _nonzero_wrapper(self, nonzero):
        counts = self.counts

        def traced_nonzero(t):
            counts["tensorspace.nonzero_calls"] += 1
            counts["tensorspace.dense_entries"] += t.dim ** t.legs
            n = 0
            try:
                for item in nonzero(t):
                    n += 1
                    yield item
            finally:
                counts["tensorspace.nnz_yielded"] += n

        return traced_nonzero

    # -- patching

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _replace_everywhere(self, fn, wrapper):
        for mod in self.modules.values():
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, name, wrapper)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for family, (work, sites) in FAMILIES.items():
            for site in sites:
                mod = self.modules[site[0]]
                if len(site) == 2:
                    fn = getattr(mod, site[1])
                    self._replace_everywhere(fn, self._span(family, work, fn))
                else:
                    cls = getattr(mod, site[1])
                    fn = vars(cls)[site[2]]
                    self._set(cls, site[2], self._span(family, work, fn))
        em, ts = self.modules["exactmath"], self.modules["tensorspace"]
        for name, wrapper in self._scalar_wrappers(em.Scalar).items():
            self._set(em.Scalar, name, wrapper)
        self._set(ts.Tensor, "nonzero", self._nonzero_wrapper(ts.Tensor.nonzero))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
