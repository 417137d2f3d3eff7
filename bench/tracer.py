"""Per-layer spans and counters around padicspectral's public entry points.

The tracer wraps functions and methods from the outside: it replaces
every binding of a wrapped object (its class, its defining module, the
package namespace and every module that imported the name) and puts
each original back when it exits.  The library is not edited.

A span records name, start, end, parent span and op id; its layer is
the name's first component.  Spans stay in memory until the run ends.
Self time is a span's duration minus the durations of its direct
children, which nest inside it because the harness is single-threaded.

``core`` gets counters only: a span per PadicInt operation would cost
more than the operation.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "padicspectral"

# (module, class or None, attribute, span name)
SPANS = [
    ("functions", None, "principal_power", "functions.principal_power"),
    ("functions", None, "zeta_of", "functions.zeta_of"),
    ("linalg", "PadicMatrix", "__init__", "linalg.matrix_new"),
    ("linalg", "PadicMatrix", "__matmul__", "linalg.matmul"),
    ("linalg", "PadicMatrix", "__add__", "linalg.add"),
    ("linalg", "PadicMatrix", "__sub__", "linalg.sub"),
    ("linalg", "PadicMatrix", "__neg__", "linalg.neg"),
    ("linalg", "PadicMatrix", "__mul__", "linalg.scale"),
    ("linalg", "PadicMatrix", "__rmul__", "linalg.scale"),
    ("linalg", "PadicMatrix", "__pow__", "linalg.pow"),
    ("linalg", "PadicMatrix", "matvec", "linalg.matvec"),
    ("linalg", "PadicMatrix", "divide_exact_scalar", "linalg.divide_exact_scalar"),
    ("linalg", "PadicMatrix", "inverse", "linalg.inverse"),
    ("linalg", "PadicMatrix", "char_poly", "linalg.char_poly"),
    ("linalg", "PadicMatrix", "congruent", "linalg.congruent"),
    ("linalg", "PadicMatrix", "op_norm", "linalg.op_norm"),
    ("linalg", "PadicMatrix", "is_zero", "linalg.is_zero"),
    ("linalg", "PadicMatrix", "reduction", "linalg.reduction"),
    ("linalg", "PadicMatrix", "truncate_to", "linalg.truncate_to"),
    ("linalg", "PadicMatrix", "lift_to", "linalg.lift_to"),
    ("linalg", "ResidueMatrix", "is_scalar", "linalg.is_scalar"),
    ("linalg", "ResidueMatrix", "eigenvalues", "linalg.eigenvalues"),
    ("linalg", None, "hensel_lift_root", "linalg.hensel_lift_root"),
    ("spectral", None, "certify_strongly_normal", "spectral.certify"),
    ("spectral", "StrongNormalCertificate", "verify", "spectral.verify"),
    ("spectral", "StrongNormalCertificate", "to_dict", "spectral.to_dict"),
    ("spectral", "StrongNormalCertificate", "from_dict", "spectral.from_dict"),
    ("groups", "OneParamGroup", "evaluate", "groups.evaluate"),
    ("groups", "OneParamGroup", "verify_group_law", "groups.verify_group_law"),
    ("groups", None, "stone_recover", "groups.stone_recover"),
    ("cli", None, "main", "cli.main"),
]

# (module, class, attribute, counters bumped per call)
COUNTERS = [
    ("core", "PadicInt", "__init__", ("core.padicint_new.calls",)),
    ("core", "PadicInt", "__add__", ("core.arith.calls",)),
    ("core", "PadicInt", "__radd__", ("core.arith.calls",)),
    ("core", "PadicInt", "__sub__", ("core.arith.calls",)),
    ("core", "PadicInt", "__rsub__", ("core.arith.calls",)),
    ("core", "PadicInt", "__mul__", ("core.arith.calls",)),
    ("core", "PadicInt", "__rmul__", ("core.arith.calls",)),
    ("core", "PadicInt", "inverse", ("core.arith.calls",)),
    ("core", "PadicInt", "divide_exact", ("core.arith.calls", "core.divide_exact.calls")),
]

LAYERS = ("functions", "linalg", "spectral", "groups", "cli")


def _count_ints(obj) -> int:
    """Big integers in a serialized certificate: its decimal strings."""
    if isinstance(obj, str):
        return 1
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return sum(_count_ints(v) for v in obj)
    return 0


def _after_matmul(counts, args, out):
    counts["linalg.matmul.mults"] += args[0].n ** 3


def _after_series(budget_pos):
    def hook(counts, args, out):
        counts["functions.out_prec.sum"] += out.prec / args[budget_pos].target
        counts["functions.out_prec.n"] += 1

    return hook


def _after_to_dict(counts, args, out):
    counts["spectral.cert_ints"] += _count_ints(out)


def _after_from_dict(counts, args, out):
    counts["spectral.cert_ints"] += _count_ints(args[1])


HOOKS = {
    "linalg.matmul": _after_matmul,
    "functions.principal_power": _after_series(2),
    "functions.zeta_of": _after_series(1),
    "spectral.to_dict": _after_to_dict,
    "spectral.from_dict": _after_from_dict,
}


class Tracer:
    """Context manager: wraps on enter, restores every original on exit."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.counts = defaultdict(float)
        self.op = None
        self._stack: list[int] = []
        self._saved: list = []  # (owner, attribute, original object)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx] = [name, start, perf_counter(), parent, self.op]
                stack.pop()
            if hook is not None:
                hook(counts, args, out)
            return out

        return wrapper

    def _counter(self, keys, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for key in keys:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install and restore ----------------------------------------------

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap(self, module, cls, attr, make):
        # A module not loaded (cli, outside the CLI process) or a name the
        # library no longer has is skipped; its metrics then read 0.
        mod = sys.modules.get(f"{PACKAGE}.{module}")
        if cls is not None:
            owner = getattr(mod, cls, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                return
            if isinstance(original, classmethod):
                self._patch(owner, attr, classmethod(make(original.__func__)))
            else:
                self._patch(owner, attr, make(original))
            return
        original = getattr(mod, attr, None)
        if original is None:
            return
        wrapped = make(original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for binding, value in list(vars(loaded).items()):
                if value is original:
                    self._patch(loaded, binding, wrapped)

    def __enter__(self) -> "Tracer":
        try:
            for module, cls, attr, name in SPANS:
                self._wrap(module, cls, attr, lambda fn, name=name: self._span(name, fn))
            for module, cls, attr, keys in COUNTERS:
                self._wrap(module, cls, attr, lambda fn, keys=keys: self._counter(keys, fn))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- data ---------------------------------------------------------------

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def merge(self, data: dict) -> None:
        """Append spans and counts recorded by a traced child process."""
        offset = len(self.spans)
        for name, start, end, parent, op in data["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, op])
        for key, value in data["counts"].items():
            self.counts[key] += value

    def self_times(self) -> tuple[dict, dict]:
        """(calls, self seconds) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        for k, (name, start, end, parent, op) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[k]
        return calls, self_s


# name, unit, better: the per-layer metrics a traced run reports, per op
PER_LAYER = [
    ("core.padicint_new.calls", "count", "lower"),
    ("core.arith.calls", "count", "lower"),
    ("core.divide_exact.calls", "count", "lower"),
    ("functions.principal_power.calls", "count", "lower"),
    ("functions.principal_power.self_s", "s", "lower"),
    ("functions.zeta_of.calls", "count", "lower"),
    ("functions.zeta_of.self_s", "s", "lower"),
    ("functions.out_prec_ratio", "ratio", "higher"),
    ("functions.self_s", "s", "lower"),
    ("linalg.matmul.calls", "count", "lower"),
    ("linalg.matmul.self_s", "s", "lower"),
    ("linalg.matmul.mults", "count", "lower"),
    ("linalg.char_poly.self_s", "s", "lower"),
    ("linalg.inverse.self_s", "s", "lower"),
    ("linalg.eigenvalues.self_s", "s", "lower"),
    ("linalg.hensel_lift_root.self_s", "s", "lower"),
    ("linalg.congruent.self_s", "s", "lower"),
    ("linalg.matrix_new.calls", "count", "lower"),
    ("linalg.self_s", "s", "lower"),
    ("spectral.certify.calls", "count", "lower"),
    ("spectral.certify.self_s", "s", "lower"),
    ("spectral.verify.calls", "count", "lower"),
    ("spectral.verify.self_s", "s", "lower"),
    ("spectral.to_dict.self_s", "s", "lower"),
    ("spectral.from_dict.self_s", "s", "lower"),
    ("spectral.cert_ints", "count", "lower"),
    ("spectral.self_s", "s", "lower"),
    ("groups.evaluate.calls", "count", "lower"),
    ("groups.evaluate.self_s", "s", "lower"),
    ("groups.verify_group_law.self_s", "s", "lower"),
    ("groups.stone_recover.calls", "count", "lower"),
    ("groups.stone_recover.self_s", "s", "lower"),
    ("groups.self_s", "s", "lower"),
    ("cli.startup_s.p50", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.json_in_bytes", "bytes", "lower"),
    ("cli.json_out_bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def layer_metrics(tracer: Tracer, ops: int, extra: dict) -> dict:
    """Per-op values for every PER_LAYER name; ``extra`` supplies the rest."""
    calls, self_s = tracer.self_times()
    counts = tracer.counts
    n = counts.get("functions.out_prec.n", 0)
    values = {
        "functions.out_prec_ratio": counts.get("functions.out_prec.sum", 0.0) / n if n else 0.0,
        **extra,
    }
    for name, unit, _ in PER_LAYER:
        if name in values:
            continue
        stem, _, kind = name.rpartition(".")
        if name in counts:
            values[name] = counts[name] / ops
        elif kind == "calls":
            values[name] = calls.get(stem, 0) / ops
        elif kind == "self_s" and stem in LAYERS:
            values[name] = sum(t for n, t in self_s.items() if n.split(".")[0] == stem) / ops
        elif kind == "self_s":
            values[name] = self_s.get(stem, 0.0) / ops
        else:  # a counter this workload never bumps
            values[name] = 0.0
    return values
