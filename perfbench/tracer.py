"""Span tracing of the `dinerq` layers from outside the package.

Every public function of each layer module (`dinerq.cli`, `dinerq.ewl`, ...)
is wrapped once. The wrapper is bound wherever the original function object
is bound in any loaded `dinerq.*` namespace, so names imported with
`from .statevector import apply_single_qubit` are traced too. Binding by
object identity, not by a fixed list of names, means that functions added or
removed by later changes need no edit here: a metric that names a function
which no longer exists reads 0 and the function is listed as absent.

Spans live in memory as (name id, start ns, end ns, parent index, operation,
ok) and are written out with `write_spans` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter_ns

PACKAGE = "dinerq"
LAYERS = ("cli", "ewl", "statevector", "payoff", "equilibrium", "circuit", "qasm")

# Functions whose first argument is recorded, to count distinct inputs.
KEYED = ("ewl.outcome_distribution",)


def _hashable(x):
    try:
        hash(x)
    except TypeError:
        return repr(x)
    return x


class Tracer:
    """Wraps the layers of the package; `install`/`uninstall` switch tracing."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.keys: dict[str, list] = {name: [] for name in KEYED}
        self.current = -1  # index of the open span, -1 at top level
        self.op = -1  # operation the spans belong to
        wrappers = {}  # id(original) -> traced wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == module.__name__
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        # Every binding of a wrapped function, in every loaded dinerq module.
        self.bindings = [
            (module, attr, obj, wrappers[id(obj)])
            for name, module in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
            for attr, obj in vars(module).items()
            if id(obj) in wrappers
        ]

    def _wrap(self, name: str, fn):
        sid = len(self.names)
        self.names.append(name)
        spans = self.spans
        keys = self.keys.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None and args:
                keys.append(_hashable(args[0]))
            index = len(spans)
            spans.append(None)
            parent = tracer.current
            tracer.current = index
            ok = False
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                spans[index] = (sid, start, perf_counter_ns(), parent, tracer.op, ok)
                tracer.current = parent

        return traced

    def install(self, op: int) -> None:
        self.op, self.current = op, -1
        for module, attr, _, wrapper in self.bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self.bindings:
            setattr(module, attr, original)

    # --- aggregation ---------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per function and per layer: calls, busy_ms, self_ms, failed.

        Busy time counts only spans with no enclosing span of the same
        function (or layer), so nesting is not counted twice; self time is a
        span's duration minus its children's.
        """
        spans, names = self.spans, self.names
        layer_of = [name.split(".")[0] for name in names]
        child_ns = [0] * len(spans)
        for sid, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_ns": 0, "self_ns": 0, "failed": 0}
        )
        for index, (sid, start, end, parent, _, ok) in enumerate(spans):
            duration = end - start
            fn_outer = layer_outer = True
            p = parent
            while p >= 0 and (fn_outer or layer_outer):
                psid = spans[p][0]
                fn_outer = fn_outer and psid != sid
                layer_outer = layer_outer and layer_of[psid] != layer_of[sid]
                p = spans[p][3]
            for key, outer in ((names[sid], fn_outer), (layer_of[sid], layer_outer)):
                row = out[key]
                row["calls"] += 1
                row["self_ns"] += duration - child_ns[index]
                row["failed"] += not ok
                if outer:
                    row["busy_ns"] += duration
        return {
            key: {"calls": row["calls"], "busy_ms": row["busy_ns"] / 1e6,
                  "self_ms": row["self_ns"] / 1e6, "failed": row["failed"]}
            for key, row in out.items()
        }

    def top_level_ns(self) -> int:
        """Time covered by spans with no parent."""
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0)

    def parts_of(self, name: str, ops) -> dict[str, int]:
        """Time of `name` spans split into their direct children and self."""
        sid = self.names.index(name)
        parents = {i for i, s in enumerate(self.spans) if s[0] == sid and s[4] in ops}
        parts: dict[str, int] = defaultdict(int)
        for i, s in enumerate(self.spans):
            if i in parents:
                parts["(self)"] += s[2] - s[1]
            if s[3] in parents:
                parts[self.names[s[0]]] += s[2] - s[1]
                parts["(self)"] -= s[2] - s[1]
        return dict(parts)

    def distinct_ratio(self, name: str) -> float:
        keys = self.keys[name]
        return len(set(keys)) / len(keys) if keys else 0.0

    def write_spans(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_us\tend_us\tok\n")
            for index, (sid, start, end, parent, op, ok) in enumerate(self.spans):
                fh.write(
                    f"{op}\t{index}\t{parent}\t{self.names[sid]}\t"
                    f"{(start - origin) / 1e3:.3f}\t{(end - origin) / 1e3:.3f}\t{int(ok)}\n"
                )
