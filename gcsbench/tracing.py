"""Layer spans recorded from outside the program.

While installed, every public function of the gcslib layer modules (cli,
states, fock, beamsplitter, drive, kernels) is replaced by a wrapper that
records a span: name, start, end, parent span and operation id.  Names are
bound per module, so `states.laguerre_table` (the copy `states` imports from
`kernels`) is wrapped too and recorded as `kernels.laguerre_table`.  `specfun`
is not a layer of its own: its functions are thin wrappers over `kernels`
plus the `log_factorial` that `states` maps over arrays, so their time shows
in the self time of the calling layer.

A span's self time is its duration minus the durations of its direct
children.  Spans stay in memory until `write` saves them as JSON lines.
"""

import json
import time
import types

import numpy as np

LAYERS = ("cli", "states", "fock", "beamsplitter", "drive", "kernels")

# work counters taken from a call's arguments: span name -> (metric, fn);
# recurrence steps are points (or table entries) times the degree
COUNTERS = {
    "kernels.hermite_functions": (
        "kernels.hermite_functions.point_steps", lambda a, k: a[0] * np.size(a[2])),
    "kernels.laguerre_table": (
        "kernels.laguerre_table.entry_steps", lambda a, k: a[0] * np.size(a[1])),
    "fock.schrodinger_evolve": ("fock.steps", lambda a, k: a[4] if len(a) > 4 else k["steps"]),
}

NAME, START, END, PARENT, OP, CHILD, COUNT = range(7)


class Tracer:
    """Span recorder with install/remove of the wrappers around gcslib."""

    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self.stack = []
        self.op = None
        self._saved = []

    def _wrap(self, name, func):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.op, 0.0, 0]
            if counter is not None:
                rec[COUNT] = int(counter[1](args, kwargs))
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return func(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += rec[END] - rec[START]

        wrapper.__wrapped__ = func
        return wrapper

    def install(self):
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                layer = value.__module__.rpartition(".")[2]
                if value.__module__.startswith("gcslib.") and layer in LAYERS:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, self._wrap(f"{layer}.{value.__name__}", value))

    def remove(self):
        for mod, attr, value in self._saved:
            setattr(mod, attr, value)
        self._saved = []

    def run(self, op_id, fn, *args):
        """Call fn(*args) traced, under a root span `bench.op`; return its result.

        The root span also covers installing and removing the wrappers, so
        the self times of all spans add up to the whole traced call.
        """
        self.op = op_id

        def traced(*a):
            self.install()
            try:
                return fn(*a)
            finally:
                self.remove()

        return self._wrap("bench.op", traced)(*args)

    def summary(self, ops):
        """Per-operation means: layer self times, per-name time/calls/counters."""
        totals = {}

        def add(key, value):
            totals[key] = totals.get(key, 0.0) + value

        for rec in self.spans:
            dur = rec[END] - rec[START]
            name = rec[NAME]
            add(name.partition(".")[0] + ".self_ms", 1e3 * (dur - rec[CHILD]))
            add(name + ".ms", 1e3 * dur)
            add(name + ".calls", 1)
            if name in COUNTERS:
                add(COUNTERS[name][0], rec[COUNT])
        return {key: value / ops for key, value in totals.items()}

    def write(self, path):
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": rec[NAME], "parent": rec[PARENT], "op": rec[OP],
                    "start_us": round(1e6 * (rec[START] - t0), 3),
                    "end_us": round(1e6 * (rec[END] - t0), 3),
                }) + "\n")
