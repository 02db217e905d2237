"""Run one c4book CLI invocation with its layer boundaries timed.

Usage: python3 trace_op.py TRACE.json CLI-ARG...

Every public function of the layer modules is replaced, in every namespace
that binds it, by one timing wrapper, and so are the `Graph.with_vertex` and
`Graph.induced_mask` methods.  Per function the tracer keeps the call count,
the inclusive time, and the layer self time: the time not spent in calls into
other layers.  Hot leaf functions (field operations, `with_vertex`) only
update those counters; every other call also leaves a span (name, start, end,
parent span).  Spans stay in memory and are written once, with the counters,
when the command returns.  The exit code is the command's.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types

LAYERS = ("gf", "geometry", "graphcore", "canon", "bounds", "ramsey", "search", "cli")
LEAVES = {"gf.add", "gf.mul", "gf.neg", "gf.inv", "graphcore.Graph.with_vertex"}


class Tracer:
    def __init__(self):
        # one frame per open non-leaf call: [name, layer, other-layer time, span]
        self.frames = [["", "", 0.0, -1]]
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.layer_s: dict[str, float] = {}  # time entered from another layer
        self.inside_leaf: dict[str, bool] = {}
        self.counts: dict[str, int] = {}
        self.spans: list = []

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, observe=None):
        layer = name.split(".", 1)[0]
        frames, spans, clock, layer_s = self.frames, self.spans, time.perf_counter, self.layer_s
        rec = self.stats[name] = [0, 0.0, 0.0]
        layer_s.setdefault(layer, 0.0)

        if name in LEAVES:
            inside = self.inside_leaf
            inside.setdefault(layer, False)

            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                rec[0] += 1
                if inside[layer]:  # nested in a leaf of its own layer
                    return fn(*args, **kwargs)
                inside[layer] = True
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    took = clock() - start
                    inside[layer] = False
                    rec[1] += took
                    rec[2] += took
                    parent = frames[-1]
                    if parent[1] != layer:
                        parent[2] += took
                        layer_s[layer] += took

            return leaf

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = frames[-1]
            if observe is not None:
                observe(parent[0], args, kwargs)
            idx = len(spans)
            spans.append(None)
            frame = [name, layer, 0.0, idx]
            frames.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                took = end - start
                rec[0] += 1
                rec[1] += took
                rec[2] += took - frame[2]
                if parent[1] == layer:
                    parent[2] += frame[2]
                else:
                    parent[2] += took
                    layer_s[layer] += took
                spans[idx] = (name, start, end, parent[3])

        return traced

    def report(self) -> dict:
        return {
            "calls": {name: rec[0] for name, rec in self.stats.items()},
            "incl_s": {name: rec[1] for name, rec in self.stats.items()},
            "self_s": {name: rec[2] for name, rec in self.stats.items()},
            "layer_s": self.layer_s,
            "counts": self.counts,
            "spans": self.spans,
        }


def _arg(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def install(tracer: Tracer) -> None:
    """Wrap the layer functions of the imported package in place."""
    modules = [importlib.import_module(f"c4book.{name}") for name in LAYERS]
    modules.append(importlib.import_module("c4book"))
    layer_modules = {f"c4book.{name}" for name in LAYERS}

    def result_observer(name, fn):
        # Counts read off a call's arguments and result, at the boundary.
        if name == "canon.canonical_form":
            def run(*a, **k):
                form = fn(*a, **k)
                tracer.count("generators", len(form.generators))
                return form
        elif name == "ramsey.complement_book_number":
            def run(*a, **k):
                result = fn(*a, **k)
                stop_at = _arg(a, k, 2, "stop_at")
                if stop_at is not None and result[0] >= stop_at:
                    tracer.count("book_cut")
                return result
        elif name == "search.random_delete_construction":
            def run(*a, **k):
                result = fn(*a, **k)
                tracer.count("random_delete_attempts", result[1].attempts)
                return result
        elif name == "search.probe_script_Gq":
            def run(*a, **k):
                result = fn(*a, **k)
                # The probe stops short of its budget only when it finds a
                # witness, so the step count is known exactly only on None.
                if result is None:
                    tracer.count("anneal_steps", int(_arg(a, k, 1, "budget", 10**6)))
                else:
                    tracer.count("anneal_steps_unknown")
                return result
        else:
            return fn
        return functools.wraps(fn)(run)

    def call_observer(name):
        # Counts that depend on which span was open when the call began.
        if name == "canon.canonical_form":
            def seen(parent, a, k):
                if any(f[0] == "search.exhaust_ramsey" for f in tracer.frames):
                    tracer.count("enum_labels")
            return seen
        if name in ("ramsey.complement_book_number", "ramsey.is_ramsey_witness"):
            def seen(parent, a, k):
                if parent == "search.exhaust_ramsey":
                    tracer.count("enum_kept")
            return seen
        return None

    wrappers = {}
    for module in modules:
        for attr, value in list(vars(module).items()):
            if (
                attr.startswith("_")
                or not isinstance(value, types.FunctionType)
                or value.__module__ not in layer_modules
            ):
                continue
            if value not in wrappers:
                name = f"{value.__module__.split('.', 1)[1]}.{value.__name__}"
                inner = result_observer(name, value)
                wrappers[value] = tracer.wrap(name, inner, call_observer(name))
            setattr(module, attr, wrappers[value])

    graph = importlib.import_module("c4book.graphcore").Graph
    for method in ("with_vertex", "induced_mask"):
        setattr(graph, method, tracer.wrap(f"graphcore.Graph.{method}", getattr(graph, method)))


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from c4book import cli

    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(tracer.report(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
