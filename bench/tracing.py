"""Per-layer tracing for the cyclelink benchmark, from outside the package.

`Tracer.install` wraps the public functions of each layer module and
puts the wrapper at every module attribute that held the original, since
the package imports names with `from .x import y`.  Each wrapped call is
a span (name, start, end, parent span, command id) kept in memory;
self time is a span's duration minus its direct children's.  The three
hottest `Graph` methods are only counted: timing them would dominate.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "io6", "harness", "connectivity", "minor", "extremal", "reducer")
COUNTED_METHODS = ("reach_mask", "adj_mask", "is_connected_mask")
RULES = (
    "separation-split", "lift-failed", "contraction", "recursion-skipped",
    "dense-skipped", "dense-construction", "falsifier-check",
    "fallback-search", "certificate", "falsifier",
)


def _rules_of(args, kwargs) -> tuple[str, ...]:
    trace = args[2] if len(args) > 2 else kwargs.get("trace")
    return tuple(step["rule"] for step in trace.steps) if trace is not None else ()


def _tags(lib) -> dict:
    """Outcome recorded per call, for the yes/no splits and ratios."""
    return {
        "minor.find_rooted_cycle_minor": lambda r, a, k: r is not None,
        "connectivity.menger": lambda r, a, k: isinstance(r, lib.PathSystem),
        "connectivity.is_rigid": lambda r, a, k: bool(r),
        "extremal.recognize": lambda r, a, k: r is not None,
        "harness.is_k_connected": lambda r, a, k: bool(r),
        "reducer.solve": lambda r, a, k: _rules_of(a, k),
    }


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, cmd, tag]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.active = False
        self.cmd = -1

    def _span(self, name, fn, tag):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.cmd, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer.stack.pop()
            if tag is not None:
                span[5] = tag(result, args, kwargs)
            return result

        return wrapper

    def _count(self, name, fn):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            if tracer.active:
                counts[name] += 1
            return fn(*args)

        return wrapper

    def install(self, lib) -> None:
        tags = _tags(lib)
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"cyclelink.{layer}"]
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(fn)
                    and (layer != "cli" or attr == "main")
                ):
                    name = f"{layer}.{attr}"
                    wrapped[fn] = self._span(name, fn, tags.get(name))
        for modname, mod in list(sys.modules.items()):
            if modname == "cyclelink" or modname.startswith("cyclelink."):
                for attr, val in list(vars(mod).items()):
                    if inspect.isfunction(val) and val in wrapped:
                        setattr(mod, attr, wrapped[val])
        for meth in COUNTED_METHODS:
            setattr(lib.Graph, meth, self._count(f"graph.{meth}.calls", getattr(lib.Graph, meth)))

    def metrics(self) -> dict[str, float]:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        incl: Counter = Counter()
        self_s: Counter = Counter()
        true: Counter = Counter()
        rules: Counter = Counter()
        solves = by_rule = 0
        for i, (name, start, end, _, _, tag) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            incl[name] += dur
            self_s[name] += dur - child[i]
            self_s["layer." + name.split(".")[0]] += dur - child[i]
            if tag is True:
                true[name] += 1
            if name == "minor.find_rooted_cycle_minor":
                kind = "yes" if tag else "no"
                calls[f"{name}.{kind}"] += 1
                incl[f"{name}.{kind}"] += dur
            if name == "reducer.solve":
                solves += 1
                rules.update(r if r in RULES else "other" for r in tag)
                decisive = [r for r in tag if r not in ("certificate", "falsifier")]
                by_rule += bool(decisive) and decisive[-1] != "fallback-search"

        def ratio(a, b):
            return a / b if b else 0.0

        find = "minor.find_rooted_cycle_minor"
        out = {
            f"{find}.calls.yes": calls[f"{find}.yes"],
            f"{find}.calls.no": calls[f"{find}.no"],
            f"{find}.s.yes": incl[f"{find}.yes"],
            f"{find}.s.no": incl[f"{find}.no"],
            "minor.is_cycle_linked.calls": calls["minor.is_cycle_linked"],
            "minor.is_cycle_linked.s": incl["minor.is_cycle_linked"],
        }
        out.update({f"graph.{m}.calls": self.counts[f"graph.{m}.calls"] for m in COUNTED_METHODS})
        k_conn = "harness.is_k_connected"
        out.update({
            "harness.sample_k_connected.s": incl["harness.sample_k_connected"],
            f"{k_conn}.calls": calls[k_conn],
            "harness.sampler.accept_ratio": ratio(true[k_conn], calls[k_conn]),
        })
        for name in ("connectivity.menger", "connectivity.is_massed", "connectivity.is_rigid"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = incl[name]
        out["connectivity.menger.paths_ratio"] = ratio(
            true["connectivity.menger"], calls["connectivity.menger"])
        out["connectivity.is_rigid.true_ratio"] = ratio(
            true["connectivity.is_rigid"], calls["connectivity.is_rigid"])
        out["reducer.solve.self_s"] = self_s["reducer.solve"]
        out.update({f"reducer.rule.{r}.count": rules[r] for r in RULES + ("other",)})
        out["reducer.decided_by_rule_ratio"] = ratio(by_rule, solves)
        out.update({
            "extremal.recognize.calls": calls["extremal.recognize"],
            "extremal.recognize.s": incl["extremal.recognize"],
            "extremal.recognize.hit_ratio": ratio(
                true["extremal.recognize"], calls["extremal.recognize"]),
            "extremal.generate.s": incl["extremal.generate"],
        })
        for fn in ("load_graph", "parse_graph6", "to_graph6"):
            out[f"io6.{fn}.calls"] = calls[f"io6.{fn}"]
            out[f"io6.{fn}.s"] = incl[f"io6.{fn}"]
        out["cli.main.calls"] = calls["cli.main"]
        out["cli.main.self_s"] = self_s["cli.main"]
        out.update({f"layer.{layer}.self_s": self_s[f"layer.{layer}"] for layer in LAYERS})
        return out

    def write(self, path: str) -> None:
        """One JSON array per span: name, start, end, parent index, command id."""
        with open(path, "w") as fh:
            for name, start, end, parent, cmd, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, cmd]) + "\n")
