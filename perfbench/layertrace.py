"""Outside-in tracing of chrkit's layers, from the benchmark's own code.

A layer is a chrkit module.  ``Tracer.install()`` wraps each function that
one layer calls in another: it replaces the function under the name the
calling module imported it as (``from .equivalence import
states_equivalent_mod`` binds it in ``semantics.search`` and in
``analysis``; both bindings are wrapped), and replaces module objects a
caller reaches through (``annotated.successors``, ``_MODES[...]``) by a
namespace of wrapped functions.  Calls inside one module stay unwrapped,
so spans mark layer boundaries.  The functions whose calls are counted are
wrapped in their own module as well, so their counts include calls from
inside the layer, and so is ``Store.solved``.  Nothing under ``src/`` is
edited; ``uninstall()`` puts every binding back.

Each wrapped call records a span (name, parent span, start, end) in
memory.  ``metrics()`` derives per layer:

* ``self_s``: span time minus the time its child spans cover;
* ``incl_s``: time of the layer's outermost spans only, i.e. of spans with
  no span of the same layer above them;

and the work counts listed in ``COUNTED``.
"""

from __future__ import annotations

import gzip
import sys
import types
from array import array
from time import perf_counter

LAYERS = (
    "cli", "syntax", "terms", "constraints",
    "semantics.matching", "semantics.annotated", "semantics.standard",
    "semantics.search", "equivalence", "analysis", "unfold", "replace",
)


# (layer, function) -> the counters one call adds to: metric name -> value
# taken from the result, or None to count the call.
COUNTED = {
    ("terms", "unify"): {"terms.unify.calls": None},
    ("terms", "vars_of"): {"terms.vars_of.calls": None},
    ("constraints", "conjoin"): {"constraints.conjoin.calls": None},
    ("constraints", "Store.solved"): {"constraints.solved.calls": None},
    # entails_exists and entails_eq both go through entailment_witness
    ("constraints", "entailment_witness"): {
        "constraints.entails.calls": None,
        "constraints.entails.hits": lambda r: r is not None,
    },
    ("semantics.matching", "enumerate_firings"): {
        "semantics.matching.enumerate_firings.calls": None,
        "semantics.matching.firings": len,
    },
    ("semantics.search", "explore"): {
        "semantics.search.explore.calls": None,
        "semantics.search.states_expanded": lambda r: r.expanded,
        "semantics.search.truncated": lambda r: r.truncated,
    },
    ("equivalence", "states_equivalent_mod"): {
        "equivalence.states_equivalent_mod.calls": None,
        "equivalence.states_equivalent_mod.hits": bool,
    },
    ("analysis", "check_normal_termination"): {
        "analysis.termination.expanded": lambda r: r.expanded,
    },
    ("unfold", "unfold_at"): {"unfold.unfold_at.calls": None},
    ("unfold", "unfold_sites"): {"unfold.sites": len},
    ("replace", "check_replacement"): {"replace.hazards": lambda r: len(r.hazards)},
}
# ratio metric -> (numerator, denominator)
RATIOS = {
    "constraints.entails.hit_ratio": ("constraints.entails.hits", "constraints.entails.calls"),
    "semantics.search.truncated_ratio": (
        "semantics.search.truncated", "semantics.search.explore.calls",
    ),
    "equivalence.states_equivalent_mod.hit_ratio": (
        "equivalence.states_equivalent_mod.hits", "equivalence.states_equivalent_mod.calls",
    ),
}


class Tracer:
    def __init__(self):
        self.names: list = []  # span name id -> "layer.function"
        self.name_layer = array("l")  # span name id -> layer index
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.outermost = array("b")
        self._stack: list = []
        self._open = [0] * len(LAYERS)  # open spans per layer
        self.counts = {m: 0 for hooks in COUNTED.values() for m in hooks}
        self._wrappers: dict = {}
        self._restore: list = []

    def wrap(self, layer: str, func_name: str, fn):
        """``fn`` wrapped so that each call records a span."""
        nid = len(self.names)
        lid = LAYERS.index(layer)
        self.names.append(f"{layer}.{func_name}")
        self.name_layer.append(lid)
        hooks = list(COUNTED.get((layer, func_name), {}).items())
        start, end, parent, name, outermost = (
            self.start, self.end, self.parent, self.name, self.outermost,
        )
        stack, open_ = self._stack, self._open
        counts = self.counts

        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            outermost.append(open_[lid] == 0)
            end.append(0.0)
            stack.append(idx)
            open_[lid] += 1
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                open_[lid] -= 1
                stack.pop()
            for metric, get in hooks:
                counts[metric] += 1 if get is None else get(result)
            return result

        return wrapper

    def _wrapped(self, fn):
        if fn not in self._wrappers:
            layer = fn.__module__.removeprefix("chrkit.")
            self._wrappers[fn] = self.wrap(layer, fn.__name__, fn)
        return self._wrappers[fn]

    def _bind(self, namespace: dict, key: str, value) -> None:
        self._restore.append((namespace, key, namespace[key]))
        namespace[key] = value

    def install(self) -> None:
        modules = {m: sys.modules[f"chrkit.{m}"] for m in LAYERS}
        proxies = {}

        def proxy(module):
            """A stand-in for a layer module, its own functions wrapped."""
            if module not in proxies:
                ns = dict(vars(module))
                for key, value in ns.items():
                    if isinstance(value, types.FunctionType) and value.__module__ == module.__name__:
                        ns[key] = self._wrapped(value)
                proxies[module] = types.SimpleNamespace(**ns)
            return proxies[module]

        for layer, module in modules.items():
            ns = vars(module)
            for key, value in list(ns.items()):
                if isinstance(value, types.FunctionType):
                    home = value.__module__.removeprefix("chrkit.")
                    if home in modules and (
                        home != layer or (home, value.__name__) in COUNTED
                    ):
                        self._bind(ns, key, self._wrapped(value))
                elif _is_layer(value) and value is not module:
                    self._bind(ns, key, proxy(value))
                elif isinstance(value, dict) and value and all(
                    _is_layer(v) for v in value.values()
                ):
                    self._bind(ns, key, {k: proxy(v) for k, v in value.items()})
        store = modules["constraints"].Store
        solved = self.wrap("constraints", "Store.solved", store.solved)
        self._restore.append((store, "solved", store.__dict__["solved"]))
        store.solved = solved

    def uninstall(self) -> None:
        for namespace, key, value in reversed(self._restore):
            if isinstance(namespace, dict):
                namespace[key] = value
            else:
                setattr(namespace, key, value)
        self._restore.clear()

    def metrics(self) -> dict:
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_s = [0.0] * len(LAYERS)
        incl_s = [0.0] * len(LAYERS)
        for i in range(n):
            lid = self.name_layer[self.name[i]]
            self_s[lid] += dur[i] - child[i]
            if self.outermost[i]:
                incl_s[lid] += dur[i]
        out = {}
        for lid, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = self_s[lid]
            out[f"{layer}.incl_s"] = incl_s[lid]
        numerators = {num for num, _ in RATIOS.values()}
        for metric, value in self.counts.items():
            if metric not in numerators:
                out[metric] = value
        for metric, (num, den) in RATIOS.items():
            out[metric] = self.counts[num] / self.counts[den] if self.counts[den] else 0.0
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped tab-separated lines:
        id, parent id, name, start, end (seconds, perf_counter clock)."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tparent\tname\tstart\tend\n")
            for i in range(len(self.start)):
                f.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                        f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")


def _is_layer(value) -> bool:
    return isinstance(value, types.ModuleType) and value.__name__.removeprefix(
        "chrkit."
    ) in LAYERS
