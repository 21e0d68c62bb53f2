"""Per-layer spans recorded from outside the program.

``install`` replaces each listed public function of haarint, wherever a
haarint module binds it, with a wrapper that opens a span.  A span's
self time is its duration minus the time its child spans cover; spans
nest through a stack, since the program runs requests on one thread.
Spans are kept in memory (up to ``MAX_SPANS`` per process, totals are
always complete) and written out when the worker ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

# layer name -> (module, attribute path) of every function it wraps
LAYERS = {
    "ratlinalg.rank": [("ratlinalg", "rank")],
    "ratlinalg.invert": [("ratlinalg", "invert")],
    "ratlinalg.pseudo_inverse": [("ratlinalg", "pseudo_inverse")],
    "ratlinalg.mat_mul": [("ratlinalg", "mat_mul")],
    "moments.gram_matrix": [("moments", "gram_matrix")],
    "moments.weingarten_data": [("moments", "weingarten_data")],
    "moments.exact_integral": [("moments", "exact_integral")],
    "moments.asymptotic_leading": [("moments", "asymptotic_leading")],
    "moments.evaluate_monomial": [("moments", "evaluate_monomial")],
    "irreps.integrate_irrep_exact": [("irreps", "integrate_irrep_exact")],
    "irreps.asymptotic_irrep": [("irreps", "asymptotic_irrep")],
    "irreps.build_irrep_basis": [("irreps", "build_irrep_basis")],
    "irreps.rho_matrix": [("irreps", "rho_matrix")],
    "tensors.apply_symmetrizer": [("tensors", "apply_symmetrizer")],
    "tensors.traceless_project": [("tensors", "traceless_project")],
    "tableaux.enumerate": [("tableaux", "enumerate_gl_tableaux"),
                           ("tableaux", "enumerate_o_tableaux"),
                           ("tableaux", "enumerate_sp_tableaux")],
    "sampling.sample_group": [("sampling", "sample_group")],
    "sampling.generator": [("sampling", "RngStream.generator")],
    "sampling.mc_expectation": [("sampling", "mc_expectation")],
    "entropy.random_pure_state": [("entropy", "random_pure_state")],
    "entropy.mc_average_entropy": [("entropy", "mc_average_entropy")],
    "su2.su2_integral_closed": [("su2", "su2_integral_closed")],
    "su2.su2_integral_quadrature": [("su2", "su2_integral_quadrature")],
    "cli.main": [("cli", "main")],
}

# computed counts: name -> (layer whose calls it sums over, amount per call)
COUNTS = {
    # k^2 entries of every k x k Gram the Weingarten solve is handed
    "moments.gram_entries": ("moments.weingarten_data",
                             lambda args, kwargs: len(args[0]) ** 2),
}

MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.enabled = False
        self.request = -1
        self.self_s: dict[str, float] = {name: 0.0 for name in LAYERS}
        self.calls: dict[str, int] = {name: 0 for name in LAYERS}
        self.counts: dict[str, int] = {name: 0 for name in COUNTS}
        self.missing: list[str] = []
        self._stack: list[list] = []   # [span id, start, child time]
        self._names = list(LAYERS)
        self._next_id = 0
        # one row per span: id, parent id, layer index, request, start, end
        self._spans = array("d")
        self.dropped = 0

    def _wrap(self, name, fn):
        layer = self._names.index(name)
        counters = [(c, f) for c, (lay, f) in COUNTS.items() if lay == name]
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            for c, f in counters:
                self.counts[c] += f(args, kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self.self_s[name] += dur - frame[2]
                self.calls[name] += 1
                if stack:
                    stack[-1][2] += dur
                if len(self._spans) < 6 * MAX_SPANS:
                    self._spans.extend((sid, parent, layer, self.request, frame[1], end))
                else:
                    self.dropped += 1

        return wrapper

    def install(self, package):
        """Wrap every layer function and rebind it in every module of the
        package that holds a reference to the original."""
        modules = [m for k, m in sys.modules.items()
                   if k == package.__name__ or k.startswith(package.__name__ + ".")]
        for name, targets in LAYERS.items():
            for mod_name, attr in targets:
                mod = sys.modules.get(f"{package.__name__}.{mod_name}")
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                fn = getattr(owner, fn_name, None) if owner is not None else None
                if fn is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                wrapped = self._wrap(name, fn)
                if owner_name:
                    setattr(owner, fn_name, wrapped)
                    continue
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapped)

    def write(self, path):
        rows = self._spans
        with gzip.open(path, "wt") as fh:
            json.dump({"columns": ["id", "parent", "layer", "request", "start", "end"],
                       "layers": self._names, "dropped": self.dropped,
                       "missing": self.missing}, fh)
            fh.write("\n")
            for k in range(0, len(rows), 6):
                fh.write(json.dumps([int(rows[k]), int(rows[k + 1]), int(rows[k + 2]),
                                     int(rows[k + 3]), rows[k + 4], rows[k + 5]]))
                fh.write("\n")

    def totals(self) -> dict:
        out = {}
        for name in LAYERS:
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.calls"] = self.calls[name]
        out.update(self.counts)
        return out
