"""In-memory spans around the public functions of each entspace layer.

The tracer rebinds each public name in every ``entspace`` module that looks
it up (``entspace.cli.entangled_subspace``, ``entspace.construct.span``,
``entspace.verify.reduce_mod_p``, ...), so nested calls get parent spans and
the package itself is not edited.  Every span records its name, layer,
start, end, parent and the request id of the CLI invocation it belongs to.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

# layer -> (module, the public names the CLI can reach); "Class.method"
# patches the class attribute.
LAYERS = {
    "grading": ("entspace.grading", ("parse_dims", "enumerate_level", "level_counts")),
    "linalg": ("entspace.linalg", (
        "span", "orthocomplement", "reduce_mod_p", "integer_generators",
        "Subspace.contains")),
    "construct": ("entspace.construct", (
        "entangled_subspace", "entangled_complement", "entangled_level",
        "level_sum_vector", "vandermonde_vector",
        "standard_product_vector", "minimal_upb", "upb_of_size",
        "antidiagonal_zero_space", "split_antidiagonal_spaces",
        "character_basis", "ProductVector.expand")),
    "verify.ff": ("entspace.verify", (
        "find_product_vectors_fp", "ff_verify", "classify_product_vectors_fp")),
    "verify.als": ("entspace.verify", ("max_product_overlap", "orthonormal_basis")),
    "verify.upb": ("entspace.verify", ("verify_upb",)),
    "serialize": ("entspace.serialize", (
        "json_dumps", "subspace_document", "vectors_document",
        "product_vectors_document", "encode_report", "encode_upb_report",
        "encode_upb_recipe", "encode_classify_report", "encode_witness",
        "csv_matrices")),
}
CLI_LAYER = "cli"


@dataclass
class Span:
    rid: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    info: dict = field(default_factory=dict)


def _counters(name: str, bound: inspect.BoundArguments, result) -> dict:
    """Work counts taken at the span boundary, where the work happens."""
    a = bound.arguments
    if name == "span":
        return {"rows_in": len(a["vectors"]), "rank_out": result.dim}
    if name == "find_product_vectors_fp":
        tests = 1
        for d in a["dims"].d:
            tests *= (a["p"] ** d - 1) // (a["p"] - 1)
        return {"tests": tests, "found": len(result)}
    if name == "max_product_overlap":
        return {"restarts": result.report.params["restarts"],
                "sweeps": result.report.metrics["total_sweeps"]}
    if name in ("json_dumps", "csv_matrices"):
        return {"bytes": len(result.encode("utf-8"))}
    return {}


class Tracer:
    """Collects spans while installed; ``take`` hands them over and clears."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.rid = 0

    def call(self, name: str, layer: str, fn, args, kwargs, sig=None):
        if name == "span" and args:
            # span() accepts any iterable; materialize it to count rows
            args = (list(args[0]),) + tuple(args[1:])
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(self.rid, name, layer, time.perf_counter(), parent=parent))
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.spans[idx].end = time.perf_counter()
            self._stack.pop()
        if sig is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.spans[idx].info = _counters(name, bound, result)
        return result

    def take(self) -> list[Span]:
        out, self.spans = self.spans, []
        return out

    def _wrap(self, name: str, layer: str, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, layer, fn, args, kwargs, sig)

        return wrapper

    @contextmanager
    def installed(self):
        """Rebind every traced name in the loaded entspace modules."""
        undo = []
        modules = [m for n, m in list(sys.modules.items())
                   if n == "entspace" or n.startswith("entspace.")]
        try:
            for layer, (modname, names) in LAYERS.items():
                mod = importlib.import_module(modname)
                for name in names:
                    if "." in name:
                        cls_name, attr = name.split(".")
                        owner = getattr(mod, cls_name)
                        fn = owner.__dict__[attr]
                        undo.append((owner, attr, fn))
                        setattr(owner, attr, self._wrap(attr, layer, fn))
                        continue
                    fn = getattr(mod, name)
                    wrapper = self._wrap(name, layer, fn)
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is fn:
                                undo.append((m, key, fn))
                                setattr(m, key, wrapper)
            yield self
        finally:
            for owner, key, fn in reversed(undo):
                setattr(owner, key, fn)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures for one traced pass.

    A layer's self time is span duration minus the time its child spans
    cover.  A named function's time (``linalg.span_s``, ...) is its self
    time plus that of nested calls in the same layer, so
    ``linalg.reduce_mod_p_s`` includes the F_p ``span`` it runs, which
    ``linalg.span_s`` counts as well.
    """
    n = len(spans)
    dur = [s.end - s.start for s in spans]
    self_t = dur[:]
    for s, d in zip(spans, dur):
        if s.parent is not None:
            self_t[s.parent] -= d
    same_layer = self_t[:]
    for i in range(n - 1, -1, -1):
        p = spans[i].parent
        if p is not None and spans[p].layer == spans[i].layer:
            same_layer[p] += same_layer[i]

    by_layer: dict[str, float] = defaultdict(float)
    fn_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    layer_calls: dict[str, int] = defaultdict(int)
    info: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        by_layer[s.layer] += self_t[i]
        calls[s.name] += 1
        layer_calls[s.layer] += 1
        if s.parent is None or spans[s.parent].name != s.name:
            fn_time[s.name] += same_layer[i]
        for key, value in s.info.items():
            info[f"{s.name}.{key}"] += value

    csv_s = sum(self_t[i] for i, s in enumerate(spans) if s.name == "csv_matrices")
    json_s = by_layer["serialize"] - csv_s
    ff_walk_s = sum(self_t[i] for i, s in enumerate(spans)
                    if s.name == "find_product_vectors_fp")
    tests = info["find_product_vectors_fp.tests"]
    found = info["find_product_vectors_fp.found"]
    als_s = fn_time["max_product_overlap"]
    sweeps = info["max_product_overlap.sweeps"]
    rows_in = info["span.rows_in"]
    rank_out = info["span.rank_out"]
    out_bytes = info["json_dumps.bytes"] + info["csv_matrices.bytes"]
    return {
        "cli.dispatch_self_s": by_layer[CLI_LAYER],
        "grading.self_s": by_layer["grading"],
        "grading.enumerate_level_s": fn_time["enumerate_level"],
        "grading.level_counts_s": fn_time["level_counts"],
        "grading.calls": layer_calls["grading"],
        "linalg.self_s": by_layer["linalg"],
        "linalg.span_s": fn_time["span"],
        "linalg.span_calls": calls["span"],
        "linalg.span_rows_in": rows_in,
        "linalg.span_rank_out": rank_out,
        "linalg.span_useful_ratio": _ratio(rank_out, rows_in),
        "linalg.orthocomplement_s": fn_time["orthocomplement"],
        "linalg.reduce_mod_p_s": fn_time["reduce_mod_p"],
        "linalg.contains_calls": calls["contains"],
        "construct.self_s": by_layer["construct"],
        "construct.minimal_upb_s": fn_time["minimal_upb"],
        "construct.upb_of_size_s": fn_time["upb_of_size"],
        "verify.ff_s": by_layer["verify.ff"],
        "verify.ff_tests": tests,
        "verify.ff_tests_per_s": _ratio(tests, ff_walk_s),
        "verify.ff_found": found,
        "verify.ff_hit_ratio": _ratio(found, tests),
        "verify.als_s": als_s,
        "verify.als_restarts": info["max_product_overlap.restarts"],
        "verify.als_sweeps": sweeps,
        "verify.als_sweeps_per_s": _ratio(sweeps, als_s),
        "verify.orthonormal_basis_s": fn_time["orthonormal_basis"],
        "verify.upb_self_s": by_layer["verify.upb"],
        "serialize.self_s": by_layer["serialize"],
        "serialize.json_s": json_s,
        "serialize.csv_s": csv_s,
        "serialize.bytes_out": out_bytes,
        "serialize.mb_per_s": _ratio(out_bytes / 1e6, by_layer["serialize"]),
    }


def top_layer(metrics: dict[str, float]) -> str:
    """The layer with the largest self time; verify is split into its parts."""
    totals = {
        "cli": metrics["cli.dispatch_self_s"],
        "grading": metrics["grading.self_s"],
        "linalg": metrics["linalg.self_s"],
        "construct": metrics["construct.self_s"],
        "verify.ff": metrics["verify.ff_s"],
        "verify.als": metrics["verify.als_s"] + metrics["verify.orthonormal_basis_s"],
        "verify.upb": metrics["verify.upb_self_s"],
        "serialize": metrics["serialize.self_s"],
    }
    return max(totals, key=totals.get)
