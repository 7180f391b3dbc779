"""Outside tracing of weilsums: timing wrappers around public functions.

A Tracer replaces each target function with a wrapper that records a span
(name, start, end, parent, note) in memory.  The wrapper is bound under every
name that refers to the original in any loaded weilsums module, so calls
through `from .field import subgroup` bindings (cli.subgroup,
moments.subgroup_sum, sums.prime_modulus, ...) are traced too.  `restore`
puts every original object back.  Private helpers are not wrapped: their time
is the self time of the public function that called them.
"""

import functools
import inspect
import sys
import time


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _conv_note(fn, args, kwargs, result):
    if isinstance(result, dict):
        return ("sparse", 0)
    a = _bound(fn, args, kwargs)
    L = 1
    while L < 2 * a["p"] - 1:
        L *= 2
    return ("dense", (a["k"] - 1) * L ** a["r"])


def _tuples_note(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return a["G"].tau ** a["k"]


def _terms_note(fn, args, kwargs, result):
    return result.term_count


def _table_note(fn, args, kwargs, result):
    return None if result is None else id(result)


def _grid_note(fn, args, kwargs, result):
    return _bound(fn, args, kwargs)["spec"].p ** 2


def _nonzero_note(fn, args, kwargs, result):
    return result != 0


def _len_note(fn, args, kwargs, result):
    return len(result)


# (module, attribute, note): the public functions named by the layer metrics.
# char_table is a method; it is wrapped on the PrimeModulus class.
TARGETS = (
    ("convolution", "self_convolution_power", _conv_note),
    ("convolution", "sum_of_squares", None),
    ("moments", "q_bruteforce", _tuples_note),
    ("moments", "q_convolution", None),
    ("moments", "t3_count", None),
    ("moments", "verify_moment_inequality", None),
    ("sums", "subgroup_sum", _terms_note),
    ("sums", "complete_sum", _terms_note),
    ("sums", "twisted_sum", _terms_note),
    ("sums", "incomplete_subgroup_sum", _terms_note),
    ("sums", "kloosterman_subgroup_sum", _terms_note),
    ("sums", "inversive_subgroup_sum", _terms_note),
    ("field", "PrimeModulus.char_table", _table_note),
    ("field", "prime_modulus", None),
    ("field", "subgroup", None),
    ("field", "is_prime", None),
    ("field", "divisors", None),
    ("field", "roots_of_unity", None),
    ("curves", "count_points", _grid_note),
    ("curves", "delta_eval", _nonzero_note),
    ("curves", "check_curve_bound", None),
    ("exponents", "admissible_range", None),
    ("prng", "power_generator", _len_note),
    ("prng", "inversive_generator", _len_note),
    ("prng", "write_csv", None),
    ("prng", "write_u64le", None),
    ("cli", "main", None),
)


class Tracer:
    """Installs span-recording wrappers into weilsums and removes them again."""

    def __init__(self):
        # one record per call: [name, start, end, parent index or -1, note]
        self.spans = []
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, name: str, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[4] = note(fn, args, kwargs, result)
            return result

        wrapper.perfbench_span = name
        return wrapper

    def install(self):
        """Wrap every target under every name that binds it in a weilsums module."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "weilsums" or n.startswith("weilsums.")]
        for modname, attr, note in TARGETS:
            mod = sys.modules[f"weilsums.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, original, self._wrap(f"{modname}.{meth}", original, note))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(f"{modname}.{attr}", original, note)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> list:
        """Put every original back; return the names still not restored (empty when clean)."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        bad = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._patched if getattr(o, a) is not orig]
        for name, mod in list(sys.modules.items()):
            if name == "weilsums" or name.startswith("weilsums."):
                bad += [f"{name}.{k}" for k, v in vars(mod).items() if hasattr(v, "perfbench_span")]
        self._patched = []
        return bad

    @property
    def patched_names(self) -> int:
        return len(self._patched)


LAYERS = ("convolution", "moments", "sums", "field", "curves", "exponents", "prng", "cli")
SPAN_NAMES = tuple(f"{mod}.{attr.split('.')[-1]}" for mod, attr, _ in TARGETS)


def layer_metrics(spans: list) -> dict:
    """Counts and self times of one traced pass, keyed as in BENCHMARK.json (plus a few more).

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap (single thread).
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    m = dict.fromkeys((f"{n}.calls" for n in SPAN_NAMES), 0)
    m.update(dict.fromkeys((f"{n}.self_s" for n in SPAN_NAMES), 0.0))
    m.update({
        "convolution.sparse.calls": 0, "convolution.dense.calls": 0,
        "convolution.sparse.self_s": 0.0, "convolution.dense.self_s": 0.0,
        "convolution.dense.grid_cells": 0, "moments.q_bruteforce.tuples": 0, "sums.terms": 0,
        "field.char_table.builds": 0, "field.char_table.build_s": 0.0, "curves.grid_points": 0,
        "prng.terms": 0,
    })
    delta_nonzero = 0
    seen_tables = set()
    for i, (name, start, end, _parent, note) in enumerate(spans):
        own = end - start - child[i]
        m[f"{name}.calls"] += 1
        m[f"{name}.self_s"] += own
        if name == "convolution.self_convolution_power":
            route, cells = note
            m[f"convolution.{route}.calls"] += 1
            m[f"convolution.{route}.self_s"] += own
            m["convolution.dense.grid_cells"] += cells
        elif name == "moments.q_bruteforce":
            m["moments.q_bruteforce.tuples"] += note
        elif name.startswith("sums."):
            m["sums.terms"] += note
        elif name == "field.char_table" and note is not None and note not in seen_tables:
            seen_tables.add(note)
            m["field.char_table.builds"] += 1
            m["field.char_table.build_s"] += end - start
        elif name == "curves.count_points":
            m["curves.grid_points"] += note
        elif name == "curves.delta_eval":
            delta_nonzero += note
        elif name in ("prng.power_generator", "prng.inversive_generator"):
            m["prng.terms"] += note
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(m[f"{n}.self_s"] for n in SPAN_NAMES if n.startswith(layer + "."))
    m["sums.calls"] = sum(m[f"{n}.calls"] for n in SPAN_NAMES if n.startswith("sums."))
    m["prng.write.self_s"] = m["prng.write_csv.self_s"] + m["prng.write_u64le.self_s"]
    m["sums.ns_per_term"] = 1e9 * m["sums.self_s"] / m["sums.terms"] if m["sums.terms"] else 0.0
    grid = m["curves.grid_points"]
    m["curves.ns_per_grid_point"] = 1e9 * m["curves.count_points.self_s"] / grid if grid else 0.0
    dcalls = m["curves.delta_eval.calls"]
    m["curves.delta_nonzero_ratio"] = delta_nonzero / dcalls if dcalls else 0.0
    return m
