"""Per-layer spans and counters, wrapped around ringgb from the outside.

``Tracer.install()`` replaces the public functions and methods of each
``ringgb`` module with wrappers, under every name they are looked up
by: a function re-exported by another module (``completion`` binds
``normal_form_with_cofactors`` and ``combinations_for`` under its own
names) and a method aliased in its class (``__radd__`` is ``__add__``)
are each wrapped.  ``uninstall()`` puts the originals back.

Span layers record name, start, end, parent span and item id in flat
arrays; they are written out and turned into self times when the run
ends.  ``terms`` and ``rings`` are called millions of times per run, so
they get counters only: a span per call would swamp the run.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import sys
import time
from array import array
from collections import defaultdict
from fractions import Fraction

#: The ringgb modules, one layer each.
LAYERS = ("cli", "parser", "completion", "pairs", "reduction", "poly", "rings", "terms")


def coeff_bits(c) -> int:
    if isinstance(c, Fraction):
        return max(abs(c.numerator).bit_length(), c.denominator.bit_length())
    return abs(c).bit_length()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents = array("q")
        self.items = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.item = -1
        self.counts = defaultdict(int)
        self._patches = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, after=None):
        names, parents, items = self.names, self.parents, self.items
        starts, ends, stack = self.starts, self.ends, self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(starts)
            names.append(name)
            parents.append(stack[-1])
            items.append(tracer.item)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def counter(self, key, fn, hit_key=None):
        counts = self.counts
        if hit_key is None:

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

        else:

            def wrapper(*args, **kwargs):
                counts[key] += 1
                result = fn(*args, **kwargs)
                if result:
                    counts[hit_key] += 1
                return result

        return wrapper

    # -- result hooks ---------------------------------------------------------

    def _note_bits(self, poly):
        counts = self.counts
        for c, _ in poly.monomials:
            bits = coeff_bits(c)
            if bits > counts["rings.coeff_bits_max"]:
                counts["rings.coeff_bits_max"] = bits

    def _after_reduction(self, result, args):
        remainder = result[0] if isinstance(result, tuple) else result
        if not remainder:
            self.counts["reduction.zero"] += 1
        self._note_bits(remainder)

    def _after_pairs(self, result, args):
        self.counts["pairs.polys_built"] += len(result)
        self.counts["pairs.zero_built"] += sum(1 for q, _ in result if not q)

    def _after_complete(self, trace, args):
        counts = self.counts
        counts["completion.pair_polys"] += trace.iterations
        counts["completion.added"] += len(trace.added)
        counts["completion.basis_peak"] = max(counts["completion.basis_peak"], len(trace.basis))
        counts["completion.cert_terms"] += sum(len(c.monomials) for row in trace.certificates for c in row)
        for p in trace.basis:
            self._note_bits(p)

    def _after_parse(self, result, args):
        self.counts["parser.chars"] += len(args[0])

    def _cli_main(self, fn):
        counts = self.counts

        def main(*args, **kwargs):
            before = sys.stdout.tell()
            try:
                return fn(*args, **kwargs)
            finally:
                counts["cli.out_bytes"] += sys.stdout.tell() - before

        return main

    # -- installation ----------------------------------------------------------

    def _patch_function(self, module_name, name, make_wrapper):
        """Wrap ``module.name`` under every ringgb module name bound to it."""
        target = getattr(sys.modules[module_name], name)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ringgb" and not mod_name.startswith("ringgb."):
                continue
            for attr, value in list(vars(module).items()):
                if value is target:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, make_wrapper(value))

    def _patch_method(self, cls, name, make_wrapper):
        """Wrap ``cls.name`` and every alias of it in the class body."""
        target = cls.__dict__[name]
        for attr, value in list(cls.__dict__.items()):
            if value is target:
                self._patches.append((cls, attr, value))
                setattr(cls, attr, make_wrapper(value))

    def install(self):
        for name in LAYERS:
            importlib.import_module(f"ringgb.{name}")
        m = sys.modules
        poly = m["ringgb.poly"]
        rings = m["ringgb.rings"]
        terms = m["ringgb.terms"]
        reduction = m["ringgb.reduction"]
        span, counter = self.span, self.counter

        self._patch_function("ringgb.cli", "main", lambda f: span("cli", self._cli_main(f)))
        self._patch_function(
            "ringgb.parser", "parse_polynomial", lambda f: span("parser", f, self._after_parse)
        )
        self._patch_function(
            "ringgb.completion", "complete", lambda f: span("completion", f, self._after_complete)
        )
        self._patch_function(
            "ringgb.completion", "interreduce", lambda f: span("completion.interreduce", f)
        )
        self._patch_function(
            "ringgb.completion", "ideal_membership", lambda f: span("completion.membership", f)
        )
        self._patch_function(
            "ringgb.pairs", "combinations_for", lambda f: span("pairs", f, self._after_pairs)
        )
        for name in ("normal_form", "normal_form_with_cofactors"):
            self._patch_function(
                "ringgb.reduction", name, lambda f: span("reduction", f, self._after_reduction)
            )
        self._patch_method(poly.Polynomial, "__add__", lambda f: span("poly.add", f))
        self._patch_method(poly.Polynomial, "__mul__", lambda f: span("poly.mul", f))
        self._patch_method(poly.Polynomial, "mul_monomial", lambda f: span("poly.mul_monomial", f))
        self._patch_function("ringgb.poly", "format_polynomial", lambda f: span("poly.format", f))

        self._patch_method(poly.Polynomial, "__neg__", lambda f: counter("poly.neg.calls", f))
        self._patch_method(
            reduction.FirstReducibleStrategy,
            "select",
            lambda f: counter("reduction.searches", f, "reduction.steps"),
        )
        self._patch_function(
            "ringgb.terms",
            "term_divides",
            lambda f: counter("terms.divides.calls", f, "terms.divides.hits"),
        )
        self._patch_function("ringgb.terms", "term_mul", lambda f: counter("terms.mul.calls", f))
        self._patch_function("ringgb.terms", "term_lcm", lambda f: counter("terms.lcm.calls", f))
        self._patch_method(terms.TermOrder, "sort_key", lambda f: counter("terms.sort_key.calls", f))
        for cls in (rings.PrimeField, rings.Rationals, rings.Integers):
            for name in ("add", "mul", "neg", "element"):
                self._patch_method(cls, name, lambda f: counter("rings.ops", f))
        for cls in (rings._FieldMixin, rings.Integers):
            self._patch_method(
                cls,
                "reduce_step",
                lambda f: counter("rings.reduce_step.calls", f, "rings.reduce_step.hits"),
            )
            self._patch_method(cls, "groebner", lambda f: counter("rings.groebner.calls", f))
        self._patch_method(
            rings.CoefficientRing, "syzygies", lambda f: counter("rings.syzygies.calls", f)
        )

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results -----------------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the durations of direct children."""
        starts, ends, parents = self.starts, self.ends, self.parents
        child = [0.0] * len(starts)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        return [ends[i] - starts[i] - child[i] for i in range(len(starts))]

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        selfs = self.self_times()
        with gzip.open(path, "wt", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(["span", "name", "start", "end", "parent", "item", "self"])
            for i, name in enumerate(self.names):
                out.writerow(
                    [i, name, repr(self.starts[i]), repr(self.ends[i]), self.parents[i], self.items[i], repr(selfs[i])]
                )

    def layer_metrics(self, scale=1.0):
        """Per-layer metrics of BENCHMARK.json, as {name: (value, unit)}.

        Times are multiplied by ``scale``, the pass's reference-speed factor.
        """
        names, parents = self.names, self.parents
        selfs = [t * scale for t in self.self_times()]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        reduction_in_complete = 0.0
        for i, name in enumerate(names):
            calls[name] += 1
            self_s[name] += selfs[i]
            duration = (self.ends[i] - self.starts[i]) * scale
            total_s[name] += duration
            if name == "reduction" and parents[i] >= 0 and names[parents[i]] == "completion":
                reduction_in_complete += duration
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for layer in ("reduction", "pairs", "completion", "parser", "cli"):
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.self_s"] = (self_s[layer], "s")
        for layer in ("poly.add", "poly.mul", "poly.mul_monomial", "poly.format"):
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.self_s"] = (self_s[layer], "s")
        out.update(
            {
                "reduction.steps": (c["reduction.steps"], "count"),
                "reduction.zero_ratio": (ratio(c["reduction.zero"], calls["reduction"]), "ratio"),
                "reduction.share_of_complete": (
                    ratio(reduction_in_complete, total_s["completion"]),
                    "ratio",
                ),
                "poly.neg.calls": (c["poly.neg.calls"], "count"),
                "terms.divides.calls": (c["terms.divides.calls"], "count"),
                "terms.divides.hit_ratio": (
                    ratio(c["terms.divides.hits"], c["terms.divides.calls"]),
                    "ratio",
                ),
                "terms.mul.calls": (c["terms.mul.calls"], "count"),
                "terms.lcm.calls": (c["terms.lcm.calls"], "count"),
                "terms.sort_key.calls": (c["terms.sort_key.calls"], "count"),
                "pairs.polys_built": (c["pairs.polys_built"], "count"),
                "pairs.zero_built": (c["pairs.zero_built"], "count"),
                "completion.pair_polys": (c["completion.pair_polys"], "count"),
                "completion.added": (c["completion.added"], "count"),
                "completion.useful_ratio": (
                    ratio(c["completion.added"], c["completion.pair_polys"]),
                    "ratio",
                ),
                "completion.basis_peak": (c["completion.basis_peak"], "count"),
                "completion.interreduce_s": (total_s["completion.interreduce"], "s"),
                "completion.membership_self_s": (self_s["completion.membership"], "s"),
                "completion.cert_terms": (c["completion.cert_terms"], "count"),
                "rings.ops": (c["rings.ops"], "count"),
                "rings.reduce_step.calls": (c["rings.reduce_step.calls"], "count"),
                "rings.reduce_step.hits": (c["rings.reduce_step.hits"], "count"),
                "rings.groebner.calls": (c["rings.groebner.calls"], "count"),
                "rings.syzygies.calls": (c["rings.syzygies.calls"], "count"),
                "rings.coeff_bits_max": (c["rings.coeff_bits_max"], "bits"),
                "parser.chars": (c["parser.chars"], "chars"),
                "cli.out_bytes": (c["cli.out_bytes"], "bytes"),
            }
        )
        return out
