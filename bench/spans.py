"""Spans around the public functions of each excolex module, for the traced run.

``Tracer.installed()`` replaces every public function of a layer module, in
every package module that binds it by name, and the methods of
``MonomialIdeal``, with a wrapper that counts the call and times it. A layer's
self time is its span time minus the time covered by child spans, so the self
times of all layers add up to the time spent inside the package. Generators
are timed for each ``next()``.

Two monomial generators, ``iter_degree_masks`` and ``borel_reductions``, are
counted but not timed: a span around each of their millions of ``next()``
calls would make the traced run several times slower. Their time goes to the
calling layer. The methods of ``Monomial`` itself are neither wrapped nor
counted, for the same reason.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import excolex
from excolex import betti, cartan, cli, colex, enumeration, ideals, monomials, verify

LAYER_MODULES = (monomials, ideals, enumeration, colex, betti, cartan, verify, cli)
BINDING_MODULES = (excolex,) + LAYER_MODULES

# Functions that report under a sub-layer; the rest report under their module,
# except that ``ideals`` defaults to queries and ``colex`` to the revlex tests.
SUBLAYER = {
    "minimalize": "ideals.build",
    "parse_monomial": "ideals.build",
    "MonomialIdeal.__init__": "ideals.build",
    "MonomialIdeal.reembed": "ideals.build",
    "MonomialIdeal.from_dict": "ideals.build",
    "colex_ideal": "colex",
    "greedy_generators": "colex",
    "exact_rank": "cartan.rank_exact",
    "rank_mod_p": "cartan.rank_modp",
    "chain_space": "cartan.chain",
    "differential": "cartan.chain",
}
MODULE_LAYER = {"ideals": "ideals.query", "colex": "colex.revlex"}
COUNTED_ONLY = {"iter_degree_masks", "borel_reductions"}
RANK_FUNCTIONS = {"exact_rank", "rank_mod_p"}


class Tracer:
    """Per-layer call counts and self times, kept in memory."""

    def __init__(self):
        self.calls: Counter = Counter()  # by layer and by function name
        self.raised: Counter = Counter()  # by function name
        self.self_s: Counter = Counter()  # by layer
        self.yielded: Counter = Counter()  # by layer, to callers outside it
        self.rank = {"max_rows": 0, "max_cols": 0, "cells": 0}
        self._open: list[list] = []  # [layer, time covered by child spans]

    def _close(self, frame: list, t0: float) -> None:
        dt = perf_counter() - t0
        self._open.pop()
        self.self_s[frame[0]] += dt - frame[1]
        if self._open:
            self._open[-1][1] += dt

    def _note_rank(self, rows) -> None:
        r, c = len(rows), len(rows[0]) if rows else 0
        self.rank["max_rows"] = max(self.rank["max_rows"], r)
        self.rank["max_cols"] = max(self.rank["max_cols"], c)
        self.rank["cells"] += r * c

    def wrap(self, layer: str, name: str, fn):
        calls, raised, open_ = self.calls, self.raised, self._open

        if name in COUNTED_ONLY:
            def counted(*args, **kwargs):
                calls[layer] += 1
                calls[name] += 1
                return fn(*args, **kwargs)

            return functools.wraps(fn)(counted)

        if inspect.isgeneratorfunction(fn):
            def stream(*args, **kwargs):
                calls[layer] += 1
                calls[name] += 1
                it = fn(*args, **kwargs)
                # evaluated at the first next(): a stream drained by its own
                # layer (sets inside the ideal walk) yields to no outside caller
                outside = not open_ or open_[-1][0] != layer
                while True:
                    frame = [layer, 0.0]
                    open_.append(frame)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(frame, t0)
                    if outside:
                        self.yielded[layer] += 1
                    yield item

            return functools.wraps(fn)(stream)

        note_rank = self._note_rank if name in RANK_FUNCTIONS else None

        def span(*args, **kwargs):
            calls[layer] += 1
            calls[name] += 1
            if note_rank:
                note_rank(args[0])
            frame = [layer, 0.0]
            open_.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[name] += 1
                raise
            finally:
                self._close(frame, t0)

        return functools.wraps(fn)(span)

    @contextmanager
    def installed(self):
        """Wrap every layer function while the block runs, then restore them."""
        wrappers = {}  # id(original) -> (original, wrapper)
        restore = []
        for mod in LAYER_MODULES:
            short = mod.__name__.rsplit(".", 1)[1]
            default = MODULE_LAYER.get(short, short)
            for name, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    layer = SUBLAYER.get(name, default)
                    wrappers[id(fn)] = (fn, self.wrap(layer, name, fn))
        for mod in BINDING_MODULES:
            for name, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit and hit[0] is value:
                    restore.append((mod, name, value))
                    setattr(mod, name, hit[1])
        cls = ideals.MonomialIdeal
        for name, attr in list(vars(cls).items()):
            qual = f"MonomialIdeal.{name}"
            layer = SUBLAYER.get(qual, "ideals.query")
            if isinstance(attr, property):
                new = property(self.wrap(layer, qual, attr.fget))
            elif isinstance(attr, classmethod):
                new = classmethod(self.wrap(layer, qual, attr.__func__))
            elif inspect.isfunction(attr) and (name == "__init__" or not name.startswith("_")):
                new = self.wrap(layer, qual, attr)
            else:
                continue
            restore.append((cls, name, attr))
            setattr(cls, name, new)
        try:
            yield self
        finally:
            for owner, name, value in reversed(restore):
                setattr(owner, name, value)
