"""Span tracer that wraps the library's public names from outside.

``Tracer.install`` replaces every public function of the layer modules at
every module binding that holds it (so ``core.lower_envelope`` is caught
whether ``core``, ``extension``, ``game`` or ``glue`` calls it), plus the
methods ``PartialMetric.with_edge`` and every ``propose``/``respond`` method
of the game's players.  Underscore names are never wrapped, so the tracer
does not depend on private helpers that may be deleted.

Spans (name, start, end, parent, job) are kept in memory; self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter, defaultdict

PACKAGE = "floppymetrics"
LAYERS = ("core", "extension", "game", "glue", "serialize", "cli")

# Per-name metrics that are printed: the public names the workloads reach.
# Names found at run time but not listed still count toward their layer.
REPORTED = (
    "core.as_rational", "core.pair", "core.rational_str", "core.shortest_path",
    "core.shortest_chain", "core.doubleton_dist", "core.lower_envelope",
    "core.validate", "core.is_floppy", "core.with_edge",
    "extension.one_step_extend", "extension.verify_step_properties", "extension.full_extend",
    "game.accumulate", "game.play", "game.winning_player_one", "game.adversary_player_two",
    "game.sabotage_witness", "game.replay_sabotage", "game.propose", "game.respond",
    "glue.validate_patchwork", "glue.glue", "glue.glue_hat", "glue.floppy_certificate",
    "serialize.metric_to_doc", "serialize.metric_from_doc", "serialize.choice_set_from_doc",
    "serialize.choice_map_from_doc", "serialize.load_metric",
    "cli.main",
)


class Tracer:
    def __init__(self):
        self.active = False
        self.job = -1
        self.names, self.starts, self.ends, self.parents, self.jobs = [], [], [], [], []
        self._stack = [-1]
        self._restore = []

    def _wrap(self, name, fn):
        names, starts, ends, parents, jobs, stack = (
            self.names, self.starts, self.ends, self.parents, self.jobs, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            jobs.append(self.job)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every public layer function at every package binding."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        layer_of = {f"{PACKAGE}.{layer}": layer for layer in LAYERS}
        wrapped = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ not in layer_of):
                    continue
                if obj not in wrapped:
                    wrapped[obj] = self._wrap(f"{layer_of[obj.__module__]}.{obj.__name__}", obj)
                self._set(mod, attr, wrapped[obj])
        core, game = modules[f"{PACKAGE}.core"], modules[f"{PACKAGE}.game"]
        self._set(core.PartialMetric, "with_edge", self._wrap("core.with_edge", core.PartialMetric.with_edge))
        for cls in vars(game).values():
            if isinstance(cls, type) and cls.__module__ == game.__name__:
                for method in ("propose", "respond"):
                    if method in vars(cls):
                        self._set(cls, method, self._wrap(f"game.{method}", vars(cls)[method]))

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def reset(self):
        for spans in (self.names, self.starts, self.ends, self.parents, self.jobs):
            spans.clear()

    def summary(self):
        """Per name: calls and self seconds; per (job, name): calls."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        self_s = defaultdict(float)
        calls = Counter()
        job_calls = Counter()
        for i, name in enumerate(self.names):
            self_s[name] += self.ends[i] - self.starts[i] - child[i]
            calls[name] += 1
            job_calls[(self.jobs[i], name)] += 1
        return calls, self_s, job_calls
