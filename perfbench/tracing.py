"""Spans around textclf's public functions, recorded from the benchmark.

The tracer patches the functions each layer exposes with wrappers that
record a span (name, start, end, parent span, section) and counts taken
from the call's arguments and return value.  A section is the stage and
phase of the benchmark that made the call, so metrics can be restricted
to, say, the ConvLSTM training phase.  Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.sections: list = []
        self.section_names: list = [("", "")]
        self.counts: dict = defaultdict(float)  # (section index, name) -> value
        self._stack: list = []
        self._section = 0
        self._patches: list = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.sections.append(self._section)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[(self._section, name)] += value

    @property
    def section(self) -> tuple:
        return self.section_names[self._section]

    @contextlib.contextmanager
    def phase(self, stage: str, phase: str):
        """Label every span and count made inside with (stage, phase)."""
        if not self.enabled:
            yield
            return
        previous = self._section
        self.section_names.append((stage, phase))
        self._section = len(self.section_names) - 1
        idx = self._open(f"{stage}.{phase}")
        try:
            yield
        finally:
            self._close(idx)
            self._section = previous

    def wrap(self, fn, name, on_return=None):
        """Wrapper recording a span; ``name`` may be a function of the args."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, name, on_return=None, before=None) -> None:
        original = getattr(owner, attr)
        wrapped = self.wrap(original, name, on_return)
        if before is not None:
            inner = wrapped

            @functools.wraps(original)
            def wrapped(*args, **kwargs):
                before(args, kwargs)
                return inner(*args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def patch_everywhere(self, original, name, on_return=None) -> None:
        """Patch every textclf module attribute bound to ``original``."""
        wrapped = self.wrap(original, name, on_return)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "textclf" or mod_name.startswith("textclf."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapped)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict:
        """(section index, span name) -> summed self time and call count."""
        durations = np.array(self.ends) - np.array(self.starts)
        child = np.zeros_like(durations)
        parents = np.array(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], durations[has_parent])
        out: dict = defaultdict(lambda: [0.0, 0.0, 0])  # self, total, calls
        for i, name in enumerate(self.names):
            entry = out[(self.sections[i], name)]
            entry[0] += durations[i] - child[i]
            entry[1] += durations[i]
            entry[2] += 1
        return out

    def write(self, path: Path) -> None:
        lines = ["span\tparent\tstage\tphase\tname\tstart_s\tend_s"]
        for i, name in enumerate(self.names):
            stage, phase = self.section_names[self.sections[i]]
            lines.append(f"{i}\t{self.parents[i]}\t{stage}\t{phase}\t{name}\t"
                         f"{self.starts[i]!r}\t{self.ends[i]!r}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class LayerTotals:
    """Self time, total time, call counts and counts summed over sections."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.times = tracer.self_times()

    def _sections(self, stage=None, phase=None):
        return [i for i, (s, p) in enumerate(self.tracer.section_names)
                if (stage is None or s == stage) and (phase is None or p == phase)]

    def _sum(self, field, names, stage, phase):
        if isinstance(names, str):
            names = [names]
        return sum(self.times[(i, n)][field] for i in self._sections(stage, phase)
                   for n in names if (i, n) in self.times)

    def self_s(self, names, stage=None, phase=None) -> float:
        return float(self._sum(0, names, stage, phase))

    def total_s(self, names, stage=None, phase=None) -> float:
        return float(self._sum(1, names, stage, phase))

    def calls(self, names, stage=None, phase=None) -> int:
        return int(self._sum(2, names, stage, phase))

    def count(self, name, stage=None, phase=None) -> float:
        return float(sum(self.tracer.counts.get((i, name), 0.0)
                         for i in self._sections(stage, phase)))
