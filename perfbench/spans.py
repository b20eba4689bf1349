"""Span tracer installed from outside the package for the traced run.

The tracer replaces each traced function by a wrapper in every
``cstar_entropy`` module namespace that holds it, so calls made through a
module attribute (``entropy.state_entropy``) and calls made through a name
imported with ``from ... import`` (``rng_stream`` inside ``decomp``) are both
seen.  Nothing under ``src/`` is edited, and ``uninstall`` restores every
binding.

Each call records a span (function, start, end, parent span, command id) in
memory; self time is the span minus the spans of its direct children.
``tracemalloc`` runs only inside the functions listed in ``PEAK_MB``, so
the peak it reports is the peak traced allocation within that call.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from dataclasses import dataclass

TRACED = {
    "cli": ("main",),
    "algebra": ("generate_subalgebra", "block_decompose", "structure_projection"),
    "_linalg": ("orthonormal_extend", "rng_stream"),
    "states": ("state_from_density", "state_from_values", "representative_density",
               "canonical_form"),
    "entropy": ("state_entropy", "minimal_decomposition", "von_neumann"),
    "decomp": ("infimum_oracle",),
    "gns": ("gns_construct", "resolve_sectors", "gns_state_entropy", "is_irreducible"),
}
LAYERS = tuple(TRACED)
PEAK_MB = ("algebra.generate_subalgebra", "gns.gns_construct")
PACKAGE = "cstar_entropy"


@dataclass
class Stat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    failed: int = 0
    peak_mb: float = 0.0
    samples: int = 0


class Tracer:
    """Wraps the traced functions; spans and per-function totals stay in memory."""

    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
        self.stats = {name: Stat() for name in self.names}
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.command = -1
        self._stack: list[list] = []      # [span id, child time]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, name: str, fn):
        stat = self.stats[name]
        stack, spans = self._stack, self.spans
        peak = name in PEAK_MB
        oracle = name == "decomp.infimum_oracle"

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append([sid, 0.0])
            if peak:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.failed += 1
                raise
            finally:
                t1 = time.perf_counter()
                if peak:
                    stat.peak_mb = max(stat.peak_mb, tracemalloc.get_traced_memory()[1] / 2**20)
                    tracemalloc.stop()
                _, child = stack.pop()
                dur = t1 - t0
                stat.calls += 1
                stat.busy_s += dur
                stat.self_s += dur - child
                if oracle:
                    stat.samples += int(kwargs.get("samples", args[2] if len(args) > 2 else 1000))
                if stack:
                    stack[-1][1] += dur
                spans[sid] = (index, t0, t1, parent, self.command)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Bind a wrapper to every module attribute that holds a traced function."""
        originals = {}
        for index, name in enumerate(self.names):
            mod, fn = name.split(".")
            func = getattr(sys.modules[f"{PACKAGE}.{mod}"], fn)
            originals[id(func)] = self._wrap(index, name, func)
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def write(self, path: str) -> None:
        """Write every span as a tab-separated line: name, start, end, parent, command."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tcommand\n")
            for sid, (index, t0, t1, parent, cmd) in enumerate(self.spans):
                fh.write(f"{sid}\t{self.names[index]}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{cmd}\n")

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, stat in self.stats.items():
            out[name.split(".")[0]] += stat.self_s
        return out
