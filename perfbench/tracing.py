"""Spans around polystate's public functions, for the traced run only.

A wrapper replaces each traced function in every loaded polystate module
namespace that holds it: the modules import each other's functions by name
(cyclic binds rotate and character, verify and cli bind most of the API), so
patching the defining module alone would miss those calls. Spans are kept in
memory as [name, start, end, parent] and written out when the run ends.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

# module -> public functions wrapped; cli.cmd_<sub> spans are named cli.<sub>.
TRACED = {
    "group": ["character"],
    "fock": ["coherent", "rotate", "residue_class_masses", "vector_from_dict",
             "vector_to_dict"],
    "gaussian": ["gaussian_to_fock", "hermite_functions"],
    "cyclic": ["cyclic_superposition", "cyclic_erasure", "normalization_record",
               "cyclic_set", "cyclic_density", "density_route_gap",
               "dihedral_state"],
    "observables": ["wigner_points", "wigner_direct", "write_wigner_csv",
                    "mandel", "linear_entropy", "linear_entropy_oracle"],
    "cli": ["main", "cmd_build", "cmd_wigner", "cmd_mandel", "cmd_entangle"],
}


def _size_of(param: str):
    """Size of the array argument `param`, passed second or by keyword."""
    return lambda args, kwargs: np.size(kwargs.get(param, args[1] if len(args) > 1 else ()))


# Work counted at the call boundary: quadrature nodes per hermite_functions
# call and phase-space points per wigner_points call.
_COUNTERS = {
    "gaussian.hermite_functions": ("nodes", _size_of("x")),
    "observables.wigner_points": ("points", _size_of("xs")),
}


class Tracer:
    """Installs the wrappers; records spans only while `recording` is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.recording = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name (a no-op while not recording)."""
        if not self.recording:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        if name == "observables.write_wigner_csv":
            def wrapper(grid, stream, *args, **kwargs):
                if not self.recording:
                    return fn(grid, stream, *args, **kwargs)
                start = stream.tell()
                try:
                    return self.span(name, fn, grid, stream, *args, **kwargs)
                finally:
                    self.counts[name + ".bytes"] += stream.tell() - start
        else:
            def wrapper(*args, **kwargs):
                if self.recording and counter is not None:
                    self.counts[f"{name}.{counter[0]}"] += int(counter[1](args, kwargs))
                return self.span(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "polystate" or key.startswith("polystate."))]
        for short, names in TRACED.items():
            home = sys.modules[f"polystate.{short}"]
            for fname in names:
                original = getattr(home, fname)
                span_name = f"{short}.{fname.removeprefix('cmd_')}"
                wrapper = self._wrap(span_name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def layer_totals(self) -> dict[str, float]:
        """Inclusive ms and call count per span name, and self ms per module
        (a span's duration minus the part its child spans cover)."""
        out: dict[str, float] = defaultdict(float)
        child_ms = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1e3
        for (name, start, end, _), inner in zip(self.spans, child_ms):
            ms = (end - start) * 1e3
            out[name + ".ms"] += ms
            out[name + ".calls"] += 1
            out[name.split(".")[0] + ".self_ms"] += ms - inner
        out.update(self.counts)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
