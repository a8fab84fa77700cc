"""Per-layer tracing from outside the library.

The tracer wraps the public functions of each ``tnn_strata`` module named in
``TARGETS`` and records, for every wrapped name, its call count and self
time (span duration minus the part covered by wrapped child spans), plus
caller -> callee edge counts.  Nothing in ``src/`` is changed: wrappers are
installed on the module (or class) that defines the name and on every
``tnn_strata`` namespace that bound the same object through ``from ...
import``, and the originals are put back by ``restore``.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

# module -> wrapped names (``Class.method`` for methods).
TARGETS = {
    "perms": ("interval", "reduced_word"),
    "ratmat": (
        "gauss_decompose",
        "minor",
        "rank",
        "RatMatrix.inverse",
        "RatMatrix.__matmul__",
    ),
    "cells": ("lusztig_point", "is_tnn", "cell_of"),
    "fiber": ("factor_u", "rho", "recover_shift"),
    "flow": (
        "psi",
        "FiberIntegrator.rk_step",
        "link_point",
        "link_sample",
        "flow",
        "cell_of_float",
    ),
    "kernels": ("psi_tangent", "rho_move"),
}

RK_STEP = "flow.FiberIntegrator.rk_step"
ACCEPTED = "flow.rk_step.accepted"

# Each wrapped name must record calls on the workloads listed here; a traced
# run of one of them that records none fails instead of reporting zeros.
# The cli verbs between them reach every wrapped name.
EXPECTED = {
    "kernels.psi_tangent": ("census", "flows", "cli"),
    "kernels.rho_move": ("flows", "cli"),
    RK_STEP: ("census", "flows", "cli"),
    "flow.link_point": ("census", "cli"),
    "flow.link_sample": ("census", "cli"),
    "flow.flow": ("flows", "cli"),
    "flow.cell_of_float": ("flows", "cli"),
    "flow.psi": ("exact", "cli"),
    "fiber.factor_u": ("exact", "cli"),
    "fiber.rho": ("exact", "cli"),
    "fiber.recover_shift": ("exact", "cli"),
    "cells.lusztig_point": ("exact", "cli"),
    "cells.is_tnn": ("exact", "cli"),
    "cells.cell_of": ("exact", "cli"),
    "ratmat.gauss_decompose": ("exact", "cli"),
    "ratmat.minor": ("exact", "cli"),
    "ratmat.rank": ("exact", "cli"),
    "ratmat.RatMatrix.inverse": ("exact", "cli"),
    "ratmat.RatMatrix.__matmul__": ("exact", "cli"),
    "perms.interval": ("census", "cli"),
    "perms.reduced_word": ("census", "exact", "cli"),
}


def names() -> list[str]:
    return [f"{mod}.{qual}" for mod, quals in TARGETS.items() for qual in quals]


def library_module(name: str):
    """The submodule ``tnn_strata.<name>``.

    Attribute access on the package is not enough: ``tnn_strata.flow`` is
    the function ``flow``, which shadows the submodule of the same name.
    """
    return importlib.import_module(f"tnn_strata.{name}")


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.edges: Counter = Counter()
        self.accepted = 0
        self.paused = False
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                tracer.calls[name] += 1
                tracer.self_s[name] += dt - frame[1]
                tracer.edges[(parent, name)] += 1
            if name == RK_STEP and result[1] <= 1.0:
                tracer.accepted += 1
            return result

        return wrapper

    # --- installation ---------------------------------------------------

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for mod_name, quals in TARGETS.items():
            module = library_module(mod_name)
            for qual in quals:
                owner = module
                *path, attr = qual.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if path else getattr(owner, attr)
                wrapped = self._wrap(f"{mod_name}.{qual}", original)
                self._patch(owner, attr, wrapped)
                if path:
                    continue  # methods are looked up on the class
                for other in list(sys.modules.values()):
                    other_name = getattr(other, "__name__", "")
                    if other_name.split(".")[0] != "tnn_strata":
                        continue
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, key, wrapped)
        return self

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    # --- results --------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name in names():
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out[ACCEPTED] = self.accepted
        return out

    def missing(self, workload: str) -> list[str]:
        """Wrapped names mapped to ``workload`` that recorded no calls."""
        return [
            name
            for name, workloads in EXPECTED.items()
            if workload in workloads and self.calls[name] == 0
        ]

    def edge_table(self) -> dict:
        return {
            f"{parent or '<op>'} -> {child}": count
            for (parent, child), count in sorted(
                self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
            )
        }
