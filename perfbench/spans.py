"""In-memory span recorder for the traced benchmark run.

Layer functions are wrapped by replacing their names in the namespace of
every loaded ``cpsense`` module that holds them, so calls between layers
(``recovery`` calling ``residual_jacobian``, ``theory_bounds`` calling
``sense_apply``) are recorded without touching the package.  A span is
recorded only while an operation is open; calls made by the benchmark's
own output checks fall outside every operation and are not recorded.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from time import perf_counter_ns

import numpy as np

# (module, attribute) of every layer function the traced run wraps; the
# span carries the defining module's short name
TARGETS = (
    ("cpsense.recovery", "recover"),
    ("cpsense.recovery", "_lm_single"),
    ("cpsense.recovery", "residual_jacobian"),
    ("cpsense.recovery", "objective"),
    ("cpsense.recovery", "_dense_cp_als"),
    ("cpsense.tensor_core", "khatri_rao_chain"),
    ("cpsense.tensor_core", "reconstruct"),
    ("cpsense.sensing", "create_operator"),
    ("cpsense.sensing", "apply"),
    ("cpsense.sensing", "adjoint_apply"),
    ("cpsense.conditioning", "generate_conditioned_model"),
    ("cpsense.conditioning", "kappa"),
    ("cpsense.theory_bounds", "rip_probe"),
    ("numpy.linalg", "solve"),
)
# constructions are counted, not timed, so model building stays in the
# self time of the LM loop that does it
COUNTED = (("cpsense.tensor_core", "CpModel"),)

OP = "op"


def span_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('cpsense.')}.{attr}"


class Tracer:
    """Records nested spans (name, parent, start, end) while installed."""

    def __init__(self):
        self.names: list[str] = [OP]
        self.kind = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        loaded = [m for n, m in list(sys.modules.items())
                  if n.startswith("cpsense.") and m is not None]
        for module_name, attr in TARGETS:
            defining = _module(module_name)
            original = getattr(defining, attr, None)
            if original is None:
                self.absent.append(span_name(module_name, attr))
                continue
            wrapper = self._wrap(span_name(module_name, attr), original)
            # a module seen twice already holds the wrapper, not the original
            for module in [*loaded, defining]:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for module_name, attr in COUNTED:
            cls = getattr(_module(module_name), attr, None)
            hook = getattr(cls, "__post_init__", None)
            if hook is None:
                self.absent.append(span_name(module_name, attr))
                continue
            self._patch(cls, "__post_init__",
                        self._counter(span_name(module_name, attr), hook))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def _patch(self, owner, key, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        stack, kind, parent, start, end = (self.stack, self.kind, self.parent,
                                           self.start, self.end)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(kind)
            kind.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                start[idx] = t0
                stack.pop()
        return wrapper

    def _counter(self, name: str, fn):
        counts, stack = self.counts, self.stack
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    # -- operations ----------------------------------------------------
    def begin_op(self) -> None:
        idx = len(self.kind)
        self.kind.append(0)
        self.parent.append(-1)
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self.stack.append(idx)

    def end_op(self) -> None:
        idx = self.stack.pop()
        self.end[idx] = perf_counter_ns()

    # -- results -------------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self time in seconds."""
        kind = np.frombuffer(self.kind, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(float)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=kind.size)
        n = len(self.names)
        calls = np.bincount(kind, minlength=n)
        incl = np.bincount(kind, weights=dur, minlength=n) * 1e-9
        self_s = np.bincount(kind, weights=dur - child, minlength=n) * 1e-9
        return {name: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                       "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        t0 = self.start[0] if self.start else 0
        spans = [[k, p, s - t0, e - t0] for k, p, s, e
                 in zip(self.kind, self.parent, self.start, self.end)]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "absent": self.absent,
                       "counts": self.counts,
                       "fields": ["name", "parent", "start_ns", "end_ns"],
                       "spans": spans}, fh, separators=(",", ":"))


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None
