"""Span tracer that times calls into `sino` from outside the package.

Wrappers are installed over module attributes, at every place a name is
looked up, so calls the library makes internally go through them too.
Each span records its name, start, end and parent; spans are kept in flat
arrays in memory and analysed (or saved) when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import os
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import sino.containers
import sino.engine
import sino.evaluation
import sino.model
import sino.solvers
import sino.spectral
import sino.training

# engine names that build no graph node
ENGINE_NON_OPS = {"as_tensor", "parameter", "no_grad", "grad_enabled"}
FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


def _dim_tag(*args, **kwargs) -> str:
    """Tag a span with the dimension of the first GridSpec argument."""
    for x in (*args, *kwargs.values()):
        if isinstance(x, sino.spectral.GridSpec):
            return f"{x.dim}d"
    return "nogrid"


def _pde_tag(spec) -> str:
    return f"burgers{spec.dim}d" if spec.kind == "burgers" else spec.kind


def _fft_bytes(out, *a, **k) -> float:
    """Computed bytes: input plus output array sizes."""
    return float(np.asarray(a[0]).nbytes + out.nbytes)


class Tracer:
    """In-memory span recorder plus the patch table that feeds it."""

    def __init__(self):
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.aux = array("d")
        self.raised: list[int] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name)

    def _id(self, label: str) -> int:
        i = self._ids.get(label)
        if i is None:
            i = self._ids[label] = len(self.labels)
            self.labels.append(label)
        return i

    def wrap(self, fn, label, tag=None, aux=None):
        """Timing wrapper; tag(*args) refines the label, aux(out, *args) is stored
        for calls that return."""
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            full = label if tag is None else f"{label}.{tag(*args, **kwargs)}"
            i = len(tr.name)
            tr.name.append(tr._id(full))
            tr.parent.append(tr._stack[-1])
            tr.end.append(0.0)
            tr.aux.append(0.0)
            tr._stack.append(i)
            tr.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tr.end[i] = perf_counter()
                tr._stack.pop()
                tr.raised.append(i)
                raise
            tr.end[i] = perf_counter()
            tr._stack.pop()
            if aux is not None:
                tr.aux[i] = aux(out, *args, **kwargs)
            return out

        return wrapper

    @contextmanager
    def span(self, label, aux=0.0):
        """A span around benchmark code (one timed operation)."""
        i = len(self.name)
        self.name.append(self._id(label))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.aux.append(float(aux))
        self._stack.append(i)
        self.start.append(perf_counter())
        try:
            yield
        except BaseException:
            self.raised.append(i)
            raise
        finally:
            self.end[i] = perf_counter()
            self._stack.pop()

    def patch(self, obj, attr, label, tag=None, aux=None):
        if not hasattr(obj, attr):
            return
        original = getattr(obj, attr)
        setattr(obj, attr, self.wrap(original, label, tag, aux))
        self._patches.append((obj, attr, original))

    def install(self):
        """Wrap the public functions of every layer, where they are looked up."""
        sp, so, ev = sino.spectral, sino.solvers, sino.evaluation
        for mod in (sp, so, ev):
            for fn in ("forward_transform", "inverse_transform"):
                self.patch(mod, fn, f"spectral.{fn}", tag=_dim_tag)
            self.patch(mod, "spectral_resample", "spectral.spectral_resample")
            self.patch(mod, "grf_sample", "spectral.grf_sample")
        self.patch(so, "generate_dataset", "solvers.generate_dataset")
        self.patch(so, "integrate", "solvers.integrate",
                   tag=lambda spec, *a, **k: _pde_tag(spec),
                   aux=lambda out, spec, cfg, *a, **k: float(cfg.n_steps))
        self.patch(so, "kse_rhs", "solvers.rhs.kse")
        self.patch(so, "nse_rhs", "solvers.rhs.nse")
        self.patch(so, "burgers_rhs", "solvers.rhs",
                   tag=lambda u, grid, *a, **k: f"burgers{grid.dim}d")

        co = sino.containers
        self.patch(co, "write_field_container", "containers.write",
                   aux=lambda out, path, *a, **k: float(os.path.getsize(path)))
        self.patch(co, "read_field_container", "containers.read",
                   aux=lambda out, *a, **k: float(out[2].nbytes))

        tr = sino.training
        # onecycle_lr runs once at the start of every iteration
        for fn in ("train", "backward", "adam_step", "validation_rel_l2", "onecycle_lr"):
            self.patch(tr, fn, f"training.{fn}")

        mo = sino.model
        for fn in ("freq2vec_eval", "slb_apply", "pi_block", "rhs_eval", "model_step"):
            self.patch(mo, fn, f"model.{fn}", tag=_dim_tag)
        self.patch(mo, "rollout", "model.rollout", tag=_dim_tag,
                   aux=lambda out, u0, params, cfg, grid, n_steps, *a, **k: float(n_steps))

        self.patch(ev, "evaluate_rollout", "evaluation.evaluate_rollout",
                   aux=lambda out, params, cfg, test_set, *a, **k: float(test_set.n_traj))

        eng = sino.engine
        for fn_name, fn in inspect.getmembers(eng, inspect.isfunction):
            if fn.__module__ == eng.__name__ and not fn_name.startswith("_") \
                    and fn_name not in ENGINE_NON_OPS:
                self.patch(eng, fn_name, f"engine.{fn_name}")
        self.patch(eng.Tensor, "backward", "engine.Tensor.backward")

        for fn in FFT_NAMES:
            self.patch(np.fft, fn, f"fft.{fn}", aux=_fft_bytes)

    def uninstall(self):
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def save(self, path) -> None:
        np.savez(path, labels=np.array(self.labels), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end), aux=np.asarray(self.aux),
                 raised=np.array(self.raised, dtype=np.int64))


class Spans:
    """Read-only numpy view of the recorded spans, with self times and ancestry."""

    def __init__(self, tr: Tracer):
        self.labels = list(tr.labels)
        self.name = np.asarray(tr.name, dtype=np.int64)
        self.parent = np.asarray(tr.parent, dtype=np.int64)
        self.start = np.array(tr.start, dtype=np.float64)
        self.end = np.array(tr.end, dtype=np.float64)
        self.aux = np.array(tr.aux, dtype=np.float64)
        self.ok = np.ones(len(self.name), dtype=bool)
        self.ok[np.array(tr.raised, dtype=np.int64)] = False
        self.dur = self.end - self.start
        covered = np.zeros(len(self.name))
        has_parent = self.parent >= 0
        np.add.at(covered, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - covered
        prefix = np.array([lab.split(".", 1)[0] for lab in self.labels] or [""])
        self.layer = prefix[self.name] if len(self.name) else np.array([], dtype=str)

    def label_mask(self, pred) -> np.ndarray:
        """Spans whose label satisfies pred(label)."""
        hit = np.array([bool(pred(lab)) for lab in self.labels] or [False])
        return hit[self.name] if len(self.name) else np.zeros(0, dtype=bool)

    def nearest(self, kind: np.ndarray) -> np.ndarray:
        """Index of the nearest ancestor-or-self span in kind, else -1."""
        idx = np.arange(len(self.name))
        target = np.where(kind, idx, self.parent)
        while True:
            safe = np.maximum(target, 0)
            move = (target >= 0) & ~kind[safe]
            if not move.any():
                return target
            target = np.where(move, self.parent[safe], target)
