"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function by a wrapper in every
``radialgeo`` module and class that holds it, because a function imported
by name (``from .warping import solve_warping``) is a separate binding in
each importing module: wrapping only the defining module would miss calls
made through the others. ``uninstall`` puts the originals back.

A span is (name, parent span, start, end, arg). Spans are kept in flat
arrays while the run lasts, written to an ``.npz`` trace file at the end,
and ``Trace`` reads that file back to give each span its root, the names
above it and its self time.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

# span name -> (owner, attribute, arg extractor) of the traced callables;
# owner is a module path (every module binding the function is wrapped) or
# "module:Class" for a method. The extractor turns (args, kwargs, result)
# into the span's integer arg.
TRACED = {
    "curvature.eval": [("radialgeo.curvature:RadialCurvature", "__call__", None)],
    "curvature.envelope": [("radialgeo.curvature", "nonpositive_min", None)],
    "curvature.moment": [("radialgeo.curvature", "moment_integral", None)],
    "warping.solve": [("radialgeo.warping", "solve_warping",
                       lambda a, kw, r: id(a[0] if a else kw["k"]))],
    "warping.interp_build": [("radialgeo.warping:WarpingSolution", "__init__",
                              lambda a, kw, r: len(a[0].grid))],
    "warping.eval": [("radialgeo.warping:WarpingSolution", attr, None)
                     for attr in ("m", "m_prime", "m_second")],
    "warping.slope_limit": [("radialgeo.warping", "slope_limit", None)],
    "warping.total_curvature": [("radialgeo.warping", "total_curvature_direct", None)],
    "volume.ball_volume": [("radialgeo.volume", "model_ball_volume", None)],
    "volume.classify": [("radialgeo.volume", "classify_ball_volume", None)],
    "volume.growth_ratio": [("radialgeo.volume", "growth_ratio", None),
                            ("radialgeo.volume", "_assemble_ratio", None)],
    "geodesics.distance": [("radialgeo.geodesics", "distance", None)],
    "geodesics.triangle": [("radialgeo.geodesics", "comparison_triangle", None)],
    "geodesics.gauss_bonnet": [("radialgeo.geodesics", "gauss_bonnet_residual", None)],
    "synthetic.manifold_build": [("radialgeo.synthetic:RotSymManifold", "from_curvature", None)],
    "criteria.check": [("radialgeo.criteria", "ricci_pinch_check", None),
                       ("radialgeo.criteria", "sectional_pinch_check", None)],
    "cli.run": [("radialgeo.cli", "run", None)],
}
# root spans opened by the benchmark itself
ROOTS = ("setup", "op", "probe")


class Tracer:
    def __init__(self):
        self.names = list(ROOTS) + list(TRACED)
        self._id = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.arg = array("q")
        self._stack = [-1]
        self._saved = []

    # -- recording -----------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.arg.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def root(self, name: str, call):
        """Run ``call()`` inside a root span."""
        idx = self._open(self._id[name])
        try:
            return call()
        finally:
            self._close(idx)

    def _wrap(self, name: str, func, extract):
        name_id = self._id[name]
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(idx)
            if extract is not None:
                tracer.arg[idx] = extract(args, kwargs, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        for name, targets in TRACED.items():
            for owner, _attr, _extract in targets:
                importlib.import_module(owner.partition(":")[0])
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "radialgeo" or key.startswith("radialgeo.")]
        for name, targets in TRACED.items():
            for owner, attr, extract in targets:
                module_path, _, cls_name = owner.partition(":")
                if cls_name:
                    cls = getattr(sys.modules[module_path], cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__, extract))
                    else:
                        new = self._wrap(name, raw, extract)
                    self._saved.append((cls, attr, raw))
                    setattr(cls, attr, new)
                    continue
                func = getattr(sys.modules[module_path], attr)
                wrapped = self._wrap(name, func, extract)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is func:
                            self._saved.append((module, key, func))
                            setattr(module, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path):
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 start=np.frombuffer(self.start, np.float64),
                 end=np.frombuffer(self.end, np.float64),
                 arg=np.frombuffer(self.arg, np.int64))


# ---------------------------------------------------------------------------
# Analysis of a trace file
# ---------------------------------------------------------------------------


class Trace:
    """Per-span derived columns of one trace file."""

    def __init__(self, path):
        with np.load(path) as data:
            self.names = [str(n) for n in data["names"]]
            self.name = data["name"]
            self.parent = data["parent"]
            self.dur = data["end"] - data["start"]
            self.arg = data["arg"]
        n = self.name.size
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                                 minlength=n)
        self.self_time = self.dur - child_time
        # parents precede their children, so one forward pass gives each
        # span its root and the set of span names above it (as a bit mask)
        ancestors = [0] * n
        roots = [0] * n
        names, parents = self.name.tolist(), self.parent.tolist()
        for i in range(n):
            p = parents[i]
            if p < 0:
                roots[i] = i
            else:
                ancestors[i] = ancestors[p] | (1 << names[p])
                roots[i] = roots[p]
        self.ancestors = np.asarray(ancestors, dtype=np.int64)
        self.root = np.asarray(roots, dtype=np.int64)
        self.root_name = self.name[self.root] if n else self.name

    def select(self, name: str, roots) -> np.ndarray:
        """Spans called ``name`` under a root span named in ``roots``."""
        root_ids = [self.names.index(r) for r in roots]
        return np.nonzero((self.name == self.names.index(name))
                          & np.isin(self.root_name, root_ids))[0]

    def _mask(self, names) -> int:
        return sum(1 << self.names.index(name) for name in set(names))

    def outermost(self, idx: np.ndarray, names) -> np.ndarray:
        """Those of ``idx`` with no ancestor span named in ``names``."""
        return idx[(self.ancestors[idx] & self._mask(names)) == 0]

    def under(self, idx: np.ndarray, names) -> np.ndarray:
        """Those of ``idx`` with an ancestor span named in ``names``."""
        return idx[(self.ancestors[idx] & self._mask(names)) != 0]
