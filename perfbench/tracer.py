"""Span tracer that wraps essmod's layers from outside the package.

`Tracer.install()` replaces every public function of each layer module, and
every public method of the classes that module defines, with a wrapper that
records one span: name, start, end, parent span and whether it raised. A
wrapped function is rebound in every `essmod.*` namespace (and module-level
list) that holds it, so names imported with `from .polynomials import ...`
are traced as well. `uninstall()` puts the originals back. Nothing under
`src/` changes, and with tracing off no wrapper exists.

Dunder operators and properties are not wrapped: their time counts as self
time of the calling span. A layer's self time is the duration of its spans
minus the time their child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import types
from array import array
from time import perf_counter

LAYERS = (
    "linalg",
    "algebra",
    "modules",
    "rationals",
    "polynomials",
    "subsets",
    "sections",
    "fields",
    "serialize",
    "generate",
    "runner",
    "properties",
)

# Private functions wrapped because a named metric needs their boundary.
EXTRA_PRIVATE = {"generate": ("_gen_field_attempt",)}

MARK = "__perfbench_original__"
OBSERVE = "bench.observe"


def _essmod_namespaces():
    return [m for name, m in sorted(sys.modules.items()) if name == "essmod" or name.startswith("essmod.")]


def is_wrapped(obj) -> bool:
    return hasattr(obj, MARK)


def installed_wrappers() -> list[str]:
    """Names of traced wrappers currently bound anywhere in essmod."""
    found = []
    for mod in _essmod_namespaces():
        for key, val in vars(mod).items():
            if is_wrapped(val):
                found.append(f"{mod.__name__}.{key}")
            elif inspect.isclass(val) and val.__module__.startswith("essmod"):
                for attr, member in vars(val).items():
                    if is_wrapped(getattr(member, "__func__", member)):
                        found.append(f"{val.__module__}.{val.__qualname__}.{attr}")
    return sorted(set(found))


class _CountingLinalg:
    """numpy.linalg stand-in that counts the SVDs essmod asks for: `svd`
    itself and the spectral norm `norm(a, 2)`, which LAPACK computes by one."""

    def __init__(self, real, tracer):
        self.__dict__.update(vars(real))
        real_svd, real_norm = real.svd, real.norm

        def svd(*args, **kwargs):
            tracer.svd_calls += 1
            return real_svd(*args, **kwargs)

        def norm(x, ord=None, *args, **kwargs):
            if ord == 2 and getattr(x, "ndim", 0) == 2:
                tracer.svd_calls += 1
            return real_norm(x, ord, *args, **kwargs)

        self.svd = svd
        self.norm = norm


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_raised = array("b")
        self.stack = [-1]
        self.svd_calls = 0
        self._patches: list[tuple[object, str, object]] = []
        self._list_patches: list[tuple[list, int, object]] = []
        self._observer_for = lambda name: None
        self.stats: dict[str, float] = {}
        self._seen: dict[str, set] = {}

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.span_start)
        self.span_name.append(self.name_id(name))
        self.span_parent.append(self.stack[-1])
        self.span_raised.append(0)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def close(self, idx: int):
        self.span_end[idx] = perf_counter()
        self.stack.pop()

    def new_scope(self):
        """Start a new instance: repeat fractions count inputs seen within one."""
        self._seen.clear()

    def seen_before(self, what: str, key) -> bool:
        seen = self._seen.setdefault(what, set())
        if key in seen:
            return True
        seen.add(key)
        return False

    def bump(self, key: str, value: float = 1.0):
        self.stats[key] = self.stats.get(key, 0.0) + value

    def raise_max(self, key: str, value: float):
        if value > self.stats.get(key, 0.0):
            self.stats[key] = value

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        observer = self._observer_for(name)
        names, parents, starts, ends, raised, stack = (
            self.span_name,
            self.span_parent,
            self.span_start,
            self.span_end,
            self.span_raised,
            self.stack,
        )
        observe_id = self.name_id(OBSERVE)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            raised.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = perf_counter()
                raised[idx] = 1
                stack.pop()
                raise
            ends[idx] = perf_counter()
            stack.pop()
            if observer is not None:
                # the observer's own cost is a span of the benchmark, not of the layer
                oidx = len(starts)
                names.append(observe_id)
                parents.append(stack[-1])
                raised.append(0)
                starts.append(perf_counter())
                ends.append(0.0)
                observer(tracer, args, kwargs, result)
                ends[oidx] = perf_counter()
            return result

        setattr(wrapper, MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- install / uninstall -------------------------------------------------

    def install(self, observer_for=None):
        """Wrap every layer. `observer_for(name)` may return a callable
        `(tracer, args, kwargs, result)` run after each call of that name."""
        if observer_for is not None:
            self._observer_for = observer_for
        namespaces = _essmod_namespaces()
        for layer in LAYERS:
            mod = importlib.import_module(f"essmod.{layer}")
            for key, val in list(vars(mod).items()):
                if not isinstance(val, types.FunctionType) or val.__module__ != mod.__name__:
                    continue
                if key.startswith("_") and key not in EXTRA_PRIVATE.get(layer, ()):
                    continue
                self._rebind(namespaces, val, self._wrap(val, f"{layer}.{key}"))
            for cls in [v for v in vars(mod).values() if inspect.isclass(v) and v.__module__ == mod.__name__]:
                for attr, member in list(vars(cls).items()):
                    if attr.startswith("_"):
                        continue
                    name = f"{layer}.{cls.__name__}.{attr}"
                    if isinstance(member, (classmethod, staticmethod)):
                        wrapped = type(member)(self._wrap(member.__func__, name))
                    elif isinstance(member, types.FunctionType):
                        wrapped = self._wrap(member, name)
                    else:
                        continue
                    self._patches.append((cls, attr, member))
                    setattr(cls, attr, wrapped)
        np_proxy = None
        for mod in namespaces:
            real_np = vars(mod).get("np")
            if real_np is not None and isinstance(real_np, types.ModuleType):
                if np_proxy is None:
                    np_proxy = types.SimpleNamespace(**vars(real_np))
                    np_proxy.linalg = _CountingLinalg(real_np.linalg, self)
                self._patches.append((mod, "np", real_np))
                setattr(mod, "np", np_proxy)

    def _rebind(self, namespaces, original, wrapper):
        for mod in namespaces:
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
                elif isinstance(val, list):
                    for i, item in enumerate(val):
                        if item is original:
                            self._list_patches.append((val, i, original))
                            val[i] = wrapper

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        for seq, i, original in reversed(self._list_patches):
            seq[i] = original
        self._patches.clear()
        self._list_patches.clear()


class SpanTable:
    """Self times and inclusive times computed from the recorded spans."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        n = len(tracer.span_start)
        names = tracer.span_name
        parents = tracer.span_parent
        starts = tracer.span_start
        ends = tracer.span_end
        child = [0.0] * n
        dur = [0.0] * n
        for i in range(n - 1, -1, -1):
            d = ends[i] - starts[i]
            dur[i] = d
            p = parents[i]
            if p >= 0:
                child[p] += d
        self.n = n
        self.dur = dur
        self.self_time = [dur[i] - child[i] for i in range(n)]
        self.by_name_calls: dict[str, int] = {}
        self.by_name_raised: dict[str, int] = {}
        self.self_by_name: dict[str, float] = {}
        for i in range(n):
            name = tracer.names[names[i]]
            self.by_name_calls[name] = self.by_name_calls.get(name, 0) + 1
            self.self_by_name[name] = self.self_by_name.get(name, 0.0) + self.self_time[i]
            if tracer.span_raised[i]:
                self.by_name_raised[name] = self.by_name_raised.get(name, 0) + 1

    def layer_of(self, name: str) -> str:
        return name.split(".", 1)[0]

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.self_by_name.items() if self.layer_of(name) == layer)

    def layer_calls(self, layer: str) -> int:
        return sum(
            c for name, c in self.by_name_calls.items() if self.layer_of(name) == layer
        )

    def calls(self, name: str) -> int:
        return self.by_name_calls.get(name, 0)

    def raised(self, name: str) -> int:
        return self.by_name_raised.get(name, 0)

    def inclusive(self, match) -> float:
        """Time inside spans whose name satisfies `match`, counting nested
        matching spans once (only the outermost is summed)."""
        tracer = self.tracer
        hit = [False] * self.n
        covered = [False] * self.n
        total = 0.0
        for i in range(self.n):
            p = tracer.span_parent[i]
            under = p >= 0 and (hit[p] or covered[p])
            covered[i] = under
            if match(tracer.names[tracer.span_name[i]]):
                hit[i] = True
                if not under:
                    total += self.dur[i]
        return total

    def calls_with_parent_layer(self, name: str, parent_layer: str) -> int:
        tracer = self.tracer
        nid = tracer._ids.get(name)
        if nid is None:
            return 0
        count = 0
        for i in range(self.n):
            if tracer.span_name[i] == nid:
                p = tracer.span_parent[i]
                if p >= 0 and self.layer_of(tracer.names[tracer.span_name[p]]) == parent_layer:
                    count += 1
        return count
