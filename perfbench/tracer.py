"""A span tracer that attaches to a program from outside, by patching.

The traced run replaces chosen functions and methods with wrappers that
record a span per call, so the program itself carries no tracing code.
A span is opened only at a *layer boundary*: when the callee's layer
differs from the layer of the innermost open span. A same-layer call is
counted but not recorded, which keeps the span log to the boundaries the
per-layer report needs.

Simulation processes are generators: calling ``StorageService.get``
only creates a generator, and the work happens later, each time the
kernel (or a ``yield from`` in the caller) resumes it. A wrapper that
timed the call would time the creation of the generator. The tracer
therefore wraps each generator it sees, so that every resumption is a
span of the generator's layer (see :meth:`Tracer.wrap_generator`).

Self time: a span's duration minus the time its child spans cover. The
per-layer self times of one traced body add up to the duration of its
root span (the root's own self time included), by construction.

Spans are kept in memory in flat arrays and written out by
:meth:`Tracer.save` when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from array import array
from typing import Any, Callable, Iterator, Optional

import numpy as np

#: Layer name of the benchmark's own root span (the timed body).
ROOT = "root"


class Tracer:
    """Spans, counts and per-layer self time of one or more traced bodies.

    Patches are installed with :meth:`patch_method`,
    :meth:`patch_function` and :meth:`patch_init`, and removed with
    :meth:`uninstall`. Wrappers record nothing while no root span is
    open, so set-up work between bodies stays out of the counts.
    """

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        #: Objects built while installed, by kind (see :meth:`patch_init`).
        self.objects: dict[str, list] = {}
        self._stack: list[list] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._function_patches: list[tuple[str, str, Any, Any]] = []
        self._ids: dict[str, dict[str, int]] = {
            "name": {}, "layer": {}, "request": {}}
        self._t0 = time.perf_counter()
        self.clear_spans()

    # -- spans ----------------------------------------------------------------

    def clear_spans(self) -> None:
        """Drop recorded spans, counts and self times (patches stay)."""
        self.counts.clear()
        self.self_s.clear()
        self.root_s = 0.0
        self._name = array("i")
        self._layer = array("i")
        self._parent = array("i")
        self._request = array("i")
        self._start = array("d")
        self._end = array("d")

    def _intern(self, table: str, key: str) -> int:
        ids = self._ids[table]
        found = ids.get(key)
        if found is None:
            found = ids[key] = len(ids)
        return found

    def _enter(self, layer: str, name: str,
               request: Optional[str] = None) -> list:
        stack = self._stack
        index = len(self._start)
        self._name.append(self._intern("name", name))
        self._layer.append(self._intern("layer", layer))
        self._parent.append(stack[-1][3] if stack else -1)
        self._request.append(
            -1 if request is None else self._intern("request", request))
        self._end.append(0.0)
        frame = [layer, 0.0, 0.0, index]
        stack.append(frame)
        now = time.perf_counter()
        frame[1] = now
        self._start.append(now - self._t0)
        return frame

    def _exit(self, frame: list) -> float:
        now = time.perf_counter()
        stack = self._stack
        stack.pop()
        layer, start, child, index = frame
        duration = now - start
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - child
        if stack:
            stack[-1][2] += duration
        self._end[index] = now - self._t0
        return duration

    @contextlib.contextmanager
    def root(self, name: str) -> Iterator[None]:
        """The root span of one traced body (layer :data:`ROOT`)."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        frame = self._enter(ROOT, name)
        try:
            yield
        finally:
            self.root_s += self._exit(frame)

    @property
    def active(self) -> bool:
        """Whether a root span is open."""
        return bool(self._stack)

    @property
    def span_count(self) -> int:
        return len(self._start)

    def wrap_generator(self, gen, layer: str, name: str,
                       request: Optional[str] = None):
        """A generator that forwards to ``gen``, one span per resumption.

        ``send``, ``throw`` and ``close`` pass straight through, and the
        wrapper takes the inner generator's ``__name__`` (the kernel
        names processes after it), so the simulation cannot tell the
        two apart. A resumption inside a span of the same layer (a
        ``yield from`` between two storage generators, say) is not a
        boundary and records no span.
        """
        wrapped = self._forward(gen, layer, name, request)
        wrapped.__name__ = gen.__name__
        wrapped.__qualname__ = gen.__qualname__
        return wrapped

    def _forward(self, gen, layer: str, name: str, request: Optional[str]):
        stack = self._stack
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            frame = None
            if stack and stack[-1][0] != layer:
                frame = self._enter(layer, name, request)
            try:
                if error is None:
                    item = gen.send(value)
                else:
                    item = gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                if frame is not None:
                    self._exit(frame)
            try:
                value = yield item
                error = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into ``gen``
                value, error = None, exc

    # -- patching --------------------------------------------------------------

    def probe(self, fn: Callable, layer: str, name: str,
              count: Optional[str] = None,
              request: Optional[Callable[..., Optional[str]]] = None,
              result: Optional[Callable[[Any], Any]] = None) -> Callable:
        """Wrap ``fn``: count each call and open a span at a boundary.

        ``count`` names the counter bumped per call; ``request`` maps the
        call's arguments to a request id recorded on the span;
        ``result`` post-processes the return value (used to probe the
        handlers a factory returns). Generator functions get their
        generator wrapped instead of a span around the call.
        """
        stack = self._stack
        counts = self.counts
        is_generator = inspect.isgeneratorfunction(fn)

        def wrapper(*args, **kwargs):
            if not stack:
                value = fn(*args, **kwargs)
                return result(value) if result is not None else value
            if count is not None:
                counts[count] = counts.get(count, 0) + 1
            rid = request(*args, **kwargs) if request is not None else None
            if is_generator:
                return self.wrap_generator(fn(*args, **kwargs), layer, name,
                                           rid)
            if stack[-1][0] == layer:
                value = fn(*args, **kwargs)
            else:
                frame = self._enter(layer, name, rid)
                try:
                    value = fn(*args, **kwargs)
                finally:
                    self._exit(frame)
            return result(value) if result is not None else value

        return functools.update_wrapper(wrapper, fn)

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_method(self, cls: type, attr: str, layer: str,
                     count: Optional[str] = None) -> None:
        """Probe ``cls.attr`` (a plain function defined on ``cls``)."""
        original = cls.__dict__[attr]
        self.replace(cls, attr, self.probe(
            original, layer, f"{cls.__name__}.{attr}", count))

    def patch_function(self, module: str, attr: str, layer: str,
                       count: Optional[str] = None,
                       result: Optional[Callable[[Any], Any]] = None) -> None:
        """Probe a module-level function wherever it is bound.

        Modules import functions by name (``from m import read_file``),
        so the wrapper replaces every reference to the original among the
        loaded modules of the same top-level package, not only in the
        defining one.
        """
        prefix = module.split(".")[0]
        original = getattr(sys.modules[module], attr)
        wrapper = self.probe(original, layer, attr, count, result=result)
        for mod in self._modules(prefix):
            if vars(mod).get(attr) is original:
                self.replace(mod, attr, wrapper)
        # A module first imported while the probe is in place binds the
        # wrapper; uninstall finds and restores those references too.
        self._function_patches.append((prefix, attr, wrapper, original))

    @staticmethod
    def _modules(prefix: str) -> list:
        return [mod for name, mod in list(sys.modules.items())
                if name == prefix or name.startswith(prefix + ".")]

    def patch_init(self, cls: type,
                   before: Optional[Callable[..., tuple]] = None,
                   kind: Optional[str] = None) -> None:
        """Wrap ``cls.__init__``: rewrite its arguments, record the object.

        ``before(args, kwargs)`` may return replacement ``(args, kwargs)``;
        with ``kind``, every object built is appended to
        ``objects[kind]`` (built during set-up too: counters read from
        them are differenced around the body).
        """
        original = cls.__dict__["__init__"]
        bucket = self.objects.setdefault(kind, []) if kind else None

        def __init__(obj, *args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            original(obj, *args, **kwargs)
            if bucket is not None:
                bucket.append(obj)

        self.replace(cls, "__init__", functools.update_wrapper(__init__,
                                                            original))

    def uninstall(self) -> None:
        """Restore every patched attribute and forget collected objects."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for prefix, attr, wrapper, original in self._function_patches:
            for mod in self._modules(prefix):
                if vars(mod).get(attr) is wrapper:
                    setattr(mod, attr, original)
        self._function_patches.clear()
        for bucket in self.objects.values():
            bucket.clear()

    # -- output ------------------------------------------------------------------

    def spans(self) -> dict:
        """The recorded spans as columns (times in seconds)."""
        # Ids are assigned in insertion order, so each table lists its
        # strings by id.
        return {
            "names": list(self._ids["name"]),
            "layers": list(self._ids["layer"]),
            "requests": list(self._ids["request"]),
            "name": self._name, "layer": self._layer,
            "parent": self._parent, "request": self._request,
            "start": self._start, "end": self._end,
        }

    def save(self, path) -> None:
        """Write the spans to ``path`` as a compressed numpy archive."""
        columns = self.spans()
        np.savez_compressed(
            path,
            **{key: np.asarray(value) for key, value in columns.items()})

