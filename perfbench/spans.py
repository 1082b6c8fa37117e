"""Host-time spans recorded around calls into each layer of ``repro``.

The traced run patches, from outside the program, every function and
method defined by the ``repro`` modules listed in :data:`LAYERS`, so
each call opens a span named after the function.  A span records its
start and end (``time.perf_counter``), its parent span and the query
it works for; spans live in flat in-memory arrays and are written out
once, when the run ends.

Generator functions are not timed at the call that creates the
generator, which does no work: the returned generator is wrapped so
that every resumption (``send``/``throw``) is its own span.  Process
bodies handed to ``Environment.process`` are wrapped the same way,
including closures the patching cannot reach by name.

A layer's self time is the time its spans cover minus the time their
child spans cover.  ``Environment.run`` is the kernel's span, so time
inside the event loop that no other layer's span covers is the
kernel's own.  The event primitives (``repro.sim.events``) and
properties are not wrapped: a call to them is charged to the caller.
"""

from __future__ import annotations

import array
import collections
import contextlib
import functools
import inspect
import json
import pathlib
import sys
import time
import typing

#: Module prefix -> layer, first match wins.  The layers are the
#: ``repro`` packages; the DES kernel and the CPU resource are split
#: because they are the two halves of ``repro.sim``.
LAYERS = (
    ("repro.sim.resources", "sim.cpu"),
    ("repro.sim", "sim.kernel"),
    ("repro.grid", "grid"),
    ("repro.net", "net"),
    ("repro.services", "services"),
    ("repro.data", "data"),
    ("repro.engine", "engine"),
    ("repro.recovery", "recovery"),
    ("repro.core", "core"),
    ("repro.policy", "policy"),
    ("repro.dqp", "dqp"),
    ("repro.planner", "planner"),
    ("repro.sched", "sched"),
    ("repro.telemetry", "telemetry"),
    ("repro.chaos", "chaos"),
    ("repro.workloads", "workloads"),
)

#: Layer of code outside ``repro`` (the benchmark's own arrival process).
BENCH_LAYER = "bench"

#: Kernel modules whose functions stay unwrapped: they run once per
#: event and are the kernel's self time.  ``Environment.run`` and
#: ``Environment.process`` are patched separately.
UNWRAPPED_MODULES = frozenset({"repro.sim.environment", "repro.sim.events"})

#: Dunder methods worth a span; the rest (``__len__``, ``__iter__``,
#: comparisons, ``__repr__``) are too small and too frequent.
WRAPPED_DUNDERS = frozenset({"__init__", "__call__"})

KERNEL_RUN = "repro.sim.environment:Environment.run"

Hook = typing.Callable[["SpanRecorder", tuple, typing.Any], None]


def layer_of_module(module_name: str) -> str | None:
    for prefix, layer in LAYERS:
        if module_name == prefix or module_name.startswith(prefix + "."):
            return layer
    return None


class SpanRecorder:
    """Flat, append-only span storage plus counters set by hooks."""

    def __init__(self, clock: typing.Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("l")
        self.name_ids = array.array("i")
        self.query_ids = array.array("i")
        self.stack: list[int] = []
        self.names: list[str] = []
        self.layers: list[str] = []
        self._name_index: dict[str, int] = {}
        self.queries: list[str] = []
        self._query_index: dict[str, int] = {}
        #: Query of spans opened with no parent and no query of their
        #: own (closed-loop runs set it to the query being run).
        self.root_query = -1
        self.counts: collections.Counter = collections.Counter()
        #: Objects collected by hooks (CPU tasks, hash joins).
        self.collected: dict[str, list] = collections.defaultdict(list)

    def __len__(self) -> int:
        return len(self.starts)

    def name_id(self, name: str, layer: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return index

    def query_id(self, label: typing.Any) -> int:
        if label is None:
            return self.current_query()
        label = str(label)
        index = self._query_index.get(label)
        if index is None:
            index = self._query_index[label] = len(self.queries)
            self.queries.append(label)
        return index

    def current_query(self) -> int:
        stack = self.stack
        return self.query_ids[stack[-1]] if stack else self.root_query

    def enclosing_name(self) -> str | None:
        """Name of the innermost open span, if any."""
        stack = self.stack
        return self.names[self.name_ids[stack[-1]]] if stack else None

    def open(self, name_id: int, query: int) -> int:
        index = len(self.starts)
        stack = self.stack
        self.parents.append(stack[-1] if stack else -1)
        self.name_ids.append(name_id)
        self.query_ids.append(query)
        self.ends.append(0.0)
        stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        self.stack.pop()

    def clear(self) -> None:
        """Drop the spans and counts recorded so far (names stay)."""
        if self.stack:
            raise RuntimeError("clear() with spans still open")
        for column in (self.starts, self.ends, self.parents,
                       self.name_ids, self.query_ids):
            del column[:]
        self.counts.clear()
        self.collected.clear()

    # -- analysis --------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name: duration minus children's."""
        count = len(self.starts)
        starts, ends, parents = self.starts, self.ends, self.parents
        child = [0.0] * count
        for index in range(count):
            parent = parents[index]
            if parent >= 0:
                child[parent] += ends[index] - starts[index]
        totals = [0.0] * len(self.names)
        name_ids = self.name_ids
        for index in range(count):
            totals[name_ids[index]] += (ends[index] - starts[index]
                                        - child[index])
        return {name: totals[i] for i, name in enumerate(self.names)}

    def layer_self_seconds(self) -> dict[str, float]:
        per_layer: dict[str, float] = collections.defaultdict(float)
        for name, seconds in self.self_seconds().items():
            per_layer[self.layers[self._name_index[name]]] += seconds
        return dict(per_layer)

    def inclusive_seconds(self, names: typing.Iterable[str]) -> float:
        """Total duration of the spans of ``names`` not nested in a
        span of the same set (no double counting of recursion)."""
        wanted = {self._name_index[name] for name in names
                  if name in self._name_index}
        total = 0.0
        for index in range(len(self.starts)):
            if self.name_ids[index] not in wanted:
                continue
            parent = self.parents[index]
            nested = False
            while parent >= 0:
                if self.name_ids[parent] in wanted:
                    nested = True
                    break
                parent = self.parents[parent]
            if not nested:
                total += self.ends[index] - self.starts[index]
        return total

    def root_seconds(self) -> float:
        """Time covered by top-level spans (the traced host time)."""
        return sum(self.ends[i] - self.starts[i]
                   for i in range(len(self.starts))
                   if self.parents[i] < 0)

    def write(self, path: pathlib.Path) -> None:
        """Write the spans: one JSON header line, then the raw arrays
        (starts, ends, parents, name ids, query ids) in that order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = (self.starts, self.ends, self.parents, self.name_ids,
                   self.query_ids)
        header = {
            "spans": len(self.starts),
            "columns": ["start_s", "end_s", "parent", "name", "query"],
            "typecodes": [column.typecode for column in columns],
            "itemsizes": [column.itemsize for column in columns],
            "byteorder": sys.byteorder,
            "names": self.names,
            "layers": self.layers,
            "queries": self.queries,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in columns:
                column.tofile(handle)


class TimedGenerator:
    """Generator proxy that records one span per resumption."""

    __slots__ = ("_generator", "_name_id", "_query", "_recorder")

    def __init__(self, generator, name_id: int, query: int,
                 recorder: SpanRecorder) -> None:
        self._generator = generator
        self._name_id = name_id
        self._query = query
        self._recorder = recorder

    @property
    def __name__(self) -> str:
        return self._generator.__name__

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        recorder = self._recorder
        index = recorder.open(self._name_id, self._query)
        try:
            return self._generator.send(value)
        finally:
            recorder.close(index)

    def throw(self, *args):
        recorder = self._recorder
        index = recorder.open(self._name_id, self._query)
        try:
            return self._generator.throw(*args)
        finally:
            recorder.close(index)

    def close(self):
        return self._generator.close()


def _wrap(function, name_id: int, recorder: SpanRecorder,
          query_attr: bool, hook: Hook | None):
    """A span-recording stand-in for ``function``."""
    if inspect.isgeneratorfunction(function):
        @functools.wraps(function)
        def generator_wrapper(*args, **kwargs):
            if query_attr:
                query = recorder.query_id(getattr(args[0], "query_id", None))
            else:
                query = recorder.current_query()
            return TimedGenerator(function(*args, **kwargs), name_id,
                                  query, recorder)
        return generator_wrapper

    open_span, close_span = recorder.open, recorder.close
    current_query, query_id = recorder.current_query, recorder.query_id

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if query_attr and args:
            query = query_id(getattr(args[0], "query_id", None))
        else:
            query = current_query()
        index = open_span(name_id, query)
        try:
            result = function(*args, **kwargs)
        finally:
            close_span(index)
        if hook is not None:
            hook(recorder, args, result)
        return result
    return wrapper


def _stores_query_id(cls) -> bool:
    init = cls.__dict__.get("__init__")
    code = getattr(init, "__code__", None)
    return code is not None and "query_id" in code.co_names


class Instrumentation:
    """Patches the ``repro`` modules loaded now; undone by :meth:`remove`."""

    def __init__(self, recorder: SpanRecorder,
                 hooks: typing.Mapping[str, Hook] | None = None) -> None:
        self.recorder = recorder
        self.hooks = dict(hooks or {})
        self._undo: list[tuple[typing.Any, str, typing.Any]] = []
        self._layer_of_file: dict[str, tuple[str, str]] = {}

    def _set(self, owner, attribute: str, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, attribute, owner[attribute]))
            owner[attribute] = value
        else:
            self._undo.append((owner, attribute,
                               owner.__dict__[attribute]))
            setattr(owner, attribute, value)

    def _wrapped(self, function, qualname: str, module: str, layer: str,
                 query_attr: bool = False):
        name = f"{module}:{qualname}"
        name_id = self.recorder.name_id(name, layer)
        return _wrap(function, name_id, self.recorder, query_attr,
                     self.hooks.get(name))

    def install(self) -> None:
        modules = {name: module for name, module in sys.modules.items()
                   if module is not None
                   and (name == "repro" or name.startswith("repro."))}
        originals: dict[int, typing.Any] = {}
        for module_name, module in sorted(modules.items()):
            layer = layer_of_module(module_name)
            if layer is None:
                continue
            source = getattr(module, "__file__", None)
            if source:
                self._layer_of_file[source] = (module_name, layer)
            if module_name in UNWRAPPED_MODULES:
                continue
            namespace = vars(module)
            for attribute, value in list(namespace.items()):
                if getattr(value, "__module__", None) != module_name:
                    continue
                if inspect.isfunction(value):
                    wrapper = self._wrapped(value, value.__qualname__,
                                            module_name, layer)
                    originals[id(value)] = wrapper
                    self._set(namespace, attribute, wrapper)
                elif inspect.isclass(value):
                    self._patch_class(value, module_name, layer)
        # ``from module import function`` bound the originals elsewhere.
        for module in modules.values():
            namespace = vars(module)
            for attribute, value in list(namespace.items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and namespace[attribute] is not wrapper:
                    self._set(namespace, attribute, wrapper)
        self._patch_environment()

    def _patch_class(self, cls, module_name: str, layer: str) -> None:
        if issubclass(cls, BaseException):
            return
        query_attr = _stores_query_id(cls)
        for attribute, value in list(cls.__dict__.items()):
            if (attribute.startswith("__") and attribute.endswith("__")
                    and attribute not in WRAPPED_DUNDERS):
                continue
            qualname = f"{cls.__qualname__}.{attribute}"
            if isinstance(value, (staticmethod, classmethod)):
                inner = value.__func__
                if inspect.isfunction(inner):
                    self._set(cls, attribute, type(value)(self._wrapped(
                        inner, qualname, module_name, layer)))
            elif inspect.isfunction(value):
                self._set(cls, attribute, self._wrapped(
                    value, qualname, module_name, layer, query_attr))

    def _patch_environment(self) -> None:
        from repro.sim.environment import Environment

        recorder = self.recorder
        run = Environment.__dict__["run"]
        self._set(Environment, "run", _wrap(
            run, recorder.name_id(KERNEL_RUN, "sim.kernel"), recorder,
            False, None))
        process = Environment.__dict__["process"]
        layer_of_file = self._layer_of_file

        @functools.wraps(process)
        def traced_process(env, generator, name=None):
            if not isinstance(generator, TimedGenerator):
                code = generator.gi_code
                module, layer = layer_of_file.get(
                    code.co_filename, ("bench", BENCH_LAYER))
                name_id = recorder.name_id(
                    f"{module}:{code.co_qualname}", layer)
                generator = TimedGenerator(generator, name_id,
                                           recorder.current_query(),
                                           recorder)
            return process(env, generator, name)
        self._set(Environment, "process", traced_process)

    def remove(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attribute] = original
            else:
                setattr(owner, attribute, original)


@contextlib.contextmanager
def traced(recorder: SpanRecorder,
           hooks: typing.Mapping[str, Hook] | None = None):
    """Record spans for every ``repro`` call made inside the block."""
    instrumentation = Instrumentation(recorder, hooks)
    instrumentation.install()
    try:
        yield recorder
    finally:
        instrumentation.remove()
