"""Per-layer host-time tracing from outside the library.

The traced run wraps the public functions and methods of each of the
repo's packages (its *layers*) at runtime.  Every call into a wrapped
function opens a span; when a public function returns a generator, the
span covers each resume step instead of the call, because that is where
simulated processes spend their host time.  A span records its layer,
start, end, parent span and the cell it ran in.  Self time is the
span's duration minus the part its child spans cover, so the layers'
self times plus the root's own remainder add up to the ``execute``
span exactly.

Nothing under ``src/repro`` is modified: wrappers replace class
attributes and module globals while tracing is installed and the
originals are put back afterwards.  Private code (names starting with
``_``) is never wrapped, so its host time lands in the nearest traced
caller; in particular the thread scheduler's loop and the kernel's
process resumption run under the ``Simulator.run`` span and count as
``sim`` self time.

The apps' ``verify`` spans are opaque: while one is open, no wrapper
opens a span or bumps a counter, so the verifier's reference work (for
LRC, replaying every stored diff to rebuild each page) is charged to
``verify`` alone and leaves the protocol's own counts untouched.
"""

from __future__ import annotations

import enum
import functools
import inspect
import sys
import time
from array import array
from types import FunctionType, GeneratorType

#: Layer of each traced module: the entry for its nearest listed package.
MODULE_LAYERS = {
    "repro.sim": "sim",
    "repro.machine": "machine",
    "repro.network": "network",
    "repro.network.transport": "transport",
    "repro.dsm": "dsm",
    "repro.memory": "memory",
    "repro.threads": "threads",
    "repro.prefetch": "prefetch",
    "repro.apps": "apps",
    "repro.trace": "trace",
    "repro.profile": "profile",
    "repro.telemetry": "telemetry",
    "repro.critpath": "critpath",
    "repro.ft": "ft",
    "repro.ft.sanitizer": "sanitizer",
    "repro.metrics": "metrics",
}
#: The root span: everything a cell's ``DsmRuntime.execute`` does.
ROOT = "execute"
#: The apps' ``verify`` methods: an opaque layer of their own.
VERIFY = "verify"
#: Span layers.
LAYERS = (ROOT, *dict.fromkeys(MODULE_LAYERS.values()), VERIFY)

#: Calls counted exactly, by (qualified name) -> counter name.
COUNTED = {
    "Simulator.timeout": "sim.timeouts_created",
    "Node.occupy": "machine.occupy_calls",
    "Link.send": "network.link_sends",
    "DsmNode.ensure_valid": "dsm.ensure_valid_calls",
    "make_diff": "memory.diffs_made",
    # The protocols apply diffs (and HLRC/SC whole-page installs) inline,
    # not through ``apply_diff``; each one is charged exactly once
    # through this cost-model call.
    "CostModel.diff_apply_us": "memory.diffs_applied",
}


def layer_of(module: str):
    while module and module not in MODULE_LAYERS:
        module = module.rpartition(".")[0]
    return MODULE_LAYERS.get(module)


class Recorder:
    """Span stack, per-cell self times and the in-memory span log."""

    def __init__(self) -> None:
        self.layer_ids = {name: i for i, name in enumerate(LAYERS)}
        self.active = False
        self.cell = -1
        self.counts: dict[str, float] = {}
        #: self seconds per cell, indexed [cell][layer id]
        self.self_s: list[list[float]] = []
        self.execute_s: list[float] = []
        # Span log, one entry per span (parallel compact arrays).
        self.span_layer = array("b")
        self.span_cell = array("h")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # Open spans: [span index, layer id, start, child seconds].
        self._stack: list[list] = []

    def new_cell(self) -> None:
        self.self_s.append([0.0] * len(LAYERS))
        self.execute_s.append(0.0)
        self.cell = len(self.self_s) - 1

    def enter(self, layer: int) -> None:
        stack = self._stack
        index = len(self.span_start)
        now = time.perf_counter()
        self.span_layer.append(layer)
        self.span_cell.append(self.cell)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_start.append(now)
        self.span_end.append(now)
        stack.append([index, layer, now, 0.0])

    def exit(self) -> None:
        now = time.perf_counter()
        index, layer, start, child = self._stack.pop()
        self.span_end[index] = now
        duration = now - start
        self.self_s[self.cell][layer] += duration - child
        if self._stack:
            self._stack[-1][3] += duration
        else:
            self.execute_s[self.cell] += duration

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def steps(self, gen, layer: int):
        """Proxy generator that times each resume step of ``gen``."""
        value = None
        error = None
        while True:
            # A step outside any execute span (a generator finalised
            # after its cell ended) runs untimed.
            timed = self.active
            if timed:
                self.enter(layer)
            try:
                item = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                if timed:
                    self.exit()
                return stop.value
            except BaseException:
                if timed:
                    self.exit()
                raise
            if timed:
                self.exit()
            error = None
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:
                error, value = exc, None


_STEPS_CODE = Recorder.steps.__code__


def _proxy(rec: Recorder, gen, layer: int):
    proxy = rec.steps(gen, layer)
    proxy.__name__ = gen.__name__
    proxy.__qualname__ = gen.__qualname__
    return proxy


def _wrap_root(rec: Recorder, fn):
    """``DsmRuntime.execute``: the span every other span of a cell nests in."""

    @functools.wraps(fn)
    def root(*args, **kwargs):
        rec.active = True
        rec.enter(rec.layer_ids[ROOT])
        try:
            return fn(*args, **kwargs)
        finally:
            rec.exit()
            rec.active = False

    return root


def _wrap_opaque(rec: Recorder, fn, layer: int):
    """A span whose callees run untraced and uncounted."""

    @functools.wraps(fn)
    def opaque(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        rec.enter(layer)
        rec.active = False
        try:
            return fn(*args, **kwargs)
        finally:
            rec.active = True
            rec.exit()

    return opaque


def _wrap(rec: Recorder, fn, layer: int, qualname: str):
    if rec.layer_ids[VERIFY] == layer:
        return _wrap_opaque(rec, fn, layer)
    counter = COUNTED.get(qualname)
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            if counter:
                rec.count(counter)
            return _proxy(rec, fn(*args, **kwargs), layer)

        return gen_wrapper

    diff_bytes = qualname == "make_diff"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        if counter:
            rec.count(counter)
        rec.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit()
        if type(result) is GeneratorType and result.gi_code is not _STEPS_CODE:
            return _proxy(rec, result, layer)
        if diff_bytes:
            rec.count("memory.diff_kbytes", result.size_bytes / 1024.0)
        return result

    return wrapper


class Tracing:
    """Installs wrappers on every public function of the traced layers.

    Use as a context manager; the originals are restored on exit.  The
    spans and counts of everything run inside land in :attr:`recorder`.
    Modules must already be imported to be wrapped.
    """

    def __init__(self) -> None:
        self.recorder = Recorder()
        self._patches: list[tuple[object, str, object]] = []
        #: id of each wrapped original -> its wrapper.
        self._wrappers: dict[int, object] = {}
        #: Wrapped functions also held where no wrapper can reach them
        #: (default arguments, closures): those calls run untraced.
        self.unreachable: list[str] = []

    def __enter__(self) -> "Tracing":
        modules = [
            (name, module, layer_of(name))
            for name, module in sorted(sys.modules.items())
            if module is not None and name.startswith("repro.")
        ]
        runtime = sys.modules["repro.api.runtime"].DsmRuntime
        self._set(runtime, "execute", _wrap_root(self.recorder, runtime.execute))
        for name, module, layer in modules:
            if layer is None:
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != name:
                    continue
                if isinstance(value, FunctionType):
                    self._wrap_into(module, attr, value, layer, attr)
                elif isinstance(value, type) and not issubclass(
                    value, (BaseException, enum.Enum)
                ):
                    for method, fn in list(vars(value).items()):
                        if isinstance(fn, FunctionType) and not method.startswith("_"):
                            split = VERIFY if (layer, method) == ("apps", "verify") else layer
                            self._wrap_into(value, method, fn, split, f"{attr}.{method}")
        # Rebind the ``from x import f`` copies of wrapped module functions.
        for _, module, _ in modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, FunctionType) and id(value) in self._wrappers:
                    self._set(module, attr, self._wrappers[id(value)])
        self.unreachable = self._captured_elsewhere(modules)
        return self

    def _wrap_into(self, owner, attr: str, fn, layer: str, qualname: str) -> None:
        wrapper = _wrap(self.recorder, fn, self.recorder.layer_ids[layer], qualname)
        self._wrappers[id(fn)] = wrapper
        self._set(owner, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _captured_elsewhere(self, modules) -> list[str]:
        """Wrapped functions still held by default arguments or closures."""
        found = set()
        for name, module, _ in modules:
            owners = [module, *[v for v in vars(module).values() if isinstance(v, type)]]
            for owner in owners:
                for fn in vars(owner).values():
                    if not isinstance(fn, FunctionType):
                        continue
                    fn = getattr(fn, "__wrapped__", fn)
                    held = [*(fn.__defaults__ or ()), *(fn.__kwdefaults__ or {}).values()]
                    for cell in fn.__closure__ or ():
                        try:
                            held.append(cell.cell_contents)
                        except ValueError:  # an unfilled cell
                            pass
                    found.update(
                        f"{value.__qualname__} (held by {name}.{fn.__qualname__})"
                        for value in held
                        if id(value) in self._wrappers
                    )
        return sorted(found)
