"""Spans and counts around the public functions of each ``gai_lab`` module.

The tracer replaces each wrapped function wherever it is looked up: in every
loaded ``gai_lab`` module that binds it by name (``gai`` binds ``similar``,
``run`` and ``wf_check``; ``corpus`` and ``memsafe`` bind ``gai_check``),
and on the class for methods.  A target that does not exist is skipped with
a note, so its metrics are absent instead of the run crashing.

Per span name it keeps calls, total time and self time (total minus the time
of its direct child spans), and per (parent, child) pair the child's total
time, which splits ``gai_check`` into its phases.  Counters that need the
call's arguments or result are kept beside the spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time

# (module, attribute, span name).  Dotted attributes are methods.
SPANS = (
    ("core", "Heap.write", "core.heap_mut"),
    ("core", "Heap.define", "core.heap_mut"),
    ("core", "Heap.undefine", "core.heap_mut"),
    ("alloc_model", "wf_check", "alloc_model.wf_check"),
    ("notac", "parse", "notac.parse"),
    ("notac", "run", "notac.run"),
    ("filtering", "similar", "filtering.similar"),
    ("filtering", "prefixes_similar_to", "filtering.prefixes_similar_to"),
    ("gai", "gai_check", "gai.gai_check"),
    ("gai", "check_family_wf", "gai.check_family_wf"),
    ("memsafe", "ms_run", "memsafe.ms_run"),
    ("memsafe", "translate", "memsafe.translate"),
    ("memsafe", "differential_check", "memsafe.differential_check"),
)
# Allocator methods are wrapped on every strategy class of ``allocators``
# that defines them itself.
ALLOCATOR_SPANS = (("init", "allocators.init"), ("malloc", "allocators.malloc"))
# Calls counted without a span.
COUNTERS = (("notac", "step", "notac.step"),)


class Tracer:
    def __init__(self):
        self.stack = [[None, 0.0]]  # open spans: [name, time of finished children]
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.under: dict[str, float] = {}  # "parent>child" -> child total_s
        self.counts: dict[str, int] = {}
        self.installed: set[str] = set()  # names of spans, counters and counts that work
        self.notes: list[str] = []

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _safe(self, key: str, hook, *args) -> None:
        # A counter hook that no longer fits the code removes its count.
        if key not in self.installed:
            return
        try:
            hook(*args)
        except Exception as exc:  # noqa: BLE001 - the traced program must keep running
            self.installed.discard(key)
            self.notes.append(f"count {key} dropped: {type(exc).__name__}: {exc}")

    def span(self, name: str, fn, before=None, after=None):
        """``fn`` wrapped in a span; ``before(args, kwargs)`` may return a
        token that ``after(token, args, kwargs, result)`` receives."""
        stack, spans, under, clock = self.stack, self.spans, self.under, time.perf_counter
        self.installed.add(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += dur
                s = spans.get(name)
                if s is None:
                    s = spans[name] = [0, 0.0, 0.0]
                s[0] += 1
                s[1] += dur
                s[2] += dur - frame[1]
                key = f"{parent[0]}>{name}"
                under[key] = under.get(key, 0.0) + dur
            if after is not None:
                after(token, args, kwargs, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        self.installed.add(name)
        count = self._count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks -----------------------------------------------------------

    def _heap_cells(self, args, kwargs):
        self._safe("core.heap_mut.cells", lambda: self._count("core.heap_mut.cells", len(args[0])))

    def _wf_trials(self, signature):
        def before(args, kwargs):
            self._safe("alloc_model.wf_check.trials", lambda: self._count(
                "alloc_model.wf_check.trials",
                int(_bound(signature, args, kwargs)["trials"]),
            ))
        return before

    def _similar_true(self, token, args, kwargs, result):
        self._safe("filtering.similar.true", lambda: self._count(
            "filtering.similar.true", 1 if result[0] else 0))

    def _malloc_null(self, signature):
        at = list(signature.parameters).index("state") if "state" in signature.parameters else None

        def before(args, kwargs):
            # The null address of the state the request starts from.
            holder = []
            self._safe("allocators.malloc.fail", lambda: holder.append(
                args[0].null(args[at] if len(args) > at else kwargs["state"])))
            return holder[0] if holder else None

        def after(null, args, kwargs, result):
            self._safe("allocators.malloc.fail", lambda: self._count(
                "allocators.malloc.fail", 1 if result[2] == null else 0))
        return before, after

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Import every ``gai_lab`` module and wrap the targets in place."""
        import gai_lab

        for info in pkgutil.iter_modules(gai_lab.__path__):
            try:
                importlib.import_module(f"gai_lab.{info.name}")
            except ImportError as exc:
                self.notes.append(f"module gai_lab.{info.name} not imported: {exc}")
        for module, attr, name in SPANS:
            self._wrap(module, attr, name)
        for module, attr, name in COUNTERS:
            self._wrap(module, attr, name, counter=True)
        self._wrap_allocators()

    def _lookup(self, module: str, attr: str):
        mod = sys.modules.get(f"gai_lab.{module}")
        if mod is None:
            return None, None
        owner, _, method = attr.rpartition(".")
        holder = getattr(mod, owner, None) if owner else mod
        fn = getattr(holder, method, None) if holder is not None else None
        return holder, fn

    def _hooks(self, name: str, fn):
        if name == "core.heap_mut":
            self.installed.add("core.heap_mut.cells")
            return self._heap_cells, None
        if name == "alloc_model.wf_check":
            self.installed.add("alloc_model.wf_check.trials")
            return self._wf_trials(inspect.signature(fn)), None
        if name == "filtering.similar":
            self.installed.add("filtering.similar.true")
            return None, self._similar_true
        if name == "allocators.malloc":
            self.installed.add("allocators.malloc.fail")
            return self._malloc_null(inspect.signature(fn))
        return None, None

    def _wrap(self, module: str, attr: str, name: str, counter: bool = False) -> None:
        holder, fn = self._lookup(module, attr)
        if not callable(fn):
            self.notes.append(f"target gai_lab.{module}.{attr} not found; {name} metrics absent")
            return
        if counter:
            wrapped = self.counter(name, fn)
        else:
            wrapped = self.span(name, fn, *self._hooks(name, fn))
        if "." in attr:
            setattr(holder, attr.rpartition(".")[2], wrapped)
        else:
            _replace_everywhere(fn, wrapped)

    def _wrap_allocators(self) -> None:
        allocators = sys.modules.get("gai_lab.allocators")
        base = getattr(sys.modules.get("gai_lab.alloc_model"), "Strategy", None)
        classes = [
            c for c in vars(allocators).values()
            if isinstance(c, type) and issubclass(c, base) and c is not base
        ] if allocators is not None and base is not None else []
        for method, name in ALLOCATOR_SPANS:
            owners = [c for c in classes if callable(vars(c).get(method))]
            if not owners:
                self.notes.append(f"no allocator class defines {method}; {name} metrics absent")
                continue
            for cls in owners:
                fn = vars(cls)[method]
                setattr(cls, method, self.span(name, fn, *self._hooks(name, fn)))

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "under": self.under,
            "counts": self.counts,
            "installed": sorted(self.installed),
            "notes": self.notes,
        }


def _bound(signature: inspect.Signature, args, kwargs) -> dict:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _replace_everywhere(original, replacement) -> None:
    """Rebind ``original`` to ``replacement`` in every ``gai_lab`` module namespace."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "gai_lab" or name.startswith("gai_lab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
