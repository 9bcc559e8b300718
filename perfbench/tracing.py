"""Timing wrappers around straus's public functions, installed from outside.

Every wrapper belongs to a layer, named after the straus module it times.  A
wrapped call's self time is its duration minus the durations of the wrapped
calls made under it, so per-layer self times partition the traced time spent
inside the library.

Only totals are kept, per function and per layer, so tracing memory stays
small on long sweeps.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.total = defaultdict(float)  # inclusive seconds per function
        self.self_time = defaultdict(float)  # exclusive seconds per function
        self.layer_self = defaultdict(float)  # exclusive seconds per layer
        self.calls = Counter()
        self.errors = Counter()  # (function, exception type) -> count
        self.counts = Counter()  # counters fed by the on_* hooks
        self._stack: list[list] = []  # [child seconds] per open call
        self._wrappers: list[tuple] = []  # (original, wrapper), installed on enter
        self._patched: list[tuple] = []

    # -- call accounting -------------------------------------------------

    _TOTALS = ("total", "self_time", "layer_self", "calls", "errors", "counts")

    def snapshot(self) -> tuple:
        """Copies of every total, for `restore` to roll back to."""
        return tuple(getattr(self, k).copy() for k in self._TOTALS)

    def restore(self, snapshot: tuple) -> None:
        """Forget what was counted since `snapshot` was taken.  Only valid
        with no wrapped call open, as between two top-level library calls."""
        for key, value in zip(self._TOTALS, snapshot):
            setattr(self, key, value.copy())

    def _push(self) -> list:
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def _pop(self, frame: list, layer: str, name: str, start: float) -> float:
        end = perf_counter()
        self._stack.pop()
        dur = end - start
        self.total[name] += dur
        self.self_time[name] += dur - frame[0]
        self.layer_self[layer] += dur - frame[0]
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][0] += dur
        return dur

    def wrap(self, layer, fn, on_result=None):
        name = f"{layer}.{fn.__name__}"
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._push()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._pop(frame, layer, name, start)
                tracer.errors[name, type(exc).__name__] += 1
                raise
            seconds = tracer._pop(frame, layer, name, start)
            if on_result is not None:
                on_result(tracer, args, result, seconds)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, layer, fn, on_start, on_yield, on_end):
        """Time each resumption of a generator; the consumer's time between
        resumptions is not counted."""
        name = f"{layer}.{fn.__name__}"
        tracer = self

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            state = on_start(args)
            exhausted = False
            try:
                while True:
                    frame = tracer._push()
                    start = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        exhausted = True
                        return
                    except Exception as exc:
                        tracer.errors[name, type(exc).__name__] += 1
                        raise
                    finally:
                        tracer._pop(frame, layer, name, start)
                    on_yield(state, item)
                    yield item
            finally:
                gen.close()
                on_end(tracer, state, exhausted)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def add(self, original, wrapper) -> None:
        """Have `wrapper` replace `original` while the tracer is entered."""
        self._wrappers.append((original, wrapper))

    def __enter__(self) -> "Tracer":
        """Replace every reference to each wrapped original in the loaded
        straus modules."""
        modules = [m for name, m in sys.modules.items()
                   if name == "straus" or name.startswith("straus.")]
        for original, wrapper in self._wrappers:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
