"""Spans around the calls the benchmark makes into starbook's modules.

In a traced pass every call the benchmark makes into starbook (search,
verify, construct, certs, render, journal) is aggregated here by span
name, with its count and total seconds.  Two calls made from inside the
engine are hooked as well, by swapping the names the search module
looks up at call time:

* search.crosscap_page_valid -> span "verify.crosscap_probe"
* search.verify_layout       -> span "search.reverify"

A hook whose name no longer exists in starbook is skipped, and its span
then reads zero calls.  Spans are aggregated in memory rather than kept
one by one, because a cross-cap search makes ~10^5 probes per pass.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

ENGINE_HOOKS = (
    ("search", "crosscap_page_valid", "verify.crosscap_probe"),
    ("search", "verify_layout", "search.reverify"),
)


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.accepted: Counter = Counter()  # calls that returned (True, ...)
        self.total: defaultdict = defaultdict(float)

    def run(self, name: str, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.calls[name] += 1
            self.total[name] += perf_counter() - start

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            result = self.run(name, fn, *args, **kwargs)
            if isinstance(result, tuple) and result and result[0] is True:
                self.accepted[name] += 1
            return result
        return traced

    @contextmanager
    def engine_hooks(self, sb):
        """Install the engine hooks on the starbook modules in `sb`."""
        saved = []
        for module_name, attr, span in ENGINE_HOOKS:
            module = getattr(sb, module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original))
        try:
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)
