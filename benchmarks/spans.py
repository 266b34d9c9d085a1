"""Per-layer spans for the traced run, recorded from outside braidcalc.

``Tracer.install`` wraps the public functions in ``SPANNED`` and
``COUNTED``.  Each wrapper replaces the original in its defining module
and in every braidcalc module that imported the name, so calls resolved
through a module global (``garside``'s own ``normal_form`` calls,
``moves.extend`` calling ``apply_move``) are recorded too.
``Tracer.remove`` puts the originals back.

A span is (name, start, end, parent, request).  Spans stay in memory in
flat arrays and are written out once the run ends.  A layer's self time
is its span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

MARK = "__braidbench_original__"

# Functions that get a span, by module.
SPANNED = {
    "cli": ("main",),
    "words": ("parse_word",),
    "garside": ("normal_form", "conjugacy_test"),
    "invariants": ("burau", "alexander", "fingerprint"),
    "moves": ("replay", "apply_move"),
    "templates": ("expand", "verify_template", "catalog"),
    "explorer": ("search_reduce",),
}
# Functions that are only counted: a span here would move the search's
# own work out of ``explorer.search_reduce.self_s``.
COUNTED = {"explorer": ("canonical_key",)}


def _modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "braidcalc" or name.startswith("braidcalc."))
    ]


def installed_wrappers() -> list[str]:
    """Names of braidcalc module attributes that are benchmark wrappers."""
    return [
        f"{mod.__name__}.{attr}"
        for mod in _modules()
        for attr, value in vars(mod).items()
        if hasattr(value, MARK)
    ]


class Tracer:
    """Span store, per-call counters, and the wrappers that feed them."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.child = array("q")
        self.parent = array("l")
        self.name = array("l")
        self.request = array("l")
        self.stack: list[int] = []
        self.request_id = -1
        self.counts: Counter = Counter()
        self._prints: set = set()
        self._keys: set = set()
        self._in_conj = 0
        self._patched: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------

    def begin_request(self, number: int) -> None:
        self.request_id = number
        self._prints = set()

    def _span(self, qualname: str, fn, before, after):
        nid = len(self.names)
        self.names.append(qualname)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(self.start)
            parent = self.stack[-1] if self.stack else -1
            self.start.append(0)
            self.end.append(0)
            self.child.append(0)
            self.parent.append(parent)
            self.name.append(nid)
            self.request.append(self.request_id)
            self.stack.append(idx)
            result = None
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                self.stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                if parent >= 0:
                    self.child[parent] += t1 - t0
                if after is not None:
                    after(args, result)
            return result

        return wrapper

    def _count(self, fn, after):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        return wrapper

    # --- per-function counters ---------------------------------------

    def _hooks(self):
        c = self.counts

        def burau(args, result):
            c["invariants.burau.letters"] += len(args[0].letters)

        def normal_form(args, result):
            c["garside.normal_form.letters"] += len(args[0].letters)
            if self._in_conj:
                c["garside.normal_forms_in_conjugacy"] += 1

        def conj_before(args):
            self._in_conj += 1

        def conj_after(args, result):
            self._in_conj -= 1
            if result is not None:
                c["garside.conjugacy_test.nodes"] += result.nodes

        def fingerprint_before(args):
            key = (args[0].index, args[0].letters)
            if key in self._prints:
                c["invariants.fingerprint.repeats"] += 1
            self._prints.add(key)

        def search_before(args):
            self._keys = set()

        def search_after(args, result):
            if result is not None:
                c["explorer.expanded"] += result.nodes
            c["explorer.new_states"] += len(self._keys)

        def canonical_key(args, result):
            c["explorer.canonical_key.calls"] += 1
            self._keys.add(result)

        return {
            "garside.normal_form": (None, normal_form),
            "garside.conjugacy_test": (conj_before, conj_after),
            "invariants.burau": (None, burau),
            "invariants.fingerprint": (fingerprint_before, None),
            "explorer.search_reduce": (search_before, search_after),
            "explorer.canonical_key": (None, canonical_key),
        }

    # --- install / remove --------------------------------------------

    def install(self) -> None:
        import braidcalc.cli  # noqa: F401  the CLI's own imports must be patched too

        hooks = self._hooks()
        modules = _modules()
        plan = [(m, f, True) for m, fs in SPANNED.items() for f in fs]
        plan += [(m, f, False) for m, fs in COUNTED.items() for f in fs]
        for mod_name, func, spanned in plan:
            qualname = f"{mod_name}.{func}"
            original = getattr(sys.modules[f"braidcalc.{mod_name}"], func)
            before, after = hooks.get(qualname, (None, None))
            if spanned:
                wrapper = self._span(qualname, original, before, after)
            else:
                wrapper = self._count(original, after)
            setattr(wrapper, MARK, original)
            wrapper.__name__ = func
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # --- results -----------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds)."""
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(len(self.start)):
            nid = self.name[i]
            calls[nid] += 1
            self_ns[nid] += self.end[i] - self.start[i] - self.child[i]
        return {
            name: (calls[nid], self_ns[nid] / 1e9)
            for nid, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Write every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\trequest\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]}\t"
                    f"{self.end[i]}\t{self.parent[i]}\t{self.request[i]}\n"
                )

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json."""
        t = self.self_times()
        c = self.counts

        def calls(name):
            return t[name][0]

        def self_s(name):
            return t[name][1]

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "cli.self_s": self_s("cli.main"),
            "words.parse_word.calls": calls("words.parse_word"),
            "words.self_s": self_s("words.parse_word"),
            "garside.normal_form.calls": calls("garside.normal_form"),
            "garside.normal_form.letters": c["garside.normal_form.letters"],
            "garside.normal_form.self_s": self_s("garside.normal_form"),
            "garside.conjugacy_test.self_s": self_s("garside.conjugacy_test"),
            "garside.conjugacy_test.nodes": c["garside.conjugacy_test.nodes"],
            "garside.normal_forms_per_node": ratio(
                c["garside.normal_forms_in_conjugacy"],
                c["garside.conjugacy_test.nodes"],
            ),
            "invariants.burau.calls": calls("invariants.burau"),
            "invariants.burau.letters": c["invariants.burau.letters"],
            "invariants.burau.self_s": self_s("invariants.burau"),
            "invariants.alexander.self_s": self_s("invariants.alexander"),
            "invariants.fingerprint.calls": calls("invariants.fingerprint"),
            "invariants.fingerprint.repeat_ratio": ratio(
                c["invariants.fingerprint.repeats"],
                calls("invariants.fingerprint"),
            ),
            "moves.replay.self_s": self_s("moves.replay"),
            "moves.apply_move.calls": calls("moves.apply_move"),
            "templates.expand.self_s": self_s("templates.expand"),
            "templates.verify_template.self_s": self_s("templates.verify_template"),
            "templates.catalog.calls": calls("templates.catalog"),
            "explorer.search_reduce.self_s": self_s("explorer.search_reduce"),
            "explorer.expanded": c["explorer.expanded"],
            "explorer.new_state_ratio": ratio(
                c["explorer.new_states"], c["explorer.canonical_key.calls"]
            ),
        }
