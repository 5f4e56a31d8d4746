"""Spans recorded around the layer entry points of the bruhat-hypercubes CLI.

The wrappers are installed from outside the program: each layer entry point
that ``cli`` and ``hypercubes`` import from ``intervals``, ``polynomials``
and ``hypercubes`` is replaced, in the importing module's namespace only, by
a wrapper that records one span per call; so is ``cli.main``, the root of
every span.  Calls a layer makes to itself keep going through the unwrapped
function, so recursion such as ``kl_poly`` -> ``kl_poly`` inside
``polynomials`` is not traced, and neither is the certificate check
``standard_hcd`` runs through ``hypercubes``' own ``check_strong_hcd``.

Small helpers (``qp_add``, ``qp_shift``, ``atom_indices``,
``compare_coefficientwise``, ``format_qpoly``, ``first_disagreement``),
``iso_signature``, which only ``verify --iso-classes`` calls, and the
``--cache`` functions, which the benchmark never reaches, are not
wrapped: their time stays in the self time of their caller, and they add no
tracing overhead to hot loops.  Every span name feeds one ``*_s`` metric, so
the ``*_s`` metrics add up to the traced ``cli.main``.  ``reflection_orders``
is reached by no CLI path and is not traced.

A span is ``(name, start, end, parent, tag)``: ``parent`` is the index of
the enclosing span or -1, and ``tag`` is a small fact about the result (the
failed axiom of a z-scan check, whether an isomorphism was found, how many
diamonds or bytes).  Spans stay in memory and are written out once, when the
traced process ends; ``layer_metrics`` derives self times from them.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


def _zscan_tag(check):
    return check.failed_axiom or "ok"


def _hit_tag(mapping):
    return 0 if mapping is None else 1


# (module, attribute) -> (span name, tag function or None).  build_interval
# is split by caller: "intervals.build" materialises the intervals the CLI
# asks for, "intervals.std_build" the standardised S_{n-d+1} interval that
# standard_hcd builds for itself.
WRAPPED = {
    ("cli", "main"): ("cli.main", None),
    ("cli", "comparable_pairs"): ("cli.pairs", None),
    ("cli", "analyze_interval"): ("cli.report", None),
    ("cli", "build_interval"): ("intervals.build", None),
    ("cli", "poset_isomorphic"): ("intervals.isomorphic", _hit_tag),
    ("cli", "kl_poly"): ("polynomials.kl", None),
    ("cli", "r_poly"): ("polynomials.r", None),
    ("cli", "rtilde_from_r"): ("polynomials.rtilde", None),
    ("cli", "check_strong_hcd"): ("hypercubes.zscan", _zscan_tag),
    ("cli", "htilde"): ("hypercubes.htilde", None),
    ("cli", "is_simple"): ("hypercubes.simple", None),
    ("cli", "special_matchings"): ("hypercubes.matchings", None),
    ("cli", "standard_hcd"): ("hypercubes.standard", None),
    ("hypercubes", "build_interval"): ("intervals.std_build", None),
    ("hypercubes", "rtilde_from_r"): ("polynomials.rtilde", None),
    # BruhatInterval.diamonds imports this name from hypercubes at call time
    ("hypercubes", "enumerate_diamonds"): ("hypercubes.diamonds", len),
}


class Tracer:
    """Collects spans in memory for one process."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, tag=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            result = fact = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                fact = "raised"
                raise
            finally:
                end = clock()
                stack.pop()
                if fact is None and tag is not None:
                    fact = tag(result)
                spans[idx] = (name, start, end, parent, fact)

        return traced

    def install(self, modules: dict) -> list[str]:
        """Wrap every WRAPPED name present in ``modules`` (short name ->
        module object); returns the names that were missing."""
        missing = []
        for (mod_name, attr), (span, tag) in WRAPPED.items():
            module = modules[mod_name]
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, span, tag))
        return missing

    def writer(self, stream):
        """A text stream forwarding to ``stream``, with one "cli.write" span
        per write, tagged with the characters written (ASCII: bytes)."""
        return _TracedStream(stream, self.wrap(stream.write, "cli.write", int))

    def dump(self, path: str) -> None:
        names: dict[str, int] = {}
        rows = []
        for name, start, end, parent, fact in self.spans:
            rows.append([names.setdefault(name, len(names)), start, end, parent, fact])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(names), "spans": rows}, fh)


class _TracedStream:
    def __init__(self, stream, write) -> None:
        self._stream = stream
        self.write = write

    def __getattr__(self, attr):
        return getattr(self._stream, attr)


def load_spans(path) -> list[tuple]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    names = data["names"]
    return [(names[n], s, e, p, f) for n, s, e, p, f in data["spans"]]


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_bytes", "bytes"), ("_ratio", "ratio"), (".overhead", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def layer_metrics(traces: list[list[tuple]], overhead: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, as (value, unit), over one or more traced
    processes.

    ``*_s`` metrics are summed self times, so a span's children are counted
    in their own layer and not twice."""
    calls: dict[str, int] = defaultdict(int)
    secs: dict[str, float] = defaultdict(float)
    tagged: dict[tuple[str, object], list] = defaultdict(lambda: [0, 0.0])
    facts: dict[str, int] = defaultdict(int)
    for spans in traces:
        for (name, _, _, _, fact), own in zip(spans, self_times(spans)):
            calls[name] += 1
            secs[name] += own
            if name in ("hypercubes.zscan", "intervals.isomorphic"):
                row = tagged[(name, fact)]
                row[0] += 1
                row[1] += own
            elif name in ("hypercubes.diamonds", "cli.write") and isinstance(fact, int):
                facts[name] += fact

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    zscan = {k: tagged[("hypercubes.zscan", k)] for k in ("ok", "HD2", "HD3")}
    iso_hits = tagged[("intervals.isomorphic", 1)][0]
    metrics = {
        # the CLI outside every traced layer: argument parsing, command
        # bodies, the verify loop and the unwrapped helpers
        "cli.other_s": secs["cli.main"],
        "cli.pairs_s": secs["cli.pairs"],
        "cli.report_s": secs["cli.report"] + secs["cli.write"],
        "cli.report_bytes": facts["cli.write"],
        "intervals.build_calls": calls["intervals.build"],
        "intervals.build_s": secs["intervals.build"],
        "intervals.std_build_calls": calls["intervals.std_build"],
        "intervals.std_build_s": secs["intervals.std_build"],
        "intervals.isomorphic_calls": calls["intervals.isomorphic"],
        "intervals.isomorphic_s": secs["intervals.isomorphic"],
        "intervals.isomorphic_hit_ratio": ratio(iso_hits, calls["intervals.isomorphic"]),
        "polynomials.kl_calls": calls["polynomials.kl"],
        "polynomials.kl_s": secs["polynomials.kl"],
        "polynomials.r_s": secs["polynomials.r"],
        "polynomials.rtilde_calls": calls["polynomials.rtilde"],
        "polynomials.rtilde_s": secs["polynomials.rtilde"],
        "hypercubes.diamonds_s": secs["hypercubes.diamonds"],
        "hypercubes.diamonds_count": facts["hypercubes.diamonds"],
        "hypercubes.zscan_calls": calls["hypercubes.zscan"],
        "hypercubes.zscan_ok": zscan["ok"][0],
        "hypercubes.zscan_hd2": zscan["HD2"][0],
        "hypercubes.zscan_hd3": zscan["HD3"][0],
        "hypercubes.zscan_ok_s": zscan["ok"][1],
        "hypercubes.zscan_hd2_s": zscan["HD2"][1],
        "hypercubes.zscan_hd3_s": zscan["HD3"][1],
        "hypercubes.zscan_strong_ratio": ratio(zscan["ok"][0], calls["hypercubes.zscan"]),
        "hypercubes.htilde_s": secs["hypercubes.htilde"],
        "hypercubes.standard_calls": calls["hypercubes.standard"],
        "hypercubes.standard_s": secs["hypercubes.standard"],
        "hypercubes.simple_s": secs["hypercubes.simple"],
        "hypercubes.matchings_s": secs["hypercubes.matchings"],
        "trace.overhead": overhead,
    }
    return {name: (value, _unit(name)) for name, value in metrics.items()}
