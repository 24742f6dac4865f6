"""Closed-loop op runner, guards, tracing and metric aggregation.

One workload process runs one client: it executes one op at a time and
starts the next only when the previous one has returned and been checked.
"""

from __future__ import annotations

import gzip
import json
import signal
import statistics
import time
from collections import defaultdict
from pathlib import Path

REPORT, ARTIFACT = "report", "artifact"


class Deadline(Exception):
    """An op ran past its per-op deadline."""


class Abort(Exception):
    """The current task cannot continue because one of its ops failed."""


def _on_alarm(signum, frame):
    raise Deadline()


def tail_index(n: int) -> int:
    """Index, in ascending order, of the highest percentile that still has at
    least ten samples above it (the maximum when there are fewer than 11)."""
    return n - 11 if n >= 11 else n - 1


def latency_summary(samples: list[float]) -> dict:
    """Median and tail in milliseconds, with the tail's percentile and count."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return {"count": 0, "p50_ms": None, "tail_ms": None, "tail_pct": None}
    i = tail_index(n)
    return {
        "count": n,
        "p50_ms": statistics.median(ordered) * 1e3,
        "tail_ms": ordered[i] * 1e3,
        "tail_pct": round(100.0 * (i + 1) / n, 2),
    }


class Recorder:
    """Times, guards and checks each op, and keeps the per-class samples.

    ``check(result)`` returns None when the output is right, ``UNDECIDED``
    for a report op that returned no verdict, or a message saying what is
    wrong.  A failed op (wrong output, raised, or past its deadline) aborts
    the rest of its task, because later ops consume its output.
    """

    UNDECIDED = "undecided"

    def __init__(self, deadline_s: float, tracer=None):
        self.deadline_s = deadline_s
        self.tracer = tracer
        self.samples = {REPORT: [], ARTIFACT: []}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.report_attempted = 0
        self.decided = 0
        self.failures: list[str] = []
        self.times_by_name: dict[str, list[float]] = defaultdict(list)
        signal.signal(signal.SIGALRM, _on_alarm)

    def op(self, kind: str, name: str, fn, *args, check, **kwargs):
        self.attempted += 1
        if kind == REPORT:
            self.report_attempted += 1
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
        signal.setitimer(signal.ITIMER_REAL, self.deadline_s)
        try:
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - t0
        except Deadline:
            if self.tracer is not None:
                self.tracer.stack.clear()
            self._fail(f"{name}: past the {self.deadline_s:g}s deadline")
        except Exception as exc:  # any fault of the op under test counts against it
            self._fail(f"{name}: raised {type(exc).__name__}: {exc}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.samples[kind].append(elapsed)
        self.times_by_name[name].append(elapsed)
        try:
            verdict = check(result)
        except Exception as exc:  # a check that cannot read the output is a wrong output
            verdict = f"check raised {type(exc).__name__}: {exc}"
        if verdict == self.UNDECIDED:
            return result
        if verdict is not None:
            self.wrong += 1
            self._fail(f"{name}: {verdict}")
        if kind == REPORT:
            self.decided += 1
        return result

    def _fail(self, message: str):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)
        raise Abort(message)


def run_rounds(rounds, recorder: Recorder, seconds: float) -> tuple[float, int]:
    """Run whole rounds until ``seconds`` have passed; every round holds the
    same mix of ops, so truncation never skews the mix."""
    start = time.perf_counter()
    done = 0
    while True:
        for task in rounds[done % len(rounds)]:
            try:
                task(recorder)
            except Abort:
                pass
        done += 1
        if time.perf_counter() - start >= seconds:
            return time.perf_counter() - start, done


# --- tracing -------------------------------------------------------------------------


class Tracer:
    """Records a span around each call into a wrapped layer function.

    A span is ``(name, start, end, parent index, op id)``; spans stay in
    memory and are written when the run ends.
    """

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op_id = 0
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self.stack
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.op_id)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return traced

    def overhead_per_span(self, calls: int = 20000) -> float:
        """Seconds a wrapper adds to one call, measured on a no-op."""

        def noop():
            return None

        wrapped = self.wrap("calibration", noop)
        mark = len(self.spans)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter() - t0
        del self.spans[mark:]
        return max(0.0, (traced - bare) / calls)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def span_stats(spans) -> dict:
    """Busy time (outermost spans of each name), self time (minus nested
    spans of other layers), call counts, and the nested braid time and
    ``to_automorphism`` calls under each name."""
    # A deadline can interrupt a wrapper before it stores its span.
    spans = [s if s is not None else ("trace.lost", 0.0, 0.0, -1, 0) for s in spans]
    children: dict[int, list[int]] = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    foreign = [0.0] * len(spans)
    braid_under = [0.0] * len(spans)
    keys_under = [0] * len(spans)
    # Children always come after their parent, so one reverse pass suffices.
    for idx in range(len(spans) - 1, -1, -1):
        name = spans[idx][0]
        layer = layer_of(name)
        f = b = 0.0
        k = 0
        for c in children.get(idx, ()):
            cname, c0, c1 = spans[c][0], spans[c][1], spans[c][2]
            f += (c1 - c0) if layer_of(cname) != layer else foreign[c]
            b += (c1 - c0) if layer_of(cname) == "braid" else braid_under[c]
            k += keys_under[c] + (cname == "braid.to_automorphism")
        foreign[idx], braid_under[idx], keys_under[idx] = f, b, k
    busy: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    braid_in: dict[str, float] = defaultdict(float)
    keys_in: dict[str, int] = defaultdict(int)
    for idx, (name, t0, t1, parent, _op) in enumerate(spans):
        calls[name] += 1
        self_time[name] += (t1 - t0) - foreign[idx]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            busy[name] += t1 - t0
            braid_in[name] += braid_under[idx]
            keys_in[name] += keys_under[idx]
    return {"busy": busy, "self": self_time, "calls": calls, "braid_in": braid_in, "keys_in": keys_in}


# --- metric names and units (BENCHMARK.json lists the same) -----------------------------

END_TO_END = {
    "setup_s": "s",
    "report_p50_ms": "ms",
    "report_tail_ms": "ms",
    "artifact_p50_ms": "ms",
    "artifact_tail_ms": "ms",
    "ops_per_s": "1/s",
    "ok_ratio": "ratio",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MB",
}

CLI_VERBS = ("close", "braid", "gauss-validate", "eq-word", "eq-gauss", "signrev-word", "signrev-gauss",
             "mirror", "eliminate-wens", "reduce-kinks", "invariants", "markov", "replay", "verify-relations")

PER_LAYER = {
    "braid.to_automorphism.calls": "count",
    "braid.to_automorphism.busy_s": "s",
    "braid.image_letters": "count",
    "braid.letters_per_s": "1/s",
    "braid.verify_relations.busy_s": "s",
    "closure.closure.busy_s": "s",
    "closure.braid_from_gauss.busy_s": "s",
    "closure.braided_letters": "count",
    "gauss.parse_gauss_file.busy_s": "s",
    "gauss.validate.busy_s": "s",
    "gauss.eliminate_wens.busy_s": "s",
    "gauss.eliminate_wens.slides": "count",
    "gauss.reduce_kinks.busy_s": "s",
    "gauss.reduce_kinks.removed": "count",
    "gauss.same_gauss_data.busy_s": "s",
    "gauss.same_gauss_data.calls": "count",
    "gauss.same_gauss_data.found_ratio": "ratio",
    "markov.markov_search.busy_s": "s",
    "markov.markov_search.self_s": "s",
    "markov.markov_search.calls": "count",
    "markov.markov_search.braid_share": "ratio",
    "markov.keys": "count",
    "markov.keys_per_s": "1/s",
    "markov.found_ratio": "ratio",
    "markov.linking_invariant.self_s": "s",
    "markov.sign_profile.self_s": "s",
    "markov.verify_witness.busy_s": "s",
    "cli.import_ms": "ms",
    "cli.main.busy_ms": "ms",
    **{f"cli.verb.{verb}.wall_ms": "ms" for verb in CLI_VERBS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

# Public entry points of each layer that the traced run wraps.  Each wrapped
# function is also replaced wherever another ewb module imported it, so
# nested calls across layers get their own spans.
TRACED = {
    "braid": ("to_automorphism", "words_equal", "verify_relations", "parse_word_file", "format_word_file"),
    "closure": ("closure", "braid_from_gauss", "closure_trace"),
    "gauss": ("validate", "components", "component_arcs", "eliminate_wens", "reduce_kinks", "same_gauss_data",
              "parse_gauss_file", "format_gauss_file", "slide_wen", "sign_reversal", "is_gauss_isomorphism"),
    "markov": ("markov_search", "verify_witness", "replay_witness", "linking_invariant", "sign_profile",
               "sign_reversal_word", "mirror_word", "parse_witness", "format_witness"),
    "cli": ("main",),
}


def _count_images(counts, args, result):
    counts["braid.image_letters"] += sum(len(image.letters) for image in result.images)


def _count_braided(counts, args, result):
    counts["closure.braided_letters"] += len(result.letters)


def _count_slides(counts, args, result):
    counts["gauss.eliminate_wens.slides"] += len(result.slides)


def _count_removed(counts, args, result):
    counts["gauss.reduce_kinks.removed"] += len(args[0].crossings) - len(result.crossings)


def _count_found(name):
    def count(counts, args, result):
        counts[name] += result is not None
    return count


COUNTERS = {
    "braid.to_automorphism": _count_images,
    "closure.braid_from_gauss": _count_braided,
    "gauss.eliminate_wens": _count_slides,
    "gauss.reduce_kinks": _count_removed,
    "gauss.same_gauss_data": _count_found("gauss.same_gauss_data.found"),
    "markov.markov_search": _count_found("markov.markov_search.found"),
}


def install_tracing(tracer: Tracer, modules: dict, package) -> None:
    """Wrap every ``TRACED`` function in place, in its own module, in every
    other module that imported it, and in the package namespace."""
    targets = [package, *modules.values()]
    for layer, names in TRACED.items():
        for fname in names:
            original = getattr(modules[layer], fname)
            wrapped = tracer.wrap(f"{layer}.{fname}", original, COUNTERS.get(f"{layer}.{fname}"))
            for mod in targets:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, per_span_overhead: float) -> dict:
    st = span_stats(tracer.spans)
    busy, calls, counts = st["busy"], st["calls"], tracer.counts
    search = "markov.markov_search"
    out = {
        "braid.to_automorphism.calls": calls["braid.to_automorphism"],
        "braid.to_automorphism.busy_s": busy["braid.to_automorphism"],
        "braid.image_letters": counts["braid.image_letters"],
        "braid.letters_per_s": _ratio(counts["braid.image_letters"], busy["braid.to_automorphism"]),
        "braid.verify_relations.busy_s": busy["braid.verify_relations"],
        "closure.closure.busy_s": busy["closure.closure"],
        "closure.braid_from_gauss.busy_s": busy["closure.braid_from_gauss"],
        "closure.braided_letters": counts["closure.braided_letters"],
        "gauss.parse_gauss_file.busy_s": busy["gauss.parse_gauss_file"],
        "gauss.validate.busy_s": busy["gauss.validate"],
        "gauss.eliminate_wens.busy_s": busy["gauss.eliminate_wens"],
        "gauss.eliminate_wens.slides": counts["gauss.eliminate_wens.slides"],
        "gauss.reduce_kinks.busy_s": busy["gauss.reduce_kinks"],
        "gauss.reduce_kinks.removed": counts["gauss.reduce_kinks.removed"],
        "gauss.same_gauss_data.busy_s": busy["gauss.same_gauss_data"],
        "gauss.same_gauss_data.calls": calls["gauss.same_gauss_data"],
        "gauss.same_gauss_data.found_ratio": _ratio(counts["gauss.same_gauss_data.found"],
                                                    calls["gauss.same_gauss_data"]),
        "markov.markov_search.busy_s": busy[search],
        "markov.markov_search.self_s": st["self"][search],
        "markov.markov_search.calls": calls[search],
        "markov.markov_search.braid_share": _ratio(st["braid_in"][search], busy[search]),
        "markov.keys": st["keys_in"][search],
        "markov.keys_per_s": _ratio(st["keys_in"][search], busy[search]),
        "markov.found_ratio": _ratio(counts["markov.markov_search.found"], calls[search]),
        "markov.linking_invariant.self_s": st["self"]["markov.linking_invariant"],
        "markov.sign_profile.self_s": st["self"]["markov.sign_profile"],
        "markov.verify_witness.busy_s": busy["markov.verify_witness"],
        "cli.main.busy_ms": busy["cli.main"] * 1e3,
        "trace.spans": len(tracer.spans),
        "trace.overhead_s": per_span_overhead * len(tracer.spans),
    }
    return out
