"""The benchmark's own tests: smoke runs of every workload, the failure mode
without sources, the guards, and the reference code against the library.

Run from the root of a checkout with ``python3 -m pytest -q bench``.
"""

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import ewb  # noqa: E402

import harness  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result, info = json.loads(lines[-1]), json.loads(lines[-2])["info"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name
    assert info["seed"] == 3 and info["report"]["count"] + info["artifact"]["count"] >= 1
    assert info["failed_ratio"] == 0 and "sizes" in info


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "word-eq", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_deadline_and_errors_fail_the_op_without_stopping_the_run():
    rec = harness.Recorder(deadline_s=0.05)

    def too_slow():
        time.sleep(2)

    def blows_up():
        raise MemoryError()

    for fn in (too_slow, blows_up):
        with pytest.raises(harness.Abort):
            rec.op(harness.REPORT, fn.__name__, fn, check=lambda got: None)
    rec.op(harness.ARTIFACT, "fine", lambda: 1, check=lambda got: None if got == 1 else "wrong")
    assert (rec.attempted, rec.failed, rec.wrong) == (3, 2, 0)
    assert "deadline" in rec.failures[0] and "MemoryError" in rec.failures[1]


def test_undecided_is_not_failed():
    rec = harness.Recorder(deadline_s=1)
    rec.op(harness.REPORT, "search", lambda: None, check=lambda got: harness.Recorder.UNDECIDED)
    assert (rec.failed, rec.decided, rec.report_attempted) == (0, 0, 1)


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    assert harness.tail_index(5) == 4
    assert harness.tail_index(11) == 0
    assert harness.tail_index(100) == 89


def test_self_time_subtracts_nested_spans_of_other_layers():
    tracer = harness.Tracer()
    inner = tracer.wrap("braid.to_automorphism", lambda: time.sleep(0.02))

    def search_body():
        time.sleep(0.01)
        inner()
        inner()

    outer = tracer.wrap("markov.markov_search", search_body)
    outer()
    stats = harness.span_stats(tracer.spans)
    busy = stats["busy"]["markov.markov_search"]
    assert stats["keys_in"]["markov.markov_search"] == 2
    assert stats["self"]["markov.markov_search"] == pytest.approx(busy - stats["busy"]["braid.to_automorphism"])
    assert stats["braid_in"]["markov.markov_search"] > 0.5 * busy


def test_reference_agrees_with_the_library():
    rng = random.Random(5)
    for _ in range(40):
        w = workloads.closable_word(rng, rng.randint(2, 5), rng.randint(4, 24))
        g = ewb.closure(w)
        stats = ref.word_closure_stats(w)
        assert stats["linking"] == ewb.linking_invariant(g)
        assert stats["signs"] == ewb.sign_profile(g)
        assert stats["components"] == len(ewb.components(g)) + g.loops
        flipped, slides = ref.wen_elimination_expectation(g)
        result = ewb.eliminate_wens(g)
        assert (flipped, slides) == (result.flipped, len(result.slides))
        assert ref.eliminated_data_matches(g, result.data, flipped)
        assert ref.gauss_structure_problem(g) is None
        assert ref.sign_reversal_tokens(w) == ref.tokens(ewb.sign_reversal_word(w))
        assert ref.mirror_tokens(w) == ref.tokens(ewb.mirror_word(w))


def test_trefoils_and_kink_chains_are_what_the_checks_assume():
    rng = random.Random(2)
    g1, g2 = workloads.disjoint_trefoils(rng, 3), workloads.disjoint_trefoils(rng, 3)
    assert ewb.validate(g1) is None and len(ewb.components(g1)) == 3
    iso = ewb.same_gauss_data(g1, g2)
    assert iso is not None and ref.is_isomorphism(g1, g2, iso.pairs)
    reduced = ewb.reduce_kinks(ewb.closure(workloads.kink_chain(rng, 12)))
    assert (reduced.crossings, reduced.loops) == ((), 1)
