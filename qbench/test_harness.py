"""Tests of the benchmark harness itself, on reduced orders.

    python3 -m pytest qbench
"""

import json
import random
import signal
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from qmorse import normal_form  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def reduced_digests(workload):
    """Digests of one clean reduced pass, standing in for digests.json."""
    *_, outputs = run.run_pass(jobs.build_workload(workload, 0, reduced=True), random.Random(0))
    digests = {}
    for job, result, error in outputs:
        assert error is None
        text = job.output(result)
        if text is not None:
            digests[job.name] = jobs.digest(text)
    return digests


@pytest.fixture(scope="module")
def digests():
    return {w["name"]: reduced_digests(w["name"]) for w in SPEC["workloads"]}


def test_tracer_restores_originals_even_after_an_error():
    targets = spans.layer_targets()
    originals = [owner.__dict__[attr] for owner, attr, *_ in targets]
    with pytest.raises(RuntimeError):
        with spans.Tracer(targets):
            assert all(
                owner.__dict__[attr] is not orig
                for (owner, attr, *_), orig in zip(targets, originals)
            )
            raise RuntimeError
    assert all(owner.__dict__[attr] is orig for (owner, attr, *_), orig in zip(targets, originals))


def test_host_probe_samples_and_then_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    wall, ref, _, _ = run.run_pass(jobs.build_workload("spectrum-n16", 0, reduced=True), random.Random(0))
    assert wall > 0 and ref > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_self_time_never_exceeds_busy_time():
    job_list = jobs.build_workload("generator-verify", 0, reduced=True)
    with spans.Tracer(spans.layer_targets()) as tracer:
        run.run_pass(job_list, random.Random(0))
    assert tracer.stats["algebra.bracket"]["calls"] > 0
    for rec in tracer.stats.values():
        assert 0 <= rec["self_s"] <= rec["s"]


def test_seeds_change_order_but_not_outputs():
    texts = []
    for seed in (1, 2):
        *_, outputs = run.run_pass(
            jobs.build_workload("spectrum-n16", seed, reduced=True), random.Random(seed)
        )
        texts.append({job.name: job.output(result) for job, result, _ in outputs})
    assert texts[0] == texts[1]


def test_injected_wrong_result_is_counted(digests, monkeypatch):
    clean = run.run_benchmark("spectrum-n16", 3, 0, False, digests["spectrum-n16"], reduced=True)
    assert clean["failed"] == 0 and clean["attempted"] == 2

    solve = normal_form.quantum_morse

    def wrong(f, order, **kw):
        result = solve(f, order, **kw)
        result.spectrum = result.spectrum.scale(2)
        return result

    monkeypatch.setattr(normal_form, "quantum_morse", wrong)
    bad = run.run_benchmark("spectrum-n16", 3, 0, False, digests["spectrum-n16"], reduced=True)
    assert bad["failed"] == bad["attempted"] == 2
    bad["metrics"]["setup_s"] = 0.1
    assert run.result_line(SPEC, False, bad)["correct"] is False


def test_refuses_other_kernels_and_guards(monkeypatch, capsys):
    monkeypatch.setenv("QMORSE_TERM_GUARD", "10")
    assert run.main(["--workload", "oracle-rs60", "--seed", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_smoke_run_reports_every_metric(digests):
    reached = set()
    for workload in digests:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            res = run.run_benchmark(workload, 0, 0, trace, digests[workload], reduced=True)
            res["metrics"]["setup_s"] = 0.1
            line = run.result_line(SPEC, trace, res)
            assert line["correct"] and line["failed"] == 0
            assert list(line["metrics"]) == [m["name"] for m in SPEC[kind]]
            reached |= {name for name, m in line["metrics"].items() if m["value"]}
            if workload == "oracle-rs60" and trace:
                assert line["metrics"]["kernel.qmul.calls"]["value"] == 0
                assert line["metrics"]["series.smul.calls"]["value"] == 0
    names = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert names - reached <= {"trace.overhead"}
