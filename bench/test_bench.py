"""Tests of the benchmark itself: generator, oracle accounting, percentiles, tracer."""

from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest

import gen
import library
import oracle
import run
import stats
import tracer
from twostate import fock

CHEAP = {"kernel_residual", "cond_exp", "sandwich", "product_lemma", "freeness"}


def first_rounds(workload, seed, count=2):
    return list(islice(gen.rounds(workload, seed), count))


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_requests_other_seed_other_requests(workload):
    assert first_rounds(workload, 7) == first_rounds(workload, 7)
    assert first_rounds(workload, 7) != first_rounds(workload, 8)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_every_round_has_the_same_slots(workload):
    key = (lambda r: r["name"] if r["kind"] == "cli" and not r["malformed"] else r["kind"])
    first, second = first_rounds(workload, 3)
    if workload == "cli-cold":
        assert sorted(key(r) for r in first if not r["malformed"]) == sorted(gen.CLI_WELLFORMED)
        assert sum(r["malformed"] for r in first) == gen.MALFORMED_PER_ROUND
    else:
        assert sorted((key(r), str(r["size"])) for r in first) == sorted((key(r), str(r["size"])) for r in second)


def test_cli_run_deals_every_malformed_template_equally():
    per_round = len(first_rounds("cli-cold", 4, 1)[0])
    batches = first_rounds("cli-cold", 4, -(-run.MIN_SAMPLES // per_round))
    dealt = Counter(r["name"] for batch in batches for r in batch if r["malformed"])
    assert len(dealt) == len(gen.CLI_MALFORMED) and len(set(dealt.values())) == 1


def cheap_fock_requests():
    batch = first_rounds("fock-model", 11, 1)[0]
    return [req for req in batch if req["kind"] in CHEAP]


def test_corrupted_result_raises_failed_ratio():
    batch = cheap_fock_requests()
    results = [(library.prepare(req)(), 0.0) for req in batch]
    assert run.count_failures(batch, results, "fock-model") == []

    index = next(i for i, req in enumerate(batch) if req["kind"] == "kernel_residual")
    value, latency = results[index]
    results[index] = (value * (1 + 1e-6), latency)
    failures = run.count_failures(batch, results, "fock-model")
    assert [req["kind"] for req, _ in failures] == ["kernel_residual"]


def test_exception_counts_as_failure():
    failures = run.count_failures(cheap_fock_requests()[:1], [(ValueError("boom"), 0.0)], "fock-model")
    assert len(failures) == 1 and "raised ValueError" in failures[0][1]


def test_cli_oracle_rejects_wrong_output_and_tracebacks():
    req = next(r for r in first_rounds("cli-cold", 5, 1)[0] if r.get("name") == "kernel-residual")
    good = "depth,residual_f64\n" + "".join(
        f"{d},{oracle.kernel_residual_direct(req['alpha'], req['T'], d):.12g}\n" for d in range(1, req["depth"] + 1)
    )
    assert oracle.check_cli(req, 0, good, "") is None
    assert oracle.check_cli(req, 0, good.replace(",", ",9", 2), "") is not None
    assert oracle.check_cli(req, 1, good, "") is not None

    malformed = {"kind": "cli", "name": "zero-N", "malformed": True, "argv": ["fock-moments", "--N", "0"]}
    assert oracle.check_cli(malformed, 2, "", "error: cells must be positive\n") is None
    assert oracle.check_cli(malformed, 1, "", "Traceback (most recent call last):\nZeroDivisionError\n")
    assert oracle.check_cli(malformed, 0, "n,phi_moment,psi_moment\n", "")


def test_percentile_needs_ten_samples_beyond():
    assert stats.min_samples(90) == 100
    assert stats.percentile(range(99), 90) is None
    assert stats.percentile(range(100), 90) == 89
    assert stats.percentile(range(19), 50) is None
    assert stats.percentile(range(20), 50) == 9


def test_tracer_self_time_and_restore():
    original = fock.phi_moment_table
    trace = tracer.Tracer()
    trace.install()
    try:
        assert fock.phi_moment_table is not original
        table = fock.phi_moment_table(fock.IntervalGrid(Fraction(1), 3), Fraction(1, 2), 6)
    finally:
        trace.uninstall()
    assert fock.phi_moment_table is original
    assert table == original(fock.IntervalGrid(Fraction(1), 3), Fraction(1, 2), 6)
    raw = trace.raw_summary()
    assert raw["fock.calls"] >= 1
    assert 0 < raw["fock.table_self_s"] <= raw["fock.self_s"]
    metrics = tracer.layer_metrics(raw, 1.0)
    assert set(metrics) >= {"partitions.nc_kept_ratio", "cli.import_s", "trace.overhead_ratio"}
