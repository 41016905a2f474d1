"""twostate benchmark: three seeded closed-loop workloads with exact oracles.

    python3 bench/run.py --workload exact-series --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10   # every workload in turn

One client sends requests in a closed loop: each waits for the previous one.
exact-series and fock-model call the library in this process (a fresh process
per run, since partition enumeration is cached process-wide); cli-cold starts
one `python -m twostate.cli` process per request. Requests run in whole rounds
(see gen.py) until --seconds of timed work is done; an untraced run also
goes on until it has the 100 samples its 90th percentile needs.
After each round, outside the timed interval, every result is checked against
another route of the library (oracle.py).

--trace 0 reports the end-to-end metrics; --trace 1 replays the same requests
with every library function wrapped (tracer.py) and reports per-layer metrics
and the tracing overhead. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; lines before it name every metric
with its unit, the sample count and the environment.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

import gen  # noqa: E402  (plain data, no library import)
import stats  # noqa: E402

MIN_SAMPLES = stats.min_samples(90)
SETUP_PROBES = {"exact-series": 3, "fock-model": 15, "cli-cold": 10}
# for one CLI request or set-up probe; a whole workload child has no limit
CHILD_TIMEOUT_S = 120
FAILURES_SHOWN = 5


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], timeout: float | None = CHILD_TIMEOUT_S) -> tuple[int, str, str, float]:
    """Run one child to completion: exit code, stdout, stderr, wall seconds."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += f"\nbenchmark: killed after {timeout} s"
    return proc.returncode, out, err, time.perf_counter() - start


# ------------------------------------------------------------------ the loop

def closed_loop(workload: str, seed: int, seconds: float, execute, check=None, replay=None,
                min_samples: int = MIN_SAMPLES):
    """Run whole rounds until `seconds` of timed work and min_samples are done.

    execute(round) -> list of (result, latency_s), timed inside. Each round's
    results go to check(round, results) -> failures and are dropped before
    the next round; a full garbage collection runs between rounds, so every
    round starts from the same small heap. With replay, the given rounds run
    again, with no time limit. Returns the rounds run, the latencies, the
    failures and the timed seconds.
    """
    rounds, latencies, failures, elapsed = [], [], [], 0.0
    source = iter(replay) if replay is not None else gen.rounds(workload, seed)
    for batch in source:
        gc.collect()
        start = time.perf_counter()
        results = execute(batch)
        elapsed += time.perf_counter() - start
        rounds.append(batch)
        latencies += [latency for _, latency in results]
        if check is not None:
            failures += check(batch, results)
        del results
        if replay is None and elapsed >= seconds and len(latencies) >= min_samples:
            break
    return rounds, latencies, failures, elapsed


def inprocess_executor(library):
    def execute(batch):
        # prepare every request of the round before timing it
        calls = [library.prepare(req) for req in batch]
        out = []
        for call in calls:
            start = time.perf_counter()
            try:
                result = call()
            except Exception as exc:  # a failing request is counted, not fatal
                result = exc
            out.append((result, time.perf_counter() - start))
        return out

    return execute


def cli_executor(launcher_spans: list | None = None):
    def execute(batch):
        out = []
        for req in batch:
            if launcher_spans is None:
                argv = [sys.executable, "-m", "twostate.cli", *req["argv"]]
            else:
                path = OUT / f"cli-span-{len(launcher_spans)}.json"
                launcher_spans.append(path)
                argv = [sys.executable, str(BENCH / "launcher.py"), str(path), *req["argv"]]
            code, stdout, stderr, wall = run_child(argv)
            out.append(((code, stdout, stderr), wall))
        return out

    return execute


def count_failures(batch, results, workload: str) -> list[tuple[dict, str]]:
    """(request, reason) for every request whose result the oracle rejects."""
    import oracle

    failures = []
    for req, (result, _) in zip(batch, results):
        if workload == "cli-cold":
            reason = oracle.check_cli(req, *result)
        elif isinstance(result, Exception):
            reason = f"{req['kind']} size={req['size']}: raised {type(result).__name__}: {result}"
        else:
            reason = oracle.check(req, result)
        if reason is not None:
            failures.append((req, reason))
    return failures


# ------------------------------------------------------------------ workloads

def setup_probe(workload: str) -> float:
    if workload == "cli-cold":
        code, _, err, wall = run_child([sys.executable, "-c", "import twostate.cli"])
    else:
        code, out, err, wall = run_child([sys.executable, str(BENCH / "probe.py"), workload])
        wall = float(out) if code == 0 else wall
    if code != 0:
        raise RuntimeError(f"setup probe failed: {err.strip()}")
    return wall


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, int, list]:
    setups = []
    if workload == "cli-cold":
        execute = cli_executor()
    else:
        start = time.perf_counter()
        import library

        library.warm_up(workload)
        setups.append(time.perf_counter() - start)
        execute = inprocess_executor(library)
    probes = []

    def check(batch, results):
        # one set-up probe after each round spreads the probes over the run,
        # so they see the machine as the requests do
        if len(probes) < SETUP_PROBES[workload]:
            probes.append(setup_probe(workload))
        return count_failures(batch, results, workload)

    _, latencies, failures, elapsed = closed_loop(workload, seed, seconds, execute, check)
    probes += [setup_probe(workload) for _ in range(SETUP_PROBES[workload] - len(probes))]
    setups += probes
    # for cli-cold the peak over the request processes (the probes, which
    # only import, stay below any request)
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

    p50, p90 = stats.percentile(latencies, 50), stats.percentile(latencies, 90)
    if p90 is None:
        raise RuntimeError(f"{len(latencies)} samples are too few for p90")
    attempted = len(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_rps": ((attempted - len(failures)) / elapsed, "1/s"),
        "latency_p50_s": (p50, "s"),
        "latency_p90_s": (p90, "s"),
        "failed_ratio": (len(failures) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, attempted, failures


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, int, list]:
    # Runs the same rounds untraced, then traced. No percentile is reported,
    # so neither pass needs more than --seconds of requests.
    import tracer

    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{workload}-{seed}.tsv"
    check = lambda batch, results: count_failures(batch, results, workload)
    if workload == "cli-cold":
        rounds, _, _, untraced_s = closed_loop(workload, seed, seconds, cli_executor(), min_samples=0)
        paths: list = []
        _, latencies, failures, traced_s = closed_loop(
            workload, seed, seconds, cli_executor(paths), check, replay=rounds)
        summaries = []
        with open(spans_file, "w") as spans:
            spans.write(tracer.SPANS_HEADER)
            for request, path in enumerate(paths):
                record = json.loads(path.read_text())
                summaries.append(record["summary"])
                spans.writelines(f"{request}\t{line}\n" for line in record["spans"].splitlines())
                path.unlink()
        raw = tracer.merge(summaries)
    else:
        import library

        trace = tracer.Tracer()

        def check_untraced(batch, results):
            trace.uninstall()
            try:
                return check(batch, results)
            finally:
                trace.install()

        trace.install()
        library.warm_up(workload)
        trace.uninstall()
        execute = inprocess_executor(library)
        rounds, _, _, untraced_s = closed_loop(workload, seed, seconds, execute, min_samples=0)
        trace.install()
        _, latencies, failures, traced_s = closed_loop(
            workload, seed, seconds, execute, check_untraced, replay=rounds)
        trace.uninstall()
        spans_file.write_text(tracer.SPANS_HEADER + "".join(
            f"0\t{line}\n" for line in trace.spans_tsv().splitlines()))
        raw = trace.raw_summary()
    metrics = {key: (entry["value"], entry["unit"])
               for key, entry in tracer.layer_metrics(raw, traced_s / untraced_s).items()}
    return metrics, len(latencies), failures


# ---------------------------------------------------------------------- main

def run_all(args) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in gen.WORKLOADS:
        code, out, err, _ = run_child([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                                       "--trace", str(args.trace)], timeout=None)
        sys.stderr.write(err)
        lines = out.splitlines()
        print("\n".join(f"[{workload}] {line}" for line in lines[:-1]))
        if code != 0 or not lines:
            print(f"error: workload {workload} exited {code}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*gen.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "twostate" / "cli.py").is_file():
        print(f"error: no twostate sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    env = stats.environment(ROOT)
    runner = traced if args.trace else end_to_end
    metrics, attempted, reasons = runner(args.workload, args.seed, args.seconds)
    failed = len(reasons)

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} samples, {failed} failed, closed loop with 1 client")
    for _, reason in reasons[:FAILURES_SHOWN]:
        print(f"failure: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    # A malformed CLI request that breaks the exit-2 contract is a failure
    # and counts in failed and failed_ratio; correct means that every
    # well-formed request got the right answer.
    record = {
        "correct": all(req.get("malformed") for req, _ in reasons),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                    if name != "failed_ratio"},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "env": env, "failures": [reason for _, reason in reasons]}, indent=1)
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
