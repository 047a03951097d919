#!/usr/bin/env python3
"""essmod benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload field_corpus --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one process each
    python3 perfbench/run.py --suite-digest               # one-off: seed 42, 100 trials

Run it from the repository root; it imports essmod from `src/`. Load is a
closed loop with one client, one process and one thread. Each corpus
instance gets `runner.run_check`, then `runner.run_witness`, and the report
of each goes through `serialize.dumps` (the CLI's work minus argparse); the
`suite` workload calls `properties.run_suite(42, 20)`. Every output is
judged (see corpus.py). The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines before it name
every metric with its unit, plus the check/witness split, sample counts,
raw (unscaled) times and the environment. See README.md.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools start when numpy is imported, so pin them first.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import layers  # noqa: E402
import tracer as tracing  # noqa: E402
from speed import SpeedMeter  # noqa: E402

WORKLOADS = ("float_corpus", "field_corpus", "suite")
SUITE_SEED, SUITE_TRIALS = 42, 20
# Digests of the suite reports this benchmark was written against. A
# suite report holds only pass/fail counts, so a behaviour change shows.
SUITE_DIGEST = "c10c24b65b6644476904e52eff1fe9081fbda0dbe255edb972a837278cbe9b93"
SUITE_DIGEST_100 = "5e7c135253e4bd4445885629fe6b7375670cdaaf16c8bef106bf3ff7146c74ee"
SETUP_REPEATS = 3
TRACE_ROUNDS = {"float_corpus": 12, "field_corpus": 2}

E2E_UNITS = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "call_ms.p50": "ms",
    "call_ms.p90": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here (for example: no essmod sources)."""


def check_sources():
    if not (SRC / "essmod" / "__init__.py").is_file():
        raise BenchError(f"no essmod sources under {SRC}; run from a checkout of the repository")


def import_essmod():
    check_sources()
    sys.path.insert(0, str(SRC))
    import essmod
    from essmod import generate, properties, runner, serialize

    if Path(essmod.__file__).resolve().parent != (SRC / "essmod").resolve():
        raise BenchError(f"imported essmod from {essmod.__file__}, not from {SRC}")
    return generate, properties, runner, serialize


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (q in [0, 1]) of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# --- set-up ---------------------------------------------------------------------

def setup(workload: str, seed: int, gen_tracer: tracing.Tracer | None = None) -> dict:
    """Import essmod, build the workload's inputs and pay first-call costs.
    With `gen_tracer`, the corpus is generated under that tracer."""
    t0 = perf_counter()
    generate, properties, runner, serialize = import_essmod()
    t1 = perf_counter()
    docs = []
    if workload != "suite":
        if gen_tracer is not None:
            gen_tracer.install()
        try:
            docs = [corpus.make_instance(generate, p) for p in corpus.corpus_params(generate, workload, seed)]
        finally:
            if gen_tracer is not None:
                gen_tracer.uninstall()
    t2 = perf_counter()
    if workload == "suite":
        properties.run_suite(SUITE_SEED, 1)
    else:
        for doc in corpus.warmup_instances(generate, workload):
            serialize.dumps(runner.run_check(doc))
            serialize.dumps(runner.run_witness(doc))
    t3 = perf_counter()
    return {
        "mods": (generate, properties, runner, serialize),
        "docs": docs,
        "breakdown": {"import_s": t1 - t0, "inputs_s": t2 - t1, "warmup_s": t3 - t2},
    }


def measure_setup(workload: str, seed: int) -> tuple[float, float, list[dict]]:
    """Median over fresh processes of the time from spawn to ready:
    (seconds at reference speed, raw seconds, per-process breakdowns).
    Reference samples are taken right before and after each process."""
    scaled, raw, breakdowns = [], [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        meter = SpeedMeter()
        meter.sample(3)
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or not line.startswith("READY "):
            raise BenchError(f"set-up process failed with exit code {proc.returncode}")
        meter.sample(3)
        raw.append(ready)
        scaled.append(ready * meter.scale())
        breakdowns.append(json.loads(line[len("READY "):]))
    return statistics.median(scaled), statistics.median(raw), breakdowns


# --- measured loops ---------------------------------------------------------------

def another_pass(seconds: float | None, done: int, elapsed: float, last: float) -> bool:
    """Always one pass; with `seconds`, more while the run ends nearer to
    `seconds` with one more than without it. Runs measure whole passes,
    so every run measures the same mix."""
    if done == 0:
        return True
    return seconds is not None and elapsed + last / 2 < seconds


def run_corpus(state: dict, seconds: float | None, count: int | None = None, tracer=None) -> dict:
    """Closed loop of whole passes over the corpus for about `seconds`, or
    one pass over its first `count` instances. Each operation is timed as
    (start, end)."""
    _, _, runner, serialize = state["mods"]
    docs = state["docs"][:count]
    timed = {"check": [], "witness": []}
    records = []
    passes, last = 0, 0.0
    t_start = perf_counter()
    while another_pass(seconds, passes, perf_counter() - t_start, last):
        t_pass = perf_counter()
        for idx, doc in enumerate(docs):
            span = None
            if tracer is not None:
                tracer.new_scope()
                span = tracer.open("bench.instance")
            for op, call in (("check", runner.run_check), ("witness", runner.run_witness)):
                t0 = perf_counter()
                try:
                    report = call(doc)
                    serialize.dumps(report)
                except Exception as exc:  # judged against the oracle below
                    timed[op].append((t0, perf_counter()))
                    records.append((idx, op, f"{type(exc).__name__}: {exc}", None))
                    continue
                timed[op].append((t0, perf_counter()))
                records.append((idx, op, None, (report.get("decision"), report.get("checks_ok"), report["digest"])))
            if span is not None:
                tracer.close(span)
        last = perf_counter() - t_pass
        passes += 1
    return {"timed": timed, "records": records, "instances": passes * len(docs), "passes": passes}


def judge_corpus(docs: list[dict], records: list) -> list[str]:
    oracles: dict[int, corpus.Oracle] = {}
    digests: dict[tuple, str] = {}
    failures = []
    for idx, op, error, summary in records:
        oracle = oracles.get(idx)
        if oracle is None:
            oracle = oracles[idx] = corpus.oracle_for(docs[idx])
        refusal_expected = op == "witness" and oracle.zero_support
        if error is not None:
            why = None if refusal_expected and error.startswith("PreconditionFailed:") else error
        elif refusal_expected:
            why = "expected a PreconditionFailed refusal"
        else:
            decision, checks_ok, digest = summary
            why = corpus.judge(op, decision, checks_ok, oracle)
            if why is None and digests.setdefault((idx, op), digest) != digest:
                why = "report digest differs between repeats"
        if why is not None:
            failures.append(f"instance {idx} ({docs[idx]['kind']}) {op}: {why}")
    return failures


def run_suite_loop(state: dict, seconds: float | None) -> dict:
    """`properties.run_suite` repeated for about `seconds`, or run once."""
    _, properties, _, serialize = state["mods"]
    timed, failures = [], []
    trials = skipped = 0
    t_start = perf_counter()
    while another_pass(seconds, len(timed), perf_counter() - t_start, timed[-1][1] - timed[-1][0] if timed else 0.0):
        t0 = perf_counter()
        report = properties.run_suite(SUITE_SEED, SUITE_TRIALS)
        serialize.dumps(report)
        timed.append((t0, perf_counter()))
        done = sum(p["trials"] for p in report["properties"])
        trials += done
        skipped += SUITE_TRIALS * len(report["properties"]) - done
        if not report["passed"]:
            bad = [p["name"] for p in report["properties"] if not p["passed"]]
            failures.append(f"suite run {len(timed)}: properties failed: {bad}")
        if report["digest"] != SUITE_DIGEST:
            failures.append(f"suite run {len(timed)}: digest {report['digest']} != {SUITE_DIGEST}")
    return {"timed": {"suite": timed}, "failures": failures, "trials": trials, "skipped": skipped}


# --- runs -------------------------------------------------------------------------

def e2e_run(workload: str, seed: int, seconds: float) -> tuple[dict, list[str], int, dict]:
    setup_s, setup_raw, breakdowns = measure_setup(workload, seed)
    state = setup(workload, seed)
    failures = [f"wrapper installed with tracing off: {name}" for name in tracing.installed_wrappers()]
    meter = SpeedMeter()
    meter.sample(3)
    with meter:
        if workload == "suite":
            res = run_suite_loop(state, seconds)
        else:
            res = run_corpus(state, seconds)
    meter.sample(3)
    if workload == "suite":
        failures += res["failures"]
        attempted = len(res["timed"]["suite"])
        instances = res["trials"]
    else:
        failures += judge_corpus(state["docs"], res["records"])
        attempted = len(res["records"])
        instances = res["instances"]
    scaled = {op: [meter.scaled_ms(t0, t1) for t0, t1 in xs] for op, xs in res["timed"].items()}
    raw = [(t1 - t0 - meter.busy_s(t0, t1)) * 1000.0 for xs in res["timed"].values() for t0, t1 in xs]
    calls = [ms for xs in scaled.values() for ms in xs]
    metrics = {
        "setup_s": setup_s,
        "instances_per_s": instances / (sum(calls) / 1000.0),
        "call_ms.p50": quantile(calls, 0.5),
        "call_ms.p90": quantile(calls, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info: dict = {"call_ms.n": len(calls), "failed_frac": len(failures) / attempted}
    if workload == "suite":
        info["suite_s"] = statistics.median(scaled["suite"]) / 1000.0
        info["suite_trials_per_run"] = res["trials"] // attempted
    else:
        for op in ("check", "witness"):
            info[f"{op}_ms.p50"] = quantile(scaled[op], 0.5)
            info[f"{op}_ms.p90"] = quantile(scaled[op], 0.9)
            info[f"{op}_ms.n"] = len(scaled[op])
        info["passes"] = res["passes"]
        info["corpus_size"] = len(state["docs"])
    info.update({
        "speed_scale": meter.scale(),
        "raw setup_s": setup_raw,
        "raw instances_per_s": instances / (sum(raw) / 1000.0),
        "raw call_ms.p50": quantile(raw, 0.5),
        "raw call_ms.p90": quantile(raw, 0.9),
        "setup_breakdown_median": {key: statistics.median(b[key] for b in breakdowns) for key in breakdowns[0]},
    })
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}, failures, attempted, info


def timed_phase(run) -> tuple[dict, float, float]:
    """Run one phase between reference samples: (result, raw s, scaled s)."""
    meter = SpeedMeter()
    meter.sample(3)
    t0 = perf_counter()
    res = run()
    wall = perf_counter() - t0
    meter.sample(3)
    return res, wall, wall * meter.scale()


def traced_run(workload: str, seed: int, seconds: float) -> tuple[dict, list[str], int, dict]:
    """The trace set runs untraced, traced, and untraced again; per-layer
    values are totals over the traced pass, and the overhead compares it
    with the mean of the untraced ones."""
    gen_tr = tracing.Tracer()
    state = setup(workload, seed, gen_tracer=gen_tr)
    generate, properties, _, _ = state["mods"]
    prop_map = layers.property_names(properties, generate)
    failures = [f"wrapper installed with tracing off: {name}" for name in tracing.installed_wrappers()]
    count = None if workload == "suite" else TRACE_ROUNDS[workload] * len(corpus.STRATA[workload])

    def phase(tr=None):
        if workload != "suite":
            return run_corpus(state, None, count=count, tracer=tr)
        root = tr.open("bench.suite") if tr else None
        res = run_suite_loop(state, None)
        if tr:
            tr.close(root)
        return res

    plain, _, untraced_before = timed_phase(phase)
    tr = tracing.Tracer()
    tr.install(layers.observers())
    try:
        failures += layers.install_check()
        traced, traced_wall, traced_s = timed_phase(lambda: phase(tr))
    finally:
        tr.uninstall()
    failures += [f"wrapper left installed: {name}" for name in tracing.installed_wrappers()]
    _, _, untraced_after = timed_phase(phase)
    untraced_s = (untraced_before + untraced_after) / 2
    if workload == "suite":
        failures += plain["failures"] + traced["failures"]
        attempted = 2
    else:
        records = plain["records"] + traced["records"]
        failures += judge_corpus(state["docs"], records)
        attempted = len(records)
    table = tracing.SpanTable(tr)
    failures += layers.self_check(tr, table, traced_wall, workload)
    gen_table = table if workload == "suite" else tracing.SpanTable(gen_tr)
    values = layers.layer_metrics(tr, table, gen_table, prop_map, traced.get("skipped", 0),
                                  traced_s / untraced_s - 1.0)
    names = layers.per_layer_names(list(prop_map.values()))
    metrics = {name: {"value": values[name], "unit": layers.unit_of(name)} for name in names}
    info = {
        "spans": table.n,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "trace_set": "one suite run" if workload == "suite" else f"{count} instances",
        "failed_frac": len(failures) / attempted,
    }
    return metrics, failures, attempted, info


def suite_digest_check() -> int:
    """One-off: the seed-42, 100-trial suite must reproduce the ROADMAP digest."""
    _, properties, _, _ = import_essmod()
    t0 = perf_counter()
    report = properties.run_suite(SUITE_SEED, 100)
    print(f"suite seed {SUITE_SEED} trials 100: passed={report['passed']} "
          f"digest={report['digest']} in {perf_counter() - t0:.1f} s")
    ok = report["passed"] and report["digest"] == SUITE_DIGEST_100
    print("digest matches" if ok else f"MISMATCH: expected {SUITE_DIGEST_100}")
    return 0 if ok else 1


def print_result(workload: str, metrics: dict, failures: list[str], attempted: int, info: dict):
    print(f"workload {workload}")
    print(f"environment {json.dumps(environment(), sort_keys=True)}")
    for name, m in metrics.items():
        print(f"  {name:<45} {m['value']:>14.6g} {m['unit']}")
    for key, val in info.items():
        if isinstance(val, dict):
            val = json.dumps({k: round(v, 4) for k, v in val.items()})
        elif isinstance(val, float):
            val = f"{val:.6g}"
        print(f"  ({key} {val})")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))


def run_all(args) -> int:
    """Each workload in its own process; prints every result."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=str(ROOT), stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--suite-digest", action="store_true",
                        help="check the seed-42, 100-trial suite digest and exit")
    args = parser.parse_args(argv)
    try:
        check_sources()
        if args.suite_digest:
            return suite_digest_check()
        if args.workload == "all":
            return run_all(args)
        if args.setup_only:
            state = setup(args.workload, args.seed)
            print("READY " + json.dumps(state["breakdown"]), flush=True)
            return 0
        run = traced_run if args.trace else e2e_run
        metrics, failures, attempted, info = run(args.workload, args.seed, args.seconds)
        print_result(args.workload, metrics, failures, attempted, info)
        return 0
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
