import time

import pytest

from essmod import properties, serialize
from essmod.generate import SplitMix64


def test_single_trial_suite_is_fast():
    t0 = time.perf_counter()
    report = properties.run_suite(0, 1)
    elapsed = time.perf_counter() - t0
    assert report["passed"]
    assert elapsed < 1.0, f"trials=1 took {elapsed:.2f}s"


@pytest.mark.slow
def test_suite_hundred_trials_seed_42_passes():
    report = properties.run_suite(42, 100)
    failing = [p["name"] for p in report["properties"] if not p["passed"]]
    assert report["passed"], f"failing properties: {failing}"
    # pins the pass/fail and trial counts (IrrationalRoot skips included)
    assert report["digest"] == "5e7c135253e4bd4445885629fe6b7375670cdaaf16c8bef106bf3ff7146c74ee"


def test_every_property_reports_trials_and_name():
    report = properties.run_suite(5, 2)
    assert len(report["properties"]) == len(properties.PROPERTIES)
    for p in report["properties"]:
        assert p["trials"] >= 1
        assert "." in p["name"]


def test_property_timings_stay_outside_the_digest():
    report = properties.run_suite(5, 1)
    timing = report.pop("property_timing_ms")
    assert list(timing) == [p["name"] for p in report["properties"]]
    assert all(ms >= 0.0 for ms in timing.values())
    assert sum(timing.values()) <= report.pop("timing_ms")
    assert serialize.digest({k: v for k, v in report.items() if k != "digest"}) == report["digest"]


def test_property_results_isolated_per_substream():
    # identical seeds give identical per-property outcomes
    a = properties.run_suite(9, 3)
    b = properties.run_suite(9, 3)
    assert [p["failures"] for p in a["properties"]] == [
        p["failures"] for p in b["properties"]
    ]


def test_property_runner_counts_failures_not_crashes():
    def flaky(rng):
        raise RuntimeError("boom")

    res = properties._run("x.boom", SplitMix64(1), 3, flaky)
    assert not res.passed
    assert res.failures == 3
    assert "RuntimeError" in res.detail
