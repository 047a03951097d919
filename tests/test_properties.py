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


def test_suite_twenty_trials_seed_42_digest():
    """The run the `suite` benchmark workload repeats: a re-pointed property
    that fails or skips one trial changes this digest."""
    report = properties.run_suite(42, 20)
    assert report["passed"]
    assert report["digest"] == "c10c24b65b6644476904e52eff1fe9081fbda0dbe255edb972a837278cbe9b93"


# Function name -> property name, in substream order. perfbench reads this
# map (layers.property_names); a property's place in PROPERTIES picks its
# substream, and its name feeds the suite digest.
PROPERTY_NAMES = [
    ("prop_eig_reconstruction", "numeric.eig_reconstruction"),
    ("prop_op_norm", "numeric.op_norm"),
    ("prop_psd_two_sided", "numeric.psd_two_sided"),
    ("prop_calculus_homomorphism", "algebra.calculus_homomorphism"),
    ("prop_monotone_convergence", "algebra.monotone_convergence"),
    ("prop_subideal_pipeline", "algebra.subideal_pipeline"),
    ("prop_ideal_roundtrip", "algebra.ideal_roundtrip"),
    ("prop_essentiality_oracle", "algebra.essentiality_oracle"),
    ("prop_theta_apply", "module.theta_apply"),
    ("prop_theta_nondegenerate", "module.theta_nondegenerate"),
    ("prop_theta_norm_bound", "module.theta_norm_bound"),
    ("prop_correspondence", "module.correspondence"),
    ("prop_intertwine", "module.intertwine"),
    ("prop_left_module_identity", "module.left_module_identity"),
    ("prop_set_algebra", "fields.set_algebra"),
    ("prop_residual_subset_total", "fields.residual_subset_total"),
    ("prop_criterion_coherence", "fields.criterion_coherence"),
    ("prop_inductive_postcondition", "fields.inductive_postcondition"),
    ("prop_term_norm_bound", "fields.term_norm_bound"),
    ("prop_commutative_identity", "fields.commutative_identity"),
    ("prop_gen_determinism", "cli.gen_determinism"),
    ("prop_gen_check_roundtrip", "cli.gen_check_roundtrip"),
]


@pytest.mark.parametrize("i, function, name", [(i, f, n) for i, (f, n) in enumerate(PROPERTY_NAMES)],
                         ids=[n for _, n in PROPERTY_NAMES])
def test_property_passes_alone(i, function, name):
    """One property by name, 20 trials on the substream run_suite gives it:
    a fault in the kernel it checks fails it here, under its own name."""
    result = getattr(properties, function)(SplitMix64(42).spawn(i + 1), 20)
    assert result.name == name
    assert result.passed, result.detail


def test_properties_are_pinned_in_substream_order():
    names = {p.__name__: p(SplitMix64(0), 0).name for p in properties.PROPERTIES}
    assert list(names.items()) == PROPERTY_NAMES
    assert all(getattr(properties, p.__name__) is p for p in properties.PROPERTIES)


def test_each_property_draws_its_own_substream(monkeypatch):
    """run_suite hands the i-th property SplitMix64(seed).spawn(i + 1). Every
    property passes whichever substream it draws, so no suite digest shows
    which one that was: this test and the one above pin it."""
    seen = []

    def probe(i):
        def prop(rng, trials):
            seen.append(rng.next_u64())
            return properties.PropertyResult(f"probe.{i}", True, trials, 0)
        return prop

    monkeypatch.setattr(properties, "PROPERTIES", [probe(i) for i in range(3)])
    properties.run_suite(11, 1)
    assert seen == [SplitMix64(11).spawn(i + 1).next_u64() for i in range(3)]


def test_every_property_reports_trials_and_name():
    report = properties.run_suite(5, 2)
    assert len(report["properties"]) == len(properties.PROPERTIES)
    for p in report["properties"]:
        assert p["trials"] >= 1
        assert "." in p["name"]


def test_property_timings_stay_outside_the_digest():
    report = dict(properties.run_suite(5, 1))
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
