"""Instance checking and witness construction behind the CLI.

Reports are finished by `serialize.finish`: read-only JSON-able dicts that
carry their own canonical text. Every report carries the digest of the
instance it was computed from plus a digest of its own canonical body
(timing excluded), so reruns with the same seed are comparable bit for bit.
"""

from __future__ import annotations

import time
from fractions import Fraction

from . import algebra, fields, modules, serialize
from .errors import PreconditionFailed, SizeCap
from .serialize import (
    SCHEMA,
    element_to_json,
    field_spec_from_json,
    frac_to_json,
    module_element_to_json,
    right_ideal_from_json,
    section_to_json,
    submodule_from_json,
    subset_to_json,
)


def _opened(doc, kind: str) -> tuple[str, dict, dict]:
    """The instance kind and payload of `doc`, and the envelope of a report of
    kind `kind` on it: schema, kinds and the instance digest."""
    instance_kind, payload = serialize.validate_instance(doc)
    envelope = {"schema": SCHEMA, "kind": kind, "instance_kind": instance_kind, "instance_digest": serialize.digest(doc)}
    return instance_kind, payload, envelope


def run_check(doc) -> serialize.Report:
    """Decide essentiality of an instance document and report evidence."""
    t0 = time.perf_counter()
    kind, payload, report = _opened(doc, "check_report")
    if kind == "right_ideal":
        ideal, _ = right_ideal_from_json(payload)
        decision, cert = algebra.is_essential_right_ideal(ideal)
        report["decision"] = decision
        report["certificate"] = _ideal_certificate_json(cert)
        report["checks_ok"] = decision or cert.intersection_dim == 0
    elif kind == "module_submodule":
        n = submodule_from_json(payload)
        decision, cert = modules.is_essential_submodule(n)
        report["decision"] = decision
        report["essential"] = cert.essential
        report["topologically_essential"] = cert.topologically_essential
        cert_doc = {"ideal": _ideal_certificate_json(cert.ideal_certificate)}
        if cert.witness is not None:
            cert_doc["witness"] = module_element_to_json(cert.witness)
            cert_doc["witness_probe_found"] = cert.witness_probe_found
        report["certificate"] = cert_doc
        report["checks_ok"] = decision or cert.witness_probe_found is False
    else:
        spec = field_spec_from_json(payload)
        decision = fields.is_essential_field(spec)
        report["decision"] = decision.essential
        report["defect_set"] = subset_to_json(decision.analysis.total)
        report["spanning_cells"] = decision.spanning_cells
        report["checks_ok"] = True  # a failed spanning certificate raises first
    return serialize.finish(report, t0)


def _ideal_certificate_json(cert: algebra.IdealCertificate) -> dict:
    doc: dict = {"essential": cert.essential}
    if cert.essential:
        doc["identity_error"] = cert.identity_error
    else:
        doc["block"] = cert.block
        doc["vector"] = [[z.real, z.imag] for z in cert.vector]
        doc["intersection_dim"] = cert.intersection_dim
    return doc


# Bounds the inductive field witness: per sample, one bump term and one sum over the earlier ones.
MAX_SAMPLES = 64


def run_witness(doc, samples: int = 8, section_index: int = 0) -> serialize.Report:
    """Construct and verify the witness objects matching the instance kind."""
    t0 = time.perf_counter()
    if not 0 <= samples <= MAX_SAMPLES:
        raise SizeCap(f"samples must lie in 0..{MAX_SAMPLES}")
    kind, payload, report = _opened(doc, "witness_report")
    if kind == "right_ideal":
        ideal, gens = right_ideal_from_json(payload)
        x = gens[0] if gens else ideal.support_projection
        if x.is_zero():
            raise PreconditionFailed("no nonzero generator to build a subideal from")
        w = algebra.closed_subideal(x)
        report["witness"] = {
            "eps": w.eps,
            "a": element_to_json(w.a),
            "p": element_to_json(w.p),
            "fa": element_to_json(w.fa),
            "rank": w.ideal.rank(),
            "fa_p_error": w.fa_p_error,
            "max_probe_error": max(w.probe_errors, default=0.0),
            "max_membership_error": max(w.membership_errors, default=0.0),
        }
        report["checks_ok"] = w.verified
    elif kind == "module_submodule":
        n = submodule_from_json(payload)
        decision, cert = modules.is_essential_submodule(n)
        report["decision"] = decision
        if decision:
            report["witness"] = None
            report["checks_ok"] = True
        else:
            report["witness"] = {
                "m": module_element_to_json(cert.witness),
                "probe_found": cert.witness_probe_found,
            }
            report["checks_ok"] = cert.witness_probe_found is False
    else:
        spec = field_spec_from_json(payload)
        decision = fields.is_essential_field(spec)
        report["decision"] = decision.essential
        if decision.essential:
            k = section_index % len(spec.generators)
            w = fields.essential_witness(spec.generators[k], spec.subfield, decision.analysis.defects[k])
            report["witness"] = {
                "kind": "essential",
                "a": section_to_json(w.a),
                "ma": section_to_json(w.ma),
                "support": [frac_to_json(w.support[0]), frac_to_json(w.support[1])],
                "residual_empty": w.residual_empty,
                "ma_nonzero": w.ma_nonzero,
            }
            report["checks_ok"] = w.verified
        else:
            report["witness"] = _non_essential_witnesses(spec, decision, samples)
            report["checks_ok"] = report["witness"]["all_verified"]
    return serialize.finish(report, t0)


def _non_essential_witnesses(spec, decision, samples: int) -> dict:
    analysis = decision.analysis
    lo, hi = fields._pick_interval(analysis.total.closure().interior())
    xs = _dyadic_samples(lo, hi, samples, analysis.total)
    inductive = fields.inductive_witness_section(spec, (lo, hi), xs, analysis.total)
    doc = {
        "kind": "non_essential",
        "interval": [frac_to_json(lo), frac_to_json(hi)],
        "samples": [frac_to_json(x) for x in xs],
        "inductive": {
            "m": section_to_json(inductive.m),
            "lambdas": [frac_to_json(l) for l in inductive.lambdas],
            "picks": list(inductive.picks),
            "sample_defects_verified": inductive.sample_defects_verified,
        },
    }
    direct = next(
        (fields.non_essential_witness(g, spec.subfield, defect)
         for g, defect in zip(spec.generators, analysis.defects)
         if defect.intervals),
        None,
    )
    doc["direct"] = None if direct is None else {
        "support": [frac_to_json(direct.support[0]), frac_to_json(direct.support[1])],
        "closure_equal": direct.closure_equal,
        "ma_nonzero": direct.ma_nonzero,
        "probes_ok": all(p.implication_holds for p in direct.probes),
    }
    doc["all_verified"] = inductive.verified and (direct is None or direct.verified)
    return doc


def _dyadic_samples(lo: Fraction, hi: Fraction, count: int, defect) -> list[Fraction]:
    """Distinct dyadic-grid points of (lo, hi) that lie in the defect set."""
    out: list[Fraction] = []
    depth = 3
    while len(out) < count and depth < 24:
        step = (hi - lo) / (1 << depth)
        # past the first grid only odd multiples are new: a coarser grid saw the rest
        for i in range(1, 1 << depth, 1 if depth == 3 else 2):
            x = lo + i * step
            if defect.contains(x):
                out.append(x)
                if len(out) == count:
                    break
        depth += 1
    if len(out) < count:
        raise PreconditionFailed("could not find enough defect samples in the interval")
    return sorted(out)
