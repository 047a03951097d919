"""Known mutations of the program, each with the tests that must catch it.

A record names a file, an exact text in it, the text that replaces it, and
the tests expected to fail on the mutant. The script copies `src/`,
`tests/` and `pyproject.toml` into a temporary directory, checks that the
named tests pass there unmutated and that the copy is the package they
import, then applies one record at a time and runs its tests. A mutant
whose tests all pass survives; the script prints every survivor and exits
1 if there is one, or if a record's old text is not found exactly once.
Hypothesis runs with a fixed seed, so a run is repeatable, and with the
`mutants` profile of tests/conftest.py, which reports a failing example
without shrinking it. Each record's tests catch it deterministically or by
an explicit `@example`.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py

The file is not named test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "interior-zero-inside",
        "src/essmod/fields.py",
        "inside += [True, False] * len(zeros) + [True]",
        "inside += [True, True] * len(zeros) + [True]",
        ("tests/test_fields.py::test_planted_residual_zeros_agree_with_projector_oracle",),
    ),
    Mutant(
        "product-drops-imaginary-cross-term",
        "src/essmod/sections.py",
        "b + x * v + y * u)",
        "b + x * v)",
        ("tests/test_polynomials.py::test_gaussian_poly_arithmetic_and_conj",),
    ),
    Mutant(
        "print-unreduced-parts",
        "src/essmod/serialize.py",
        "[[_ratio_to_json(x, den), _ratio_to_json(y, den)] for x, y in coeffs]",
        '[[f"{x}/{den}", f"{y}/{den}"] for x, y in coeffs]',
        ("tests/test_serialize.py::test_polynomial_print_matches_fraction_printing",),
    ),
    # A sign that depends on the row only, not the column, is no mutant to
    # catch: it multiplies every s×s minor by (−1)^s and leaves their gcd alone.
    Mutant(
        "laplace-sign-without-column",
        "src/essmod/fields.py",
        "sign = -1 if (k + t) % 2 else 1",
        "sign = -1 if k % 2 else 1",
        ("tests/test_fields.py::test_spanning_certificate_matches_all_minors_oracle",),
    ),
    Mutant(
        "piece-repeating-its-own-region-refused",
        "src/essmod/fields.py",
        "if owners[r] not in (None, i):",
        "if owners[r] is not None:",
        ("tests/test_fields.py::test_written_partition_loads_as_its_normal_form",),
    ),
    Mutant(
        "closed-point-interval-dropped",
        "src/essmod/subsets.py",
        "pts.append(iv.lo)",
        "pass",
        ("tests/test_fields.py::test_written_partition_loads_as_its_normal_form",),
    ),
    Mutant(
        "annihilators-keyed-by-column-count",
        "src/essmod/fields.py",
        "rows = [eliminated[bases[i]] for i in owners]",
        "rows = [eliminated[next(c for c in eliminated if len(c) == len(bases[i]))] for i in owners]",
        ("tests/test_fields.py::test_loading_sweeps_nothing_and_eliminates_each_basis_once",),
    ),
    Mutant(
        "basis-cleared-by-real-denominators-only",
        "src/essmod/serialize.py",
        "dens = [lcm(*(q for z in col for _, q in z)) for col in cols]",
        "dens = [lcm(*(z[0][1] for z in col)) for col in cols]",
        ("tests/test_serialize.py::test_basis_parse_matches_fraction_path",),
    ),
    Mutant(
        "continuity-compares-real-parts-only",
        "src/essmod/sections.py",
        "p * fa == u * fb and q * fa == w * fb",
        "p * fa == u * fb",
        ("tests/test_sections.py::test_continuity_check_matches_exact_values",),
    ),
    # x*·g(a)·p with g(a) the pseudo-inverse of x·x* by its eigendecomposition,
    # cut at eps: the old route, which amplifies rounding by κ(x)².
    Mutant(
        "membership-through-x-xstar-g",
        "src/essmod/algebra.py",
        "factor = vh[r].conj().T @ (u_r.conj().T / s[r, None])",
        "factor = x_i.conj().T @ np.linalg.pinv(x_i @ x_i.conj().T, rtol=eps / norm, hermitian=True)",
        ("tests/test_cli.py::test_ill_conditioned_generators_give_verified_witnesses",),
    ),
    Mutant(
        "probe-norms-over-rows",
        "src/essmod/algebra.py",
        "np.linalg.norm(image - p_i, axis=0)",
        "np.linalg.norm(image - p_i, axis=1)",
        ("tests/test_algebra.py::test_closed_subideal_probes_match_per_unit_oracle",),
    ),
    # A block of rank n − 1 has trace about n − 1: a cut at n − 3/2 calls it the identity.
    Mutant(
        "trace-cut-one-below",
        "src/essmod/algebra.py",
        "np.trace(pb).real <= len(pb) - 0.5",
        "np.trace(pb).real <= len(pb) - 1.5",
        ("tests/test_algebra.py::test_trace_rule_matches_the_all_blocks_eigh_rule",
         "tests/test_properties.py::test_property_passes_alone[algebra.essentiality_oracle]"),
    ),
    Mutant(
        "probe-skips-nonzero-blocks",
        "src/essmod/modules.py",
        "if not x_b.any():",
        "if x_b.any():",
        ("tests/test_modules.py::test_probe_whole_module_found_with_unit",),
    ),
    Mutant(
        "subideal-zero-threshold-dropped",
        "src/essmod/algebra.py",
        "if max(s[0] for _, s, _ in svds) <= DEFAULT_TOL:",
        "if max(s[0] for _, s, _ in svds) <= 0:",
        ("tests/test_cli.py::test_right_ideal_witness_refuses_a_zero_generator_once",
         "tests/test_algebra.py::test_closed_subideal_reads_zero_off_its_own_svd"),
    ),
    # A and A^k share one block kernel: its shape check must compare ranks too.
    Mutant(
        "shape-check-ignores-rank",
        "src/essmod/algebra.py",
        "if self.shape != other.shape or self.k != other.k:",
        "if self.shape != other.shape:",
        ("tests/test_modules.py::test_inner_product_shape_mismatch",),
    ),
    Mutant(
        "norm-reads-first-block-only",
        "src/essmod/algebra.py",
        "return max(linalg.op_norm(x) for x in self.blocks)",
        "return linalg.op_norm(self.blocks[0])",
        ("tests/test_modules.py::test_operation_results_are_read_only",),
    ),
    Mutant(
        "batch-draws-leave-the-state",
        "src/essmod/generate.py",
        "self.state = (self.state + n * GOLDEN_GAMMA) & MASK64",
        "pass",
        ("tests/test_generate.py::test_batch_draws_equal_sequential_draws",),
    ),
    Mutant(
        "matrix-draws-imaginary-part-first",
        "src/essmod/generate.py",
        "/ 16.0).view(np.complex128)",
        "/ 16.0).reshape(-1, 2)[:, ::-1].copy().view(np.complex128)",
        ("tests/test_generate.py::test_rand_matrix_matches_the_per_entry_draws",
         "tests/test_generate.py::test_generation_grid_is_pinned"),
    ),
    Mutant(
        "block-json-views-without-a-contiguous-copy",
        "src/essmod/serialize.py",
        "np.ascontiguousarray(b).view(np.float64)",
        "b.view(np.float64)",
        ("tests/test_generate.py::test_element_json_reads_a_non_contiguous_block",),
    ),
    # Closure and interior are read off the normal form in one pass each.
    Mutant(
        "interior-keeps-an-inner-closed-end",
        "src/essmod/subsets.py",
        "iv.lo_closed and not iv.lo,",
        "iv.lo_closed,",
        ("tests/test_subsets.py::test_closure_and_interior_equal_the_sweep_formulas",),
    ),
    Mutant(
        "closure-leaves-touching-intervals-unmerged",
        "src/essmod/subsets.py",
        "if intervals and intervals[-1].hi == iv.lo:",
        "if False:",
        ("tests/test_subsets.py::test_closure_and_interior_equal_the_sweep_formulas",),
    ),
    # The term λ_j·a_j over 2^j whatever λ_j the membership test chose.
    Mutant(
        "inductive-term-ignores-the-lambda-fallback",
        "src/essmod/fields.py",
        "term = _reduced(w * w << e,",
        "term = _reduced(w * w << j,",
        ("tests/test_witnesses.py::test_inductive_witness_adversarial_lambda_adjustment",
         "tests/test_witnesses.py::test_one_pass_inductive_sum_equals_refine_and_add"),
    ),
    # A generated partition gives each region one owner: the planted interval
    # owns the open gaps between its ends, and a cut point starts its cell.
    Mutant(
        "planted-interval-owns-its-ends",
        "src/essmod/generate.py",
        "inner = len(ends) - 1",
        "inner = 0",
        ("tests/test_generate.py::test_field_generation_grid_is_pinned",),
    ),
    Mutant(
        "cut-point-goes-to-the-cell-before-it",
        "src/essmod/generate.py",
        "bisect_right(cut_slots, r)",
        "bisect_right(cut_slots, r - 1)",
        ("tests/test_generate.py::test_field_generation_grid_is_pinned",),
    ),
    # eps at half the least kept σ² can lie within the cut of a σ² just below the keep line.
    Mutant(
        "subideal-eps-at-half-the-least-kept",
        "src/essmod/algebra.py",
        "eps = (float(np.max(sigma2[~kept], initial=0.0)) + float(np.min(sigma2[kept]))) / 2.0",
        "eps = float(np.min(sigma2[kept])) / 2.0",
        ("tests/test_cli.py::test_witness_clears_a_sigma_squared_just_below_the_keep_line",
         "tests/test_algebra.py::test_closed_subideal_refuses_a_threshold_by_the_spectral_cut"),
    ),
    # The suite's re-pointed properties each fail, by name, on a fault in
    # the kernel they check.
    Mutant(
        "subideal-p-cut-above-eps",
        "src/essmod/algebra.py",
        "        r = t > eps",
        "        r = t > 4 * eps",
        ("tests/test_properties.py::test_property_passes_alone[algebra.monotone_convergence]",),
    ),
    # Each generator p·E_rr has a smaller range than p: two generators p·x would not tell.
    Mutant(
        "support-projector-first-generator-only",
        "src/essmod/algebra.py",
        "*(g.blocks[b] for g in generators)])",
        "*(g.blocks[b] for g in generators[:1])])",
        ("tests/test_properties.py::test_property_passes_alone[algebra.ideal_roundtrip]",),
    ),
    Mutant(
        "submodule-of-ideal-first-columns",
        "src/essmod/modules.py",
        "p_b[:, r * n:(r + 1) * n]",
        "p_b[:, 0:n]",
        ("tests/test_properties.py::test_property_passes_alone[module.correspondence]",),
    ),
    # θ_{x,y} = X_b·Y_b^T: the first block columns of θ_{x,y}·θ_{z,e₁} are then X·Y^T·Z, not x·⟨y, z⟩.
    Mutant(
        "theta-drops-the-conjugate",
        "src/essmod/modules.py",
        "a @ b.conj().T for a, b in zip(x.blocks, y.blocks)",
        "a @ b.T for a, b in zip(x.blocks, y.blocks)",
        ("tests/test_properties.py::test_property_passes_alone[module.theta_apply]",),
    ),
    # T·θ_{u,Tu} = θ_{Tu,Tu} holds for any theta of the form X_b·f(Y_b), so the product is what it checks.
    Mutant(
        "product-transposes-its-right-factor",
        "src/essmod/algebra.py",
        "return self._with(x @ a_b for x, a_b in zip(self.blocks, a.blocks))",
        "return self._with(x @ a_b.T for x, a_b in zip(self.blocks, a.blocks))",
        ("tests/test_properties.py::test_property_passes_alone[module.intertwine]",),
    ),
    # Each bump reaches the nearest earlier sample or end: the term leaves (x_j − r_j, x_j + r_j).
    Mutant(
        "inductive-bump-twice-as-wide",
        "src/essmod/fields.py",
        "widths.append(min(n, den - n,",
        "widths.append(2 * min(n, den - n,",
        ("tests/test_properties.py::test_property_passes_alone[fields.term_norm_bound]",),
    ),
    Mutant(
        "difference-is-symmetric",
        "src/essmod/subsets.py",
        "lambda a, b: a and not b)",
        "lambda a, b: a != b)",
        ("tests/test_properties.py::test_property_passes_alone[fields.set_algebra]",),
    ),
    # Inclusion read as an empty difference: with the mutant, residual − total is the residual set itself.
    Mutant(
        "difference-keeps-the-first-operand",
        "src/essmod/subsets.py",
        "lambda a, b: a and not b)",
        "lambda a, b: a)",
        ("tests/test_properties.py::test_property_passes_alone[fields.residual_subset_total]",),
    ),
    # A bumped generator vanishes on part of the total: total − residual is then not empty.
    Mutant(
        "rebuild-reverses-its-operands",
        "src/essmod/subsets.py",
        "for s in sets], keep)",
        "for s in reversed(sets)], keep)",
        ("tests/test_properties.py::test_property_passes_alone[fields.residual_subset_total]",),
    ),
    # A section's support set is its residual set over the zero field: over the full fiber it is empty.
    Mutant(
        "zero-field-spans-the-fiber",
        "src/essmod/fields.py",
        "return SubspaceField._of(d, ((),), [ZERO, ONE], [0, 0, 0])",
        "return SubspaceField._of(d, (tuple(tuple((int(i == j), 0) for i in range(d)) for j in range(d)),), [ZERO, ONE], [0, 0, 0])",
        ("tests/test_sections.py::test_zero_and_support_sets",
         "tests/test_properties.py::test_property_passes_alone[fields.criterion_coherence]"),
    ),
    # A probe that holds only where m·a·b leaves L: the report's rule reads it, an OR with the inductive witness hid it.
    Mutant(
        "probe-implication-reads-residual-empty",
        "src/essmod/fields.py",
        "return (not self.residual_empty) or self.product_zero",
        "return self.residual_empty or self.product_zero",
        ("tests/test_properties.py::test_property_passes_alone[fields.criterion_coherence]",),
    ),
    # A sesquilinear form conjugate-linear in the wrong argument: ⟨mc, m⟩ then carries c where it carried c̄.
    Mutant(
        "inner-product-conjugates-the-right-factor",
        "src/essmod/sections.py",
        "(du, cu), (dv, cv) = u.pieces[i], v.pieces[j]",
        "(du, cu), (dv, cv) = v.pieces[j], u.pieces[i]",
        ("tests/test_properties.py::test_property_passes_alone[fields.commutative_identity]",),
    ),
    # Samples numbered from 0: the first λ is 2^0 = 1, above its bound 1/2.
    Mutant(
        "inductive-samples-counted-from-zero",
        "src/essmod/fields.py",
        "enumerate(zip(xs, nums, widths, ends, picks, anns, here), start=1)",
        "enumerate(zip(xs, nums, widths, ends, picks, anns, here), start=0)",
        ("tests/test_properties.py::test_property_passes_alone[fields.inductive_postcondition]",),
    ),
    # A defect interval open at the cell's end a leaves the point a of the cell uncovered.
    Mutant(
        "cover-scan-ignores-an-open-end",
        "src/essmod/fields.py",
        "iv.lo < a or iv.lo == a and iv.lo_closed",
        "iv.lo <= a",
        ("tests/test_fields.py::test_cover_scan_matches_the_rest_of_the_cell",),
    ),
    # A unit generator leaves a `points` field only at planted point atoms.
    Mutant(
        "emptiness-walk-skips-point-atoms",
        "src/essmod/fields.py",
        "not any(resid for _, resid in _walk(m, field_atoms(field, m.breakpoints)))",
        "not any(resid for atom, resid in _walk(m, field_atoms(field, m.breakpoints)) if not atom.is_point)",
        ("tests/test_fields.py::test_emptiness_walk_matches_the_residual_set",),
    ),
    # A rank cut 1000 times too high moves the float decision's flip from e = 33 to e = 23.
    Mutant(
        "rank-cut-a-thousand-times-the-tolerance",
        "src/essmod/linalg.py",
        "return int(np.sum(s > tol * max(1.0, s[0])))",
        "return int(np.sum(s > 1e3 * tol * max(1.0, s[0])))",
        ("tests/test_modules.py::test_float_decision_flips_at_the_tolerance_band",),
    ),
    # Union's only caller adds the ends 0 and 1 to a flagged generator's defect set.
    Mutant(
        "union-drops-its-second-operand",
        "src/essmod/subsets.py",
        "lambda a, b: a or b)",
        "lambda a, b: a)",
        ("tests/test_cli.py::test_vanishing_generators_are_decided[points]",
         "tests/test_cli.py::test_vanishing_generators_are_decided[interval]",
         "tests/test_cli.py::test_two_piece_generator_vanishing_at_both_ends_is_decided"),
    ),
    # The spawned stream leaves the state alone: every trial then runs one document.
    Mutant(
        "term-norm-bound-reads-a-spawned-stream",
        "src/essmod/properties.py",
        'spec = _planted_spec(rng, "interval")',
        'spec = _planted_spec(rng.spawn(4), "interval")',
        ("tests/test_properties.py::test_property_substream_states_are_pinned",),
    ),
    # A rational rank drop named by the interval it lies in, not by its point.
    Mutant(
        "root-in-names-the-interval",
        "src/essmod/fields.py",
        'return f"at x = {zeros[0]}"',
        'return f"in {iv}"',
        ("tests/test_cli.py::test_rational_rank_drop_is_named_by_its_point",),
    ),
    # An irrational root is a rank drop too: x² − 1/2 drops rank at 1/√2 alone.
    Mutant(
        "root-in-ignores-irrational-drops",
        "src/essmod/fields.py",
        'except IrrationalRoot:\n            return f"in {iv}"',
        "except IrrationalRoot:\n            continue",
        ("tests/test_fields.py::test_spanning_certificate_matches_all_minors_oracle",
         "tests/test_cli.py::test_irrational_rank_drop_is_not_spanning"),
    ),
    # A sample where no generator leaves L: the defect set disagrees with the generators.
    Mutant(
        "inductive-pick-never-refused",
        "src/essmod/fields.py",
        "if k_j is None:",
        "if False:",
        ("tests/test_witnesses.py::test_inductive_witness_refuses_a_defect_set_the_generators_contradict",),
    ),
    # Each report's checks_ok and the suite read the verdict off the
    # certificate or witness bundle that proves it: no other copy hides a fault.
    Mutant(
        "submodule-verdict-ignores-the-probe",
        "src/essmod/modules.py",
        "return self.essential or self.witness_probe_found is False",
        "return True",
        ("tests/test_cli.py::test_a_found_probe_fails_the_module_reports",
         "tests/test_properties.py::test_property_reads_the_verdict_its_witness_owns[found-probe]"),
    ),
    Mutant(
        "non-essential-verdict-drops-the-direct-witness",
        "src/essmod/fields.py",
        "inductive.verified and direct.verified)",
        "inductive.verified)",
        ("tests/test_cli.py::test_a_failing_direct_probe_fails_the_witness",
         "tests/test_properties.py::test_property_reads_the_verdict_its_witness_owns[failing-direct-probe]"),
    ),
    # Every trial still passes on the other draws, so no digest shows them.
    Mutant(
        "set-algebra-draws-up-to-three-points",
        "src/essmod/properties.py",
        "pts = [Fraction(rng.randint(0, 32), 32) for _ in range(rng.randint(0, 2))]",
        "pts = [Fraction(rng.randint(0, 32), 32) for _ in range(rng.randint(0, 3))]",
        ("tests/test_properties.py::test_property_substream_states_are_pinned",),
    ),
    # The least singular value: a product can then outgrow the product of norms, and ‖a*a‖ = 0 for a wide a.
    Mutant(
        "op-norm-reads-the-least-singular-value",
        "src/essmod/linalg.py",
        "return float(s[0]) if s.size else 0.0",
        "return float(s[-1]) if s.size else 0.0",
        ("tests/test_properties.py::test_property_passes_alone[numeric.op_norm]",),
    ),
    # Eigenvalues out of step with their eigenvectors: u·diag(eigs)·u* is then another matrix.
    Mutant(
        "herm-eig-reverses-eigenvalues-not-vectors",
        "src/essmod/linalg.py",
        "return eigs.real, _canonical_phases(u)",
        "return eigs.real[::-1], _canonical_phases(u)",
        ("tests/test_properties.py::test_property_passes_alone[numeric.eig_reconstruction]",),
    ),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(copy: Path, tests) -> int:
    # no bytecode cache: a restored file may share its size and mtime with the mutant
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0",
           "--hypothesis-profile=mutants", *tests]
    return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def _imports_copy(copy: Path) -> bool:
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    out = subprocess.run([sys.executable, "-c", "import essmod; print(essmod.__file__)"], cwd=copy, env=env,
                         capture_output=True, text=True).stdout.strip()
    return Path(out).resolve().is_relative_to(copy.resolve())


def main() -> int:
    problems = [f"{m.name}: old text not found exactly once in {m.path}"
                for m in MUTANTS if (ROOT / m.path).read_text().count(m.old) != 1]
    with tempfile.TemporaryDirectory(prefix="essmod-mutants-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        if not _imports_copy(copy):
            problems.append("the copy's tests do not import the copy's src/essmod")
        elif _pytest(copy, sorted({t for m in MUTANTS for t in m.tests})) != 0:
            problems.append("the named tests fail before any mutation")
        for m in MUTANTS if not problems else ():
            target = copy / m.path
            original = target.read_text()
            target.write_text(original.replace(m.old, m.new))
            code = _pytest(copy, m.tests)
            target.write_text(original)
            status = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit {code}")
            print(f"{status:11} {m.name}")
            if code != 1:
                problems.append(f"{m.name}: {status}")
    for p in problems:
        print(f"problem: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
