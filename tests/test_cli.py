import copy
import hashlib
import itertools
import json
import operator
import os
import subprocess
import sys
import time
from pathlib import Path
from fractions import Fraction as F

import numpy as np
import pytest
import report_oracle
from field_docs import corpus_fields, full_field
from poly_oracle import GaussianPoly, RationalPoly, piece, scalar
from series_docs import row_doc

from essmod import cli, fields, modules, properties, runner, serialize
from essmod.algebra import AlgebraElement, AlgebraShape
from essmod.errors import EigenvalueAtThreshold, PreconditionFailed, SchemaError
from essmod.fields import FieldModuleSpec
from essmod.generate import gen_field, gen_module_submodule, gen_right_ideal
from essmod.modules import ModuleElement
from essmod.sections import PiecewiseSection, bump, unit_bump
from test_witnesses import ADVERSARIAL_SAMPLES, adversarial_lambda_spec, fail_a_direct_probe


def run_cli(args, tmp_path, stdin_doc=None, monkeypatch=None, capsys=None):
    return cli.main(args)


def gen_to_file(tmp_path, name, args):
    path = tmp_path / name
    code = cli.main(["gen", *args, "--out", str(path)])
    assert code == 0
    return path


def test_gen_is_byte_identical_across_runs(tmp_path):
    p1 = gen_to_file(tmp_path, "a.json", ["--kind", "right_ideal", "--blocks", "2,3", "--seed", "7"])
    p2 = gen_to_file(tmp_path, "b.json", ["--kind", "right_ideal", "--blocks", "2,3", "--seed", "7"])
    assert p1.read_bytes() == p2.read_bytes()


def test_gen_check_flow_full_module(tmp_path):
    inst = gen_to_file(tmp_path, "m.json", ["--kind", "module_submodule", "--blocks", "2", "--k", "2", "--seed", "4"])
    out = tmp_path / "report.json"
    code = cli.main(["check", "--in", str(inst), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["kind"] == "check_report"
    assert report["checks_ok"] is True
    assert "decision" in report


def test_check_planted_field_matches_ground_truth(tmp_path):
    for defect, expected in (("interval", False), ("points", True), ("none", True)):
        inst = gen_to_file(
            tmp_path,
            f"f_{defect}.json",
            ["--kind", "field", "--d", "2", "--pieces", "4", "--generators", "2",
             "--defect", defect, "--seed", "3"],
        )
        doc = json.loads(inst.read_text())
        out = tmp_path / f"r_{defect}.json"
        assert cli.main(["check", "--in", str(inst), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["decision"] == expected == doc["expected"]["essential"]


def test_witness_flow_ideal(tmp_path):
    inst = gen_to_file(tmp_path, "i.json", ["--kind", "right_ideal", "--blocks", "2,2", "--seed", "12"])
    out = tmp_path / "w.json"
    assert cli.main(["witness", "--in", str(inst), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    w = report["witness"]
    assert w["fa_p_error"] <= 1e-9
    assert w["max_probe_error"] <= 1e-8
    assert w["max_membership_error"] <= 1e-8
    assert report["checks_ok"]


def test_witness_flow_fields(tmp_path):
    ess = gen_to_file(tmp_path, "fe.json", ["--kind", "field", "--d", "2", "--defect", "points", "--seed", "5"])
    out = tmp_path / "we.json"
    assert cli.main(["witness", "--in", str(ess), "--out", str(out)]) == 0
    w = json.loads(out.read_text())["witness"]
    assert w["kind"] == "essential" and w["residual_empty"] and w["ma_nonzero"]

    non = gen_to_file(tmp_path, "fn.json", ["--kind", "field", "--d", "2", "--defect", "interval", "--seed", "5"])
    out2 = tmp_path / "wn.json"
    assert cli.main(["witness", "--in", str(non), "--samples", "8", "--out", str(out2)]) == 0
    w2 = json.loads(out2.read_text())["witness"]
    assert w2["kind"] == "non_essential"
    assert len(w2["samples"]) == 8
    assert w2["inductive"]["sample_defects_verified"]
    assert w2["all_verified"]


def test_check_zero_ideal_is_not_essential(tmp_path):
    from essmod.serialize import element_to_json, shape_to_json

    shape = AlgebraShape((2, 3))
    doc = serialize.instance_to_json(
        "right_ideal",
        {
            "shape": shape_to_json(shape),
            "support_projection": element_to_json(AlgebraElement.zeros(shape)),
        },
        None,
    )
    inst = tmp_path / "zero.json"
    inst.write_text(serialize.dumps(doc))
    out = tmp_path / "zr.json"
    assert cli.main(["check", "--in", str(inst), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["decision"] is False
    assert report["certificate"]["intersection_dim"] == 0


def test_witness_flow_module(tmp_path):
    inst = gen_to_file(tmp_path, "ms.json", ["--kind", "module_submodule", "--blocks", "2", "--k", "2", "--seed", "9"])
    out = tmp_path / "wm.json"
    assert cli.main(["witness", "--in", str(inst), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    if not report["decision"]:
        assert report["witness"]["probe_found"] is False


def test_stdin_stdout_roundtrip(tmp_path, capsys, monkeypatch):
    import io

    doc = gen_right_ideal((2,), 3)
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize.dumps(doc)))
    assert cli.main(["check"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["instance_digest"] == serialize.digest(doc)


def test_schema_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "essmod/1", "kind": "nope", "payload": {}}')
    assert cli.main(["check", "--in", str(bad)]) == 2
    assert "input error" in capsys.readouterr().err
    missing = tmp_path / "missing.json"
    assert cli.main(["check", "--in", str(missing)]) == 2
    notjson = tmp_path / "nj.json"
    notjson.write_text("{{{")
    assert cli.main(["check", "--in", str(notjson)]) == 2


def test_gen_size_cap_exits_2(capsys):
    assert cli.main(["gen", "--kind", "field", "--d", "9", "--seed", "0"]) == 2


@pytest.mark.parametrize("kind", ["right_ideal", "module_submodule", "field"])
def test_gen_refuses_a_negative_seed(kind, capsys):
    """gen wrote "seed": -1 into documents that check and witness refuse."""
    assert cli.main(["gen", "--kind", kind, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "input error: --seed must be >= 0\n"


def test_json_pretty_flag(tmp_path):
    plain = gen_to_file(tmp_path, "p1.json", ["--kind", "right_ideal", "--blocks", "2", "--seed", "1"])
    pretty = tmp_path / "p2.json"
    cli.main(["gen", "--kind", "right_ideal", "--blocks", "2", "--seed", "1", "--out", str(pretty), "--json-pretty"])
    assert json.loads(plain.read_text()) == json.loads(pretty.read_text())
    assert plain.read_text().count("\n") < pretty.read_text().count("\n")


def test_suite_cli_runs_and_exits_zero(tmp_path):
    out = tmp_path / "suite.json"
    assert cli.main(["suite", "--seed", "42", "--trials", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    names = [p["name"] for p in report["properties"]]
    assert names == sorted(names)


def test_suite_digest_reproducible(tmp_path):
    a = properties.run_suite(7, 2)
    b = properties.run_suite(7, 2)
    assert a["digest"] == b["digest"]
    assert a["digest"] != properties.run_suite(8, 2)["digest"]


def test_suite_exit_code_on_injected_fault(tmp_path, monkeypatch):
    """Negating one property check makes the suite fail exactly that one."""

    def negated_theta_norm(rng, trials):
        res = properties.prop_theta_norm_bound(rng, trials)
        return properties.PropertyResult(
            res.name, not res.passed, res.trials, res.trials - res.failures
        )

    patched = [
        negated_theta_norm if p is properties.prop_theta_norm_bound else p
        for p in properties.PROPERTIES
    ]
    monkeypatch.setattr(properties, "PROPERTIES", patched)
    out = tmp_path / "fault.json"
    assert cli.main(["suite", "--seed", "42", "--trials", "2", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    failing = [p["name"] for p in report["properties"] if not p["passed"]]
    assert failing == ["module.theta_norm_bound"]


def test_run_check_reports_have_stable_digest():
    doc = gen_field(2, 4, 2, "interval", 21)
    r1 = runner.run_check(doc)
    r2 = runner.run_check(doc)
    assert r1["digest"] == r2["digest"]
    body1 = {k: v for k, v in r1.items() if k not in ("digest", "timing_ms")}
    assert serialize.digest(body1) == r1["digest"]


# run_check / run_witness digests of gen_field(d, 4, d + 1, defect, 10 * d),
# recorded before the exact layer was reworked: every report must stay
# byte-identical. The check digests were re-recorded once, when the report's
# `spanning_probes` count gave way to `spanning_cells`; every other key of
# those reports held.
GOLDEN_FIELD_DIGESTS = [
    (1, "none", "a08b7b9e74910060b9d49e486cbe533ab1494c9c7cb81dea4276fb92aba10144",
     "9fe55b5b780a6637cf5a1d9dcf0268858b774a48d9f127381e39ae695b1d2e56"),
    (1, "points", "2998189ba5d19a4240d8cbbb7ac803f15332ccbecde24643773cad01e737d97d",
     "88528dbfa1b82355cfb9655f83cccefdf72ca2de8d21f10c6ee2775a896da0ee"),
    (1, "interval", "7d7fc175e07202d9ad6fc476f81373e3af9490e439b181b820b9439d41c2d55a",
     "5c8e35f28dd8c6bdac76c14b777096837573eb34f1a63c8f5b3275be34c3aaab"),
    (2, "none", "c85c0132ebdae5e2641678e599a2542cf1aaf502bd2f1cdf38f7631e4c00b08f",
     "ca4386b821b4c68031ba69c47afd4f97cd01b0384545a04b7850c288c98237d2"),
    (2, "points", "a0f72c882fc170f9c797003b029b40992beff1721bb3578fd4740f275a3bad55",
     "b90eeceab49d4ffa87c1b54f16d0864215103e63127419c06720f5679f2778ad"),
    (2, "interval", "de6eb31a6576530bb513a02623b146de84601b0588d4f3a5db671485aa97952e",
     "e2c7eb12f27ac67297f87c9c6c0a3f2bbd2468131bfff89d61e98607c2bc43c0"),
    (3, "none", "3695acc1a33659e46dbb1668da902ab777891d2c8c1bc45c08603bdb93a8d1a4",
     "700a541a1a5af737e45dab75194045419ccbe6310648ba23263af310ab7cc3bf"),
    (3, "points", "8c27720fabb06e7140081b3773571d027f858be77d92229d83b512e8ab07579e",
     "95b8a3febb1c536168f92a3c9a97fc4c47bbf99c53c3aa2138fd759ff87dbba9"),
    (3, "interval", "02238a3370127b62a7ce314a0ecf29c7d8adbf0300a64f85a1ab13edae2949b3",
     "3189d80b600cbbe413814a6dd850ac3a848cd5d8235e99faf3479c8cf7e6f26c"),
]


@pytest.mark.parametrize("d, defect, check_digest, witness_digest", GOLDEN_FIELD_DIGESTS)
def test_field_report_digests_are_pinned(d, defect, check_digest, witness_digest):
    doc = gen_field(d, 4, d + 1, defect, 10 * d)
    for call, digest in ((runner.run_check, check_digest), (runner.run_witness, witness_digest)):
        report = call(doc)
        assert_report_text(report)
        assert report["digest"] == digest


def assert_report_text(report):
    """The report's compact text is the canonical JSON of its dict, and its
    digest is the sha256 of the canonical body without digest and the
    timings, timing_ms and a suite's property_timing_ms."""
    assert serialize.dumps(report) == serialize.canonical_json(dict(report)) + "\n"
    body = {k: v for k, v in report.items() if k not in ("digest", "timing_ms", "property_timing_ms")}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    assert report["digest"] == hashlib.sha256(text.encode("utf-8")).hexdigest()


def with_repeats(doc, report) -> dict:
    """The report's body as float reports were written before they dropped
    two payloads that repeat other fields: the certificate's rank_one, q = vv*
    in block `block` and zero elsewhere, over the instance shape (each block
    k·n_b for a module), and the right-ideal witness's ideal, which is
    {shape, support_projection} with the witness's own p."""
    body = json.loads(serialize.dumps(report))
    del body["digest"], body["timing_ms"]
    payload = doc["payload"]
    dims = tuple(payload.get("k", 1) * n for n in payload["shape"]["block_dims"])
    cert = body.get("certificate")
    cert = cert and cert.get("ideal", cert)  # a module certificate nests the ideal's
    if cert and not cert["essential"]:
        v = np.array([complex(re, im) for re, im in cert["vector"]])
        blocks = [np.zeros((n, n), dtype=np.complex128) for n in dims]
        blocks[cert["block"]] = np.outer(v, v.conj())
        cert["rank_one"] = serialize.element_to_json(AlgebraElement(AlgebraShape(dims), tuple(blocks)))
    witness = body.get("witness")
    if doc["kind"] == "right_ideal" and witness is not None:
        witness["ideal"] = {"shape": witness["a"]["shape"], "support_projection": witness["p"]}
    return body


def assert_float_digests(doc, report, legacy, digest):
    """`report` gives the legacy digest with its repeats restored, and
    `digest` as written."""
    assert_report_text(report)
    assert serialize.digest(with_repeats(doc, report)) == legacy
    assert report["digest"] == digest


# run_check / run_witness digests of gen_right_ideal(blocks, seed), recorded
# before the float layer was reworked. Float reports have since dropped two
# payloads that repeat other fields: every report with them restored must
# still give these. None marks a witness refused for want of a nonzero generator.
# The witness digests were re-pinned when the witness came to be read off one
# SVD of x per block: eps, p, fa and the errors moved in their last digits.
GOLDEN_RIGHT_IDEAL_DIGESTS = [
    ((2,), 1, "72aaaff6a453ce166c8d12761737b62df6eafe5a99cb847b00e9dd73fa56768d",
     "f302a32506ea99c9c25506b41c74a1c200f2ff4006f6e16deb94e91ca099d715"),
    ((2,), 2, "007ab6bad367b1fecd32d4626e55ff609d2a4e1bf6fedc4c3154e26edd478b4e",
     "07bb8c27170ae9c3e4941808c8ef61e7d2ff2f88a67ec8f6904ed72994505991"),
    ((2,), 3, "e0212df6a721213662b9bdd6169c5c87d003d1ac0dcf83aea7aa862797b7a5e6",
     "27e6b506c71fde3b7f4961d08d4b21d12134f4f41098d5f170610fa939ad5627"),
    ((2,), 4, "567eb5383ba62df7252fb945e7a20c4832f0e2f94e4b8ed57147f0c2410da0f6",
     "e2da2c02e4d0486893e57187a322e7aceb068d732ceed7188eab71165e837936"),
    ((1, 2), 1, "85fa2a8a4bb9a61436d0588d7b496073d88781604cbc7e341f20e4b1cd2133b1",
     "2c763e2d4ebb89b3202bdeaa9f842ca129f00e34216a856c463967f77149b3a9"),
    ((1, 2), 2, "1b65bf1004a8cc2831891333e62fe1c19645fab040ccb3acf0d7972f95a89e02", None),
    ((1, 2), 3, "e72025a84a5996b5d7bf7a98af11e1033a7811402c06155cb99ab78e77afd3d5",
     "41356c9f4c3939a2fba1b3a652ce8c26b04677f2d3b39d21fee8aeee49dc3c93"),
    ((1, 2), 4, "f306d88b31e54c53a67ed0b9f356220a0192a6124e80119d6ea3178151cbe2c6", None),
    ((2, 3), 1, "e64018ee1504dbe3ab15b4806692e56328b3cee65cf6d10ec13068cc17851363",
     "f4789bbbae26fac052a6a1bb7b5d5cde65683ba442cd60ca904ff31df8937d05"),
    ((2, 3), 2, "c83ceb290b927b9b2cd331324b1d2b70f47e8f6a16f69133078230eee8b1e0a1",
     "a7d0ffff7c1ced79f8b2c07c74b5800ca399bc8fb48e434abf5d59ce4db70b15"),
    ((2, 3), 3, "84973379b0ad68ca792872e32fe36e5c3823082508ab495159f1cafc682dfc55",
     "f84e97e177b428c4ba6a26f2b9a4109c534a2d8107d5f51a4af030f3d6c9a153"),
    ((2, 3), 4, "5cb655ab947726a1000444ddea24b7ffeadf519722a32b02b5a3572956d885d4",
     "6435d1a6ed0b25c318018c55fab37ffd11ffdb9a8b01b329976511e54766daf9"),
    ((1, 2, 3), 1, "84f6a7937d556da72c52f05f72b956a7a3d4a03777eba00c342d57fdabd486e4",
     "46860ebab73d22d7094df1417479f7ab31eb488bb3ef1d6e142795d863d3bf3e"),
    ((1, 2, 3), 2, "61b1fe44dbb9f781e6126fefd810c7565ec6bb166da662d0bca093adb53f2ff6", None),
    ((1, 2, 3), 3, "69678e9df22ad581a72709bc95e85400feea6d48942c7be6ba5c5686733f3b51",
     "3c8293fbacde77e4cbffd8baf0a18af48110bf3f2f2c25a2f402aac27a60756e"),
    ((1, 2, 3), 4, "1ae6788dd8ca11471041fda1aea7078cd931f3f33dad78c73fff5efc30ff96be",
     "de7c6680cd595d157df55c75483c226e0031f1457472bb41b64583711296dbde"),
]

# The same reports as written now: (check, witness) digests.
RIGHT_IDEAL_DIGESTS = {
    ((2,), 1): ("d95ab8cb6f0b4700e828bfcb6224ff4cb4475ef430f54783740afdfb506bb83f",
                "2da6d4259f9a984e00a38e1931fbc119f7d44af5f2485275a43c54a53b2b8296"),
    ((2,), 2): ("007ab6bad367b1fecd32d4626e55ff609d2a4e1bf6fedc4c3154e26edd478b4e",
                "74997d6102cffd016128c16475c0f3531f014f3d3aa90dffc01bc369b449e170"),
    ((2,), 3): ("e0212df6a721213662b9bdd6169c5c87d003d1ac0dcf83aea7aa862797b7a5e6",
                "6bb99b0e8217309b01bfb3f417b1202516d49d241eb8eedbe6c097eb111bd4c5"),
    ((2,), 4): ("95043ef9369118bea3afee2589aee252b20211a5f745e00d4cad988b91cd26bd",
                "2d3a2b0769d5178447a9bd6679b8990deb32650da4e2043d592ad1191bb17c62"),
    ((1, 2), 1): ("98ccef7ab64ca8256d5d21844d77ee54fbe9b365ed18b7964b3e8d620706f56a",
                  "00e7ed3c36d010191f8acdd956764115e7a53608862b12a74cf95e075d92d53c"),
    ((1, 2), 2): ("e94a504b33bd7b04b9a3516c8bd525fd045182d06e6b5b69289401e20a241e4b", None),
    ((1, 2), 3): ("e72025a84a5996b5d7bf7a98af11e1033a7811402c06155cb99ab78e77afd3d5",
                  "10fc134502686836241333cfeba8820229ea3b9e567dcbb36bcd7a075eea7876"),
    ((1, 2), 4): ("e9c4cf12a1d0991806f395f6ef8e4053bad4bfd1c6746065e142bb3cfc06ca49", None),
    ((2, 3), 1): ("91be609e8e674fb3b2ebc4a8b59439f02fdf4b0087b9099aee260acc40ef5296",
                  "3ccf9b369027157dc216ad6a85b7525afcc88b3b98f7c11711d0d3d6aedae252"),
    ((2, 3), 2): ("387cf26d6b3b1cc7af0f04967f27adb8c34214a24a2f4c9714b03866cfa505a7",
                  "9d5af246c440d7a0d2b3f4eada69f0e2d91c6175611157f732c43939c7d8abfc"),
    ((2, 3), 3): ("84973379b0ad68ca792872e32fe36e5c3823082508ab495159f1cafc682dfc55",
                  "c3114e2af542b2e65ef119f4ad19a6748ec1d09abdcfd5054f89024cdd93c478"),
    ((2, 3), 4): ("33983bd20a621d240c40196cb500bb33437a45788213a3b1eea43e63dc6d563e",
                  "56d5c2062154b600e157132e374d6f285d3ccab2067874876d22990e22ad934b"),
    ((1, 2, 3), 1): ("03ae4b3ead4ea0af4a621beae56771468ae15da30c3a3318a0b5b5b4dd14f041",
                     "21ad0ca6df240f3f293853193fd9baaebb6dbe1b5d4db962f4b63643571a40d8"),
    ((1, 2, 3), 2): ("b32a0c34c77c95207fb69ce1f740957f71ae5d39ec8b6281b683ed9c447f4f9d", None),
    ((1, 2, 3), 3): ("69678e9df22ad581a72709bc95e85400feea6d48942c7be6ba5c5686733f3b51",
                     "cf6cbaf5462e53761ea90a987da76756fa3be9b866b62134620ad47cc91e2f80"),
    ((1, 2, 3), 4): ("fbd8d9aac6e31ec2661e910e7932665aae21ae709fae0438459d4b1a6da5ce96",
                     "9b3ba1b0ef7916d500773149b15fe81bf9d5d13a05ba8a51965bafd1b1aa440c"),
}


@pytest.mark.parametrize("blocks, seed, check_digest, witness_digest", GOLDEN_RIGHT_IDEAL_DIGESTS)
def test_right_ideal_report_digests_are_pinned(blocks, seed, check_digest, witness_digest):
    doc = gen_right_ideal(blocks, seed)
    now_check, now_witness = RIGHT_IDEAL_DIGESTS[blocks, seed]
    assert_float_digests(doc, runner.run_check(doc), check_digest, now_check)
    if witness_digest is None:
        with pytest.raises(PreconditionFailed):
            runner.run_witness(doc)
    else:
        assert_float_digests(doc, runner.run_witness(doc), witness_digest, now_witness)


# run_check / run_witness digests of gen_module_submodule(blocks, k, seed),
# recorded while module elements were still k-tuples of algebra elements and
# compact operators k×k grids over A: the stacked-block representation must
# give them, with the certificate's rank_one restored. Both decisions occur.
GOLDEN_MODULE_DIGESTS = [
    ((2,), 1, 1, "614f1fdd5b208995da665462a6ab1e6f05900c8392efea52ebb95376d7f9ef98",
     "f21eea3a7bb16a1b449db62b7827a5b14fe911288ab7439f73aa7e74885c9e69"),
    ((2,), 2, 2, "d074ec9f4b0a8db067796a846f9c1610833f898499b5cf3968264ea93309ad4b",
     "e9d11a7030ac3e35feb00a97d0b591561383ee036a63fefda45eca358b181341"),
    ((1, 2), 2, 1, "cbaf88bed1ecbfdb295c9ae821089a124dba2e7c56b61956c6a2e8cea721923e",
     "0fbc2a307b94e9a5279b26cb33973e378e20d39515d093fcda4cc333456105a0"),
    ((1, 2), 3, 3, "31d2b26cb20c871438a1436698ffb2adb2365349eeb5a7e5755fcddf8c02d715",
     "750c9761b9f1693899658c441593ee4bd22f60da770ce0b6b11e2c570c851a99"),
    ((2, 3), 3, 1, "27fc563bd82689ee9c33484fb03b0ecb7edaa1ad14c35cf3d98fb933dc5e9b35",
     "6aefd703a21d0a9c8d80d3b0ca3d806ec24520b3ff9e6359f82d2f3dcc2d3572"),
    ((2, 3), 2, 4, "037fd5c3460ed4825c1076caec76e0d15ecf8e622673339c839012f24eda082e",
     "77b9eff61e0ae5fe328e60736a3bc3da1c58d3d02604a1ab0c6795f22c9e53bc"),
    ((1, 2, 3), 2, 5, "b1601d03a65738886fe11c2bb0d3e61a79b7abc69e9ed18944c009596383f3a0",
     "3ff5da1616517c78d9281c50aa77bdc522a3ddd6796c3c032d8aee1e5110b4ac"),
    ((3,), 4, 6, "9de30cac5b44be3ec6d99fa1c2d5f9f8b9fdab89a55c45d315e89a63b79eb60a",
     "53bbd082e109f906d54a11fd76019118668b39fe6a1646be7c90e7e7350272b4"),
]

# The same reports as written now: (check, witness) digests.
MODULE_DIGESTS = {
    ((2,), 1, 1): ("614f1fdd5b208995da665462a6ab1e6f05900c8392efea52ebb95376d7f9ef98",
                   "f21eea3a7bb16a1b449db62b7827a5b14fe911288ab7439f73aa7e74885c9e69"),
    ((2,), 2, 2): ("14fbcb800b39e9dcaa7572d95de1909930814565bec6bed01ef22dc81d073322",
                   "e9d11a7030ac3e35feb00a97d0b591561383ee036a63fefda45eca358b181341"),
    ((1, 2), 2, 1): ("cbaf88bed1ecbfdb295c9ae821089a124dba2e7c56b61956c6a2e8cea721923e",
                     "0fbc2a307b94e9a5279b26cb33973e378e20d39515d093fcda4cc333456105a0"),
    ((1, 2), 3, 3): ("31d2b26cb20c871438a1436698ffb2adb2365349eeb5a7e5755fcddf8c02d715",
                     "750c9761b9f1693899658c441593ee4bd22f60da770ce0b6b11e2c570c851a99"),
    ((2, 3), 3, 1): ("afb7bd02154bead3b24e2493b4257bea026087735aa7b257423a93f7b33c55d9",
                     "6aefd703a21d0a9c8d80d3b0ca3d806ec24520b3ff9e6359f82d2f3dcc2d3572"),
    ((2, 3), 2, 4): ("d4ede9d64b93b1b3a92148e9c1df66dbfbe2222274aa3af273a314c275bf8ebd",
                     "77b9eff61e0ae5fe328e60736a3bc3da1c58d3d02604a1ab0c6795f22c9e53bc"),
    ((1, 2, 3), 2, 5): ("4647922ae396414d08b2402509eadaea07acc076646ec40c9d85811e4e33e7dc",
                        "3ff5da1616517c78d9281c50aa77bdc522a3ddd6796c3c032d8aee1e5110b4ac"),
    ((3,), 4, 6): ("417164c8635645359a0b58d0ed171aef6cfda050b2acd9bf5db2ba838ba88f90",
                   "53bbd082e109f906d54a11fd76019118668b39fe6a1646be7c90e7e7350272b4"),
}


@pytest.mark.parametrize("blocks, k, seed, check_digest, witness_digest", GOLDEN_MODULE_DIGESTS)
def test_module_report_digests_are_pinned(blocks, k, seed, check_digest, witness_digest):
    doc = gen_module_submodule(blocks, k, seed)
    now_check, now_witness = MODULE_DIGESTS[blocks, k, seed]
    assert_float_digests(doc, runner.run_check(doc), check_digest, now_check)
    assert_float_digests(doc, runner.run_witness(doc), witness_digest, now_witness)


def test_reports_carry_their_canonical_text():
    """Over a small corpus of both stacks and a suite report, each report's
    compact text is its canonical JSON and its digest hashes the body
    without digest and timings."""
    docs = [gen_right_ideal(blocks, seed) for blocks in ((2,), (1, 2), (2, 3)) for seed in (1, 2)]
    docs += [gen_module_submodule(blocks, k, seed) for blocks, k, seed in (((2,), 2, 2), ((1, 2), 2, 1), ((2, 1), 3, 4))]
    docs += [gen_field(d, 3, d + 1, defect, seed) for d, seed in ((1, 5), (2, 6)) for defect in ("none", "points", "interval")]
    kinds = set()
    for doc in docs:
        for call in (runner.run_check, runner.run_witness):
            try:
                report = call(doc)
            except PreconditionFailed:  # a right ideal without a nonzero generator
                continue
            assert_report_text(report)
            kinds.add((report["instance_kind"], report.get("decision")))
    assert {("right_ideal", False), ("right_ideal", True), ("module_submodule", False),
            ("module_submodule", True), ("field", False), ("field", True)} <= kinds
    suite = properties.run_suite(5, 1)
    assert_report_text(suite)
    assert set(suite["property_timing_ms"]) == {p["name"] for p in suite["properties"]}


REPORT_MUTATIONS = [
    lambda r: r.__setitem__("decision", None),
    lambda r: r.__delitem__("decision"),
    lambda r: operator.ior(r, {"decision": None}),
    lambda r: r.clear(),
    lambda r: r.pop("decision"),
    lambda r: r.popitem(),
    lambda r: r.setdefault("note", 1),
    lambda r: r.update(note=1),
]


def test_finished_reports_are_read_only():
    """No top-level edit can leave a report's text stale: each mutating
    method raises. dict(report) and copies are plain, editable dicts."""
    for report in (runner.run_check(gen_right_ideal((1, 2), 1)), properties.run_suite(5, 1)):
        before, text = dict(report), serialize.dumps(report)
        for mutate in REPORT_MUTATIONS:
            with pytest.raises(TypeError, match="read-only"):
                mutate(report)
        report.__init__({}, "")
        assert dict(report) == before and serialize.dumps(report) == text
        for plain in (dict(report), report.copy(), copy.copy(report), copy.deepcopy(report), report | {}):
            assert type(plain) is dict and plain == before
        edited = dict(report)
        edited["decision"] = None
        assert serialize.dumps(edited) == serialize.canonical_json(edited) + "\n" != text


def assert_input_errors(path, docs, capsys):
    """Each document (or raw text) is an input error for check and witness:
    exit 2 and one line, not a traceback escaping with the check-failed code."""
    for bad in docs:
        path.write_text(bad if isinstance(bad, str) else json.dumps(bad))
        for command in ("check", "witness"):
            capsys.readouterr()
            assert cli.main([command, "--in", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("input error: ") and err.count("\n") == 1, err


def edited(doc, path, value):
    """A copy of the instance with payload[path[0]][path[1]]... set to value."""
    out = json.loads(json.dumps(doc))
    target = out["payload"]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


def test_deeply_nested_input_exits_2(tmp_path, capsys):
    """1,000 nested `[` made json.load raise RecursionError: exit 1 and a
    traceback. Nesting that json.load reads but the digest cannot encode
    is refused too."""
    ideal = json.dumps(gen_right_ideal((2,), 1))
    assert_input_errors(tmp_path / "deep.json", [
        "[" * 1000 + "]" * 1000,
        ideal[:-1] + ', "note": ' + "[" * 1000 + "]" * 1000 + "}",
    ], capsys)
    doc = json.loads(ideal)
    for _ in range(5000):
        doc["note"] = [doc.get("note", [])]
    with pytest.raises(SchemaError, match="nested too deeply"):
        runner.run_check(doc)


def test_duplicate_keys_and_non_json_constants_exit_2(tmp_path, capsys):
    """A key given twice was read as its last value, so a document naming
    two kinds was decided as the second; NaN and Infinity, which are not
    JSON, were read in keys the loader ignores and hashed into the
    instance digest, and so was a number past float range such as 1e400,
    which reads as inf. All are refused at parse, at any depth."""
    ideal = json.dumps(gen_right_ideal((2,), 1))
    texts = ['{"kind": "field", ' + ideal[1:], ideal.replace('"payload": {', '"payload": {"k": 1, "k": 2, ', 1)]
    texts += [ideal[:-1] + f', "note": [{constant}]}}' for constant in ("NaN", "Infinity", "-Infinity")]
    texts += [ideal[:-1] + f', "note": [{number}]}}' for number in ("1e400", "-1e400")]
    assert_input_errors(tmp_path / "bad.json", texts, capsys)
    path = tmp_path / "bad.json"
    for text, message in ((texts[0], "duplicate key 'kind'"), (texts[2], "NaN is not JSON"),
                          (texts[5], "number '1e400' is past float range")):
        path.write_text(text)
        cli.main(["check", "--in", str(path)])
        assert capsys.readouterr().err == f"input error: invalid JSON input: {message}\n"


def test_number_that_underflows_to_zero_is_read(tmp_path, capsys):
    """1e-400 is a finite JSON number; it reads as 0.0 and is hashed as such."""
    doc = gen_right_ideal((2,), 1)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc)[:-1] + ', "note": [1e-400]}')
    assert cli.main(["check", "--in", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["instance_digest"] == serialize.digest({**doc, "note": [0.0]})


def test_malformed_field_payload_exits_2(tmp_path, capsys):
    """Wrong JSON types inside a field payload are input errors."""
    inst = gen_to_file(tmp_path, "f.json", ["--kind", "field", "--d", "1", "--defect", "none", "--seed", "3"])
    doc = json.loads(inst.read_text())
    assert_input_errors(inst, [
        edited(doc, ("partition", 0, "intervals"), [5]),
        edited(doc, ("subspace_bases",), 5),
    ], capsys)


def test_partition_interval_with_lo_above_hi_exits_2(tmp_path, capsys):
    """A partition interval (1, 9/16) reached the subset constructor outside
    the loader's error handling: a ValueError traceback with exit 1."""
    inst = gen_to_file(tmp_path, "f.json", ["--kind", "field", "--d", "2", "--pieces", "4",
                                            "--generators", "3", "--defect", "interval", "--seed", "1"])
    doc = json.loads(inst.read_text())
    assert_input_errors(inst, [
        edited(doc, ("partition", 0, "intervals", 0, "lo"), "1"),
        edited(doc, ("partition", 0, "intervals", 0, "hi"), "0/5"),
    ], capsys)


@pytest.mark.parametrize("path", [
    ("partition", 0, "intervals", 0, "lo_closed"),
    ("partition", 0, "intervals", 0, "hi_closed"),
    ("vanish_at_boundary",),
])
def test_string_boolean_in_field_input_exits_2(path, tmp_path, capsys):
    """Flags were read with bool(), so the string "false" counted as true
    and surfaced as an unrelated error ("partition pieces overlap",
    "generators must vanish at 0 and 1"): the error names the key now."""
    bad = edited(gen_field(2, 4, 3, "interval", 1), path, "false")
    assert_input_errors(tmp_path / "bad.json", [bad], capsys)
    with pytest.raises(SchemaError, match=f"^{path[-1]} must be a boolean, got str$"):
        serialize.field_spec_from_json(bad["payload"])


def every_d_true(doc):
    """The d = 1 field document with its d, every generator's d and its seed set to true."""
    out = edited(doc, ("d",), True)
    for g in out["payload"]["generators"]:
        g["d"] = True
    out["seed"] = True
    return out


@pytest.mark.parametrize("make, key", [
    pytest.param(lambda: every_d_true(gen_field(1, 4, 2, "none", 1)), "seed", id="field-all-true"),
    pytest.param(lambda: edited(gen_field(1, 4, 2, "none", 1), ("d",), True), "d", id="field-d1"),
    pytest.param(lambda: edited(gen_field(1, 4, 2, "none", 1), ("generators", 0, "d"), True), "section d",
                 id="section-d"),
    pytest.param(lambda: edited(gen_field(2, 4, 3, "interval", 1), ("d",), True), "d", id="field-d2"),
    pytest.param(lambda: edited(gen_right_ideal((1,), 1), ("support_projection", "shape", "block_dims"), [True]),
                 "block_dims entry", id="block-dims"),
    pytest.param(lambda: edited(gen_module_submodule((1,), 1, 1), ("k",), True), "k", id="submodule-k"),
    pytest.param(lambda: edited(gen_module_submodule((1,), 1, 1), ("generators", 0, "k"), True), "k",
                 id="element-k"),
])
def test_boolean_integer_exits_2(make, key, tmp_path, capsys):
    """JSON true is a Python int: a d = 1 field whose d, generator d's and
    seed were all true was decided (exit 0), so was a right ideal with
    block_dims [true], and a d = 2 field with d true failed on "expected
    True". The error names the key now."""
    bad = make()
    assert_input_errors(tmp_path / "bad.json", [bad], capsys)
    with pytest.raises(SchemaError, match=f"^{key} must be an integer, got bool$"):
        runner.run_check(bad)


def vanishing_field_doc(defect, vanish):
    """gen_field(2, 4, 3, defect, 1) flagged vanish_at_boundary; with
    `vanish` its generators are multiplied by x(1 − x), which moves no
    membership inside (0, 1), else they are left as they are."""
    doc = gen_field(2, 4, 3, defect, 1)
    spec = serialize.field_spec_from_json(doc["payload"])
    gens = tuple(g.mul_scalar_section(bump(0, 1)) if vanish else g for g in spec.generators)
    payload = serialize.field_spec_to_json(FieldModuleSpec(2, gens, spec.subfield))
    return {**doc, "payload": {**payload, "vanish_at_boundary": True}}


@pytest.mark.parametrize("defect", ["points", "interval"])
def test_vanishing_generators_are_decided(defect, tmp_path, capsys):
    """Every generator vanishes at 0 and 1, so the spanning certificate
    must read the base as (0, 1): on [0, 1] it failed at x = 0."""
    doc = vanishing_field_doc(defect, True)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert cli.main(["check", "--in", str(path), "--out", str(out)]) == 0, capsys.readouterr().err
    assert json.loads(out.read_text())["decision"] is doc["expected"]["essential"]
    assert cli.main(["witness", "--in", str(path), "--out", str(out)]) == 0, capsys.readouterr().err
    assert json.loads(out.read_text())["checks_ok"] is True


def test_flagged_generator_not_vanishing_exits_2(tmp_path, capsys):
    assert_input_errors(tmp_path / "bad.json", [vanishing_field_doc("interval", False)], capsys)


def flagged_two_piece_doc(first, second):
    """The full field C with one flagged generator: `first` (ascending real
    coefficients) on [0, 1/2], `second` on [1/2, 1]."""
    pieces = tuple(piece((GaussianPoly(RationalPoly(cs), RationalPoly.zero()),)) for cs in (first, second))
    g = PiecewiseSection(1, (F(0), F(1, 2), F(1)), pieces)
    payload = serialize.field_spec_to_json(FieldModuleSpec(1, (g,), full_field(1)))
    return serialize.instance_to_json("field", {**payload, "vanish_at_boundary": True}, 0)


def test_flagged_generator_vanishing_only_at_0_exits_2(tmp_path, capsys):
    """x(1 − x) on [0, 1/2], then 1/4: zero at 0, not at 1. Its first piece
    vanishes at both ends, so a check that read it at 1 would pass it."""
    assert_input_errors(tmp_path / "bad.json", [flagged_two_piece_doc((0, 1, -1), (F(1, 4),))], capsys)


def test_two_piece_generator_vanishing_at_both_ends_is_decided(tmp_path, capsys):
    """x on [0, 1/2], then 1 − x: zero at 0 and 1 only, so it spans C on (0, 1)."""
    path = tmp_path / "f.json"
    path.write_text(json.dumps(flagged_two_piece_doc((0, 1), (1, -1))))
    out = tmp_path / "r.json"
    assert cli.main(["check", "--in", str(path), "--out", str(out)]) == 0, capsys.readouterr().err
    assert json.loads(out.read_text())["decision"] is True
    assert cli.main(["witness", "--in", str(path), "--out", str(out)]) == 0, capsys.readouterr().err
    assert json.loads(out.read_text())["checks_ok"] is True


def test_float_reports_run_no_checking_constructor(monkeypatch):
    """The loader has checked every block and internal results are fresh
    arrays: with both checking constructors refusing, right-ideal and
    module documents of either decision still give their reports."""
    docs = [gen_right_ideal(blocks, seed) for blocks in ((2, 3), (3, 1, 2)) for seed in range(4)]
    docs += [gen_module_submodule(b, k, seed) for b, k in (((2,), 1), ((1, 2), 2), ((2, 1, 1), 3)) for seed in range(4)]
    for cls in (AlgebraElement, ModuleElement):
        monkeypatch.setattr(cls, "__post_init__", lambda self: pytest.fail("a checking constructor ran"))
    reports = [runner.run_check(doc) for doc in docs]
    assert {r["decision"] for r in reports} == {True, False} and all(r["checks_ok"] for r in reports)
    assert all(runner.run_witness(doc)["checks_ok"] for doc in docs)


def test_right_ideal_witness_refuses_a_zero_generator_once(tmp_path):
    """The runner refused x at norm 1e-12 and closed_subideal at
    DEFAULT_TOL, so a generator of norm 5e-11 escaped as ZeroInput. Now
    closed_subideal's own SVDs decide it, and the runner keeps the message."""
    from essmod.serialize import element_to_json, shape_to_json

    shape = AlgebraShape((2,))
    one = AlgebraElement.identity(shape)
    doc = serialize.instance_to_json("right_ideal", {
        "shape": shape_to_json(shape),
        "support_projection": element_to_json(one),
        "generators": [element_to_json(one * 5e-11)],
    }, None)
    with pytest.raises(PreconditionFailed, match="^no nonzero generator to build a subideal from$"):
        runner.run_witness(doc)


def test_malformed_float_payload_exits_2(tmp_path, capsys):
    """Wrong JSON types, ragged blocks and non-finite scalars inside
    right-ideal and module payloads are input errors."""
    ideal = gen_right_ideal((2,), 1)
    module = gen_module_submodule((2,), 2, 5)
    entry = ("blocks", 0, 0, 0)
    assert_input_errors(tmp_path / "bad.json", [
        edited(ideal, ("support_projection", "blocks"), 5),
        edited(ideal, ("support_projection", "blocks", 0, 1), [[0.0, 0.0]]),
        edited(ideal, ("generators",), 5),
        edited(ideal, ("generators", 0, *entry), [float("nan"), 0.0]),
        edited(module, ("generators", 0, "coords"), 5),
        edited(module, ("generators",), 5),
        edited(module, ("generators", 0, "coords", 0, *entry), [float("nan"), 0.0]),
        edited(module, ("generators", 0, "coords", 1, *entry), [0.0, float("inf")]),
    ], capsys)


@pytest.mark.parametrize("entry", [[True, False], ["1", "0"], [1.0, "0"], [10 ** 400, 0.0]],
                         ids=["bool", "str", "str-imag", "int-past-float"])
def test_float_scalar_must_be_a_json_number(entry, tmp_path, capsys):
    """float() read true and "1" as 1.0, so the right ideal with p = [[1]]
    written [true, false] was decided, and an integer past float range
    escaped as an OverflowError traceback. The error names the pair now."""
    bad = edited(gen_right_ideal((1,), 1), ("support_projection", "blocks", 0, 0, 0), entry)
    assert_input_errors(tmp_path / "bad.json", [bad], capsys)
    with pytest.raises(SchemaError, match=r"^expected \[re, im\] pair of numbers, got \["):
        runner.run_check(bad)


# p = [[1]] ⊕ [[0, 1.5e-8], [0, 0]]: a projection at the element's scale, 1 + ‖p‖ = 2
NEAR_PROJECTION = {
    "schema": "essmod/1",
    "kind": "right_ideal",
    "payload": {
        "shape": {"block_dims": [1, 2]},
        "support_projection": {
            "shape": {"block_dims": [1, 2]},
            "blocks": [[[[1.0, 0.0]]], [[[0.0, 0.0], [1.5e-8, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]],
        },
    },
}


def test_near_projection_is_checked_at_one_scale(tmp_path, capsys):
    """check tested the defective block's hermiticity again at the block's
    own scale, ‖p_b‖ ≈ 1.5e-8, and exited 2 as not hermitian on a support
    projection that RightIdeal and witness accept."""
    path = tmp_path / "near.json"
    path.write_text(json.dumps(NEAR_PROJECTION))
    for command in ("check", "witness"):
        assert cli.main([command, "--in", str(path)]) == 0, capsys.readouterr().err
    report = runner.run_check(NEAR_PROJECTION)
    assert report["decision"] is False and report["checks_ok"] is True
    assert report["certificate"]["block"] == 1 and report["certificate"]["intersection_dim"] == 0
    witness = runner.run_witness(NEAR_PROJECTION)
    assert witness["checks_ok"] is True
    # re-pinned when eps moved to the middle of the spectral gap: the dropped
    # σ² = 2.25e-16 puts it at 0.5000000000000001, not 0.5
    assert_float_digests(NEAR_PROJECTION, witness,
                         "ebe831be9ec96e07e832f6cb95a89060cd5aab039604042f9881255c2e72e293",
                         "bf4e8d8a06e4085525838ce740a8257757b186353dd09a92458e37bbc8019f42")


def diagonal_projection_doc(*diagonal):
    """A right ideal of M_n whose support projection is diag(diagonal)."""
    shape = AlgebraShape((len(diagonal),))
    p = AlgebraElement(shape, (np.diag(diagonal),))
    payload = {"shape": serialize.shape_to_json(shape), "support_projection": serialize.element_to_json(p)}
    return serialize.instance_to_json("right_ideal", payload, None)


def scaled_identity_doc(blocks, c):
    """A right ideal with identity support and the one generator c·I."""
    shape = AlgebraShape(blocks)
    one = AlgebraElement.identity(shape)
    payload = {"shape": serialize.shape_to_json(shape), "support_projection": serialize.element_to_json(one),
               "generators": [serialize.element_to_json(c * one)]}
    return serialize.instance_to_json("right_ideal", payload, None)


def cli_report(command, doc, tmp_path):
    """Exit code of `essmod command` on doc, and the report it wrote."""
    path, out = tmp_path / "doc.json", tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    code = cli.main([command, "--in", str(path), "--out", str(out)])
    return code, json.loads(out.read_text()) if out.exists() else None


def test_projection_just_below_the_identity_is_essential(tmp_path):
    """diag(0.999999995, 1) passes as a projection at ACCEPT_TOL, but the
    decider cut ‖p − 1‖ at DEFAULT_TOL·(1 + ‖p‖): it took the eigenvalue
    0.999999995 for a missing direction, and check exited 1 with
    intersection_dim 1."""
    code, report = cli_report("check", diagonal_projection_doc(0.999999995, 1.0), tmp_path)
    assert code == 0 and report["decision"] is True and report["checks_ok"] is True


def test_projection_with_a_tiny_eigenvalue_is_not_essential(tmp_path):
    """diag(1, 1.5e-8) passes as a projection. The eigenvector of 1.5e-8
    was intersected with range(p) at ACCEPT_TOL, which counts that
    eigenvalue in the range, so check exited 1 with intersection_dim 1."""
    code, report = cli_report("check", diagonal_projection_doc(1.0, 1.5e-8), tmp_path)
    assert code == 0 and report["decision"] is False and report["checks_ok"] is True
    assert report["certificate"]["intersection_dim"] == 0


@pytest.mark.parametrize("blocks", [(2,), (1, 3)])
@pytest.mark.parametrize("c", [1e-5, 1e-6, 1e-8, 2e-10])
def test_tiny_generator_gets_its_subideal(blocks, c, tmp_path):
    """xA = (cx)A, but the subideal threshold counted an eigenvalue of a =
    x·x* (c² here) as nonzero only above 1e-9·(1 + ‖a‖): witness exited 2
    with ZeroInput on generators that closed_subideal itself accepted."""
    code, report = cli_report("witness", scaled_identity_doc(blocks, c), tmp_path)
    assert code == 0 and report["checks_ok"] is True
    assert report["witness"]["rank"] == sum(blocks)


def test_right_ideal_shape_must_match_its_projection(tmp_path, capsys):
    """The payload's shape was never read: a 2×2 projection under the shape
    [5, 7] was decided with exit 0, and so was a payload with no shape."""
    doc = diagonal_projection_doc(1.0, 0.0)
    no_shape = copy.deepcopy(doc)
    del no_shape["payload"]["shape"]
    assert_input_errors(tmp_path / "bad.json", [edited(doc, ("shape", "block_dims"), [5, 7]), no_shape], capsys)


# gen_right_ideal / gen_module_submodule block dims from 1 up to the gen cap of 6
CAP_BLOCKS = [(1,), (6,), (2, 3), (6, 6, 6)]
EDGE_DOCUMENTS = [
    NEAR_PROJECTION,
    diagonal_projection_doc(0.999999995, 1.0),
    diagonal_projection_doc(1.0, 1.5e-8),
    *(scaled_identity_doc(blocks, c) for blocks in ((2,), (1, 3)) for c in (1e-5, 2e-10)),
]


def test_float_check_reports_pass_the_report_oracle():
    """The independent oracle of tests/report_oracle.py accepts every
    right-ideal and module check report over the gen caps (k from 1 to
    4), the float goldens and the edge documents, both decisions of each
    kind among them. The 79 reports take about 0.1 s on a 2-vCPU VM."""
    docs = [gen_right_ideal(blocks, seed) for blocks in CAP_BLOCKS for seed in range(4)]
    docs += [gen_module_submodule(blocks, k, seed) for blocks in CAP_BLOCKS for k in (1, 4) for seed in range(4)]
    docs += [gen_right_ideal(blocks, seed) for blocks, seed, *_ in GOLDEN_RIGHT_IDEAL_DIGESTS]
    docs += [gen_module_submodule(blocks, k, seed) for blocks, k, seed, *_ in GOLDEN_MODULE_DIGESTS]
    docs += EDGE_DOCUMENTS
    t0 = time.perf_counter()
    decisions = set()
    for doc in docs:
        report = json.loads(serialize.dumps(runner.run_check(doc)))
        report_oracle.verify(doc, report)
        decisions.add((doc["kind"], report["decision"]))
    assert time.perf_counter() - t0 < 1.0
    assert decisions == {(kind, d) for kind in ("right_ideal", "module_submodule") for d in (False, True)}


def test_right_ideal_witness_reports_pass_the_report_oracle():
    """The oracle recomputes each right-ideal witness from the document's x
    (a = x·x*, p a Hermitian idempotent of the reported rank, and the three
    reported errors) over the right-ideal documents whose check reports it
    verifies; a document whose x is zero has no witness."""
    docs = [gen_right_ideal(blocks, seed) for blocks in CAP_BLOCKS for seed in range(4)]
    docs += [gen_right_ideal(blocks, seed) for blocks, seed, *_ in GOLDEN_RIGHT_IDEAL_DIGESTS]
    docs += EDGE_DOCUMENTS
    witnessed = 0
    for doc in docs:
        try:
            report = json.loads(serialize.dumps(runner.run_witness(doc)))
        except PreconditionFailed:
            assert not any(b.any() for b in report_oracle.subideal_generator(doc["payload"]))
            continue
        report_oracle.verify(doc, report)
        witnessed += 1
    assert witnessed > len(docs) / 2


def test_module_witness_reports_pass_the_report_oracle():
    """The oracle re-derives each module witness report from the document:
    the decision by numpy ranks, a nonzero m, and `probe_found` from its own
    kernels K_b = ker((1 − P_b)X_b), over the module documents whose check
    reports it verifies, both decisions among them."""
    docs = [gen_module_submodule(blocks, k, seed) for blocks in CAP_BLOCKS for k in (1, 4) for seed in range(4)]
    docs += [gen_module_submodule(blocks, k, seed) for blocks, k, seed, *_ in GOLDEN_MODULE_DIGESTS]
    decisions = set()
    for doc in docs:
        report = json.loads(serialize.dumps(runner.run_witness(doc)))
        report_oracle.verify(doc, report)
        decisions.add(report["decision"])
    assert decisions == {False, True}


def zero_m(w):
    for c in w["m"]["coords"]:
        c["blocks"] = [(0 * np.array(b)).tolist() for b in c["blocks"]]


@pytest.mark.parametrize("mutate", [
    pytest.param(zero_m, id="m-zeroed"),
    pytest.param(lambda w: w.update(probe_found=not w["probe_found"]), id="probe-found-flipped"),
])
def test_report_oracle_refuses_a_wrong_module_witness(mutate):
    doc = gen_module_submodule((2, 3), 2, 4)
    report = json.loads(serialize.dumps(runner.run_witness(doc)))
    report_oracle.verify(doc, report)
    assert report["decision"] is False
    mutate(report["witness"])
    with pytest.raises(AssertionError):
        report_oracle.verify(doc, report)


def right_ideal_document(x: AlgebraElement) -> dict:
    """A right-ideal document over the whole algebra whose generator is x."""
    payload = {"shape": serialize.shape_to_json(x.shape), "generators": [serialize.element_to_json(x)],
               "support_projection": serialize.element_to_json(AlgebraElement.identity(x.shape))}
    return serialize.instance_to_json("right_ideal", payload, None)


def near_threshold_witness() -> tuple[dict, dict]:
    """The first of 12 seeded documents whose x = U·diag(1, √1.05e-8,
    √0.55e-8)·V (U, V random unitaries) keeps the eigenvalue 1.05e-8 of x·x*,
    just past the keep line 1e-8, and drops 0.55e-8: eps = 0.8e-8, p has
    rank 2 and the kept part of x has κ ≈ 0.98·10⁴, near the most the keep
    line allows, 10⁴. The oracle accepts every one of the 12 reports, and
    each has `checks_ok` true."""
    rng = np.random.default_rng(0)
    shape = AlgebraShape((3,))
    witnessed = []
    for _ in range(12):
        u, v = (np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0] for _ in range(2))
        doc = right_ideal_document(AlgebraElement(shape, (u @ np.diag(np.sqrt([1.0, 1.05e-8, 0.55e-8])) @ v,)))
        report = json.loads(serialize.dumps(runner.run_witness(doc)))
        report_oracle.verify(doc, report)
        assert report["checks_ok"] is True
        witnessed.append((doc, report))
    return witnessed[0]


# Draws of `ill_conditioned_generators` whose witness factored membership
# through x·x*·g(a) and came out unverified: errors 1.04e-8 to 1.55e-8.
UNVERIFIED_THROUGH_X_XSTAR = (636, 2080, 2401, 2763)


def ill_conditioned_generators():
    """x = c·U·diag(s)·V from numpy's default_rng(5): n from 2 to 4, U and V
    random unitaries, s = 10^−U(0, 7) and c = 10^U(−6, 3)."""
    rng = np.random.default_rng(5)
    while True:
        n = int(rng.integers(2, 5))
        u, v = (np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0] for _ in range(2))
        s = 10.0 ** -rng.uniform(0, 7, n)
        yield AlgebraElement(AlgebraShape((n,)), (10.0 ** rng.uniform(-6, 3) * u @ np.diag(s) @ v,))


def test_ill_conditioned_generators_give_verified_witnesses(tmp_path):
    """x*·g(a), with g(a) = 1/a on the kept spectrum, amplifies rounding by
    κ(x)², and these x of the first 3,000 draws had `checks_ok` false, so
    `essmod witness` exited 1 on a valid input. The factor V_r Σ_r⁻¹ U_r*
    amplifies it by κ(x) alone: each witness is verified, its report passes
    the oracle, and the CLI exits 0."""
    draws = list(itertools.islice(ill_conditioned_generators(), UNVERIFIED_THROUGH_X_XSTAR[-1] + 1))
    for i in UNVERIFIED_THROUGH_X_XSTAR:
        doc = right_ideal_document(draws[i])
        report = json.loads(serialize.dumps(runner.run_witness(doc)))
        assert report["checks_ok"] is True, (i, report["witness"]["max_membership_error"])
        report_oracle.verify(doc, report)
    code, err = run_console("witness", doc, tmp_path)
    assert code == 0, (code, err[:500])


def test_witness_clears_a_sigma_squared_just_below_the_keep_line(tmp_path):
    """x = diag(1, √2.002e-8, √0.9999e-8): a = x·x* keeps 2.002e-8, above the
    keep line 1e-8, and drops 0.9999e-8 just below it. eps at half the least
    kept σ², 1.001e-8, lay 1.1e-11 from the dropped one, inside the spectral
    cut, and `essmod witness` exited 2 on this valid generator. eps in the
    middle of the gap, 1.50095e-8, clears both: the witness has rank 2 and
    passes the report oracle, and the CLI exits 0."""
    doc = right_ideal_document(AlgebraElement(AlgebraShape((3,)), (np.diag(np.sqrt([1.0, 2.002e-8, 0.9999e-8])),)))
    report = json.loads(serialize.dumps(runner.run_witness(doc)))
    assert report["witness"]["eps"] == pytest.approx(1.50095e-8, rel=1e-9)
    assert report["witness"]["rank"] == 2 and report["checks_ok"] is True
    report_oracle.verify(doc, report)
    code, err = run_console("witness", doc, tmp_path)
    assert code == 0, (code, err[:500])


def keep_line_straddlers():
    """x = U·diag(1, √s₊, √s₋)·V from numpy's default_rng(7), U and V random
    unitaries: s₊ = 1e-8·(1 + u₊) above the keep line 1e-8 and
    s₋ = 1e-8·(1 − u₋) below it, u± = 10^−U(0.5, 3.5), so each lies within a
    factor of 2 of the line and their gap runs from 6e-12 to 6e-9, on both
    sides of two spectral cuts, 2e-10."""
    rng = np.random.default_rng(7)
    while True:
        u, v = (np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0] for _ in range(2))
        up, um = 10.0 ** -rng.uniform(0.5, 3.5, 2)
        s = np.sqrt([1.0, 1e-8 * (1 + up), 1e-8 * (1 - um)])
        yield AlgebraElement(AlgebraShape((3,)), (u @ np.diag(s) @ v,))


def test_keep_line_straddlers_are_refused_by_the_gap_rule_alone():
    """Of 150 straddlers, the witness refuses exactly those whose gap
    s₊ − s₋, read off numpy's SVD of x, is at most 2·DEFAULT_TOL·‖a‖ (‖a‖ =
    σ₁² = 1 here); every other gets a rank-2 witness that the report oracle
    accepts, with `checks_ok` true."""
    refused = 0
    for x in itertools.islice(keep_line_straddlers(), 150):
        s2 = np.linalg.svd(x.blocks[0], compute_uv=False) ** 2
        doc = right_ideal_document(x)
        if s2[1] - s2[2] <= 2 * report_oracle.DEFAULT_TOL * s2[0]:
            refused += 1
            with pytest.raises(EigenvalueAtThreshold):
                runner.run_witness(doc)
            continue
        report = json.loads(serialize.dumps(runner.run_witness(doc)))
        assert report["witness"]["rank"] == 2 and report["checks_ok"] is True, report["witness"]
        report_oracle.verify(doc, report)
    assert 0 < refused < 150


def generated_witness() -> tuple[dict, dict]:
    doc = gen_right_ideal((2, 3), 1)
    return doc, json.loads(serialize.dumps(runner.run_witness(doc)))


def scale_a(w):
    w["a"]["blocks"] = [(2 * np.array(block)).tolist() for block in w["a"]["blocks"]]


@pytest.mark.parametrize("witness, mutate", [
    pytest.param(generated_witness, lambda w: w.update(rank=w["rank"] + 1), id="rank-off-by-one"),
    pytest.param(generated_witness, scale_a, id="a-scaled"),
    pytest.param(near_threshold_witness, lambda w: w.update(max_membership_error=2 * report_oracle.ACCEPT_TOL),
                 id="membership-error-past-tolerance"),
])
def test_report_oracle_refuses_a_wrong_right_ideal_witness(witness, mutate):
    doc, report = witness()
    report_oracle.verify(doc, report)
    mutate(report["witness"])
    with pytest.raises(AssertionError):
        report_oracle.verify(doc, report)


FIELD_DEFECTS = ("none", "points", "interval")


def test_field_reports_pass_the_report_oracle():
    """The oracle's defect set, the rank-deficient partition regions merged
    by its own code, and its decision hold for the check and witness reports
    of the 9 golden field documents and of generated ones for d from 1 to 4
    and every defect kind, both decisions among them."""
    docs = [gen_field(d, 4, d + 1, defect, 10 * d) for d, defect, *_ in GOLDEN_FIELD_DIGESTS]
    docs += [gen_field(d, pieces, d + 2, defect, seed)
             for d in range(1, 5) for defect in FIELD_DEFECTS for pieces, seed in ((2, 1), (9, 2))]
    decisions = set()
    for doc in docs:
        for call in (runner.run_check, runner.run_witness):
            report = json.loads(serialize.dumps(call(doc)))
            report_oracle.verify(doc, report)
            decisions.add(report["decision"])
    assert decisions == {False, True}


# (pieces, generators) of the byte-identity grid: the pieces cycle reaches the
# gen cap 16, and generators d + i % (9 − d) run from d to the cap 8 for every d
GRID_PIECES = (2, 16, 5, 9, 12, 16, 3, 7, 14)
GRID_DIGEST = "3d0a923864497862515d592e09a171dbbd5891478f74e23a5ad2f52d793a5c44"


def test_field_grid_reports_are_byte_identical_and_pass_the_report_oracle():
    """108 generated field documents across the gen caps (d 1–4, pieces 2–16,
    generators d–8, every defect kind): the sha256 over their check and
    witness reports, `timing_ms` dropped, is pinned, and every report passes
    the independent oracle. About 1 s on a 2-vCPU VM."""
    docs = [gen_field(d, pieces, d + i % (9 - d), defect, 100 * d + 10 * i + k)
            for d in range(1, 5) for k, defect in enumerate(FIELD_DEFECTS) for i, pieces in enumerate(GRID_PIECES)]
    h = hashlib.sha256()
    for doc in docs:
        for call in (runner.run_check, runner.run_witness):
            report = json.loads(serialize.dumps(call(doc)))
            report_oracle.verify(doc, report)
            del report["timing_ms"]
            h.update(json.dumps(report, sort_keys=True).encode())
    assert h.hexdigest() == GRID_DIGEST


def wrong_vector(report):
    """e1, which lies in range(p), in place of the certificate's vector."""
    cert = report["certificate"]
    cert["vector"] = [[1.0, 0.0]] + [[0.0, 0.0]] * (len(cert["vector"]) - 1)


@pytest.mark.parametrize("doc, mutate", [
    pytest.param(diagonal_projection_doc(1.0, 1.0), lambda r: r.update(decision=False), id="decision"),
    pytest.param(diagonal_projection_doc(1.0, 1.0), lambda r: r["certificate"].update(identity_error=1e-9),
                 id="identity-error"),
    pytest.param(diagonal_projection_doc(1.0, 0.0), lambda r: r["certificate"].update(intersection_dim=1),
                 id="intersection-dim"),
    pytest.param(diagonal_projection_doc(1.0, 0.0), wrong_vector, id="vector"),
    pytest.param(diagonal_projection_doc(1.0, 0.0), lambda r: r["certificate"]["vector"][1].__setitem__(0, 0.5),
                 id="vector-length"),
    pytest.param(gen_module_submodule((2,), 1, 1), lambda r: r.update(decision=not r["decision"]),
                 id="module-decision"),
    pytest.param(gen_field(2, 4, 3, "points", 20), lambda r: r["defect_set"]["points"].pop(1),
                 id="field-defect-point"),
    pytest.param(gen_field(2, 4, 3, "interval", 20), lambda r: r.update(decision=not r["decision"]),
                 id="field-decision"),
    pytest.param(gen_field(2, 4, 3, "points", 20), lambda r: r.update(decision=not r["decision"]),
                 id="field-decision-essential"),
])
def test_report_oracle_refuses_a_wrong_claim(doc, mutate):
    report = json.loads(serialize.dumps(runner.run_check(doc)))
    report_oracle.verify(doc, report)
    mutate(report)
    with pytest.raises(AssertionError):
        report_oracle.verify(doc, report)


def bump_cell(w) -> int:
    """The index of the piece of the witness's `a` that starts at its support."""
    return w["a"]["breakpoints"].index(w["support"][0])


def shift_ma_coefficient(w):
    p = w["ma"]["pieces"][w["ma"]["breakpoints"].index(w["support"][0])][0]
    p[0] = [str(F(p[0][0]) + 1), p[0][1]]


def move_a_off_support(w):
    pieces, i = w["a"]["pieces"], bump_cell(w)
    pieces[i], pieces[i - 1] = pieces[i - 1], pieces[i]


def zero_ma(w):
    w["ma"]["pieces"] = [[[] for _ in row] for row in w["ma"]["pieces"]]


def shift_support(w):
    lo, hi = (F(x) for x in w["support"])
    w["support"] = [str(lo + (hi - lo) / 8), str(hi + (hi - lo) / 8)]


ESSENTIAL_DOC = gen_field(2, 4, 3, "points", 20)


@pytest.mark.parametrize("mutate", [shift_ma_coefficient, move_a_off_support, zero_ma, shift_support])
def test_report_oracle_refuses_a_wrong_essential_witness(mutate):
    """Each claim of an essential field witness is checked from the JSON:
    a is the bump on `support`, ma = g·a exactly, ma ≠ 0 and ma(x) ∈ L_x."""
    report = json.loads(serialize.dumps(runner.run_witness(ESSENTIAL_DOC)))
    assert report["decision"] is True and bump_cell(report["witness"]) > 0
    report_oracle.verify(ESSENTIAL_DOC, report)
    mutate(report["witness"])
    with pytest.raises(AssertionError):
        report_oracle.verify(ESSENTIAL_DOC, report)


def test_report_oracle_reads_the_witness_generator_index():
    """A witness built on generator 1 passes with index 1, not with index 0."""
    report = json.loads(serialize.dumps(runner.run_witness(ESSENTIAL_DOC, section_index=1)))
    report_oracle.verify(ESSENTIAL_DOC, report, 1)
    with pytest.raises(AssertionError):
        report_oracle.verify(ESSENTIAL_DOC, report)


INTERVAL_DOCS = corpus_fields(1, "interval")


def test_field_corpus_interval_witnesses_pass_the_report_oracle():
    """The 72 non-essential witness reports of the seed-1 `field_corpus`
    interval documents pass the oracle, which rebuilds each inductive m
    from its samples, picks and λs: about 1 s on a 2-vCPU VM."""
    t0 = time.perf_counter()
    for doc in INTERVAL_DOCS:
        report = json.loads(serialize.dumps(runner.run_witness(doc)))
        assert report["decision"] is False
        report_oracle.verify(doc, report)
    assert len(INTERVAL_DOCS) == 72
    assert time.perf_counter() - t0 < 30.0


def shift_inductive_coefficient(w):
    m, lo = w["inductive"]["m"], F(w["samples"][0])
    row = m["pieces"][max(i for i, b in enumerate(m["breakpoints"][:-1]) if F(b) <= lo)]
    p = next(p for p in row if p)
    p[0] = [str(F(p[0][0]) + 1), p[0][1]]


def other_pick(w):
    picks = w["inductive"]["picks"]
    picks[0] = 1 if picks[0] == 0 else 0


@pytest.mark.parametrize("mutate", [
    shift_inductive_coefficient,
    other_pick,
    lambda w: w["inductive"]["lambdas"].__setitem__(0, "1/8"),
    lambda w: w["samples"].__setitem__(0, str((F(w["samples"][0]) + F(w["samples"][1])) / 2)),
    lambda w: w["inductive"].update(sample_defects_verified=False),
], ids=["m-coefficient", "pick", "lambda-range", "sample", "sample-defects-verified"])
def test_report_oracle_refuses_a_wrong_inductive_witness(mutate):
    doc = INTERVAL_DOCS[0]
    report = json.loads(serialize.dumps(runner.run_witness(doc)))
    report_oracle.verify(doc, report)
    mutate(report["witness"])
    with pytest.raises(AssertionError):
        report_oracle.verify(doc, report)


@pytest.mark.parametrize("mutate", [
    lambda w: w.update(all_verified=False),
    lambda w: w["direct"].update(probes_ok=False),
], ids=["all-verified", "direct-probes-ok"])
def test_report_oracle_reads_the_non_essential_verdict(mutate):
    """`all_verified` is the inductive witness's flag AND the direct
    block's three, and `checks_ok` is `all_verified`: flipping either side
    of that rule alone is refused."""
    doc = INTERVAL_DOCS[0]
    report = json.loads(serialize.dumps(runner.run_witness(doc)))
    report_oracle.verify(doc, report)
    mutate(report["witness"])
    with pytest.raises(AssertionError):
        report_oracle.verify(doc, report)


def test_a_failing_direct_probe_fails_the_witness(tmp_path, monkeypatch):
    """`fields.non_essential_witnesses` owns the verdict the report reads:
    one failing probe of the direct witness, the inductive one verified,
    makes `witness` report `checks_ok` false and exit 1."""
    fail_a_direct_probe(monkeypatch)
    doc, out = tmp_path / "doc.json", tmp_path / "w.json"
    doc.write_text(serialize.dumps(INTERVAL_DOCS[0]))
    assert cli.main(["witness", "--in", str(doc), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    w = report["witness"]
    assert w["inductive"]["sample_defects_verified"] is True and w["direct"]["probes_ok"] is False
    assert w["all_verified"] is report["checks_ok"] is False


def test_a_found_probe_fails_the_module_reports(tmp_path, monkeypatch):
    """`SubmoduleCertificate.verified` owns the module verdict: a witness m
    whose reformulation probe finds a right multiple inside N makes `check`
    and `witness` report `checks_ok` false and exit 1."""
    monkeypatch.setattr(modules, "reformulation_probe", lambda m, n: m)
    shape = AlgebraShape((2,))
    e11 = modules.ModuleElement.from_coords([AlgebraElement(shape, (np.diag([1.0, 0.0]).astype(complex),))])
    payload = {"shape": serialize.shape_to_json(shape), "k": 1, "generators": [serialize.module_element_to_json(e11)]}
    doc, out = tmp_path / "doc.json", tmp_path / "report.json"
    doc.write_text(serialize.dumps(serialize.instance_to_json("module_submodule", payload, None)))
    for command, key in (("check", "certificate"), ("witness", "witness")):
        assert cli.main([command, "--in", str(doc), "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["decision"] is report["checks_ok"] is False
        assert report[key]["witness_probe_found" if command == "check" else "probe_found"] is True


def inductive_block(spec, interval, xs) -> dict:
    """The witness block that run_witness writes for an inductive witness on these samples."""
    w = fields.inductive_witness_section(spec, interval, xs, fields.analyze_field(spec).total)
    return {"kind": "non_essential", "interval": [str(x) for x in interval], "samples": [str(x) for x in xs],
            "inductive": {"m": serialize.section_to_json(w.m), "lambdas": [str(lam) for lam in w.lambdas],
                          "picks": list(w.picks), "sample_defects_verified": w.sample_defects_verified}}


def move_lambda(spec, block, j: int, lam: F):
    """λ_j set to lam, and m moved by (lam − λ_j)·g_{k_j}·a_j to match it."""
    ind, xs = block["inductive"], [F(x) for x in block["samples"]]
    x = xs[j - 1]
    r = min([x, 1 - x] + [abs(x - y) for y in xs[:j - 1]]) / 2
    step = spec.generators[ind["picks"][j - 1]].mul_scalar_section(unit_bump(x, r)).scale(lam - F(ind["lambdas"][j - 1]))
    ind["m"] = serialize.section_to_json(serialize.section_from_json(ind["m"]) + step)
    ind["lambdas"][j - 1] = str(lam)


def test_report_oracle_checks_the_lambda_fallback():
    """The adversarial samples force the fallback λ3 = 1/16, which the
    oracle accepts. It refuses λ3 = 1/8 with m unchanged, and with m moved
    to match, since m then lies in L at x3; and it refuses a fallback that
    2^-j did not need (λ1 = 1/4 on a corpus witness, m moved to match)."""
    spec = adversarial_lambda_spec()
    payload = serialize.field_spec_to_json(spec)
    defect = report_oracle._field_defect(payload)
    block = inductive_block(spec, (F(1, 16), F(3, 4)), ADVERSARIAL_SAMPLES)
    assert block["inductive"]["lambdas"] == ["1/2", "1/4", "1/16"]
    report_oracle._verify_inductive_witness(payload, block, defect)
    unchanged = copy.deepcopy(block)
    unchanged["inductive"]["lambdas"][2] = "1/8"
    with pytest.raises(AssertionError, match="differs"):
        report_oracle._verify_inductive_witness(payload, unchanged, defect)
    move_lambda(spec, block, 3, F(1, 8))
    with pytest.raises(AssertionError, match="stays in L"):
        report_oracle._verify_inductive_witness(payload, block, defect)

    doc = INTERVAL_DOCS[0]
    w = json.loads(serialize.dumps(runner.run_witness(doc)))["witness"]
    assert w["inductive"]["lambdas"][0] == "1/2"
    move_lambda(serialize.field_spec_from_json(doc["payload"]), w, 1, F(1, 4))
    with pytest.raises(AssertionError, match="needless"):
        report_oracle._verify_inductive_witness(doc["payload"], w, report_oracle._field_defect(doc["payload"]))


def run_console(command, doc, tmp_path):
    """Exit code and stderr of `python -m essmod.cli command` on doc in a
    child process, so lines that LAPACK writes straight to fd 2 are seen."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "essmod.cli", command, "--in", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, proc.stderr


def test_overflowing_generator_exits_2(tmp_path):
    """Generator entries 1e308 + 1e308i overflow x·x* to inf in the witness:
    LAPACK printed DLASCL lines and an uncaught LinAlgError ended it."""
    doc = gen_right_ideal((2, 3), 1)
    for g in doc["payload"]["generators"]:
        g["blocks"] = [[[[1e308, 1e308]] * len(row) for row in blk] for blk in g["blocks"]]
    code, err = run_console("witness", doc, tmp_path)
    assert code == 2 and err.count("\n") == 1 and "NonFinite" in err, (code, err[:500])


def test_overflowing_projection_diagonal_exits_2(tmp_path):
    """A diagonal entry -1e308 makes p·p overflow, and the NaN block norm was
    dropped by max(): the document passed as a projection and check exited
    0 or 1 instead of refusing a malformed input."""
    doc = gen_right_ideal((2, 3), 1)
    for i in range(3):
        bad = edited(doc, ("support_projection", "blocks", 1, i, i), [-1e308, 0.0])
        code, err = run_console("check", bad, tmp_path)
        assert code == 2 and err.startswith("input error: ") and err.count("\n") == 1, (i, code, err[:500])


def test_huge_constant_term_finishes_fast(tmp_path, capsys):
    """A field generator (2^61 − 1) + x + x²: root certification must not
    depend on the size of the constant term (divisor enumeration would
    trial-divide up to √(2^61 − 1))."""
    inst = gen_to_file(tmp_path, "f.json", ["--kind", "field", "--d", "1", "--defect", "interval", "--seed", "2"])
    coeffs = [[f"{2 ** 61 - 1}/1", "0/1"], ["1/1", "0/1"], ["1/1", "0/1"]]
    doc = edited(json.loads(inst.read_text()), ("generators",),
                 [{"breakpoints": ["0/1", "1/1"], "d": 1, "pieces": [[coeffs]]}])
    inst.write_text(json.dumps(doc))
    for command in ("check", "witness"):
        capsys.readouterr()
        t0 = time.perf_counter()
        code = cli.main([command, "--in", str(inst)])
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert code == 0 or (code == 2 and err.startswith("input error: ") and err.count("\n") == 1), (code, err)


def test_exponent_coefficient_exits_2(tmp_path, capsys):
    """"1e20000" parsed, and witness then failed to print the 20001-digit
    integer: a ValueError traceback with exit 1, while check exited 0."""
    inst = gen_to_file(tmp_path, "f.json", ["--kind", "field", "--d", "1", "--defect", "interval", "--seed", "2"])
    coeffs = [["1e20000", "0/1"], ["1/1", "0/1"]]
    doc = edited(json.loads(inst.read_text()), ("generators",),
                 [{"breakpoints": ["0/1", "1/1"], "d": 1, "pieces": [[coeffs]]}])
    assert_input_errors(inst, [doc], capsys)


def test_report_integer_past_print_limit_exits_2(tmp_path, capsys):
    """Inputs within the digit cap can still build a report integer past
    Python's 4300-digit printing limit: here the defect interval [a, b]
    and the three generator coefficients have unrelated 1000-digit
    denominators, and they meet in the witness sections. That was a
    ValueError traceback with exit 1."""
    q = 10 ** 1000 - 3
    a, b = f"{q // 3}/{q}", f"{2 * q // 3}/{q}"
    line = [[["1/1", "0/1"]]]

    def piece(lo, hi, lo_closed, hi_closed):
        return {"points": [], "intervals": [{"lo": lo, "hi": hi, "lo_closed": lo_closed, "hi_closed": hi_closed}]}

    coeffs = [[f"{i + 1}/{10 ** 999 + 7 + 2 * i}", "0/1"] for i in range(3)]
    doc = {"schema": "essmod/1", "kind": "field", "payload": {
        "d": 1,
        "partition": [piece("0/1", a, True, False), piece(a, b, True, True), piece(b, "1/1", False, True)],
        "subspace_bases": [line, [], line],
        "generators": [{"d": 1, "breakpoints": ["0/1", "1/1"], "pieces": [[coeffs]]}],
    }}
    inst = tmp_path / "f.json"
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["check", "--in", str(inst)]) == 0
    capsys.readouterr()
    assert cli.main(["witness", "--in", str(inst)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1 and len(err) < 300, err[:300]


def test_long_values_give_one_short_error_line(tmp_path, capsys):
    """A 5001-digit numerator gave a 5,174-character error line, a long
    string in a float block entry was echoed whole, and a 5001-digit JSON
    number escaped as a ValueError traceback."""
    inst = gen_to_file(tmp_path, "f.json", ["--kind", "field", "--d", "1", "--defect", "none", "--seed", "3"])
    doc = json.loads(inst.read_text())
    long_numerator = edited(doc, ("partition", 0, "intervals", 0, "hi"), "1" * 5001 + "/1")
    long_entry = edited(gen_right_ideal((2,), 1), ("support_projection", "blocks", 0, 0, 0), ["x" * 5000, 0.0])
    path = tmp_path / "bad.json"
    for text in (json.dumps(long_numerator), json.dumps(long_entry),
                 json.dumps(doc)[:-1] + ', "extra": ' + "1" * 5001 + "}"):
        path.write_text(text)
        for command in ("check", "witness"):
            capsys.readouterr()
            assert cli.main([command, "--in", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("input error: ") and err.count("\n") == 1 and len(err) < 300, err[:300]


def test_witness_samples_cap_exits_2(tmp_path, capsys):
    inst = gen_to_file(tmp_path, "f.json", ["--kind", "field", "--d", "2", "--defect", "interval", "--seed", "5"])
    for samples in (str(runner.MAX_SAMPLES + 1), str(1 << 24), "-1", "0"):
        capsys.readouterr()
        assert cli.main(["witness", "--in", str(inst), "--samples", samples]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1, err
    out = tmp_path / "w.json"
    assert cli.main(["witness", "--in", str(inst), "--samples", str(runner.MAX_SAMPLES), "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["witness"]["samples"]) == runner.MAX_SAMPLES


def check_full_field(tmp_path, capsys, d, generators):
    """Exit code, stderr and seconds of `essmod check` on the full field C^d
    with the given generators."""
    spec = FieldModuleSpec(d, tuple(generators), full_field(d))
    path = tmp_path / "f.json"
    path.write_text(serialize.dumps(serialize.instance_to_json("field", serialize.field_spec_to_json(spec), 0)))
    capsys.readouterr()
    t0 = time.perf_counter()
    code = cli.main(["check", "--in", str(path)])
    return code, capsys.readouterr().err, time.perf_counter() - t0


def test_irrational_rank_drop_is_not_spanning(tmp_path, capsys):
    """g = x² − 1/2 spans C except at 1/√2, which no rational probe point
    can hit; off the (empty) defect set that is a spanning failure."""
    g = scalar(GaussianPoly(RationalPoly((-F(1, 2), 0, 1)), RationalPoly.zero()))
    code, err, _ = check_full_field(tmp_path, capsys, 1, [g])
    assert code == 2 and err.startswith("error: GeneratorsNotSpanning: ") and err.count("\n") == 1, (code, err)
    assert "in [0, 1]" in err, err


def test_rational_rank_drop_is_named_by_its_point(tmp_path, capsys):
    """The series' illegal twin drops rank at 1/2, off its (empty) defect
    set: the refusal names that point, not the interval it lies in."""
    path = tmp_path / "illegal.json"
    path.write_text(serialize.dumps(row_doc(4, 64, "illegal")))
    capsys.readouterr()
    code = cli.main(["check", "--in", str(path)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: GeneratorsNotSpanning: ") and err.count("\n") == 1, (code, err)
    assert "at x = 1/2" in err, err


def test_rank_one_generators_fail_fast(tmp_path, capsys):
    """Eight polynomial multiples of one vector in C^4: all 70 4×4 minors
    vanish, and the certificate must see it without expanding each one."""
    v = [GaussianPoly.const(1), GaussianPoly.const(0, 1), GaussianPoly.const(2, -1), GaussianPoly.const(F(1, 3))]
    gens = []
    for k in range(8):
        p = GaussianPoly.from_coeffs([(k + 1, 0), (-1, k), (F(1, k + 2), 0)])
        gens.append(PiecewiseSection(4, (F(0), F(1, 2), F(1)), (piece(tuple(p * c for c in v)),) * 2))
    code, err, seconds = check_full_field(tmp_path, capsys, 4, gens)
    assert code == 2 and "GeneratorsNotSpanning" in err and err.count("\n") == 1, (code, err)
    assert seconds < 1.0
