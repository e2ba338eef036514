"""Command-line front door: schema, handlers, exit codes, and rendering."""

import io
import json
import math

import pytest

from covbody import cli

TRIANGLE_BODY = {"name": "simplex", "dim": 2}
SQUARE_BODY = {"name": "cube", "dim": 2}

CANONICAL_OPERATIONS = {
    "cli.run",
    "covariogram.covariogram",
    "covariogram.covariogram_slice",
    "covariogram.diffbody_radial",
    "covariogram.roof",
    "genvol.chord_lower_check",
    "genvol.chord_upper_check",
    "genvol.dual_volume",
    "measure.boundary_measure_total",
    "measure.integrate_over_polytope",
    "measure.transform_measure",
    "measure.weighted_surface_measure",
    "oracle.mc_measure",
    "oracle.sphere_quadrature",
    "polytope-core.apply_linear",
    "polytope-core.intersect_translates",
    "polytope-core.radial",
    "polytope-core.star_volume",
    "polytope-core.support",
    "polytope-core.volume",
    "projection.linear_covariance_check",
    "projection.polar_projection_radial",
    "projection.projection_support",
    "projection.variational_check",
    "radialmean.rmb_limit_neg1",
    "radialmean.rmb_radial_direct",
    "radialmean.rmb_radial_mellin",
    "radialmean.rmb_radial_p0",
    "verify.berwald_const_F",
    "verify.berwald_const_Q",
    "verify.chain_check",
    "verify.gen_binom",
    "verify.general_zhang_check",
    "verify.rogers_shephard_check",
    "verify.zhang_check",
}


def run_job(tmp_path, job, name="out.json"):
    out = tmp_path / name
    job = {**job, "outfile": str(out)}
    code = cli.run(job)
    text = out.read_text() if out.exists() else ""
    return code, text


def run_json(tmp_path, job, name="out.json"):
    code, text = run_job(tmp_path, job, name)
    return code, json.loads(text)


class TestCoverage:
    def test_every_command_has_a_handler(self):
        assert set(cli._HANDLERS) == set(cli.COMMANDS)
        assert set(cli.COMMAND_OPERATIONS) == set(cli.COMMANDS)

    def test_operation_registry_is_canonical(self):
        assert set(cli.ALL_OPERATIONS) == CANONICAL_OPERATIONS

    def test_every_command_reaches_operations(self):
        for command, ops in cli.COMMAND_OPERATIONS.items():
            assert ops, command
            assert set(ops) <= cli.ALL_OPERATIONS


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path):
        code, doc = run_json(tmp_path, {
            "command": "verify-rs", "body": TRIANGLE_BODY})
        assert code == 0
        assert doc["report"]["pass"] is True
        assert doc["report"]["lhs"] == pytest.approx(6.0, abs=1e-9)

    def test_failed_check_is_one(self, tmp_path):
        code, doc = run_json(tmp_path, {
            "command": "verify-variational", "body": SQUARE_BODY,
            "measure": {"type": "gaussian", "sigma": 1.0},
            "params": {"directions": 4}, "tolerance": 1e-12})
        assert code == 1
        assert doc["report"]["pass"] is False

    def test_schema_rejection_is_two(self, tmp_path, capsys):
        # the README documents that a "threads" field is rejected too
        for field in ("bogus", "threads"):
            code, _ = run_job(tmp_path, {
                "command": "verify-rs", "body": TRIANGLE_BODY, field: 1})
            assert code == 2
            assert field in capsys.readouterr().err

    def test_unknown_command_is_two(self, tmp_path):
        code, _ = run_job(tmp_path, {"command": "shrink"})
        assert code == 2

    def test_missing_body_is_two(self, tmp_path, capsys):
        code, _ = run_job(tmp_path, {"command": "verify-rs"})
        assert code == 2
        assert "needs a body" in capsys.readouterr().err

    def test_unknown_param_is_two(self, tmp_path, capsys):
        code, _ = run_job(tmp_path, {
            "command": "covariogram", "body": SQUARE_BODY,
            "params": {"x": [0.5, 0.0], "turbo": True}})
        assert code == 2
        assert "turbo" in capsys.readouterr().err

    def test_inconsistent_concavity_tag_is_two(self, tmp_path, capsys):
        code, _ = run_job(tmp_path, {
            "command": "verify-chain", "body": SQUARE_BODY,
            "measure": {"type": "gaussian", "sigma": 1.0},
            "params": {"s": 0.5, "directions": 4}})
        assert code == 2
        err = capsys.readouterr().err
        assert "declared concavity s(0.5)" in err

    def test_numeric_failure_is_three(self, tmp_path, capsys):
        code, _ = run_job(tmp_path, {
            "command": "dualvol",
            "params": {"dim": 2, "kernel": {"type": "power",
                                            "exponent": -0.999}}})
        assert code == 3
        assert "numeric error" in capsys.readouterr().err

    def test_bad_schema_version_is_two(self, tmp_path):
        code, _ = run_job(tmp_path, {
            "command": "verify-rs", "body": TRIANGLE_BODY,
            "schema_version": 2})
        assert code == 2


class TestCommands:
    def test_covariogram_with_oracle(self, tmp_path):
        code, doc = run_json(tmp_path, {
            "command": "covariogram", "body": SQUARE_BODY,
            "params": {"x": [0.5, 0.0], "oracle": True,
                       "oracle_samples": 50_000}})
        assert code == 0
        res = doc["result"]
        assert res["value"] == pytest.approx(0.5, abs=1e-12)
        assert res["intersection_volume"] == pytest.approx(0.5, abs=1e-12)
        assert abs(res["oracle_estimate"] - 0.5) <= 4 * res["oracle_stderr"]

    def test_oracle_samples_alone_enables_oracle(self, tmp_path):
        code, doc = run_json(tmp_path, {
            "command": "covariogram", "body": SQUARE_BODY,
            "params": {"x": [0.5, 0.0], "oracle_samples": 10_000}})
        assert code == 0
        assert "oracle_estimate" in doc["result"]

    def test_covariogram_slice(self, tmp_path):
        code, doc = run_json(tmp_path, {
            "command": "covariogram", "body": SQUARE_BODY,
            "params": {"direction": [1.0, 0.0], "grid": 8}})
        assert code == 0
        sl = doc["result"]["slice"]
        assert sl["rho_D"] == pytest.approx(1.0, abs=1e-9)
        for r, v in zip(sl["nodes"], sl["values"]):
            assert v == pytest.approx(1.0 - r, abs=1e-9)

    def test_diffbody_routes_agree(self, tmp_path):
        code, doc = run_json(tmp_path, {
            "command": "diffbody", "body": TRIANGLE_BODY,
            "params": {"direction": [1.0, 0.0], "x": [0.5, 0.0]}})
        assert code == 0
        res = doc["result"]
        assert res["volume"] == pytest.approx(3.0, abs=1e-9)
        assert res["volume_ratio"] == pytest.approx(6.0, abs=1e-9)
        assert res["radial_lp"] == pytest.approx(res["radial_hull"], abs=1e-9)
        assert res["roof"] == pytest.approx(0.5, abs=1e-9)

    def test_projbody(self, tmp_path):
        code, doc = run_json(tmp_path, {
            "command": "projbody", "body": SQUARE_BODY,
            "params": {"direction": [1.0, 0.0], "volume": True}})
        assert code == 0
        res = doc["result"]
        assert res["surface_mass_total"] == pytest.approx(4.0, abs=1e-9)
        assert res["support"] == pytest.approx(1.0, abs=1e-12)
        assert res["polar_radial"] == pytest.approx(1.0, abs=1e-12)
        assert res["polar_volume"] == pytest.approx(2.0, abs=1e-9)

    def test_rmb_infinite_p(self, tmp_path):
        code, doc = run_json(tmp_path, {
            "command": "rmb", "body": SQUARE_BODY,
            "params": {"p": "inf", "direction": [1.0, 0.0]}})
        assert code == 0
        assert doc["result"]["value"] == pytest.approx(1.0, abs=1e-9)

    def test_rmb_limit_report(self, tmp_path):
        code, doc = run_json(tmp_path, {
            "command": "rmb", "body": SQUARE_BODY,
            "params": {"p": -1, "direction": [1.0, 0.0]}})
        assert code == 0
        rep = doc["report"]
        assert rep["name"] == "rmb-limit-neg1"
        assert rep["rhs"] == pytest.approx(1.0, abs=1e-12)

    def test_rmb_bad_p_string(self, tmp_path):
        code, _ = run_job(tmp_path, {
            "command": "rmb", "body": SQUARE_BODY,
            "params": {"p": "huge", "direction": [1.0, 0.0]}})
        assert code == 2

    def test_verify_chain(self, tmp_path):
        code, doc = run_json(tmp_path, {
            "command": "verify-chain", "body": TRIANGLE_BODY,
            "params": {"s": 0.5, "directions": 8}})
        assert code == 0
        assert doc["report"]["name"] == "chain-s"

    def test_verify_zhang_general_dispatch(self, tmp_path):
        code, doc = run_json(tmp_path, {
            "command": "verify-zhang", "body": TRIANGLE_BODY,
            "params": {"F": {"type": "power", "s": 0.5}, "count": 500}})
        assert code == 0
        assert doc["report"]["name"] == "general-zhang"

    def test_verify_linear(self, tmp_path):
        code, doc = run_json(tmp_path, {
            "command": "verify-linear", "body": SQUARE_BODY,
            "params": {"trials": 3, "directions": 10}})
        assert code == 0
        assert doc["report"]["name"] == "linear-covariance"
        assert "3 random maps" in doc["report"]["notes"]

    def test_verify_chord_fixture(self, tmp_path):
        code, doc = run_json(tmp_path, {
            "command": "verify-chord",
            "params": {"fixture": "parabola", "bound": "lower",
                       "count": 64}})
        assert code == 0
        assert doc["report"]["ratio"] == pytest.approx(1.5, rel=1e-6)

    def test_verify_chord_covariogram_fixture(self, tmp_path):
        code, doc = run_json(tmp_path, {
            "command": "verify-chord", "body": TRIANGLE_BODY,
            "params": {"fixture": "covariogram", "count": 16}})
        assert code == 0
        assert doc["report"]["name"] == "chord-upper"
        assert doc["report"]["ratio"] == pytest.approx(1.0, abs=1e-6)

    def test_dualvol_matches_star_volume(self, tmp_path):
        code, doc = run_json(tmp_path, {
            "command": "dualvol", "params": {"dim": 2}})
        assert code == 0
        res = doc["result"]
        assert res["value"] == pytest.approx(math.pi, rel=1e-9)
        assert res["value"] == pytest.approx(res["star_volume"], rel=1e-12)


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        job = {"command": "covariogram", "body": SQUARE_BODY,
               "params": {"x": [0.3, 0.1], "oracle": True,
                          "oracle_samples": 50_000}}
        _, a = run_job(tmp_path, job, "a.json")
        _, b = run_job(tmp_path, job, "b.json")
        assert a == b

    def test_seed_changes_oracle_draw(self, tmp_path):
        job = {"command": "covariogram", "body": SQUARE_BODY,
               "params": {"x": [0.3, 0.1], "oracle": True,
                          "oracle_samples": 50_000}}
        _, a = run_json(tmp_path, job, "a.json")
        _, b = run_json(tmp_path, {**job, "seed": 7}, "b.json")
        assert a["result"]["value"] == b["result"]["value"]
        assert a["result"]["oracle_estimate"] != b["result"]["oracle_estimate"]


class TestRendering:
    def test_result_csv(self, tmp_path):
        code, text = run_job(tmp_path, {
            "command": "covariogram", "body": SQUARE_BODY,
            "params": {"x": [0.5, 0.0]}, "output": "csv"}, "out.csv")
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "key,value"
        table = dict(line.split(",", 1) for line in lines[1:])
        assert float(table["value"]) == pytest.approx(0.5, abs=1e-12)

    def test_report_csv_summary(self, tmp_path):
        code, text = run_job(tmp_path, {
            "command": "verify-rs", "body": TRIANGLE_BODY,
            "output": "csv"}, "out.csv")
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0].startswith("name,")
        assert lines[1].startswith("rogers-shephard,")

    def test_report_csv_rows(self, tmp_path):
        code, text = run_job(tmp_path, {
            "command": "verify-chain", "body": TRIANGLE_BODY,
            "params": {"s": 0.5, "directions": 4}, "output": "csv"}, "out.csv")
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "direction,rho_D,p=2,p=1,p=0.5,endpoint"
        assert len(lines) == 5

    def test_stdout_default(self, capsys):
        code = cli.run({"command": "verify-rs", "body": TRIANGLE_BODY})
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "verify-rs"


class TestMain:
    def test_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "job.json"
        spec.write_text(json.dumps(
            {"command": "verify-rs", "body": TRIANGLE_BODY}))
        assert cli.main(["--spec", str(spec)]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["pass"] is True

    def test_spec_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
            {"command": "dualvol", "params": {"dim": 2}})))
        assert cli.main(["--spec", "-"]) == 0
        assert "result" in json.loads(capsys.readouterr().out)

    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["--spec", str(tmp_path / "absent.json")]) == 2
        assert "cannot read spec" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text("{nope")
        assert cli.main(["--spec", str(spec)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_spec(self, tmp_path, capsys):
        spec = tmp_path / "arr.json"
        spec.write_text("[1, 2]")
        assert cli.main(["--spec", str(spec)]) == 2
        assert "must be a JSON object" in capsys.readouterr().err

    def test_flag_overrides(self, tmp_path):
        spec = tmp_path / "job.json"
        out = tmp_path / "res.json"
        spec.write_text(json.dumps({
            "command": "verify-variational", "body": SQUARE_BODY,
            "measure": {"type": "gaussian", "sigma": 1.0},
            "params": {"directions": 4}}))
        code = cli.main(["--spec", str(spec), "--tolerance", "1e-12",
                         "--outfile", str(out), "--seed", "42"])
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["report"]["tolerance"] == 1e-12
