"""Command-line front door: job checks, handlers, exit codes, and rendering."""

import ast
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import covbody.polytope as polytope_mod
from covbody import cli
from covbody.report import VerifyReport

TRIANGLE_BODY = {"name": "simplex", "dim": 2}
SQUARE_BODY = {"name": "cube", "dim": 2}
QUAD_BODY = {"type": "vrep",
             "vertices": [[0.0, 0.0], [1.3, 0.1], [1.1, 0.9], [0.2, 1.2]]}
TETRA_BODY = {"name": "simplex", "dim": 3}
RS_JOB = {"command": "verify-rs", "body": TRIANGLE_BODY}

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

    @pytest.mark.parametrize("job, key", [
        ({**RS_JOB, "bogus": 1}, "bogus"),
        ({"body": TRIANGLE_BODY}, "command"),
        ({**RS_JOB, "command": "shrink"}, "command"),
        ({**RS_JOB, "schema_version": 2}, "schema_version"),
        ({**RS_JOB, "schema_version": True}, "schema_version"),
        ({**RS_JOB, "seed": -1}, "seed"),
        ({**RS_JOB, "seed": 1.5}, "seed"),
        ({**RS_JOB, "seed": True}, "seed"),
        ({**RS_JOB, "tolerance": 0}, "tolerance"),
        ({**RS_JOB, "tolerance": "x"}, "tolerance"),
        ({**RS_JOB, "output": "xml"}, "output"),
        ({**RS_JOB, "outfile": 3}, "outfile"),
        ({**RS_JOB, "params": []}, "params"),
    ])
    def test_malformed_field_is_two(self, capsys, job, key):
        # run directly, not through run_job, so that the outfile case keeps
        # its 3; no case gets as far as writing a report
        assert cli.run(job) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and key in err

    @pytest.mark.parametrize("fields", [{"seed": 3.0}, {"schema_version": 1.0}])
    def test_integral_float_field_is_zero(self, tmp_path, fields):
        # a JSON integer may be written 3.0
        code, doc = run_json(tmp_path, {**RS_JOB, **fields})
        assert code == 0
        assert doc["report"]["pass"] is True

    def test_cli_does_not_import_jsonschema(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        res = subprocess.run(
            [sys.executable, "-c",
             "import sys, covbody.cli; assert 'jsonschema' not in sys.modules"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
            timeout=120)
        assert res.returncode == 0, res.stderr

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

    @pytest.mark.parametrize("nu", [
        [{"type": "linear-power", "a": [0.3, 0.2]}], [{"type": "constant"}]],
        ids=["varying", "constant"])
    def test_zhang_sample_count_is_unknown(self, tmp_path, capsys, nu):
        # the denominator draws no samples
        code, _ = run_job(tmp_path, {
            "command": "verify-zhang", "body": TRIANGLE_BODY,
            "params": {"nu": nu, "n_mc": 2000}})
        assert code == 2
        assert "unknown parameter(s): n_mc" in capsys.readouterr().err

    @pytest.mark.parametrize("command, params", [
        ("projbody", {"volume": "no"}),
        ("projbody", {"volume": 1}),
        ("covariogram", {"x": [0.5, 0.0], "oracle": "false", "oracle_samples": 1000}),
        ("dualvol", {"with_volume": None}),
    ])
    def test_flag_is_a_boolean(self, tmp_path, capsys, command, params):
        body = {} if command == "dualvol" else {"body": SQUARE_BODY}
        code, _ = run_job(tmp_path, {"command": command, **body, "params": params})
        assert code == 2
        assert "must be true or false" in capsys.readouterr().err

    @pytest.mark.parametrize("command, params, name, key", [
        ("projbody", {}, "volume", "polar_volume"),
        ("covariogram", {"x": [0.5, 0.0]}, "oracle", "oracle_estimate"),
        ("dualvol", {}, "with_volume", "star_volume"),
    ])
    @pytest.mark.parametrize("flag", [True, False])
    def test_flag_switches(self, tmp_path, command, params, name, key, flag):
        body = {} if command == "dualvol" else {"body": SQUARE_BODY}
        code, doc = run_json(tmp_path, {"command": command, **body,
                                        "params": {**params, name: flag}})
        assert code == 0
        assert (key in doc["result"]) == flag

    def test_inconsistent_concavity_tag_is_two(self, tmp_path, capsys):
        code, _ = run_job(tmp_path, {
            "command": "verify-chain", "body": SQUARE_BODY,
            "measure": {"type": "gaussian", "sigma": 1.0},
            "params": {"s": 0.5, "directions": 4}})
        assert code == 2
        err = capsys.readouterr().err
        assert "declared concavity s(0.5)" in err

    @pytest.mark.parametrize("params", [{"s": 0.5}, {}, {"F": {"type": "power", "s": 0.5}}])
    def test_zhang_concavity_class_is_checked(self, tmp_path, capsys, params):
        # s = 1/n, stated or by default, demands a constant density
        code, _ = run_job(tmp_path, {
            "command": "verify-zhang", "body": TRIANGLE_BODY,
            "measure": {"type": "gaussian", "sigma": 0.5}, "params": params})
        assert code == 2
        assert "declared concavity s(0.5)" in capsys.readouterr().err

    @pytest.mark.parametrize("measure, s, declared", [
        ({"type": "gaussian", "sigma": 0.5}, 0.25, "s(0.25)"),
        ({"type": "gaussian", "sigma": 1.0}, None, "s(0.5)"),
    ])
    def test_chord_concavity_class_is_checked(self, tmp_path, capsys, measure, s,
                                              declared):
        # the covariogram fixture's params.s (default 1/n) is the class its
        # bound assumes, checked against the density before any ray is fitted
        params = {"fixture": "covariogram", "count": 8}
        if s is not None:
            params["s"] = s
        code, _ = run_job(tmp_path, {"command": "verify-chord", "body": TRIANGLE_BODY,
                                     "measure": measure, "params": params})
        assert code == 2
        assert f"declared concavity {declared}" in capsys.readouterr().err

    def test_chord_class_below_one_over_n_passes_lebesgue(self, tmp_path):
        code, doc = run_json(tmp_path, {
            "command": "verify-chord", "body": TRIANGLE_BODY,
            "params": {"fixture": "covariogram", "count": 8, "s": 0.25}})
        assert code == 0
        assert doc["report"]["pass"] is True

    def test_density_concavity_key_is_two(self, tmp_path, capsys):
        # the chain's s or F states the class; a density carries none
        code, _ = run_job(tmp_path, {
            "command": "verify-chain", "body": SQUARE_BODY,
            "measure": {"type": "gaussian", "concavity": {"kind": "log"}},
            "params": {"branch": "Q", "directions": 2}})
        assert code == 2
        assert "unknown density spec keys ['concavity']" in capsys.readouterr().err

    def test_chain_slack_is_two(self, tmp_path, capsys):
        # the job's tolerance is the chain's one slack
        code, _ = run_job(tmp_path, {
            "command": "verify-chain", "body": SQUARE_BODY,
            "params": {"s": 0.5, "directions": 2, "slack": 0.1}})
        assert code == 2
        assert "unknown parameter(s): slack" in capsys.readouterr().err

    @pytest.mark.parametrize("body", [SQUARE_BODY, TRIANGLE_BODY])
    def test_chain_f_branch_refuses_log(self, tmp_path, capsys, body):
        # F^(-1)[F(mu K)(1 - t)] tends to 1, not 0, under F = log: on the unit
        # square (log mu(K) = 0) the constants divided by zero, and on the
        # simplex the chain failed on a negative endpoint
        code, _ = run_job(tmp_path, {
            "command": "verify-chain", "body": body,
            "params": {"branch": "F", "F": {"type": "log"}, "directions": 2}})
        assert code == 2
        assert "the Q-branch" in capsys.readouterr().err

    def test_chain_q_branch_refuses_power(self, tmp_path, capsys):
        # Q^(-1)[Q(mu K) - t] must exist for every t > 0, and F = t^s has no
        # inverse below 0
        code, _ = run_job(tmp_path, {
            "command": "verify-chain", "body": TRIANGLE_BODY,
            "params": {"branch": "Q", "F": {"type": "power", "s": 0.5},
                       "directions": 4}})
        assert code == 2
        assert "the Q-branch needs" in capsys.readouterr().err

    @pytest.mark.parametrize("body, measure", [
        (TRIANGLE_BODY, None),
        (SQUARE_BODY, {"type": "gaussian", "sigma": 1.0}),
    ])
    def test_zhang_refuses_log(self, tmp_path, capsys, body, measure):
        # F^(-1)[F(mu K) t] = (mu K)^t tends to 1, not 0, under F = log, and
        # the dilation mu(K) log mu(K) is not positive for mu(K) <= 1 (the
        # simplex and the unit square under these measures)
        job = {"command": "verify-zhang", "body": body,
               "params": {"F": {"type": "log"}}}
        if measure is not None:
            job["measure"] = measure
        code, _ = run_job(tmp_path, job)
        assert code == 2
        assert "F = log" in capsys.readouterr().err

    def test_numeric_failure_is_three(self, tmp_path, capsys):
        # a kernel with a kink inside the disk misses the dual volume's gate
        code, _ = run_job(tmp_path, {
            "command": "dualvol",
            "params": {"dim": 2, "kernel": {
                "type": "power-density", "exponent": 1.0,
                "density": {"type": "linear-power", "a": [1.0, 0.0], "b": 0.3,
                            "k": 0.5}}}})
        assert code == 3
        assert "numeric error" in capsys.readouterr().err

    def test_bad_schema_version_is_two(self, tmp_path):
        code, _ = run_job(tmp_path, {
            "command": "verify-rs", "body": TRIANGLE_BODY,
            "schema_version": 2})
        assert code == 2

    @pytest.mark.parametrize("command, params", [
        ("covariogram", {"direction": [1.0, 0.0], "grid": -1}),
        ("verify-chain", {"s": 0.5, "directions": 0}),
        ("verify-variational", {"directions": 0}),
        ("verify-zhang", {"m": 2, "count": 0}),
        ("verify-linear", {"trials": 0}),
        ("dualvol", {"count": 0}),
        ("verify-chord", {"inner": 0}),
        ("verify-rs", {"m": 2, "count": 2.5}),
        ("diffbody", {"m": True}),
    ])
    def test_malformed_count_is_two(self, tmp_path, capsys, command, params):
        body = {} if command in ("dualvol", "verify-chord") else {"body": QUAD_BODY}
        code, _ = run_job(tmp_path, {"command": command, **body, "params": params})
        assert code == 2
        assert "must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command, body, params, ignored", [
        ("rmb", SQUARE_BODY,
         {"p": 1.0, "direction": [1.0, 0.0], "p_seq": [-0.9]}, "p_seq"),
        ("rmb", SQUARE_BODY,
         {"p": -1, "direction": [1.0, 0.0], "method": "direct"}, "method"),
        ("verify-chord", SQUARE_BODY,
         {"fixture": "covariogram", "h": {"type": "identity"}}, "h"),
        ("verify-chord", SQUARE_BODY, {"fixture": "covariogram", "dim": 2}, "dim"),
        ("verify-chord", SQUARE_BODY,
         {"fixture": "covariogram", "cap_cos": 0.5}, "cap_cos"),
        ("verify-chord", None, {"fixture": "affine", "m": 2}, "m"),
        ("verify-chord", None, {"fixture": "parabola", "s": 0.5}, "s"),
        ("verify-chord", None, {"fixture": "affine", "cap_cos": 0.5}, "cap_cos"),
        ("verify-chord", SQUARE_BODY, {"fixture": "affine", "dim": 2}, "dim"),
        ("dualvol", SQUARE_BODY, {"dim": 2}, "dim"),
        ("dualvol", SQUARE_BODY, {"radius": 2.0}, "radius"),
        ("dualvol", None, {"base": [0.0, 0.0]}, "base"),
        ("verify-chain", SQUARE_BODY,
         {"branch": "Q", "s": 0.5, "directions": 2}, "s"),
        ("verify-chain", SQUARE_BODY,
         {"s": 0.5, "F": {"type": "log"}, "directions": 2}, "F"),
        ("verify-zhang", SQUARE_BODY,
         {"s": 0.5, "F": {"type": "power", "s": 0.5}}, "s"),
        ("projbody", TRIANGLE_BODY, {"m": 2, "volume": False, "count": 100}, "count"),
        ("covariogram", SQUARE_BODY, {"direction": [1.0, 0.0], "oracle": False},
         "oracle"),
        ("rmb", SQUARE_BODY, {"p": "inf", "direction": [1.0, 0.0], "method": "direct"},
         "method"),
        ("diffbody", SQUARE_BODY, {"count": 100}, "count"),
        ("verify-rs", SQUARE_BODY, {"m": 1, "count": 100}, "count"),
        ("projbody", SQUARE_BODY, {"count": 100}, "count"),
        ("projbody", SQUARE_BODY, {"volume": True, "count": 100}, "count"),
        ("projbody", SQUARE_BODY, {"m": 2, "direction": [1.0, 0.0, 0.0, 1.0],
                                   "count": 100}, "count"),
        ("covariogram", SQUARE_BODY, {"x": [0.5, 0.0], "grid": 8}, "grid"),
        ("covariogram", SQUARE_BODY, {"direction": [1.0, 0.0], "oracle": True},
         "oracle"),
        ("covariogram", SQUARE_BODY, {"direction": [1.0, 0.0], "oracle_samples": 100},
         "oracle_samples"),
        ("covariogram", SQUARE_BODY,
         {"x": [0.5, 0.0], "oracle": False, "oracle_samples": 7}, "oracle_samples"),
    ])
    def test_ignored_param_is_two(self, tmp_path, capsys, command, body, params,
                                  ignored):
        job = {"command": command, "params": params}
        if body is not None:
            job["body"] = body
        code, _ = run_job(tmp_path, job)
        assert code == 2
        assert f"{ignored} have no effect" in capsys.readouterr().err

    @pytest.mark.parametrize("command, body, params", [
        ("covariogram", SQUARE_BODY, {"x": [0.5, 0.0]}),
        ("covariogram", SQUARE_BODY, {"direction": [1.0, 0.0], "grid": 4}),
        ("dualvol", None, {"dim": 2}),
        ("dualvol", SQUARE_BODY, {}),
        ("rmb", SQUARE_BODY, {"p": 1.0, "direction": [1.0, 0.0]}),
        ("rmb", SQUARE_BODY, {"p": "inf", "direction": [1.0, 0.0]}),
    ])
    def test_ignored_tolerance_is_two(self, tmp_path, capsys, command, body, params):
        # these commands check no bound; rmb's tolerance bounds only the
        # p -> -1 limit
        job = {"command": command, "params": params, "tolerance": 1e-3}
        if body is not None:
            job["body"] = body
        code, _ = run_job(tmp_path, job)
        assert code == 2
        assert "tolerance have no effect" in capsys.readouterr().err
        del job["tolerance"]
        assert run_job(tmp_path, job)[0] == 0

    @pytest.mark.parametrize("command, body, params", [
        ("verify-rs", SQUARE_BODY, {}),
        ("diffbody", SQUARE_BODY, {"m": 1}),
        ("dualvol", SQUARE_BODY, {}),
        ("dualvol", None, {"dim": 2}),
        ("verify-chord", None, {"fixture": "affine"}),
        ("verify-chord", SQUARE_BODY, {"fixture": "capped"}),
        ("rmb", SQUARE_BODY, {"p": "inf", "direction": [1.0, 0.0]}),
    ])
    def test_ignored_measure_is_two(self, tmp_path, capsys, command, body, params):
        job = {"command": command, "params": params,
               "measure": {"type": "gaussian", "sigma": 0.3}}
        if body is not None:
            job["body"] = body
        code, _ = run_job(tmp_path, job)
        assert code == 2
        assert "measure have no effect" in capsys.readouterr().err
        del job["measure"]
        assert run_job(tmp_path, job)[0] == 0

    def test_refused_job_writes_no_report(self, tmp_path, capsys):
        job = {"command": "covariogram", "body": SQUARE_BODY,
               "params": {"x": [0.5, 0.0]}, "tolerance": 1e-3}
        out = tmp_path / "out.json"
        assert cli.run({**job, "outfile": str(out)}) == 2
        assert not out.exists()
        assert cli.run(job) == 2
        assert capsys.readouterr().out == ""

    def test_unread_param_outranks_a_failed_check(self, tmp_path, capsys):
        # under a Gaussian the p -> -1 limit misses a 1e-12 tolerance and the
        # job exits 1; a method that the limit never reads makes it exit 2
        job = {"command": "rmb", "body": TRIANGLE_BODY,
               "measure": {"type": "gaussian", "sigma": 1.0},
               "params": {"p": -1, "direction": [1.0, 0.0]}, "tolerance": 1e-12}
        assert run_job(tmp_path, job)[0] == 1
        job["params"] = {**job["params"], "method": "direct"}
        assert run_job(tmp_path, job, "b.json") == (2, "")
        assert "method have no effect" in capsys.readouterr().err

    def test_single_oracle_sample_is_two(self, tmp_path, capsys):
        code, _ = run_job(tmp_path, {
            "command": "covariogram", "body": SQUARE_BODY,
            "params": {"x": [0.5, 0.0], "oracle_samples": 1}})
        assert code == 2
        assert "at least 2 samples" in capsys.readouterr().err

    @pytest.mark.parametrize("job, key", [
        ({"command": "verify-chord", "body": TRIANGLE_BODY,
          "params": {"fixture": "covariogram", "s": "abc"}}, "params.s"),
        ({"command": "verify-chord", "params": {"fixture": "capped", "cap_cos": "x"}},
         "params.cap_cos"),
        ({"command": "verify-chord",
          "params": {"fixture": "affine", "h": {"type": "power", "k": "x"}}},
         "params.h.k"),
        ({"command": "verify-chain", "body": SQUARE_BODY,
          "params": {"s": [1], "directions": 2}}, "params.s"),
        ({"command": "verify-chain", "body": SQUARE_BODY,
          "params": {"s": True, "directions": 2}}, "params.s"),
        ({"command": "verify-chain", "body": SQUARE_BODY,
          "params": {"s": 0.5, "p_list": ["a"], "directions": 2}}, "params.p_list"),
        ({"command": "verify-chain", "body": SQUARE_BODY,
          "params": {"branch": "F", "F": {"type": "power", "s": "x"}, "directions": 2}},
         "params.F.s"),
        ({"command": "verify-zhang", "body": TRIANGLE_BODY, "params": {"s": None}},
         "params.s"),
        ({"command": "rmb", "body": SQUARE_BODY,
          "params": {"p": [1], "direction": [1.0, 0.0]}}, "params.p"),
        ({"command": "rmb", "body": SQUARE_BODY,
          "params": {"p": -1, "p_seq": ["a"], "direction": [1.0, 0.0]}}, "params.p_seq"),
        ({"command": "covariogram", "body": SQUARE_BODY,
          "measure": {"type": "gaussian", "sigma": "wide"},
          "params": {"x": [0.5, 0.0]}}, "sigma"),
        ({"command": "verify-variational", "body": SQUARE_BODY,
          "params": {"steps": ["a"], "directions": 2}}, "params.steps"),
        ({"command": "covariogram", "body": SQUARE_BODY, "params": {"x": "zz"}},
         "params.x"),
        ({"command": "dualvol", "params": {"radius": "big"}}, "params.radius"),
        ({"command": "dualvol",
          "params": {"kernel": {"type": "power", "exponent": "x"}}}, "kernel exponent"),
        ({"command": "verify-rs",
          "body": {"type": "vrep", "vertices": [["a", 0], [1, 0], [0, 1]]}},
         "body.vertices"),
        ({"command": "verify-rs",
          "body": {"type": "hrep", "halfspaces": [
              {"a": [-1, 0], "b": 0}, {"a": [0, -1], "b": 0}, {"a": [1, 1], "b": "x"}]}},
         "body.halfspaces.b"),
    ])
    def test_non_number_is_two(self, tmp_path, capsys, job, key):
        # a job's numbers are converted where they are parsed; JSON strings,
        # nulls, lists and booleans in their place are malformed input
        assert run_job(tmp_path, job)[0] == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and key in err


    @pytest.mark.parametrize("job, key", [
        ({"command": "verify-rs", "body": {"type": "vrep"}}, "'vertices'"),
        ({"command": "verify-rs", "body": {"name": "cube"}}, "'dim'"),
        ({"command": "verify-rs", "body": {"type": "hrep", "halfspaces": [{"a": [1, 0]}]}},
         "'b'"),
        ({"command": "verify-rs", "body": {"type": "hrep", "halfspaces": [[1, 0, 1]]}},
         "body.halfspaces[0]"),
        ({"command": "projbody", "body": SQUARE_BODY, "measure": {"type": "product"}},
         "'factors'"),
        ({"command": "projbody", "body": SQUARE_BODY,
          "measure": {"type": "linear-power"}}, "'a'"),
        ({"command": "projbody", "body": SQUARE_BODY,
          "measure": {"type": "linear-power", "a": [0.1, 0.2, 0.3], "b": 2.0}}, "R^3"),
        ({"command": "projbody", "body": SQUARE_BODY,
          "measure": {"type": "product", "dims": [1],
                      "factors": [{"type": "gaussian"}, {"type": "gaussian"}]}},
         "one dimension per factor"),
        ({"command": "verify-zhang", "body": TRIANGLE_BODY,
          "params": {"nu": [{"type": "linear-power"}]}}, "'a'"),
        ({"command": "verify-zhang", "body": TRIANGLE_BODY, "params": {"nu": 5}},
         "params.nu"),
        ({"command": "dualvol", "body": SQUARE_BODY,
          "params": {"base": [0.5, 0.5, 0.5]}}, "params.base"),
        ({"command": "verify-rs", "body": {"type": "hrep", "halfspaces": []}},
         "body.halfspaces.a"),
        ({"command": "verify-rs", "body": {"type": "hrep", "halfspaces": [
            {"a": [-1, 0], "b": 0}, {"a": [0, -1, 0], "b": 0}, {"a": [1, 1], "b": 1}]}},
         "body.halfspaces.a"),
        ({"command": "verify-rs", "body": {"type": "named", "name": "cube", "dim": 2,
                                           "vertices": [[0, 0]]}}, "['vertices']"),
        ({"command": "verify-variational", "body": SQUARE_BODY,
          "params": {"steps": [], "directions": 2}}, "steps must be"),
        ({"command": "verify-variational", "body": SQUARE_BODY,
          "params": {"steps": [0.01, 0.01], "directions": 2}}, "steps must be"),
        ({"command": "covariogram", "body": SQUARE_BODY, "params": {"x": []}},
         "params.x"),
        ({"command": "covariogram", "body": SQUARE_BODY,
          "params": {"x": [math.nan, 0.0]}}, "params.x[0] must be a finite number"),
        ({"command": "rmb", "body": SQUARE_BODY,
          "params": {"p": math.nan, "direction": [1.0, 0.0]}}, "params.p must be"),
        ({"command": "rmb", "body": SQUARE_BODY,
          "params": {"p": 1.0, "direction": [math.inf, 0.0]}}, "params.direction[0]"),
        ({"command": "dualvol", "params": {"radius": math.nan}}, "params.radius"),
        ({"command": "verify-rs", "body": SQUARE_BODY, "tolerance": math.nan},
         "tolerance must be"),
        ({"command": "verify-rs", "body": SQUARE_BODY, "tolerance": math.inf},
         "tolerance must be"),
        ({"command": "verify-chord",
          "params": {"fixture": "affine", "h": {"type": "identity", "k": 3}}},
         "unknown h spec keys ['k']"),
        ({"command": "verify-chord",
          "params": {"fixture": "affine", "h": {"type": "power", "k": 2, "kk": 3}}},
         "unknown h spec keys ['kk']"),
        ({"command": "verify-chain", "body": SQUARE_BODY,
          "params": {"branch": "Q", "F": {"type": "log", "s": 0.5}, "directions": 2}},
         "unknown concavity spec keys ['s']"),
        ({"command": "verify-rs", "body": {"type": "hrep", "halfspaces": 5}},
         "body.halfspaces"),
        ({"command": "projbody", "body": SQUARE_BODY,
          "measure": {"type": "product", "factors": 5}}, "factors"),
        ({"command": "covariogram", "body": SQUARE_BODY,
          "params": {"x": [0.5, 0.0, 0.1], "m": 2}}, "params.x"),
        ({"command": "verify-zhang", "body": TRIANGLE_BODY,
          "params": {"nu": [{"type": "linear-power", "a": [0.0, 0.0]}]}}, "nu[0]"),
    ])
    def test_malformed_spec_is_two(self, tmp_path, capsys, job, key):
        # a body, density, h or concavity spec that lacks a key its kind
        # needs, holds one it does not take or whose dimension is not the
        # body's, a list param that holds no entry (or repeats a step), and
        # a JSON NaN or Infinity anywhere in the job, are malformed input,
        # not a traceback or a silent value
        assert run_job(tmp_path, job)[0] == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and key in err


class TestParamsRule:
    """Only cli._Job reads a job's raw dict and only cli._Params its params
    dict, so every param and field a handler uses is one the unread check
    sees as read."""

    @staticmethod
    def escapes(source):
        owner = {"raw": "_Job", "_given": "_Params"}
        found = []

        def visit(node, cls):
            if isinstance(node, ast.ClassDef):
                cls = node.name
            if isinstance(node, ast.Attribute) and owner.get(node.attr, cls) != cls:
                found.append(node.attr)
            for child in ast.iter_child_nodes(node):
                visit(child, cls)

        visit(ast.parse(source), None)
        return found

    def test_only_the_reader_reads_params(self):
        assert self.escapes(Path(cli.__file__).read_text()) == []

    @pytest.mark.parametrize("read, attr", [("job.raw['measure']", "raw"),
                                            ("job.params._given['x']", "_given")])
    def test_a_handler_that_reads_around_it_is_seen(self, read, attr):
        handler = f"\n\ndef _cmd_scratch(job):\n    return {read}\n"
        assert self.escapes(Path(cli.__file__).read_text() + handler) == [attr]


class TestMellinExitOnValidInput:
    """A job in the documented range (n = 3, m = 1, p = -0.5) on which the
    Mellin route exits 3 while the direct route returns 0.6342024."""

    JOB = {"command": "rmb",
           "body": {"type": "vrep", "vertices": [
               [2.0409, -2.5557, 0.4181], [-0.5678, -0.4526, -0.2156],
               [-2.02, -0.2319, -0.8652], [3.323, 0.2258, -0.3526],
               [-0.2813, -0.668, -1.0552], [-0.3908, 0.4819, -0.2386]]},
           "measure": {"type": "gaussian", "sigma": 0.8},
           "params": {"p": -0.5, "m": 1, "direction": [-0.9469, 0.262, 0.1866]}}

    def _value(self, tmp_path, method):
        job = {**self.JOB, "params": {**self.JOB["params"], "method": method}}
        code, text = run_job(tmp_path, job, f"{method}.json")
        assert code == 0
        return json.loads(text)["result"]["value"]

    def test_direct_value(self, tmp_path):
        assert self._value(tmp_path, "direct") == pytest.approx(0.6342024, abs=1e-7)

    @pytest.mark.xfail(strict=True, reason=(
        "Mellin exits 3 on this gaussian 6-vertex 3-polytope at p = -0.5: the first "
        "piece's fit of (g - mu(K) + h r)/r^2 misses its check node by 4.74e-8 "
        "against a gate of 9.9e-9"))
    def test_mellin_meets_direct(self, tmp_path):
        assert self._value(tmp_path, "mellin") == pytest.approx(
            self._value(tmp_path, "direct"), rel=1e-10)


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

    def test_covariogram_enumerates_the_intersection_once(self, tmp_path, monkeypatch):
        calls = []
        enumerate_vertices = polytope_mod.enumerate_vertices

        def counted(*args, **kwargs):
            calls.append(1)
            return enumerate_vertices(*args, **kwargs)

        monkeypatch.setattr(polytope_mod, "enumerate_vertices", counted)
        code, doc = run_json(tmp_path, {
            "command": "covariogram", "body": {"name": "cross", "dim": 3},
            "params": {"x": [0.2, 0.1, 0.05]}})
        assert code == 0
        assert len(calls) == 1
        res = doc["result"]
        assert res["value"] == pytest.approx(res["intersection_volume"], rel=1e-12)

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
        # what the job took and what ran: R_inf is the difference body
        assert doc["result"]["p"] == "inf"
        assert doc["result"]["method"] == "diffbody"

    def test_rmb_limit_report(self, tmp_path):
        # the job's tolerance bounds the limit's error, at p = -1 only
        code, doc = run_json(tmp_path, {
            "command": "rmb", "body": SQUARE_BODY, "tolerance": 0.05,
            "params": {"p": -1, "direction": [1.0, 0.0]}})
        assert code == 0
        rep = doc["report"]
        assert rep["name"] == "rmb-limit-neg1"
        assert rep["tolerance"] == 0.05
        assert rep["rhs"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0, 0.0005, -0.0005])
    def test_rmb_near_zero_reports_direct(self, tmp_path, p):
        # |p| < P0_SWITCH runs the p = 0 body, which only the direct route has
        job = {"command": "rmb", "body": SQUARE_BODY,
               "params": {"p": p, "direction": [1.0, 0.0]}}
        code, doc = run_json(tmp_path, job)
        assert code == 0
        assert doc["result"]["method"] == "direct"
        assert doc["result"]["value"] == pytest.approx(math.exp(-1.0), rel=1e-12)
        job["params"]["method"] = "mellin"
        assert run_job(tmp_path, job)[0] == 2

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

    @pytest.mark.parametrize("command, body, m, key, want", [
        ("verify-rs", TRIANGLE_BODY, 2, "lhs", 15.0),
        ("verify-rs", SQUARE_BODY, 2, "lhs", 9.0),
        ("verify-rs", TETRA_BODY, 2, "lhs", 84.0),
        ("diffbody", TRIANGLE_BODY, 2, "volume_ratio", 15.0),
        ("diffbody", TETRA_BODY, 2, "volume_ratio", 84.0),
        # vol(polar Pi^m K) = C(nm + n, n) / (n^(nm) vol(K)^(nm - m)) at a simplex
        ("projbody", TRIANGLE_BODY, 2, "polar_volume", 15.0 / 16.0 / 0.25),
        ("projbody", TETRA_BODY, 1, "polar_volume", 20.0 / 27.0 * 36.0),
        ("verify-zhang", TRIANGLE_BODY, 1, "ratio", 6.0),
        ("verify-zhang", TRIANGLE_BODY, 2, "ratio", 15.0),
    ])
    def test_exact_volume_closed_forms(self, tmp_path, command, body, m, key, want):
        params = {"m": m, "volume": True} if command == "projbody" else {"m": m}
        code, doc = run_json(tmp_path, {"command": command, "body": body,
                                        "params": params})
        assert code == 0
        out = doc.get("report") or doc["result"]
        assert out[key] == pytest.approx(want, rel=1e-12)
        assert "quadrature_nodes" not in out
        if "report" in doc:
            assert out["samples"] == 1
            assert "exact polytope volume" in out["notes"]
        if command == "verify-zhang":
            assert out["bound"] == pytest.approx(want, rel=1e-12)

    def test_verify_zhang(self, tmp_path):
        code, doc = run_json(tmp_path, {
            "command": "verify-zhang", "body": TRIANGLE_BODY, "params": {"count": 500}})
        assert code == 0
        assert doc["report"]["name"] == "zhang"

    @pytest.mark.parametrize("F", [None, {"type": "power", "s": 0.5}])
    def test_verify_zhang_varying_factor_is_seed_free(self, tmp_path, F):
        # the 2-simplex under a linear-power factor: both the numerator's
        # 1000-direction rule on S^1 and the denominator's rule take no seed
        params = {"nu": [{"type": "linear-power", "a": [0.3, 0.2]}]}
        if F is not None:
            params["F"] = F
        reports = []
        for seed in (1, 2):
            code, doc = run_json(tmp_path, {"command": "verify-zhang", "body": TRIANGLE_BODY,
                                            "params": params, "seed": seed})
            assert code == 0
            reports.append({k: v for k, v in doc["report"].items() if k != "seed"})
        assert reports[0] == reports[1]
        assert reports[0]["pass"] is True
        assert reports[0]["notes"].endswith("denominator nested simplex rule" + (
            "" if F is None else f"; 1-D concavity mean {0.5 / 6.0:.12g}"))

    def test_chain_f_branch_is_the_s_branch(self, tmp_path):
        # under F = t^s the F-branch's constants are the s-branch's closed
        # forms, at p near -1 too
        params = {"p_list": [-0.9, 1.0], "directions": 4}
        code_f, f_rows = run_job(tmp_path, {
            "command": "verify-chain", "body": TRIANGLE_BODY, "output": "csv",
            "params": {"branch": "F", "F": {"type": "power", "s": 0.5}, **params}})
        code_s, s_rows = run_job(tmp_path, {
            "command": "verify-chain", "body": TRIANGLE_BODY, "output": "csv",
            "params": {"branch": "s", "s": 0.5, **params}}, "s.csv")
        assert code_f == code_s == 0
        assert len(f_rows.splitlines()) == 5
        assert f_rows == s_rows

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


class TestSphereRuleUse:
    """A volume with an exact route takes no sphere rule unless the job sets
    params.count, and then exactly one: a quietly slower default, or a count
    that is dropped, fails here."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import covbody.verify as verify_mod
        made = []
        original = cli.sphere_quadrature

        def counting(d, count=1000, seed=42):
            made.append(count)
            return original(d, count, seed)

        monkeypatch.setattr(cli, "sphere_quadrature", counting)
        monkeypatch.setattr(verify_mod, "sphere_quadrature", counting)
        return made

    @pytest.mark.parametrize("command, body, params", [
        ("verify-rs", TRIANGLE_BODY, {"m": 2}),
        ("diffbody", TRIANGLE_BODY, {"m": 2}),
        ("projbody", TRIANGLE_BODY, {"m": 2, "volume": True}),
        ("projbody", TETRA_BODY, {"volume": True}),
        ("verify-zhang", TRIANGLE_BODY, {"m": 1}),
        ("verify-zhang", TRIANGLE_BODY, {"m": 2}),
        ("verify-zhang", TRIANGLE_BODY,
         {"m": 2, "nu": [{"type": "constant"}, {"type": "constant", "c": 2.0}]}),
        ("verify-zhang", TRIANGLE_BODY, {"m": 2, "F": {"type": "power", "s": 0.5}}),
    ])
    def test_count_alone_picks_the_sphere_rule(self, tmp_path, calls, command,
                                               body, params):
        job = {"command": command, "body": body, "params": params}
        assert run_job(tmp_path, job)[0] == 0
        assert calls == []
        job["params"] = {**params, "count": 20_000}
        assert run_job(tmp_path, job)[0] == 0
        assert calls == [20_000]


class TestAggregateReports:
    # fabricated per-case reports: the aggregate takes margin and pass/fail
    # from the smallest margin, and prints the first case within
    # cli.WORST_TIE of it
    @staticmethod
    def _fake(target, margins):
        reps = [VerifyReport(
            name="case", lhs=float(i), rhs=10.0 + i, ratio=0.1 * i, bound=1.0,
            margin=mg, passed=mg >= 0.0, samples=1, seed=0, tolerance=1e-3)
            for i, mg in enumerate(margins)]
        if target == "variational_check":  # one call, one report per direction
            return lambda *args, **kwargs: reps
        cases = iter(reps)  # one call per trial
        return lambda *args, **kwargs: next(cases)

    @pytest.mark.parametrize("command, target, count", [
        pytest.param("verify-variational", "variational_check", "directions",
                     id="variational"),
        pytest.param("verify-linear", "linear_covariance_check", "trials",
                     id="linear")])
    @pytest.mark.parametrize("margins, shown, code", [
        pytest.param((0.3, 0.1, 0.1 - 1e-12, 0.2), 1, 0, id="tie"),
        pytest.param((0.3, -0.2 + 1e-12, 0.1, -0.2), 1, 1, id="failing-tie"),
        pytest.param((0.3, 0.1, 0.1 - 1e-6, 0.2), 2, 0, id="no-tie")])
    def test_worst_case_ties_go_to_the_first(self, tmp_path, monkeypatch, command,
                                              target, count, margins, shown, code):
        monkeypatch.setattr(cli, target, self._fake(target, margins))
        got, doc = run_json(tmp_path, {"command": command, "body": SQUARE_BODY,
                                       "params": {count: len(margins)}})
        rep = doc["report"]
        assert got == code and rep["pass"] is (code == 0)
        assert rep["margin"] == min(margins)
        assert (rep["lhs"], rep["rhs"], rep["ratio"]) == (shown, 10.0 + shown, 0.1 * shown)


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        job = {"command": "covariogram", "body": SQUARE_BODY,
               "params": {"x": [0.3, 0.1], "oracle": True,
                          "oracle_samples": 50_000}}
        _, a = run_job(tmp_path, job, "a.json")
        _, b = run_job(tmp_path, job, "b.json")
        assert a == b

    def test_variational_rerun_is_byte_identical(self, tmp_path):
        # every evaluation of the job reads its body's lifted table
        job = {"command": "verify-variational", "body": {"name": "cross", "dim": 3},
               "params": {"m": 2, "directions": 6}}
        code, a = run_job(tmp_path, job, "a.json")
        assert code == 0
        assert run_job(tmp_path, job, "b.json") == (code, a)

    def test_seed_changes_oracle_draw(self, tmp_path):
        job = {"command": "covariogram", "body": SQUARE_BODY,
               "params": {"x": [0.3, 0.1], "oracle": True,
                          "oracle_samples": 50_000}}
        _, a = run_json(tmp_path, job, "a.json")
        _, b = run_json(tmp_path, {**job, "seed": 7}, "b.json")
        assert a["result"]["value"] == b["result"]["value"]
        assert a["result"]["oracle_estimate"] != b["result"]["oracle_estimate"]


class TestThreadCount:
    """Reports must not depend on the BLAS thread count: the large sphere
    sums of verify-zhang and verify-rs at m = 2 reduce with einsum."""

    @pytest.mark.parametrize("command", ["verify-zhang", "verify-rs"])
    def test_reports_identical_at_one_and_two_threads(self, command):
        job = json.dumps({"command": command, "body": QUAD_BODY,
                          "params": {"m": 2}})
        src = str(Path(cli.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "PYTHONPATH": src}
            res = subprocess.run([sys.executable, "-m", "covbody.cli", "--spec", "-"],
                                 input=job, capture_output=True, text=True,
                                 env=env, timeout=300)
            assert res.returncode == 0, res.stderr
            outs.append(res.stdout)
        assert outs[0] == outs[1]


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
