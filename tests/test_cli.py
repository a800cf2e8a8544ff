"""End-to-end tests of the command-line interface.

Commands run in-process through ``main(argv)`` so exit codes, stdout, and
stderr can be asserted cheaply; one subprocess test covers the installed
console script. File outputs are checked against the library functions the
commands wrap, and the demo pipeline is pinned by golden files.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwss import (
    CovarianceTable,
    ExpOperator,
    OperatorSpectralMeasure,
    apply_filter,
    covariance_from_csv,
    covariance_from_spectrum,
    covariance_to_csv,
    deserialize_factorization,
    deserialize_measure,
    model_covariance,
    serialize_kernel,
    serialize_measure,
    serialize_model,
    synthesize,
    total_mass,
    trajectory_from_binary,
    trajectory_from_csv,
    trajectory_to_binary,
    white_noise,
)
from qwss import SchemaError, cli
from qwss.cli import main

from helpers import cpu_has, golden_mismatch, rel_frob

from test_serialize import example_model, rich_measure


def run(*argv):
    return main([str(a) for a in argv])


def read_error(capsys):
    captured = capsys.readouterr()
    doc = json.loads(captured.err)
    assert set(doc) == {"error"}
    assert "code" in doc["error"] and "message" in doc["error"]
    return doc["error"], captured.out


@pytest.fixture
def atom_measure_file(tmp_path):
    mu = OperatorSpectralMeasure(dim=1, atoms=((0.25, np.array([[2.0]])),))
    path = tmp_path / "measure.json"
    path.write_bytes(serialize_measure(mu))
    return path, mu


class TestBochner:
    def test_writes_transform_table(self, tmp_path, atom_measure_file):
        path, mu = atom_measure_file
        out = tmp_path / "cov.csv"
        assert run("bochner", path, out, "--dt", 0.1, "--lags", 4) == 0
        got = covariance_from_csv(out.read_text())
        assert got == covariance_from_spectrum(mu, dt=0.1, lags=4)

    def test_missing_dt_is_a_schema_error(self, tmp_path, atom_measure_file, capsys):
        path, _ = atom_measure_file
        out = tmp_path / "cov.csv"
        assert run("bochner", path, out, "--lags", 4) == 1
        err, _ = read_error(capsys)
        assert err["code"] == "schema"
        assert "dt" in err["message"]
        assert not out.exists()


class TestInverse:
    def test_recovers_mass_from_table(self, tmp_path):
        mu = OperatorSpectralMeasure(dim=1, atoms=((0.5, np.array([[3.0]])),))
        table = covariance_from_spectrum(mu, dt=0.125, lags=32)
        src = tmp_path / "cov.csv"
        out = tmp_path / "mu.json"
        from qwss import covariance_to_csv

        src.write_text(covariance_to_csv(table))
        assert run("inverse", src, out, "--bins", 64) == 0
        got = deserialize_measure(out.read_bytes())
        assert got.density is not None and got.density.values.shape[0] == 64
        assert rel_frob(total_mass(got), table.values[0]) < 1e-9


class TestFilter:
    def test_shift_output_is_byte_identical(self, tmp_path):
        # Unimodular characteristic: the measure is fixed exactly, so the
        # serialized output must not differ by even one float digit.
        src = tmp_path / "in.json"
        src.write_bytes(serialize_measure(rich_measure()))
        fdoc = tmp_path / "shift.json"
        fdoc.write_text(
            json.dumps({"kind": "filter", "variant": "shift", "dim": 2, "s": 0.7})
        )
        out = tmp_path / "out.json"
        assert run("filter", src, fdoc, out) == 0
        assert out.read_bytes() == src.read_bytes()

    def test_exp_operator_matches_library(self, tmp_path):
        mu = white_noise(np.array([[1.0]]), band=2.0, bins=16)
        src = tmp_path / "in.json"
        src.write_bytes(serialize_measure(mu))
        fdoc = tmp_path / "f.json"
        fdoc.write_text(
            json.dumps(
                {
                    "kind": "filter",
                    "variant": "exp_operator",
                    "gamma": [[[1.0, 0.0]]],
                    "a": [[[1.0, 0.0]]],
                }
            )
        )
        out = tmp_path / "out.json"
        assert run("filter", src, fdoc, out) == 0
        want = apply_filter(mu, ExpOperator(gamma=[[1.0]], a=[[1.0]]))
        got = deserialize_measure(out.read_bytes())
        assert rel_frob(got.density.values, want.density.values) < 1e-15

    def test_overflow_to_non_finite_is_one_error_line(self, tmp_path):
        # 400 derivatives multiply the density by (2 pi nu)**800, which
        # overflows; the NaN/inf left behind must fail PSD validation, and
        # numpy's overflow warnings must not reach stderr. Run in a fresh
        # interpreter, since pytest would capture those warnings itself.
        src = tmp_path / "in.json"
        src.write_bytes(serialize_measure(white_noise([[1.0]], band=5.0, bins=8)))
        derivative = {"kind": "filter", "variant": "derivative", "dim": 1}
        doc = derivative
        for _ in range(399):
            doc = {
                "kind": "filter",
                "variant": "composition",
                "first": derivative,
                "second": doc,
            }
        fdoc = tmp_path / "f.json"
        fdoc.write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        proc = subprocess.run(
            [sys.executable, "-m", "qwss", "filter", src, fdoc, out],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        err = json.loads(proc.stderr)["error"]
        assert err["code"] == "not_psd"
        assert "non-finite" in err["message"]
        assert not out.exists()

    def test_unknown_variant_fails_with_location(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        src.write_bytes(serialize_measure(rich_measure()))
        fdoc = tmp_path / "f.json"
        fdoc.write_text(json.dumps({"kind": "filter", "variant": "wavelet", "dim": 2}))
        out = tmp_path / "out.json"
        assert run("filter", src, fdoc, out) == 1
        err, _ = read_error(capsys)
        assert err["code"] == "schema"
        assert err["location"] == "variant"
        assert not out.exists()

    @pytest.mark.parametrize("variant", [{}, [1]], ids=["object", "array"])
    def test_non_string_variant_is_a_schema_error(self, tmp_path, capsys, variant):
        src = tmp_path / "in.json"
        src.write_bytes(serialize_measure(white_noise([[1.0]], band=2.0, bins=4)))
        shift = {"kind": "filter", "variant": "shift", "dim": 1, "s": 0.5}
        bad = {"kind": "filter", "variant": variant, "dim": 1}
        fdoc = tmp_path / "f.json"
        fdoc.write_text(json.dumps(bad))
        cfg = tmp_path / "cfg.json"
        nested = {"kind": "filter", "variant": "composition", "first": bad, "second": shift}
        cfg.write_text(json.dumps({"filter": nested}))
        out = tmp_path / "out.json"
        for argv, location in [
            (("filter", src, fdoc, out), "variant"),
            (("filter", src, fdoc, out, "--config", cfg), "filter.first.variant"),
        ]:
            assert run(*argv) == 1
            err, _ = read_error(capsys)
            assert err["code"] == "schema"
            assert err["location"] == location
        assert not out.exists()


class TestCheckpsd:
    def write_counterexample(self, tmp_path):
        # C(0) = 1, C(0.5) = 2: the two-point Gram [[1, 2], [2, 1]] has
        # eigenvalue -1, so no stationary process has this covariance.
        path = tmp_path / "bad.csv"
        path.write_text("tau,re_00,im_00\n0.0,1.0,0.0\n0.5,2.0,0.0\n")
        return path

    def test_genuine_table_passes(self, tmp_path, capsys):
        mu = white_noise(np.array([[1.5]]), band=2.0, bins=8)
        table = covariance_from_spectrum(mu, dt=0.25, lags=8)
        src = tmp_path / "cov.csv"
        from qwss import covariance_to_csv

        src.write_text(covariance_to_csv(table))
        verdict_path = tmp_path / "verdict.json"
        code = run("checkpsd", src, "--times", "0,0.25,0.5,1.0", "--out", verdict_path)
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "kernel_verdict"
        assert doc["passed"] is True
        assert doc["points"] == 4 and doc["dim"] == 1
        assert doc["witness"] > -1e-12
        assert json.loads(verdict_path.read_text()) == doc

    def test_counterexample_fails_with_exit_two(self, tmp_path, capsys):
        src = self.write_counterexample(tmp_path)
        assert run("checkpsd", src, "--times", "0,0.5") == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is False
        assert doc["witness"] == pytest.approx(-1.0, abs=1e-12)

    def test_off_grid_times_are_an_error(self, tmp_path, capsys):
        src = self.write_counterexample(tmp_path)
        assert run("checkpsd", src, "--times", "0,0.3") == 1
        err, _ = read_error(capsys)
        assert err["code"] == "off_grid_lag"

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tol_out_of_range_is_invalid_value(self, tmp_path, capsys, tol):
        src = tmp_path / "cov.csv"
        src.write_text("tau,re_00,im_00\n0.0,1.0,0.0\n0.5,0.5,0.0\n")
        assert run("checkpsd", src, "--times", "0,0.5", "--tol", tol) == 1
        err, out = read_error(capsys)
        assert err["code"] == "invalid_value" and "tol" in err["message"]
        assert out == ""


class TestKolmogorov:
    def test_factors_psd_kernel(self, tmp_path):
        src = tmp_path / "kernel.json"
        src.write_bytes(serialize_kernel(np.ones((2, 2, 1, 1))))
        out = tmp_path / "factors.json"
        assert run("kolmogorov", src, out) == 0
        fact = deserialize_factorization(out.read_bytes())
        assert fact.rank == 1
        assert np.abs(fact.reconstruction() - 1.0).max() < 1e-12

    def test_rejects_indefinite_kernel(self, tmp_path, capsys):
        src = tmp_path / "kernel.json"
        blocks = np.array([[1.0, 2.0], [2.0, 1.0]]).reshape(2, 2, 1, 1)
        src.write_bytes(serialize_kernel(blocks))
        out = tmp_path / "factors.json"
        assert run("kolmogorov", src, out) == 1
        err, _ = read_error(capsys)
        assert err["code"] == "not_psd"
        assert "-1.0" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tol_out_of_range_is_invalid_value(self, tmp_path, capsys, tol):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
        src = tmp_path / "kernel.json"
        src.write_bytes(serialize_kernel(np.einsum("iax,jay->ijxy", v.conj(), v)))
        out = tmp_path / "factors.json"
        assert run("kolmogorov", src, out, "--tol", tol) == 1
        err, _ = read_error(capsys)
        assert err["code"] == "invalid_value" and "tol" in err["message"]
        assert not out.exists()


class TestModel:
    def test_emits_measure_and_covariance(self, tmp_path):
        model = example_model()
        src = tmp_path / "model.json"
        src.write_bytes(serialize_model(model))
        out = tmp_path / "mu.json"
        cov = tmp_path / "cov.csv"
        code = run(
            "model", src, out, "--covariance", cov, "--dt", 0.2, "--lags", 5
        )
        assert code == 0
        mu = deserialize_measure(out.read_bytes())
        assert len(mu.atoms) == 2
        table = covariance_from_csv(cov.read_text())
        for m in range(6):
            want = model_covariance(model, m * 0.2)
            assert rel_frob(table.values[m], want) < 1e-12


class TestSynth:
    def test_binary_output_matches_library(self, tmp_path, atom_measure_file):
        path, mu = atom_measure_file
        out = tmp_path / "traj.qwss"
        assert run("synth", path, out, "--dt", 0.1, "--n", 64, "--seed", 3) == 0
        got = trajectory_from_binary(out.read_bytes())
        assert got == synthesize(mu, dt=0.1, n=64, seed=3)

    def test_csv_output_by_extension(self, tmp_path, atom_measure_file):
        path, mu = atom_measure_file
        out = tmp_path / "traj.csv"
        assert run("synth", path, out, "--dt", 0.1, "--n", 16, "--seed", 3) == 0
        got = trajectory_from_csv(out.read_text())
        assert got == synthesize(mu, dt=0.1, n=16, seed=3)

    def test_rerun_is_byte_identical(self, tmp_path, atom_measure_file):
        path, _ = atom_measure_file
        a, b = tmp_path / "a.qwss", tmp_path / "b.qwss"
        for out in (a, b):
            assert run("synth", path, out, "--dt", 0.1, "--n", 64, "--seed", 5) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_aliasing_is_reported(self, tmp_path, atom_measure_file, capsys):
        path, _ = atom_measure_file
        out = tmp_path / "traj.qwss"
        # dt = 4 puts the Nyquist edge at 0.125, below the atom at 0.25.
        assert run("synth", path, out, "--dt", 4.0, "--n", 64, "--seed", 3) == 1
        err, _ = read_error(capsys)
        assert err["code"] == "aliasing"


class TestEstimate:
    def test_estimates_spectrum_and_covariance(self, tmp_path, atom_measure_file):
        path, mu = atom_measure_file
        traj = tmp_path / "traj.qwss"
        assert run("synth", path, traj, "--dt", 0.1, "--n", 512, "--seed", 2) == 0
        out = tmp_path / "est.json"
        cov = tmp_path / "est.csv"
        code = run(
            "estimate", traj, out, "--segment", 64, "--covariance", cov, "--lags", 8
        )
        assert code == 0
        est = deserialize_measure(out.read_bytes())
        assert est.atoms == ()
        assert est.density.values.shape[0] == 64
        table = covariance_from_csv(cov.read_text())
        assert table.max_lag_index == 8
        assert table.dt == 0.1


class TestConfig:
    def test_config_overrides_flags(self, tmp_path, atom_measure_file):
        path, mu = atom_measure_file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dt": 0.25, "lags": 3}))
        out = tmp_path / "cov.csv"
        code = run(
            "bochner", path, out, "--dt", 0.1, "--lags", 9, "--config", cfg
        )
        assert code == 0
        got = covariance_from_csv(out.read_text())
        assert got.dt == 0.25 and got.max_lag_index == 3

    def test_unknown_config_key_is_rejected(self, tmp_path, atom_measure_file, capsys):
        path, _ = atom_measure_file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dt": 0.25, "bandwidth": 3}))
        assert run("bochner", path, tmp_path / "c.csv", "--config", cfg) == 1
        err, _ = read_error(capsys)
        assert err["code"] == "schema"
        assert "bandwidth" in err["message"]

    def test_config_command_mismatch_is_rejected(
        self, tmp_path, atom_measure_file, capsys
    ):
        path, _ = atom_measure_file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "synth", "dt": 0.25}))
        assert run("bochner", path, tmp_path / "c.csv", "--config", cfg) == 1
        err, _ = read_error(capsys)
        assert err["code"] == "schema"

    def test_config_redirects_input_and_output(self, tmp_path, atom_measure_file):
        path, mu = atom_measure_file
        real_out = tmp_path / "real.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"input": str(path), "output": str(real_out), "dt": 0.5, "lags": 2}
            )
        )
        decoy_in = tmp_path / "missing.json"
        decoy_out = tmp_path / "decoy.csv"
        assert run("bochner", decoy_in, decoy_out, "--config", cfg) == 0
        assert real_out.exists() and not decoy_out.exists()

    @pytest.mark.parametrize(
        "argv, config, location",
        [
            (("bochner", "in.json", "out.csv"), {"dt": 10**400}, "dt"),
            (("estimate", "in.qwss", "out.json"), {"overlap": 10**400}, "overlap"),
            (("checkpsd", "in.csv"), {"times": [0.0, 10**400]}, "times[1]"),
            (("checkpsd", "in.csv"), {"times": [0.0, float("nan")]}, "times[1]"),
        ],
        ids=["dt", "overlap", "times", "nan-times"],
    )
    def test_number_outside_float_range_is_a_schema_error(
        self, tmp_path, capsys, argv, config, location
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run(*argv, "--config", cfg) == 1
        err, _ = read_error(capsys)
        assert err["code"] == "schema"
        assert err["location"] == location

    def test_times_list_in_config(self, tmp_path, capsys):
        src = tmp_path / "cov.csv"
        src.write_text("tau,re_00,im_00\n0.0,1.0,0.0\n0.5,2.0,0.0\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"times": [0.0, 0.5]}))
        assert run("checkpsd", src, "--config", cfg) == 2
        assert json.loads(capsys.readouterr().out)["passed"] is False


class TestErrorReporting:
    def test_missing_input_file_is_io(self, tmp_path, capsys):
        assert run("bochner", tmp_path / "no.json", tmp_path / "c.csv", "--dt", 1) == 1
        err, out = read_error(capsys)
        assert err["code"] == "io"
        assert out == ""

    def test_missing_output_directory_names_the_output(
        self, tmp_path, capsys, monkeypatch, atom_measure_file
    ):
        path, _ = atom_measure_file
        monkeypatch.chdir(tmp_path)
        assert run("bochner", path, "missing/c.csv", "--dt", 0.1) == 1
        err, out = read_error(capsys)
        assert err["code"] == "io" and out == ""
        assert err["message"].endswith(": 'missing/c.csv'"), err["message"]
        assert list(tmp_path.rglob(".tmp-*~")) == []

    def test_schema_error_carries_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        doc = json.loads(serialize_measure(rich_measure()))
        doc["extra"] = 1
        bad.write_text(json.dumps(doc))
        assert run("bochner", bad, tmp_path / "c.csv", "--dt", 1) == 1
        err, _ = read_error(capsys)
        assert err["code"] == "schema"
        assert err["location"] == "extra"

    @pytest.mark.parametrize(
        "part, index, location",
        [
            ("atoms", 1, "atoms[1].weight"),
            ("density", 2, "density.values[2]"),
        ],
    )
    def test_not_psd_error_carries_location(
        self, tmp_path, capsys, part, index, location
    ):
        bad = tmp_path / "bad.json"
        doc = json.loads(serialize_measure(rich_measure()))
        indefinite = [[[1, 0], [2, 0]], [[2, 0], [1, 0]]]
        if part == "atoms":
            doc["atoms"][index]["weight"] = indefinite
        else:
            doc["density"]["values"][index] = indefinite
        bad.write_text(json.dumps(doc))
        assert run("bochner", bad, tmp_path / "c.csv", "--dt", 1) == 1
        err, _ = read_error(capsys)
        assert err["code"] == "not_psd"
        assert err["location"] == location

    def test_huge_atom_frequency_is_a_schema_error(self, tmp_path, capsys):
        doc = json.loads(serialize_measure(rich_measure()))
        doc["atoms"][0]["nu"] = 10**400
        src = tmp_path / "measure.json"
        src.write_text(json.dumps(doc))
        assert run("bochner", src, tmp_path / "c.csv", "--dt", 0.1) == 1
        err, _ = read_error(capsys)
        assert err["code"] == "schema"
        assert err["location"] == "atoms[0].nu"

    @pytest.mark.parametrize(
        "argv",
        [
            ("bochner", "{deep}", "{out}", "--dt", 0.1),
            ("filter", "{deep}", "{deep}", "{out}"),
            ("kolmogorov", "{deep}", "{out}"),
            ("model", "{deep}", "{out}"),
            ("synth", "{deep}", "{out}", "--dt", 0.1, "--n", 8, "--seed", 1),
            ("inverse", "{out}", "{out}", "--config", "{deep}"),
            ("checkpsd", "{out}", "--config", "{deep}"),
            ("estimate", "{out}", "{out}", "--config", "{deep}"),
            ("demo", "ou", "{out}", "--config", "{deep}"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_deeply_nested_json_is_a_schema_error(self, tmp_path, capsys, argv):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 5000)
        out = tmp_path / "out"
        argv = [str(a).format(deep=deep, out=out) for a in argv]
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        doc = json.loads(captured.err)
        assert set(doc) == {"error"}
        err = doc["error"]
        assert err["code"] == "schema"
        assert "nested too deeply" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, exc, message",
        [
            (("synth", "--n", 8, "--seed", 1), MemoryError("Unable to allocate 16.0 TiB"), "Unable to allocate 16.0 TiB"),
            (("bochner",), MemoryError(), "MemoryError"),
        ],
        ids=["synth", "bochner"],
    )
    def test_out_of_memory_is_a_resource_error(
        self, tmp_path, capsys, monkeypatch, atom_measure_file, argv, exc, message
    ):
        def exhausted(args):
            raise exc

        command, *flags = argv
        monkeypatch.setattr(cli, f"_cmd_{command}", exhausted)
        path, _ = atom_measure_file
        assert run(command, path, tmp_path / "out", "--dt", 0.1, *flags) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        doc = json.loads(captured.err)
        assert doc == {"error": {"code": "resource", "message": message, "location": None}}

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_out_of_range_is_invalid_value(
        self, tmp_path, capsys, atom_measure_file, seed
    ):
        path, _ = atom_measure_file
        out = tmp_path / "traj.qwss"
        runs = [
            ("demo", "ou", tmp_path / "demo", "--seed", seed),
            ("synth", path, out, "--dt", 0.1, "--n", 8, "--seed", seed),
        ]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": seed}))
        runs.append(("synth", path, out, "--dt", 0.1, "--n", 8, "--config", cfg))
        for argv in runs:
            assert run(*argv) == 1
            err, _ = read_error(capsys)
            assert err["code"] == "invalid_value"
            assert err["location"] == "seed"
            assert "2**128" in err["message"]
        assert not out.exists() and not (tmp_path / "demo").exists()

    def test_seed_bounds_are_accepted(self, tmp_path, atom_measure_file):
        path, _ = atom_measure_file
        for seed in (0, 2**128 - 1):
            assert run("synth", path, tmp_path / "t.qwss", "--dt", 0.1, "--n", 8,
                       "--seed", seed) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("bochner", "{bad}", "{out}", "--dt", 0.1),
            ("inverse", "{bad}", "{out}"),
            ("estimate", "{bad}.csv", "{out}", "--segment", 8),
            ("bochner", "{good}", "{out}", "--config", "{bad}"),
        ],
        ids=["json", "covariance_csv", "trajectory_csv", "config"],
    )
    def test_non_utf8_input_is_a_schema_error(
        self, tmp_path, capsys, atom_measure_file, argv
    ):
        bad = tmp_path / "bad"
        for path in (bad, tmp_path / "bad.csv"):
            path.write_bytes(b"tau,re_00,im_00\n0,\xff,0\n")
        out = tmp_path / "out"
        good, _ = atom_measure_file
        assert run(*[str(a).format(bad=bad, good=good, out=out) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        err = json.loads(captured.err)["error"]
        assert err["code"] == "schema"
        assert err["message"].startswith("invalid UTF-8: ")
        assert not out.exists()

    def test_one_row_csv_output_is_refused(self, tmp_path, capsys, atom_measure_file):
        """A written CSV table has the two rows its reader needs for the
        time step; a binary trajectory may hold one sample."""
        measure, mu = atom_measure_file
        model = tmp_path / "model.json"
        model.write_bytes(serialize_model(example_model()))
        traj = tmp_path / "traj.qwss"
        traj.write_bytes(trajectory_to_binary(synthesize(mu, dt=0.1, n=16, seed=1)))
        out, table = tmp_path / "out", tmp_path / "table.csv"
        runs = [
            ("bochner", measure, table, "--dt", 0.1, "--lags", 0),
            ("model", model, out, "--covariance", table, "--dt", 0.1, "--lags", 0),
            ("estimate", traj, out, "--segment", 8, "--covariance", table, "--lags", 0),
            ("demo", "ou", out, "--bins", 64, "--n", 64, "--segment", 16, "--lags", 0),
            ("synth", measure, table, "--dt", 0.1, "--n", 1, "--seed", 1),
        ]
        for argv in runs:
            assert run(*argv) == 1, argv
            err, stdout = read_error(capsys)
            assert err["code"] == "schema" and stdout == ""
            assert "at least two data rows" in err["message"]
            assert not out.exists() and not table.exists()
        assert run("synth", measure, out, "--dt", 0.1, "--n", 1, "--seed", 1) == 0
        assert trajectory_from_binary(out.read_bytes()).n == 1


DEMO_ARGS = (
    "--band", 5, "--bins", 256, "--dt", 0.05,
    "--n", 1024, "--seed", 7, "--lags", 20, "--segment", 128,
)

DEMO_FILES = (
    "spectrum.json",
    "spectrum.csv",
    "covariance.csv",
    "covariance_theory.csv",
    "trajectory.qwss",
    "estimated_spectrum.json",
    "estimated_spectrum.csv",
    "estimated_covariance.csv",
    "summary.json",
)


class TestDemo:
    def test_pipeline_outputs_are_consistent(self, tmp_path):
        out = tmp_path / "demo"
        assert run("demo", "ou", out, *DEMO_ARGS) == 0
        for name in DEMO_FILES:
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert summary["kind"] == "demo_summary"
        for name, meta in summary["outputs"].items():
            data = (out / name).read_bytes()
            assert meta["bytes"] == len(data)
            assert meta["sha256"] == hashlib.sha256(data).hexdigest()
        diag = summary["diagnostics"]
        # Truncating the Lorentzian at W = 5/gamma drops about 2% of its mass.
        assert diag["covariance_zero_lag"] == pytest.approx(
            diag["theory_zero_lag"], rel=0.03
        )
        assert diag["total_mass_rel_error"] < 0.5
        mu = deserialize_measure((out / "spectrum.json").read_bytes())
        assert mu.density.values.shape[0] == 256

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("demo", "ou", a, *DEMO_ARGS) == 0
        assert run("demo", "ou", b, *DEMO_ARGS) == 0
        for name in DEMO_FILES:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_default_run_reproduces_relaxation_variance(self, tmp_path):
        # gamma = 1, s = 1 make the stationary variance s/(2 gamma) = 0.5.
        out = tmp_path / "demo"
        assert run("demo", "ou", out) == 0
        table = covariance_from_csv((out / "covariance.csv").read_text())
        assert table.values[0][0, 0].real == pytest.approx(0.5, rel=0.01)

    def test_golden_files(self, tmp_path, datadir):
        out = tmp_path / "demo"
        assert run("demo", "ou", out, *DEMO_ARGS) == 0
        for name in ("spectrum.json", "summary.json"):
            golden = (datadir / name).read_bytes()
            assert (out / name).read_bytes() == golden, golden_mismatch(name)

    @pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="x86-64 kernels")
    @pytest.mark.parametrize("coretype, needs", [("Haswell", "AVX2"), ("Prescott", "SSE3")])
    def test_golden_files_under_other_blas_kernels(self, tmp_path, datadir, coretype, needs):
        # OpenBLAS picks its kernels as the process starts, so each family
        # runs in a child; no golden byte depends on which one it is
        if not cpu_has(needs):
            pytest.skip(f"the CPU lacks {needs}")
        out = tmp_path / "demo"
        proc = subprocess.run(
            [sys.executable, "-m", "qwss", "demo", "ou", out, *map(str, DEMO_ARGS)],
            capture_output=True,
            text=True,
            env={**os.environ, "OPENBLAS_CORETYPE": coretype},
        )
        assert proc.returncode == 0, proc.stderr
        for name in ("spectrum.json", "summary.json"):
            golden = (datadir / name).read_bytes()
            assert (out / name).read_bytes() == golden, f"{coretype}: {golden_mismatch(name)}"


class TestAllOrNothing:
    """A failed command leaves none of its outputs, and no temp file."""

    def test_failed_demo_leaves_no_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("demo", "ou", out, *DEMO_ARGS, "--dt", 1.5) == 1
        err, stdout = read_error(capsys)
        assert err["code"] == "aliasing" and stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "covariance, lags, code",
        [("c.csv", 600, "invalid_value"), ("missing/c.csv", 8, "io")],
    )
    def test_failed_estimate_leaves_neither_output(
        self, tmp_path, capsys, atom_measure_file, covariance, lags, code
    ):
        path, _ = atom_measure_file
        traj = tmp_path / "in" / "t.qwss"
        traj.parent.mkdir()
        assert run("synth", path, traj, "--dt", 0.1, "--n", 1024, "--seed", 1) == 0
        out = tmp_path / "out"
        out.mkdir()
        argv = ("estimate", traj, out / "e.json", "--segment", 16,
                "--covariance", out / covariance, "--lags", lags)
        assert run(*argv) == 1
        assert read_error(capsys)[0]["code"] == code
        assert list(out.rglob("*")) == []

    def test_synth_csv_round_trips_through_estimate(self, tmp_path, atom_measure_file):
        path, _ = atom_measure_file
        for name in ("t.csv", "t.qwss"):
            assert run("synth", path, tmp_path / name, "--dt", 0.1, "--n", 512,
                       "--seed", 4) == 0
            assert run("estimate", tmp_path / name, tmp_path / f"{name}.json",
                       "--segment", 64) == 0
        csv_est = (tmp_path / "t.csv.json").read_bytes()
        assert csv_est == (tmp_path / "t.qwss.json").read_bytes()


# Every subcommand called on small valid inputs: the leading positionals,
# then the flags. Every size stays small, so nothing allocates much.
CONTRACT = {
    "bochner": (("bochner", "{i}/mu.json", "{o}/c.csv"), {"--dt": "0.25", "--lags": "8"}),
    "inverse": (
        ("inverse", "{i}/cov.csv", "{o}/m.json"),
        {"--bins": "16", "--window": "boxcar"},
    ),
    "filter": (("filter", "{i}/mu.json", "{i}/f.json", "{o}/m.json"), {}),
    "checkpsd": (
        ("checkpsd", "{i}/cov.csv"),
        {"--times": "0,0.25", "--tol": "1e-9", "--out": "{o}/v.json"},
    ),
    "kolmogorov": (("kolmogorov", "{i}/kernel.json", "{o}/k.json"), {"--tol": "1e-9"}),
    "model": (
        ("model", "{i}/model.json", "{o}/m.json"),
        {"--covariance": "{o}/c.csv", "--dt": "0.25", "--lags": "8"},
    ),
    "synth": (
        ("synth", "{i}/mu.json", "{o}/t.qwss"),
        {"--dt": "0.25", "--n": "64", "--seed": "1"},
    ),
    "estimate": (
        ("estimate", "{i}/t.qwss", "{o}/m.json"),
        {
            "--segment": "16",
            "--taper": "boxcar",
            "--covariance": "{o}/c.csv",
            "--lags": "8",
        },
    ),
    "demo": (
        ("demo", "ou", "{o}/demo"),
        dict(zip(DEMO_ARGS[::2], map(str, DEMO_ARGS[1::2]))),
    ),
}


class TestUsageContract:
    """A malformed, out-of-range or missing parameter and a malformed command
    line each exit 1 with one JSON error line, no stdout and no output file;
    flags and config keys share their checks."""

    @pytest.fixture
    def dirs(self, tmp_path):
        i, o = tmp_path / "in", tmp_path / "out"
        i.mkdir()
        o.mkdir()
        mu = white_noise(np.array([[1.0]]), band=2.0, bins=16)
        (i / "mu.json").write_bytes(serialize_measure(mu))
        shift = {"kind": "filter", "variant": "shift", "dim": 1, "s": 0.5}
        (i / "f.json").write_text(json.dumps(shift))
        table = covariance_from_spectrum(mu, dt=0.25, lags=8)
        (i / "cov.csv").write_text(covariance_to_csv(table))
        (i / "kernel.json").write_bytes(serialize_kernel(np.ones((2, 2, 1, 1))))
        (i / "model.json").write_bytes(serialize_model(example_model()))
        traj = synthesize(mu, dt=0.25, n=64, seed=1)
        (i / "t.qwss").write_bytes(trajectory_to_binary(traj))
        return i, o

    @staticmethod
    def argv(dirs, sub, changes=(), drop_positional=False):
        head, flags = CONTRACT[sub]
        flags = dict(flags)
        for flag, value in dict(changes).items():
            flags.pop(flag, None)
            if value is not None:
                flags[flag] = value
        argv = list(head[:-1] if drop_positional else head)
        for flag, value in flags.items():
            argv += [flag, value]
        i, o = dirs
        return [a.format(i=i, o=o) for a in argv]

    @staticmethod
    def one_error(dirs, capsys, argv):
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1, captured.err
        doc = json.loads(captured.err)
        assert set(doc) == {"error"} and set(doc["error"]) == {"code", "message", "location"}
        assert list(dirs[1].rglob("*")) == []
        return doc["error"]

    @pytest.mark.parametrize("sub", sorted(CONTRACT))
    def test_base_call_succeeds(self, dirs, capsys, sub):
        assert run(*self.argv(dirs, sub)) == 0
        assert list(dirs[1].iterdir())

    @pytest.mark.parametrize(
        "sub, flag, value, code, location",
        [
            ("bochner", "--dt", "abc", "schema", "dt"),
            ("bochner", "--lags", "-1", "invalid_value", "lags"),
            ("inverse", "--bins", "1e3", "schema", "bins"),
            ("inverse", "--bins", "0", "invalid_value", "bins"),
            ("inverse", "--window", "hamming", "schema", "window"),
            ("checkpsd", "--tol", "abc", "schema", "tol"),
            ("checkpsd", "--tol", "-1", "invalid_value", "tol"),
            ("checkpsd", "--times", "0,x", "schema", "times[1]"),
            ("checkpsd", "--times", "0,nan", "invalid_value", "times[1]"),
            ("checkpsd", "--times", "0,1e400", "invalid_value", "times[1]"),
            # numbered as written, the blank field included
            ("checkpsd", "--times", "0,,nan", "invalid_value", "times[2]"),
            ("checkpsd", "--times", "0,,x", "schema", "times[2]"),
            ("checkpsd", "--times", ",x,nan", "schema", "times[1]"),
            ("kolmogorov", "--tol", "1e-9x", "schema", "tol"),
            ("kolmogorov", "--tol", "inf", "invalid_value", "tol"),
            ("model", "--lags", "1.5", "schema", "lags"),
            ("model", "--dt", "0", "invalid_value", "dt"),
            ("model", "--dt", None, "schema", "dt"),
            ("synth", "--seed", "0x10", "schema", "seed"),
            ("synth", "--n", "0", "invalid_value", "n"),
            ("synth", "--seed", None, "schema", "seed"),
            ("estimate", "--overlap", "half", "schema", "overlap"),
            ("estimate", "--overlap", "0.95", "invalid_value", "overlap"),
            ("estimate", "--taper", "hamming", "schema", "taper"),
            ("estimate", "--lags", None, "schema", "lags"),
            ("demo", "--n", "1e3", "schema", "n"),
            ("demo", "--gamma", "nan", "invalid_value", "gamma"),
            ("demo", "--bins", "0", "invalid_value", "bins"),
        ],
    )
    def test_bad_or_missing_flag(self, dirs, capsys, sub, flag, value, code, location):
        err = self.one_error(dirs, capsys, self.argv(dirs, sub, {flag: value}))
        assert (err["code"], err["location"]) == (code, location)

    @pytest.mark.parametrize(
        "sub, flag, value, message",
        [
            ("synth", "--n", "63", "n must be a power of two, got 63"),
            ("demo", "--n", "1000", "n must be a power of two, got 1000"),
            ("estimate", "--segment", "15", "segment must be even and >= 2, got 15"),
            ("demo", "--segment", "0", "segment must be even and >= 2, got 0"),
        ],
    )
    def test_single_parameter_constraint_fails_before_io(
        self, dirs, capsys, sub, flag, value, message
    ):
        argv = self.argv(dirs, sub, {flag: value})
        if sub != "demo":
            argv[1] = str(dirs[0] / "missing")
        err = self.one_error(dirs, capsys, argv)
        assert err == {"code": "invalid_value", "message": message, "location": flag[2:]}

    @pytest.mark.parametrize(
        "sub, flag, value, message",
        [
            ("estimate", "--lags", "32", "lags must satisfy 0 <= lags < n/2, got 32 with n=64"),
            ("estimate", "--segment", "64", "need at least 2 segments, got 1 (n=64, segment=64)"),
            ("inverse", "--bins", "3", "bins (3) must be >= number of lags (9)"),
        ],
    )
    def test_constraint_on_the_input_names_its_flag(self, dirs, capsys, sub, flag, value, message):
        err = self.one_error(dirs, capsys, self.argv(dirs, sub, {flag: value}))
        assert err == {"code": "invalid_value", "message": message, "location": flag[2:]}

    @pytest.mark.parametrize("sub", sorted(CONTRACT))
    @pytest.mark.parametrize("change", ["unknown flag", "missing positional"])
    def test_malformed_command_line(self, dirs, capsys, sub, change):
        if change == "unknown flag":
            argv = self.argv(dirs, sub, {"--bogus": "1"})
        else:
            argv = self.argv(dirs, sub, drop_positional=True)
        err = self.one_error(dirs, capsys, argv)
        assert err["code"] == "schema"

    @pytest.mark.parametrize("argv", [(), ("nope",), ("demo",)], ids=repr)
    def test_missing_or_unknown_subcommand(self, dirs, capsys, argv):
        assert self.one_error(dirs, capsys, argv)["code"] == "schema"

    @pytest.mark.parametrize(
        "sub, key, text, value",
        [
            ("bochner", "lags", "-1", -1),
            ("inverse", "bins", "0", 0),
            ("inverse", "window", "hamming", "hamming"),
            ("checkpsd", "tol", "0", 0),
            ("kolmogorov", "tol", "-1", -1),
            ("model", "dt", "0", 0),
            ("synth", "n", "0", 0),
            ("estimate", "overlap", "0.95", 0.95),
            ("estimate", "segment", "0", 0),
            ("demo", "band", "-5", -5),
        ],
    )
    def test_flag_and_config_share_checks(self, dirs, capsys, tmp_path, sub, key, text, value):
        flag_err = self.one_error(dirs, capsys, self.argv(dirs, sub, {f"--{key}": text}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        argv = self.argv(dirs, sub, {"--config": str(cfg)})
        assert self.one_error(dirs, capsys, argv) == flag_err
        assert flag_err["location"] == key

    def test_config_keys_are_flags_and_positionals(self, dirs, tmp_path):
        i, o = dirs
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "checkpsd", "input": str(i / "cov.csv"), "out": str(o / "v.json")}))
        assert run("checkpsd", "missing.csv", "--times", "0,0.25", "--config", cfg) == 0
        assert (o / "v.json").exists()
        cfg.write_text(json.dumps({"output": str(o / "demo")}))
        assert run("demo", "ou", tmp_path / "decoy", *DEMO_ARGS, "--config", cfg) == 0
        assert (o / "demo" / "summary.json").exists() and not (tmp_path / "decoy").exists()

    @pytest.mark.parametrize("sub", sorted(CONTRACT))
    def test_help_exits_zero(self, capsys, sub):
        with pytest.raises(SystemExit) as exc:
            run(*CONTRACT[sub][0][: 2 if sub == "demo" else 1], "-h")
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


# The fuzzed command lines: every subcommand and some that are not one, any
# flag of any subcommand (so unknown ones too), repeated or without its value,
# malformed values, input paths that do not exist and "-h" anywhere.
_FLAGS = sorted({f"--{p.name}" for _, ps in cli._COMMANDS.values() for p in ps if not p.positional})
_VALUES = ("nan", "1e400", "0x10", "1_000", "", "-1", "0", "0.5", "2", "64", "hann", "0,0.25")
_PATHS = ("in.json", "in.csv", "out.json", "t.qwss", "missing/o.csv", "", "nan")
_rarely = st.sampled_from((False, False, False, True))


@st.composite
def command_lines(draw):
    name = draw(st.sampled_from([*cli._COMMANDS, "nope", "ou", None]))
    head = [] if name is None else name.split()
    if name == "demo ou" and draw(_rarely):
        head[1] = "xx"
    params = cli._COMMANDS.get(name, ("", ()))[1]
    count = sum(p.positional for p in params)
    if draw(_rarely):  # missing or extra positionals
        count = draw(st.integers(0, 4))
    pieces = [[p] for p in draw(st.lists(st.sampled_from(_PATHS), min_size=count, max_size=count))]
    own = [f"--{p.name}" for p in params if not p.positional]
    flags = [*_FLAGS, "--config", "--bogus"] if not own or draw(_rarely) else own
    for flag in draw(st.lists(st.sampled_from(flags), max_size=5)):
        value = draw(st.sampled_from([*_VALUES, *_PATHS, None]))
        pieces.append([flag] if value is None else [flag, value])
    argv = head + [a for piece in draw(st.permutations(pieces)) for a in piece]
    if draw(_rarely):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["-h", "--help"])))
    return argv


def _outcome(call):
    """What ``call()`` returned or raised, with its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = ("returned", call())
        except SchemaError as exc:
            result = ("schema", str(exc))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


class TestFuzzedCommandLines:
    """``main`` builds only the subcommand that ``argv`` names. On any command
    line that parser gives what the parser of all nine gives, and the usage
    contract holds: exit 0, or 1 with one JSON error line and no stdout, 2
    only from ``checkpsd``, and no output or temp file once a command fails."""

    @settings(max_examples=300, deadline=None)
    @given(argv=command_lines())
    def test_one_subparser_parses_as_all_nine_and_main_keeps_the_contract(self, argv):
        def parse(parser):
            (kind, value), out, err = _outcome(lambda: parser.parse_args(argv))
            return (kind, vars(value) if kind == "returned" else value), out, err

        assert parse(cli.build_parser(argv)) == parse(cli.build_parser())
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                (kind, status), out, err = _outcome(lambda: main(argv))
            finally:
                os.chdir(cwd)
            files = [p for p in Path(tmp).rglob("*") if p.is_file()]
            temps = list(Path(tmp).rglob(".tmp-*~"))
        assert kind in ("returned", "exit") and status in (0, 1, 2)
        assert temps == []
        if status == 1:
            assert out == "" and len(err.splitlines()) == 1, (out, err)
            doc = json.loads(err)
            assert set(doc) == {"error"} and set(doc["error"]) == {"code", "message", "location"}
            assert files == []
        else:
            assert err == ""
            assert status == 0 or argv[0] == "checkpsd"
            assert kind == "exit" or argv[:2] == ["demo", "ou"] or files == []


@pytest.fixture
def datadir():
    import pathlib

    return pathlib.Path(__file__).parent / "data" / "demo_ou"


class TestConsoleScript:
    def test_imports_leave_out_secrets_and_hashlib(self):
        check = (
            "import sys\n"
            "for name in ('qwss', 'qwss.cli'):\n"
            "    __import__(name)\n"
            "    sys.modules['qwss'].DensityGrid  # the seven modules, not the package alone\n"
            "    loaded = [m for m in ('secrets', '_hashlib') if m in sys.modules]\n"
            "    assert not loaded, (name, loaded)\n"
        )
        proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_imports_leave_out_dataclasses(self):
        # every CLI child would pay for its import; the records need none
        check = "import sys, qwss.cli\nassert 'dataclasses' not in sys.modules\n"
        proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qwss", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "bochner" in proc.stdout

    def test_usage_error_exits_one_with_json(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "qwss", "checkpsd", tmp_path / "no.csv", "--tol", "abc"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        err = json.loads(proc.stderr)["error"]
        assert (err["code"], err["location"]) == ("schema", "tol")
