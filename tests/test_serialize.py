"""Round-trip and strictness tests for every serialization format.

Each JSON document kind must survive serialize/deserialize unchanged, emit
byte-identical output for equal inputs, and reject malformed documents with
a schema error that names the offending location. The CSV and binary codecs
get the same treatment.
"""

import copy
import csv
import functools
import io
import json
import math
import os
import stat
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qwss import (
    Composition,
    CovarianceTable,
    DensityGrid,
    Derivative,
    ExpOperator,
    KernelVerdict,
    KolmogorovFactorization,
    Mode,
    NotPositiveSemidefiniteError,
    OperatorSpectralMeasure,
    QuantumModel,
    ScalarConvolution,
    SchemaError,
    Shift,
    Tabulated,
    Trajectory,
    covariance_from_csv,
    covariance_to_csv,
    deserialize_factorization,
    deserialize_filter,
    deserialize_kernel,
    deserialize_measure,
    deserialize_model,
    deserialize_verdict,
    kolmogorov_decompose,
    serialize_factorization,
    serialize_filter,
    serialize_kernel,
    serialize_measure,
    serialize_model,
    serialize_verdict,
    trajectory_from_binary,
    trajectory_from_csv,
    trajectory_to_binary,
    trajectory_to_csv,
)
from qwss import serialize as ser
from qwss.errors import COUNT, SIZE
from qwss.cli import main
from qwss.serialize import density_to_csv, write_files

from helpers import count_psd_checks, random_complex_matrix, random_psd, rng_for

HUGE = 10**400  # a JSON integer past the float range
B2 = np.array([[2, 1j], [-1j, 1]], dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def rich_measure():
    rng = rng_for(60)
    den = DensityGrid(
        nu_min=-1.5,
        nu_max=2.5,
        values=np.stack([random_psd(rng, 2) for _ in range(4)]),
    )
    return OperatorSpectralMeasure(
        dim=2,
        atoms=((-0.4, B2), (1.25, random_psd(rng, 2))),
        density=den,
    )


def example_model():
    return QuantumModel(
        dim_system=2,
        dim_environment=2,
        env_state=np.eye(2) / 2,
        modes=(
            Mode(nu=-0.75, system_op=[[1, 0.5j], [0, 1]], environment_op=SX),
            Mode(nu=0.4, system_op=[[0, 1], [1, 0.25]], environment_op=SY),
        ),
    )


class TestMeasureDocuments:
    def test_round_trip_with_density(self):
        mu = rich_measure()
        assert deserialize_measure(serialize_measure(mu)) == mu

    def test_round_trip_atoms_only(self):
        mu = OperatorSpectralMeasure(dim=2, atoms=((0.3, B2),))
        assert deserialize_measure(serialize_measure(mu)) == mu

    def test_round_trip_empty(self):
        mu = OperatorSpectralMeasure(dim=3, atoms=())
        assert deserialize_measure(serialize_measure(mu)) == mu

    def test_density_key_absent_when_no_density(self):
        doc = json.loads(serialize_measure(OperatorSpectralMeasure(dim=1, atoms=())))
        assert "density" not in doc

    def test_bytes_are_deterministic(self):
        mu = rich_measure()
        assert serialize_measure(mu) == serialize_measure(mu)

    def test_output_shape(self):
        data = serialize_measure(rich_measure())
        text = data.decode("utf-8")
        assert text.endswith("\n")
        assert text.startswith('{\n  "kind": "spectral_measure"')

    def test_rejects_indefinite_atom_weight_with_location(self):
        doc = json.loads(serialize_measure(rich_measure()))
        doc["atoms"][1]["weight"] = [[[1, 0], [2, 0]], [[2, 0], [1, 0]]]
        with pytest.raises(NotPositiveSemidefiniteError, match=r"^atom 1 weight ") as exc:
            deserialize_measure(json.dumps(doc).encode())
        assert exc.value.location == "atoms[1].weight"
        assert exc.value.witness == pytest.approx(-1.0)

    def test_rejects_indefinite_density_bin_with_location(self):
        doc = json.loads(serialize_measure(rich_measure()))
        doc["density"]["values"][2] = [[[1, 0], [2, 0]], [[2, 0], [1, 0]]]
        with pytest.raises(NotPositiveSemidefiniteError, match=r"^density bin 2 ") as exc:
            deserialize_measure(json.dumps(doc).encode())
        assert exc.value.location == "density.values[2]"

    def test_one_psd_check_per_part(self, monkeypatch):
        mu = rich_measure()
        data = serialize_measure(mu)
        shapes = count_psd_checks(monkeypatch)
        assert deserialize_measure(data) == mu
        assert sorted(shapes) == [(2, 2, 2), (4, 2, 2)]  # atoms, density bins

    def test_rejects_unknown_top_level_key(self):
        doc = json.loads(serialize_measure(rich_measure()))
        doc["comment"] = "hello"
        with pytest.raises(SchemaError, match="comment"):
            deserialize_measure(json.dumps(doc).encode())

    def test_rejects_missing_key(self):
        doc = json.loads(serialize_measure(rich_measure()))
        del doc["atoms"]
        with pytest.raises(SchemaError, match="atoms"):
            deserialize_measure(json.dumps(doc).encode())

    def test_rejects_wrong_kind(self):
        doc = json.loads(serialize_measure(rich_measure()))
        doc["kind"] = "filter"
        with pytest.raises(SchemaError, match="kind"):
            deserialize_measure(json.dumps(doc).encode())

    def test_rejects_bad_complex_encoding(self):
        doc = json.loads(serialize_measure(rich_measure()))
        doc["atoms"][0]["weight"][0][0] = [1.0]
        with pytest.raises(SchemaError) as exc:
            deserialize_measure(json.dumps(doc).encode())
        assert exc.value.location == "atoms[0].weight"

    def test_rejects_invalid_json(self):
        with pytest.raises(SchemaError):
            deserialize_measure(b"{not json")

    def test_rejects_non_object_document(self):
        with pytest.raises(SchemaError):
            deserialize_measure(b"[1, 2]\n")

    @pytest.mark.parametrize(
        "path, location",
        [
            (("atoms", 0, "nu"), "atoms[0].nu"),
            (("atoms", 0, "weight", 0, 0, 0), "atoms[0].weight"),
            (("density", "values", 1, 1, 0, 1), "density.values[1]"),
        ],
    )
    def test_int_past_float_range_is_a_schema_error(self, path, location):
        doc = json.loads(serialize_measure(rich_measure()))
        *head, last = path
        node = doc
        for key in head:
            node = node[key]
        node[last] = HUGE
        with pytest.raises(SchemaError, match="too large") as exc:
            deserialize_measure(json.dumps(doc).encode())
        assert exc.value.location == location


class TestFilterDocuments:
    @pytest.mark.parametrize(
        "filt",
        [
            Shift(dim=2, s=0.75),
            Derivative(dim=3),
            ExpOperator(gamma=[[2.0, 0.3], [0.3, 1.0]], a=[[1.0, 0.0], [0.5, 1.0]]),
            Tabulated(
                nu_min=-1.0,
                nu_max=1.0,
                values=np.stack([np.eye(2) * (k + 1) for k in range(4)]).astype(
                    complex
                ),
            ),
            Composition(first=Shift(dim=2, s=0.5), second=Derivative(dim=2)),
        ],
        ids=["shift", "derivative", "exp_operator", "tabulated", "composition"],
    )
    def test_round_trip(self, filt):
        assert deserialize_filter(serialize_filter(filt)) == filt

    def test_nested_composition_round_trip(self):
        filt = Composition(
            first=Composition(first=Shift(dim=1, s=1.0), second=Derivative(dim=1)),
            second=Shift(dim=1, s=-0.25),
        )
        assert deserialize_filter(serialize_filter(filt)) == filt

    def test_scalar_convolution_is_not_serializable(self):
        filt = ScalarConvolution(dim=2, hhat=lambda nu: 1.0 / (1.0 + nu * nu))
        with pytest.raises(SchemaError, match="tabulate"):
            serialize_filter(filt)

    def test_rejects_unknown_variant(self):
        with pytest.raises(SchemaError, match="variant"):
            deserialize_filter(
                b'{"kind": "filter", "variant": "wavelet", "dim": 1}\n'
            )

    def test_rejects_extra_key_for_variant(self):
        doc = json.loads(serialize_filter(Derivative(dim=2)))
        doc["s"] = 1.0
        with pytest.raises(SchemaError, match="s"):
            deserialize_filter(json.dumps(doc).encode())

    def test_rejects_non_square_multiplier_at_first_bin(self):
        doc = json.loads(serialize_filter(Tabulated(-1.0, 1.0, np.stack([B2, B2]))))
        del doc["values"][0][1]
        with pytest.raises(SchemaError, match="must be square") as exc:
            deserialize_filter(json.dumps(doc).encode())
        assert exc.value.location == "values[0]"

    def test_rejects_broken_nested_filter_with_path(self):
        doc = json.loads(
            serialize_filter(
                Composition(first=Shift(dim=1, s=0.5), second=Derivative(dim=1))
            )
        )
        doc["second"]["variant"] = "wavelet"
        with pytest.raises(SchemaError) as exc:
            deserialize_filter(json.dumps(doc).encode())
        assert exc.value.location == "second.variant"


class TestModelDocuments:
    def test_round_trip(self):
        model = example_model()
        assert deserialize_model(serialize_model(model)) == model

    def test_deserialization_revalidates_modes(self):
        doc = json.loads(serialize_model(example_model()))
        # Same frequency twice violates the model constraints.
        doc["modes"][1]["nu"] = doc["modes"][0]["nu"]
        with pytest.raises(ValueError, match="distinct"):
            deserialize_model(json.dumps(doc).encode())

    def test_rejects_unknown_key(self):
        doc = json.loads(serialize_model(example_model()))
        doc["modes"][0]["phase"] = 0.1
        with pytest.raises(SchemaError, match="phase"):
            deserialize_model(json.dumps(doc).encode())


class TestKernelDocuments:
    def test_round_trip(self):
        rng = rng_for(61)
        v = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        blocks = np.einsum("iax,jay->ijxy", v.conj(), v)
        got = deserialize_kernel(serialize_kernel(blocks))
        assert np.allclose(got, blocks, atol=0)

    def test_rejects_ragged_blocks(self):
        doc = json.loads(serialize_kernel(np.ones((2, 2, 1, 1))))
        del doc["blocks"][1][1]
        with pytest.raises(SchemaError) as exc:
            deserialize_kernel(json.dumps(doc).encode())
        assert exc.value.location == "blocks[1]"

    def test_rejects_bad_scalar_with_path(self):
        doc = json.loads(serialize_kernel(np.ones((2, 2, 1, 1))))
        doc["blocks"][0][1] = [[1, 0]]
        with pytest.raises(SchemaError) as exc:
            deserialize_kernel(json.dumps(doc).encode())
        assert exc.value.location == "blocks[0][1]"


class TestFactorizationDocuments:
    def test_round_trip(self):
        fact = kolmogorov_decompose(np.ones((2, 2, 1, 1)))
        got = deserialize_factorization(serialize_factorization(fact))
        assert got.rank == fact.rank
        assert np.allclose(got.factors, fact.factors, atol=0)

    def test_round_trip_rank_zero(self):
        fact = KolmogorovFactorization(rank=0, factors=np.zeros((3, 0, 2)))
        got = deserialize_factorization(serialize_factorization(fact))
        assert got.rank == 0 and got.factors.shape == (3, 0, 2)

    def test_rejects_rank_factor_mismatch(self):
        fact = kolmogorov_decompose(np.ones((2, 2, 1, 1)))
        doc = json.loads(serialize_factorization(fact))
        doc["rank"] = 2
        with pytest.raises(SchemaError):
            deserialize_factorization(json.dumps(doc).encode())

    @pytest.mark.parametrize(
        "key, value, message",
        [("rank", -1, "must be >= 0, got -1"), ("dim", 0, "must be >= 1, got 0")],
    )
    def test_integer_fields_are_checked_against_their_range(self, key, value, message):
        doc = json.loads(serialize_factorization(kolmogorov_decompose(np.ones((2, 2, 1, 1)))))
        doc[key] = value
        with pytest.raises(SchemaError) as exc:
            deserialize_factorization(json.dumps(doc).encode())
        assert (str(exc.value), exc.value.location, exc.value.code) == (message, key, "schema")


class TestVerdictDocuments:
    def test_round_trip_with_witness(self):
        v = KernelVerdict(passed=True, witness=1.5e-3, points=4, dim=2)
        got = deserialize_verdict(serialize_verdict(v))
        assert got == v

    def test_round_trip_without_witness(self):
        v = KernelVerdict(passed=False, witness=None, points=2, dim=1)
        data = serialize_verdict(v)
        assert "witness" not in json.loads(data)
        assert deserialize_verdict(data) == v

    def test_rejects_non_boolean_flag(self):
        with pytest.raises(SchemaError) as exc:
            deserialize_verdict(
                b'{"kind": "kernel_verdict", "passed": 1, "dim": 1, "points": 2}\n'
            )
        assert exc.value.location == "passed"


class TestCovarianceCsv:
    def test_round_trip_is_exact(self):
        rng = rng_for(62)
        vals = np.stack(
            [random_psd(rng, 2)] + [random_complex_matrix(rng, 2) for _ in range(3)]
        )
        table = CovarianceTable(dt=0.125, values=vals)
        got = covariance_from_csv(covariance_to_csv(table))
        assert got == table

    def test_header_layout(self):
        table = CovarianceTable(dt=0.5, values=np.zeros((2, 2, 2)))
        first = covariance_to_csv(table).splitlines()[0]
        assert first == (
            "tau,re_00,im_00,re_01,im_01,re_10,im_10,re_11,im_11"
        )

    def test_rejects_header_mismatch(self):
        table = CovarianceTable(dt=0.5, values=np.zeros((3, 1, 1)))
        text = covariance_to_csv(table).replace("re_00", "real_00")
        with pytest.raises(SchemaError, match="header"):
            covariance_from_csv(text)

    def test_rejects_single_data_row(self):
        table = CovarianceTable(dt=0.5, values=np.zeros((3, 1, 1)))
        lines = covariance_to_csv(table).splitlines()[:2]
        with pytest.raises(SchemaError, match="two data rows"):
            covariance_from_csv("\n".join(lines) + "\n")

    def test_rejects_non_numeric_cell(self):
        table = CovarianceTable(dt=0.5, values=np.zeros((3, 1, 1)))
        text = covariance_to_csv(table).replace("0.0", "zero", 1)
        with pytest.raises(SchemaError):
            covariance_from_csv(text)

    def test_writer_refuses_an_index_that_overflows(self):
        # the row "inf,1.0,0.0" would be written, and the reader rejects it
        with pytest.raises(SchemaError, match="^index column overflows") as exc:
            covariance_to_csv(CovarianceTable(1e308, np.ones((3, 1, 1))))
        assert exc.value.location == "dt"

    def test_rejects_uneven_time_grid(self):
        text = "tau,re_0,im_0\n0.0,1.0,0.0\n0.5,1.0,0.0\n1.25,1.0,0.0\n"
        text = text.replace("re_0,im_0", "re_0,im_0")
        with pytest.raises(SchemaError, match="spacing|uniform"):
            covariance_from_csv(text.replace("re_0", "re_00").replace("im_0", "im_00"))


class TestTrajectoryCsv:
    def test_round_trip_is_exact(self):
        rng = rng_for(63)
        samples = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        traj = Trajectory(dt=0.01, samples=samples)
        assert trajectory_from_csv(trajectory_to_csv(traj)) == traj

    def test_header_layout(self):
        traj = Trajectory(dt=1.0, samples=np.zeros((2, 2)))
        assert trajectory_to_csv(traj).splitlines()[0] == "t,re_0,im_0,re_1,im_1"

    def test_writer_refuses_an_index_that_overflows(self):
        with pytest.raises(SchemaError, match="^index column overflows") as exc:
            trajectory_to_csv(Trajectory(dt=1e308, samples=np.ones((3, 1))))
        assert exc.value.location == "dt"


# CSV text with {i} for the index column and {h} for the entry columns, the
# message and the location of each rejection of the CSV reader
CSV_REJECTIONS = [
    pytest.param("", "empty CSV", None, id="empty"),
    pytest.param(
        "x,{h}\n0,1,0\n1,1,0\n", "first column must be '{i}', got ['x']", "header",
        id="index_name",
    ),
    pytest.param(
        "{i}\n0\n1\n", "need re/im column pairs after the index", "header", id="pairs"
    ),
    pytest.param(
        "{i},{h}\n0,1,0\n1,1\n", "row 1 has 2 fields, expected 3", None, id="fields"
    ),
    pytest.param(
        "{i},{h}\n0,1,0\n1,nan,0\n", "row 1 holds a non-finite value", None,
        id="non_finite",
    ),
    pytest.param(
        "{i},{h}\n0.5,1,0\n1,1,0\n", "index must start at 0, got 0.5", None, id="start"
    ),
    pytest.param(
        "{i},{h}\n0,1,0\n-1,1,0\n", "index must increase, got step -1.0", None,
        id="increase",
    ),
]


class TestCsvReaderRejections:
    @pytest.mark.parametrize(
        "read, index, entries",
        [
            (covariance_from_csv, "tau", "re_00,im_00"),
            (trajectory_from_csv, "t", "re_0,im_0"),
        ],
        ids=["covariance", "trajectory"],
    )
    @pytest.mark.parametrize("text, message, location", CSV_REJECTIONS)
    def test_message_and_location(self, read, index, entries, text, message, location):
        with pytest.raises(SchemaError) as exc:
            read(text.format(i=index, h=entries))
        assert type(exc.value) is SchemaError
        assert str(exc.value) == message.format(i=index)
        assert exc.value.location == location


class TestTrajectoryBinary:
    def test_round_trip_is_exact(self):
        rng = rng_for(64)
        samples = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        traj = Trajectory(dt=0.25, samples=samples, seed=9)
        got = trajectory_from_binary(trajectory_to_binary(traj))
        assert got == traj
        assert got.seed is None  # provenance is not part of the format

    def test_layout(self):
        traj = Trajectory(dt=0.5, samples=np.ones((3, 2)))
        data = trajectory_to_binary(traj)
        assert data[:4] == b"QWSS"
        assert len(data) == 28 + 16 * 6

    def test_rejects_bad_magic(self):
        data = trajectory_to_binary(Trajectory(dt=1.0, samples=np.ones((2, 1))))
        with pytest.raises(SchemaError, match="magic"):
            trajectory_from_binary(b"XXXX" + data[4:])

    def test_rejects_unknown_version(self):
        data = bytearray(trajectory_to_binary(Trajectory(dt=1.0, samples=np.ones((2, 1)))))
        data[4] = 99
        with pytest.raises(SchemaError, match="version"):
            trajectory_from_binary(bytes(data))

    def test_rejects_truncation_and_trailing_bytes(self):
        data = trajectory_to_binary(Trajectory(dt=1.0, samples=np.ones((2, 1))))
        with pytest.raises(SchemaError):
            trajectory_from_binary(data[:10])
        with pytest.raises(SchemaError):
            trajectory_from_binary(data[:-8])
        with pytest.raises(SchemaError):
            trajectory_from_binary(data + b"\x00")

    @pytest.mark.parametrize("dt", [math.nan, 0.0, -0.1, math.inf])
    def test_bad_header_dt_is_a_schema_error(self, dt, tmp_path, capsys):
        data = struct.pack("<4sIIQd", b"QWSS", 1, 1, 64, dt) + bytes(16 * 64)
        with pytest.raises(SchemaError, match=r"^invalid time step dt="):
            trajectory_from_binary(data)
        path, out = tmp_path / "t.qwss", tmp_path / "o.json"
        path.write_bytes(data)
        assert main(["estimate", str(path), str(out), "--segment", "16"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert json.loads(captured.err)["error"]["code"] == "schema"
        assert not out.exists()

    def test_decodes_with_one_copy(self):
        rng = rng_for(65)
        traj = Trajectory(dt=0.1, samples=rng.standard_normal((2**16, 4)) + 0j)
        data = trajectory_to_binary(traj)
        tracemalloc.start()
        try:
            got = trajectory_from_binary(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * got.samples.nbytes
        assert got == traj


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        target = tmp_path / "out.json"
        write_files({target: b"payload"})
        assert target.read_bytes() == b"payload"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_overwrites_existing(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_bytes(b"old")
        write_files({target: b"new"})
        assert target.read_bytes() == b"new"

    def test_failed_staging_leaves_earlier_targets_untouched(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        first.write_bytes(b"old a")
        second.write_bytes(b"old b")
        files = {first: b"new a", second: b"new b", tmp_path / "no" / "c.json": b"c"}
        with pytest.raises(FileNotFoundError):
            write_files(files)
        assert first.read_bytes() == b"old a" and second.read_bytes() == b"old b"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]

    def test_directory_target_is_refused_before_any_rename(self, tmp_path):
        (tmp_path / "d").mkdir()
        with pytest.raises(IsADirectoryError):
            write_files({tmp_path / "a.json": b"a", tmp_path / "d": b"d"})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]

    def test_new_files_follow_the_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            write_files({tmp_path / "out.json": b"x"})
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "out.json").stat().st_mode) == 0o640


finite = st.floats(
    min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False
)


class TestRoundTripProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(finite, min_size=0, max_size=4, unique=True),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_measures_round_trip(self, nus, d, seed):
        rng = rng_for(seed)
        atoms = tuple((nu, random_psd(rng, d)) for nu in sorted(nus))
        density = None
        if seed % 2:
            density = DensityGrid(
                nu_min=-6.0,
                nu_max=6.0,
                values=np.stack([random_psd(rng, d) for _ in range(3)]),
            )
        mu = OperatorSpectralMeasure(dim=d, atoms=atoms, density=density)
        assert deserialize_measure(serialize_measure(mu)) == mu

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_trajectories_round_trip_binary(self, n, d, seed):
        rng = rng_for(seed)
        samples = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        traj = Trajectory(dt=float(rng.uniform(0.01, 2.0)), samples=samples)
        assert trajectory_from_binary(trajectory_to_binary(traj)) == traj

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_tables_round_trip_csv(self, m, d, seed):
        rng = rng_for(seed)
        vals = np.concatenate(
            [
                random_psd(rng, d)[None],
                rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d)),
            ]
        )
        table = CovarianceTable(dt=float(rng.uniform(0.01, 1.0)), values=vals)
        assert covariance_from_csv(covariance_to_csv(table)) == table


# --- reference codec ------------------------------------------------------------
# The per-matrix encoder, decode loops and CSV row loop that the stack codec
# replaced. The stack codec must match them byte for byte when encoding and
# error for error (type and location) when decoding.


def ref_enc_matrix(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def ref_dumps(doc) -> bytes:
    return (json.dumps(doc, indent=2, allow_nan=False) + "\n").encode("utf-8")


def ref_measure_doc(mu):
    doc = {
        "kind": "spectral_measure",
        "dim": int(mu.dim),
        "atoms": [
            {"nu": float(nu), "weight": ref_enc_matrix(w)} for nu, w in mu.atoms
        ],
    }
    if mu.density is not None:
        den = mu.density
        doc["density"] = {
            "nu_min": float(den.nu_min),
            "nu_max": float(den.nu_max),
            "bins": int(den.bins),
            "values": [ref_enc_matrix(v) for v in den.values],
        }
    return doc


def ref_filter_doc(filt):
    if isinstance(filt, ExpOperator):
        return {
            "kind": "filter",
            "variant": "exp_operator",
            "gamma": ref_enc_matrix(filt.gamma),
            "a": ref_enc_matrix(filt.a),
        }
    if isinstance(filt, Tabulated):
        return {
            "kind": "filter",
            "variant": "tabulated",
            "nu_min": float(filt.nu_min),
            "nu_max": float(filt.nu_max),
            "values": [ref_enc_matrix(v) for v in filt.values],
        }
    if isinstance(filt, Composition):
        return {
            "kind": "filter",
            "variant": "composition",
            "first": ref_filter_doc(filt.first),
            "second": ref_filter_doc(filt.second),
        }
    return ser.filter_to_document(filt)  # shift, derivative: no matrices


def ref_model_doc(model):
    return {
        "kind": "quantum_model",
        "dim_system": int(model.dim_system),
        "dim_environment": int(model.dim_environment),
        "env_state": ref_enc_matrix(model.env_state),
        "modes": [
            {
                "nu": float(m.nu),
                "system_op": ref_enc_matrix(m.system_op),
                "environment_op": ref_enc_matrix(m.environment_op),
            }
            for m in model.modes
        ],
    }


def ref_kernel_doc(blocks):
    k = np.ascontiguousarray(blocks, dtype=np.complex128)
    return {
        "kind": "kernel",
        "dim": int(k.shape[2]),
        "blocks": [
            [ref_enc_matrix(k[i, j]) for j in range(k.shape[1])]
            for i in range(k.shape[0])
        ],
    }


def ref_factorization_doc(fact):
    return {
        "kind": "kolmogorov_factorization",
        "rank": int(fact.rank),
        "dim": int(fact.factors.shape[2]),
        "factors": [ref_enc_matrix(v) for v in fact.factors],
    }


def ref_write_rows(header, axis, flat) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for k in range(flat.shape[0]):
        row = [repr(float(axis[k]))]
        for z in flat[k]:
            row.append(repr(float(z.real)))
            row.append(repr(float(z.imag)))
        writer.writerow(row)
    return buf.getvalue()


def ref_as_complex(v, loc):
    if not isinstance(v, list) or len(v) != 2:
        raise SchemaError("expected a complex scalar as [re, im]", location=loc)
    return complex(ser._as_real(v[0], loc), ser._as_real(v[1], loc))


def ref_as_matrix(v, loc, rows=None, cols=None):
    if not isinstance(v, list) or not v:
        raise SchemaError("expected a non-empty nested array matrix", location=loc)
    width = None
    out = []
    for row in v:
        if not isinstance(row, list) or not row:
            raise SchemaError("matrix rows must be non-empty arrays", location=loc)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError("matrix rows must have equal length", location=loc)
        out.append([ref_as_complex(z, loc) for z in row])
    m = np.array(out, dtype=np.complex128)
    if rows is not None and m.shape[0] != rows:
        raise SchemaError(f"expected {rows} rows, got {m.shape[0]}", location=loc)
    if cols is not None and m.shape[1] != cols:
        raise SchemaError(f"expected {cols} columns, got {m.shape[1]}", location=loc)
    return m


def ref_measure_from_document(doc):
    ser._check_keys(doc, ("kind", "dim", "atoms"), ("density",), None)
    ser._check_kind(doc, "spectral_measure")
    dim = ser._as_int(doc["dim"], "dim", allowed=SIZE)
    atoms = []
    for i, entry in enumerate(ser._as_list(doc["atoms"], "atoms")):
        loc = f"atoms[{i}]"
        entry = ser._as_object(entry, loc)
        ser._check_keys(entry, ("nu", "weight"), (), loc)
        nu = ser._as_real(entry["nu"], f"{loc}.nu")
        w = ref_as_matrix(entry["weight"], f"{loc}.weight", rows=dim, cols=dim)
        atoms.append((nu, w))
    density = None
    if "density" in doc:
        den = ser._as_object(doc["density"], "density")
        ser._check_keys(den, ("nu_min", "nu_max", "bins", "values"), (), "density")
        nu_min = ser._as_real(den["nu_min"], "density.nu_min")
        nu_max = ser._as_real(den["nu_max"], "density.nu_max")
        bins = ser._as_int(den["bins"], "density.bins", allowed=SIZE)
        raw = ser._as_list(den["values"], "density.values")
        if len(raw) != bins:
            raise SchemaError(
                f"bins={bins} but {len(raw)} values given", location="density.values"
            )
        vals = np.empty((bins, dim, dim), dtype=np.complex128)
        for b, v in enumerate(raw):
            vals[b] = ref_as_matrix(v, f"density.values[{b}]", rows=dim, cols=dim)
        density = ser._located(
            lambda b: f"density.values[{b}]",
            lambda: DensityGrid(nu_min=nu_min, nu_max=nu_max, values=vals),
        )
    return ser._located(
        lambda i: f"atoms[{i}].weight",
        lambda: OperatorSpectralMeasure(dim=dim, atoms=tuple(atoms), density=density),
    )


def ref_filter_from_document(doc, loc=None):
    prefix = f"{loc}." if loc else ""
    doc = ser._as_object(doc, loc or "filter")
    if "variant" not in doc:
        raise SchemaError("missing key 'variant'", location=loc)
    variant = doc["variant"]
    if variant not in ser._FILTER_KEYS:
        raise SchemaError(
            f"unknown filter variant {variant!r}", location=f"{prefix}variant"
        )
    required = ser._FILTER_KEYS[variant]
    ser._check_keys(doc, ("kind", "variant") + required, (), loc)
    ser._check_kind(doc, "filter")
    if variant == "shift":
        return Shift(
            dim=ser._as_int(doc["dim"], f"{prefix}dim", allowed=SIZE),
            s=ser._as_real(doc["s"], f"{prefix}s"),
        )
    if variant == "derivative":
        return Derivative(dim=ser._as_int(doc["dim"], f"{prefix}dim", allowed=SIZE))
    if variant == "exp_operator":
        g = ref_as_matrix(doc["gamma"], f"{prefix}gamma")
        a = ref_as_matrix(doc["a"], f"{prefix}a", rows=g.shape[0], cols=g.shape[0])
        return ExpOperator(gamma=g, a=a)
    if variant == "tabulated":
        raw = ser._as_list(doc["values"], f"{prefix}values")
        if not raw:
            raise SchemaError("need at least one bin", location=f"{prefix}values")
        first = ref_as_matrix(raw[0], f"{prefix}values[0]")
        d = first.shape[0]
        if first.shape[1] != d:
            raise SchemaError(
                "multiplier matrices must be square", location=f"{prefix}values[0]"
            )
        vals = np.empty((len(raw), d, d), dtype=np.complex128)
        vals[0] = first
        for b in range(1, len(raw)):
            vals[b] = ref_as_matrix(raw[b], f"{prefix}values[{b}]", rows=d, cols=d)
        return Tabulated(
            nu_min=ser._as_real(doc["nu_min"], f"{prefix}nu_min"),
            nu_max=ser._as_real(doc["nu_max"], f"{prefix}nu_max"),
            values=vals,
        )
    return Composition(
        first=ref_filter_from_document(doc["first"], f"{prefix}first"),
        second=ref_filter_from_document(doc["second"], f"{prefix}second"),
    )


def ref_model_from_document(doc):
    ser._check_keys(
        doc,
        ("kind", "dim_system", "dim_environment", "env_state", "modes"),
        (),
        None,
    )
    ser._check_kind(doc, "quantum_model")
    dh = ser._as_int(doc["dim_system"], "dim_system", allowed=SIZE)
    dk = ser._as_int(doc["dim_environment"], "dim_environment", allowed=SIZE)
    rho = ref_as_matrix(doc["env_state"], "env_state", rows=dk, cols=dk)
    modes = []
    for i, entry in enumerate(ser._as_list(doc["modes"], "modes")):
        loc = f"modes[{i}]"
        entry = ser._as_object(entry, loc)
        ser._check_keys(entry, ("nu", "system_op", "environment_op"), (), loc)
        modes.append(
            Mode(
                nu=ser._as_real(entry["nu"], f"{loc}.nu"),
                system_op=ref_as_matrix(
                    entry["system_op"], f"{loc}.system_op", rows=dh, cols=dh
                ),
                environment_op=ref_as_matrix(
                    entry["environment_op"], f"{loc}.environment_op", rows=dk, cols=dk
                ),
            )
        )
    return QuantumModel(
        dim_system=dh, dim_environment=dk, env_state=rho, modes=tuple(modes)
    )


def ref_kernel_from_document(doc):
    ser._check_keys(doc, ("kind", "dim", "blocks"), (), None)
    ser._check_kind(doc, "kernel")
    d = ser._as_int(doc["dim"], "dim", allowed=SIZE)
    rows = ser._as_list(doc["blocks"], "blocks")
    n = len(rows)
    if n < 1:
        raise SchemaError("need at least one block row", location="blocks")
    out = np.empty((n, n, d, d), dtype=np.complex128)
    for i, row in enumerate(rows):
        row = ser._as_list(row, f"blocks[{i}]")
        if len(row) != n:
            raise SchemaError(
                f"expected {n} blocks per row, got {len(row)}", location=f"blocks[{i}]"
            )
        for j, block in enumerate(row):
            out[i, j] = ref_as_matrix(block, f"blocks[{i}][{j}]", rows=d, cols=d)
    return out


def ref_factorization_from_document(doc):
    ser._check_keys(doc, ("kind", "rank", "dim", "factors"), (), None)
    ser._check_kind(doc, "kolmogorov_factorization")
    rank = ser._as_int(doc["rank"], "rank", allowed=COUNT)
    d = ser._as_int(doc["dim"], "dim", allowed=SIZE)
    raw = ser._as_list(doc["factors"], "factors")
    if not raw:
        raise SchemaError("need at least one factor", location="factors")
    out = np.zeros((len(raw), rank, d), dtype=np.complex128)
    for i, v in enumerate(raw):
        loc = f"factors[{i}]"
        if rank == 0:
            if v != []:
                raise SchemaError("rank 0 factors must be empty arrays", location=loc)
        else:
            out[i] = ref_as_matrix(v, loc, rows=rank, cols=d)
    return KolmogorovFactorization(rank=rank, factors=out)


def ref_verdict_from_document(doc):
    ser._check_keys(doc, ("kind", "passed", "dim", "points"), ("witness",), None)
    ser._check_kind(doc, "kernel_verdict")
    witness = ser._as_real(doc["witness"], "witness") if "witness" in doc else None
    return KernelVerdict(
        passed=ser._as_bool(doc["passed"], "passed"),
        witness=witness,
        points=ser._as_int(doc["points"], "points", allowed=SIZE),
        dim=ser._as_int(doc["dim"], "dim", allowed=SIZE),
    )


# Signed zeros, the smallest subnormal and 1e300 format differently from
# typical floats; draw them often.
EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300)
reals = st.one_of(
    st.sampled_from(EXTREMES), st.floats(allow_nan=False, allow_infinity=False)
)
nonnegative = st.sampled_from((0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0, 1e300))
dims = st.integers(min_value=1, max_value=4)
steps = st.sampled_from((0.125, 0.1, 1e-3, 3.0))


@st.composite
def complex_stacks(draw, shape):
    parts = draw(arrays(np.float64, (2, *shape), elements=reals))
    z = np.empty(shape, dtype=np.complex128)
    z.real, z.imag = parts
    return z


@st.composite
def psd_stacks(draw, count, d):
    """Random PSD matrices, some replaced by diagonal ones with extreme
    entries and ``-0.0`` imaginary parts below the diagonal."""
    rng = rng_for(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    out = np.array([random_psd(rng, d) for _ in range(count)], dtype=np.complex128)
    out = out.reshape(count, d, d)
    extreme = draw(arrays(np.bool_, count))
    diag = np.zeros((int(extreme.sum()), d, d), dtype=np.complex128)
    diag[:, range(d), range(d)] = draw(
        arrays(np.float64, (len(diag), d), elements=nonnegative)
    )
    below = np.tril_indices(d, -1)
    diag[:, below[0], below[1]] = complex(0.0, -0.0)
    out[extreme] = diag
    return out


@st.composite
def measures(draw, density=None):
    d = draw(dims)
    nus = sorted(draw(st.lists(reals, max_size=3, unique=True)))
    atoms = tuple(zip(nus, draw(psd_stacks(len(nus), d))))
    grid = None
    if density or (density is None and draw(st.booleans())):
        nu_min, nu_max = draw(
            st.sampled_from(((-1.5, 2.5), (-0.0, 1e300), (-1e300, 5e-324), (0.0, 0.1)))
        )
        values = draw(psd_stacks(draw(st.integers(min_value=1, max_value=4)), d))
        grid = DensityGrid(nu_min=nu_min, nu_max=nu_max, values=values)
    return OperatorSpectralMeasure(dim=d, atoms=atoms, density=grid)


@st.composite
def filters(draw):
    d = draw(dims)
    bins = draw(st.integers(min_value=1, max_value=3))
    values = draw(complex_stacks((bins, d, d)))
    tabulated = Tabulated(nu_min=-1.0, nu_max=1e300, values=values)
    positive = st.sampled_from((5e-324, 0.5, 1e300))
    gamma = np.diag(draw(arrays(np.float64, d, elements=positive)))
    exp_operator = ExpOperator(gamma=gamma, a=draw(complex_stacks((d, d))))
    return draw(
        st.sampled_from(
            (
                tabulated,
                exp_operator,
                Composition(first=Shift(dim=d, s=-0.0), second=tabulated),
                Composition(first=exp_operator, second=Derivative(dim=d)),
            )
        )
    )


@st.composite
def models(draw):
    d = draw(dims)
    ops = draw(complex_stacks((2, d, d)))
    return QuantumModel(
        dim_system=d,
        dim_environment=2,
        env_state=np.eye(2) / 2,
        modes=(
            Mode(nu=-0.0, system_op=ops[0], environment_op=SX),
            Mode(nu=1e300, system_op=ops[1], environment_op=SY),
        ),
    )


points = st.integers(min_value=1, max_value=3)


@st.composite
def kernels(draw):
    n, d = draw(points), draw(dims)
    return draw(complex_stacks((n, n, d, d)))


@st.composite
def factorizations(draw):
    n, rank, d = draw(points), draw(st.integers(min_value=0, max_value=3)), draw(dims)
    factors = draw(complex_stacks((n, rank, d)))
    return KolmogorovFactorization(rank=rank, factors=factors)


@st.composite
def tables(draw):
    d = draw(dims)
    lags = draw(st.integers(min_value=0, max_value=3))
    values = np.concatenate(
        [draw(psd_stacks(1, d)), draw(complex_stacks((lags, d, d)))]
    )
    return CovarianceTable(dt=draw(steps), values=values)


@st.composite
def trajectories(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    return Trajectory(dt=draw(steps), samples=draw(complex_stacks((n, draw(dims)))))


class TestStackEncoderMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(measures())
    def test_measure(self, mu):
        assert serialize_measure(mu) == ref_dumps(ref_measure_doc(mu))

    @settings(max_examples=40, deadline=None)
    @given(filters())
    def test_filter(self, filt):
        assert serialize_filter(filt) == ref_dumps(ref_filter_doc(filt))

    @settings(max_examples=25, deadline=None)
    @given(models())
    def test_model(self, model):
        assert serialize_model(model) == ref_dumps(ref_model_doc(model))

    @settings(max_examples=40, deadline=None)
    @given(kernels())
    def test_kernel(self, blocks):
        assert serialize_kernel(blocks) == ref_dumps(ref_kernel_doc(blocks))

    @settings(max_examples=40, deadline=None)
    @given(factorizations())
    def test_factorization(self, fact):
        assert serialize_factorization(fact) == ref_dumps(ref_factorization_doc(fact))

    @settings(max_examples=40, deadline=None)
    @given(tables())
    def test_covariance_csv(self, table):
        d, rows = table.dim, table.values.shape[0]
        if rows < 2:  # the reader could not recover the time step
            with pytest.raises(SchemaError, match="at least two data rows"):
                covariance_to_csv(table)
            return
        want = ref_write_rows(
            ["tau"] + ser._matrix_header(d),
            np.arange(rows) * table.dt,
            table.values.reshape(rows, d * d),
        )
        assert covariance_to_csv(table) == want

    @settings(max_examples=40, deadline=None)
    @given(trajectories())
    def test_trajectory_csv(self, traj):
        if traj.n < 2:  # the reader could not recover the time step
            with pytest.raises(SchemaError, match="at least two data rows"):
                trajectory_to_csv(traj)
            return
        want = ref_write_rows(
            ["t"] + ser._vector_header(traj.dim),
            np.arange(traj.n) * traj.dt,
            traj.samples,
        )
        assert trajectory_to_csv(traj) == want

    @settings(max_examples=30, deadline=None)
    @given(measures(density=True))
    def test_density_csv(self, mu):
        den, d = mu.density, mu.dim
        want = ref_write_rows(
            ["nu"] + ser._matrix_header(d),
            den.midpoints(),
            den.values.reshape(den.bins, d * d),
        )
        assert density_to_csv(mu) == want


# --- differential decoding -------------------------------------------------------


def _paths(node, path=()):
    """``(path, value)`` of ``node`` and of everything nested in it."""
    yield path, node
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, path + (key,))


REPLACEMENTS = (True, "x", None, {}, [1.0], math.nan, HUGE)


def _mutants(doc):
    """Every document one edit away from ``doc``: each entry dropped,
    duplicated, replaced by a wrong value, or nested one level too deep or
    too shallow."""

    def edited(path, edit):
        new = copy.deepcopy(doc)
        node = new
        for key in path[:-1]:
            node = node[key]
        edit(node, path[-1])
        return new

    for path, value in list(_paths(doc))[1:]:
        yield edited(path, lambda node, key: node.__delitem__(key))
        if isinstance(path[-1], int):
            yield edited(path, lambda node, key: node.insert(key, node[key]))
        for wrong in REPLACEMENTS:
            yield edited(path, lambda node, key, v=wrong: node.__setitem__(key, v))
        yield edited(path, lambda node, key: node.__setitem__(key, [node[key]]))
        if isinstance(value, list) and value:
            yield edited(path, lambda node, key: node.__setitem__(key, node[key][0]))


def _outcome(decode, doc):
    try:
        return ("ok", decode(doc))
    except Exception as e:  # compare whatever either decoder raises
        return (type(e), getattr(e, "location", None), str(e))


def _same_value(a, b):
    if isinstance(a, KolmogorovFactorization):
        return a.rank == b.rank and _same_value(a.factors, b.factors)
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and bool(np.array_equal(a, b))
    return a == b


def _preallocation(ref, new):
    """The reference sized its output from ``dim`` before reading any entry;
    a ``dim`` numpy cannot allocate made that a non-schema error, which the
    stack decoder reports as a schema error at the first entry."""
    return (
        ref[0] is ValueError
        and ref[2] == "Maximum allowed dimension exceeded"
        and new[0] is SchemaError
    )


def _unhashable_variant(ref, new):
    """The reference looked a filter ``variant`` up in a dict unchecked, so
    an object or array there raised ``TypeError``; the decoder reports a
    schema error at that ``variant``."""
    return (
        ref[0] is TypeError
        and ref[2].startswith("unhashable type")
        and new[0] is SchemaError
        and new[1].endswith("variant")
    )


DIFFERENTIAL_CASES = {
    "measure": (
        lambda: ser._write(ser._MEASURE, rich_measure()),
        ref_measure_from_document,
        functools.partial(ser._read, ser._MEASURE),
    ),
    "filter": (
        lambda: ser.filter_to_document(
            Composition(
                first=Tabulated(
                    nu_min=-1.0, nu_max=1.0, values=np.stack([B2, 2 * B2, -B2])
                ),
                second=ExpOperator(gamma=B2, a=SY),
            )
        ),
        ref_filter_from_document,
        ser.filter_from_document,
    ),
    "model": (
        lambda: ser._write(ser._MODEL, example_model()),
        ref_model_from_document,
        functools.partial(ser._read, ser._MODEL),
    ),
    "kernel": (
        lambda: ser._write(ser._KERNEL, np.ones((2, 2, 2, 2))),
        ref_kernel_from_document,
        functools.partial(ser._read, ser._KERNEL),
    ),
    "factorization": (
        lambda: ser._write(ser._FACTORIZATION,
            KolmogorovFactorization(rank=2, factors=np.stack([B2, SX, SY]))
        ),
        ref_factorization_from_document,
        functools.partial(ser._read, ser._FACTORIZATION),
    ),
    "factorization-rank-0": (
        lambda: ser._write(ser._FACTORIZATION,
            KolmogorovFactorization(rank=0, factors=np.zeros((3, 0, 2)))
        ),
        ref_factorization_from_document,
        functools.partial(ser._read, ser._FACTORIZATION),
    ),
    "filter-shift-derivative": (
        lambda: ser.filter_to_document(
            Composition(first=Shift(dim=2, s=0.5), second=Derivative(dim=2))
        ),
        ref_filter_from_document,
        ser.filter_from_document,
    ),
    "verdict": (
        lambda: ser._write(ser._VERDICT,
            KernelVerdict(passed=False, witness=-0.25, points=3, dim=2)
        ),
        ref_verdict_from_document,
        functools.partial(ser._read, ser._VERDICT),
    ),
    "verdict-without-witness": (
        lambda: ser._write(ser._VERDICT,
            KernelVerdict(passed=True, witness=None, points=1, dim=1)
        ),
        ref_verdict_from_document,
        functools.partial(ser._read, ser._VERDICT),
    ),
}


class TestStackDecoderMatchesReference:
    @pytest.mark.parametrize("kind", sorted(DIFFERENTIAL_CASES))
    def test_mutated_documents(self, kind):
        build, reference, decoder = DIFFERENTIAL_CASES[kind]
        doc = build()
        mismatches = []
        count = 0
        for mutant in _mutants(doc):
            count += 1
            ref, new = _outcome(reference, mutant), _outcome(decoder, mutant)
            if ref[0] == "ok" and new[0] == "ok":
                same = _same_value(ref[1], new[1])
            else:
                same = (
                    ref[:2] == new[:2]
                    or _preallocation(ref, new)
                    or _unhashable_variant(ref, new)
                )
            if not same:
                mismatches.append((mutant, ref, new))
        # a verdict holds four or five scalars, so yields only 36 or 45 mutants
        assert count > (30 if kind.startswith("verdict") else 50)
        assert mismatches == []


# --- writers refuse what readers reject -------------------------------------------


def ref_verdict_doc(verdict):
    doc = {
        "kind": "kernel_verdict",
        "passed": bool(verdict.passed),
        "dim": int(verdict.dim),
        "points": int(verdict.points),
    }
    if verdict.witness is not None:
        doc["witness"] = float(verdict.witness)
    return doc


KERNEL = (serialize_kernel, deserialize_kernel, ref_kernel_doc)
FACTORIZATION = (serialize_factorization, deserialize_factorization, ref_factorization_doc)
VERDICT = (serialize_verdict, deserialize_verdict, ref_verdict_doc)

# codec, object, and the location at which its writer refuses it (None: it
# round-trips); records with no entries or of dim 0 are refused at
# construction (tests/test_api.py), so the refusals here are of raw kernels
# and verdicts
EDGE_OBJECTS = {
    "kernel-one-point": (*KERNEL, np.ones((1, 1, 1, 1)), None),
    "kernel-no-points": (*KERNEL, np.zeros((0, 0, 2, 2)), "blocks"),
    "kernel-0x0-blocks": (*KERNEL, np.zeros((1, 1, 0, 0)), "dim"),
    "kernel-nan": (*KERNEL, np.full((2, 2, 1, 1), np.nan), "blocks"),
    "factorization-rank-0": (
        *FACTORIZATION, KolmogorovFactorization(rank=0, factors=np.zeros((2, 0, 1))), None
    ),
    "verdict-no-witness": (*VERDICT, KernelVerdict(True, None, points=1, dim=1), None),
    "verdict-no-points": (*VERDICT, KernelVerdict(True, 0.5, points=0, dim=1), "points"),
    "verdict-nan-witness": (*VERDICT, KernelVerdict(False, math.nan, points=2, dim=1), "witness"),
}


class TestWritersRefuseWhatReadersReject:
    @pytest.mark.parametrize("case", sorted(EDGE_OBJECTS))
    def test_round_trips_or_is_refused(self, case):
        write, read, ref_doc, obj, where = EDGE_OBJECTS[case]
        if where is None:
            assert _same_value(read(write(obj)), obj)
            return
        # the document written before the writer checked, NaN and all
        with pytest.raises(SchemaError):
            read(json.dumps(ref_doc(obj)).encode())
        with pytest.raises(SchemaError) as exc:
            write(obj)
        assert exc.value.location == where
