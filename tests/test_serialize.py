"""Round-trip and strictness tests for every serialization format.

Each JSON document kind must survive serialize/deserialize unchanged, emit
byte-identical output for equal inputs, and reject malformed documents with
a schema error that names the offending location. The CSV and binary codecs
get the same treatment.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from qwss.serialize import write_bytes_atomic

from helpers import count_eigvalsh, random_complex_matrix, random_psd, rng_for

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
        shapes = count_eigvalsh(monkeypatch)
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


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        target = tmp_path / "out.json"
        write_bytes_atomic(target, b"payload")
        assert target.read_bytes() == b"payload"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_overwrites_existing(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_bytes(b"old")
        write_bytes_atomic(target, b"new")
        assert target.read_bytes() == b"new"


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
