"""Atomic measures and quantum models through the CLI, pinned byte for byte.

``tests/data/atoms/`` holds two inputs built here from pinned seeds and the
files the CLI makes from them:

- a quantum model (system dim 2, environment dim 3, six modes given out of
  frequency order), its measure and its covariance table (``model``), that
  measure pushed through an ``ExpOperator`` (``filter``), the Bochner table
  of the result (``bochner``) and a 256-sample CSV trajectory (``synth``);
- a dim-4 measure with atoms (out of order) and a density, through the same
  ``filter``, ``bochner`` and ``synth`` (binary) commands.

Regenerate with ``PYTHONPATH=src python tests/test_atoms.py`` only when a
change of output bytes is intended.

The library reads atoms and modes as stacks. The per-atom and per-mode loops
it used before are kept below as references. Frequencies, merged atoms and
the measure of a model equal their loops bit for bit. Sums over a stack may
take numpy's pairwise order instead of the loop's (at dim 1 from eight
atoms on), and ``integrate_pair`` sums atoms and bins as one stack, so those
agree with their loops to 1e-13 relative.
"""

import gc
import pathlib
import sys
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qwss import (
    DensityGrid,
    ExpOperator,
    Mode,
    OperatorSpectralMeasure,
    QuantumModel,
    add_scaled,
    cumulative,
    integrate_pair,
    model_covariance,
    model_spectral_measure,
    orthogonalize_environment_ops,
    serialize_filter,
    serialize_measure,
    serialize_model,
    total_mass,
    xhat_apply,
)
from qwss.cli import main
from qwss.errors import DimensionMismatchError, QwssError
from qwss.linalg import hermitize, validate_psd

from helpers import (
    outcome,
    random_complex_matrix,
    random_density_matrix,
    random_hpd,
    random_psd,
    rel_frob,
    rng_for,
)

DATA = pathlib.Path(__file__).parent / "data" / "atoms"

# output name -> CLI arguments (paths relative to the data directory)
COMMANDS = {
    "model_measure.json": (
        "model", "model.json", "model_measure.json",
        "--covariance", "model_covariance.csv", "--dt", 0.1, "--lags", 24,
    ),
    "model_filtered.json": ("filter", "model_measure.json", "exp2.json", "model_filtered.json"),
    "model_bochner.csv": ("bochner", "model_filtered.json", "model_bochner.csv", "--dt", 0.1, "--lags", 24),
    "model_synth.csv": ("synth", "model_filtered.json", "model_synth.csv", "--dt", 0.1, "--n", 256, "--seed", 5),
    "mixed_filtered.json": ("filter", "mixed.json", "exp4.json", "mixed_filtered.json"),
    "mixed_bochner.csv": ("bochner", "mixed_filtered.json", "mixed_bochner.csv", "--dt", 0.1, "--lags", 24),
    "mixed_synth.qwss": ("synth", "mixed_filtered.json", "mixed_synth.qwss", "--dt", 0.1, "--n", 256, "--seed", 9),
}

FILES = (
    "model.json", "exp2.json", "mixed.json", "exp4.json",
    "model_measure.json", "model_covariance.csv", "model_filtered.json",
    "model_bochner.csv", "model_synth.csv",
    "mixed_filtered.json", "mixed_bochner.csv", "mixed_synth.qwss",
)


def example_atomic_model() -> QuantumModel:
    rng = rng_for(120)
    rho = random_density_matrix(rng, 3)
    ops = orthogonalize_environment_ops(
        rho, [random_complex_matrix(rng, 3) for _ in range(6)]
    )
    nus = (1.3, -2.2, 0.35, 4.1, -0.8, 2.75)
    modes = tuple(
        Mode(nu=nu, system_op=random_complex_matrix(rng, 2), environment_op=op)
        for nu, op in zip(nus, ops)
    )
    return QuantumModel(dim_system=2, dim_environment=3, env_state=rho, modes=modes)


def example_mixed_measure() -> OperatorSpectralMeasure:
    rng = rng_for(121)
    atoms = tuple((nu, random_psd(rng, 4, rank=2)) for nu in (3.5, -1.25, 0.6, -4.2))
    den = DensityGrid(
        nu_min=-2.0, nu_max=3.0, values=np.stack([random_psd(rng, 4) for _ in range(16)])
    )
    return OperatorSpectralMeasure(dim=4, atoms=atoms, density=den)


def exp_filter(dim: int, seed: int) -> ExpOperator:
    rng = rng_for(seed)
    return ExpOperator(gamma=random_hpd(rng, dim), a=random_complex_matrix(rng, dim))


def write_all(directory: pathlib.Path) -> None:
    """Write the inputs into ``directory``, then run the CLI on them there."""
    inputs = {
        "model.json": serialize_model(example_atomic_model()),
        "exp2.json": serialize_filter(exp_filter(2, 122)),
        "mixed.json": serialize_measure(example_mixed_measure()),
        "exp4.json": serialize_filter(exp_filter(4, 123)),
    }
    for name, data in inputs.items():
        (directory / name).write_bytes(data)
    for argv in COMMANDS.values():
        cmd, *rest = argv
        args = [cmd] + [
            str(directory / a) if isinstance(a, str) and not a.startswith("--") else str(a)
            for a in rest
        ]
        assert main(args) == 0, argv


def test_cli_bytes_match_goldens(tmp_path):
    write_all(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(FILES)
    for name in FILES:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


# --- per-atom and per-mode reference loops ------------------------------------


def loop_total_mass(mu):
    out = np.zeros((mu.dim, mu.dim), dtype=np.complex128)
    for _, w in mu.atoms:
        out += w
    if mu.density is not None:
        out += mu.density.values.sum(axis=0) * mu.density.width
    return out


def loop_cumulative_atoms(mu, nu):
    out = np.zeros((mu.dim, mu.dim), dtype=np.complex128)
    for nu_k, w in mu.atoms:
        if nu_k <= nu:
            out += w
    return out


def loop_integrate_pair(mu, f, g):
    out = np.zeros((mu.dim, mu.dim), dtype=np.complex128)
    for nu_k, w in mu.atoms:
        out += np.conj(complex(f(nu_k))) * complex(g(nu_k)) * w
    den = mu.density
    if den is not None:
        mids = den.midpoints()
        fv = np.array([complex(f(x)) for x in mids])
        gv = np.array([complex(g(x)) for x in mids])
        out += np.einsum("b,bkl->kl", np.conj(fv) * gv, den.values) * den.width
    return out


def loop_merged_atoms(a, mu1, b, mu2, rtol=1e-12):
    pooled = [(nu, a * w) for nu, w in mu1.atoms] + [(nu, b * w) for nu, w in mu2.atoms]
    pooled.sort(key=lambda p: p[0])
    atoms = []
    for nu, w in pooled:
        if atoms and abs(nu - atoms[-1][0]) <= rtol * max(1.0, abs(nu), abs(atoms[-1][0])):
            atoms[-1] = (atoms[-1][0], atoms[-1][1] + w)
        else:
            atoms.append((nu, w))
    return atoms


def loop_model_covariance(model, tau):
    out = np.zeros((model.dim_system,) * 2, dtype=np.complex128)
    for m, s in zip(model.modes, model.mode_weights):
        out += np.exp(2j * np.pi * m.nu * tau) * s * (m.system_op.conj().T @ m.system_op)
    return out


def loop_model_atoms(model):
    atoms = [
        (m.nu, hermitize(s * (m.system_op.conj().T @ m.system_op)))
        for m, s in zip(model.modes, model.mode_weights)
    ]
    return sorted(atoms, key=lambda pair: pair[0])


def loop_xhat_apply(model, f):
    n = model.dim_system * model.dim_environment
    out = np.zeros((n, n), dtype=np.complex128)
    for m in model.modes:
        out += complex(f(m.nu)) * np.kron(m.system_op, m.environment_op)
    return out


def random_measure(seed, dim, count, density=True):
    rng = rng_for(seed)
    nus = rng.permutation(np.round(rng.uniform(-3, 3, count), 3) + np.arange(count) * 7.0)
    atoms = tuple((float(nu), random_psd(rng, dim, rank=1)) for nu in nus)
    den = None
    if density:
        den = DensityGrid(-1.5, 2.5, np.stack([random_psd(rng, dim) for _ in range(6)]))
    return OperatorSpectralMeasure(dim=dim, atoms=atoms, density=den)


CASES = [(dim, count) for dim in (1, 2, 4) for count in (0, 1, 9)]


def close(got, want):
    return got.shape == want.shape and rel_frob(got, want) <= 1e-13


class TestStacks:
    def test_measure_stacks_are_sorted_locked_and_viewed_by_atoms(self):
        mu = random_measure(1, 3, 7)
        assert np.all(np.diff(mu.nus) > 0) and mu.nus.dtype == np.float64
        assert mu.weights.shape == (7, 3, 3)
        for arr in (mu.nus, mu.weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        for k, (nu, w) in enumerate(mu.atoms):
            assert type(nu) is float and nu == mu.nus[k]
            assert w.base is mu.weights and np.array_equal(w, mu.weights[k])

    def test_measure_without_atoms(self):
        mu = OperatorSpectralMeasure(dim=2, atoms=())
        assert mu.atoms == () and mu.nus.shape == (0,) and mu.weights.shape == (0, 2, 2)

    def test_model_stacks_follow_mode_order(self):
        model = example_atomic_model()
        assert np.array_equal(model.nus, [m.nu for m in model.modes])
        assert np.array_equal(model.system_ops, [m.system_op for m in model.modes])
        assert np.array_equal(model.environment_ops, [m.environment_op for m in model.modes])
        for arr in (model.nus, model.system_ops, model.environment_ops):
            with pytest.raises(ValueError):
                arr[0] = 0.0


def pairs_reference(dim, atoms):
    """The measure constructor before ``atoms`` became a derived view: a
    per-pair walk that converts and checks each entry, then stacks the
    weights, checks them PSD, sorts and looks for ties. Returns the ``nus``
    and ``weights`` stacks or raises the first failure."""
    d = int(dim)
    nus, weights = [], []
    for i, (nu, w) in enumerate(atoms):
        nu = float(nu)
        if not np.isfinite(nu):
            raise QwssError(f"atom {i} has non-finite frequency {nu}")
        w = np.asarray(w, dtype=np.complex128)
        if w.shape != (d, d):
            raise DimensionMismatchError(
                f"atom {i} weight has shape {w.shape}, expected ({d}, {d})"
            )
        nus.append(nu)
        weights.append(w)
    stack = np.array(weights, dtype=np.complex128).reshape(-1, d, d)
    if len(stack):
        validate_psd(stack, name=lambda i: f"atom {i} weight")
    order = np.argsort(nus, kind="stable")
    nus, stack = np.array(nus)[order], stack[order]
    tied = nus[1:][nus[1:] == nus[:-1]]
    if tied.size:
        raise QwssError(f"atom frequencies must be distinct, got {tied[0]} twice")
    return nus, stack


MUTANTS = [
    None, "non-finite", "non-finite-and-misshapen", "misshapen", "ragged", "nested",
    "nu-type", "non-psd", "duplicate", "triple", "scalar",
]


class TestPairsReference:
    """The constructor against ``pairs_reference`` on valid and mutated pair
    lists: the same exception type (and message, for qwss's own errors), or
    bit-identical stacks."""

    @settings(max_examples=300, deadline=None)
    @given(
        dim=st.integers(min_value=1, max_value=4),
        count=st.integers(min_value=0, max_value=40),
        mutant=st.sampled_from(MUTANTS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_pairs_reference(self, dim, count, mutant, seed):
        rng = rng_for(seed)
        nus = rng.permutation(count).astype(float) * 0.7 - 3.0
        weights = [random_psd(rng, dim, rank=int(rng.integers(1, dim + 1))) for _ in nus]
        # weights as arrays or nested lists, frequencies as floats or numpy scalars
        atoms = [
            [
                nu if rng.uniform() < 0.5 else float(nu),
                w if rng.uniform() < 0.5 else w.tolist(),
            ]
            for nu, w in zip(nus, weights)
        ]
        if mutant is not None:
            assume(count >= 2)
            i, j = (int(k) for k in rng.choice(count, size=2, replace=False))
            if mutant.startswith("non-finite"):
                atoms[i][0] = [np.nan, np.inf, -np.inf][int(rng.integers(3))]
                if mutant == "non-finite-and-misshapen":  # j before or after i
                    atoms[j][1] = np.eye(dim + 1)
            elif mutant == "misshapen":
                atoms[j][1] = np.ones((dim, dim + 1))
            elif mutant == "ragged":
                atoms[j][1] = [[1.0] * dim] * (dim - 1) + [[1.0] * (dim + 1)]
            elif mutant == "nested":
                atoms[j][1] = [atoms[j][1]]
            elif mutant == "nu-type":
                atoms[j][0] = [None, 0.5 + 0.5j, [0.5], "0.5"][int(rng.integers(4))]
            elif mutant == "non-psd":
                atoms[j][1] = -np.eye(dim)
            elif mutant == "duplicate":
                atoms[j][0] = atoms[i][0]
            elif mutant == "triple":
                atoms[j] = (*atoms[j], 0.0)
            elif mutant == "scalar":
                atoms[j] = 0.5
        want = outcome(pairs_reference, dim, atoms)
        got = outcome(OperatorSpectralMeasure, dim=dim, atoms=atoms)
        if want[0] == "ok":
            assert got[0] == "ok", got
            mu, (nus_ref, weights_ref) = got[1], want[1]
            assert mu.nus.tobytes() == nus_ref.tobytes()
            assert mu.weights.tobytes() == weights_ref.tobytes()
            assert OperatorSpectralMeasure(dim=dim, atoms=zip(*zip(*atoms))) == mu
        else:
            assert got[0] is want[0]
            if issubclass(want[0], QwssError) or want[1].startswith("atom "):
                assert got[1] == want[1]

    def test_lazy_zip_equals_tuple(self):
        mu = random_measure(2, 3, 9)
        lazy = OperatorSpectralMeasure(dim=3, atoms=zip(mu.nus[::-1], mu.weights[::-1]))
        assert lazy == OperatorSpectralMeasure(dim=3, atoms=tuple(mu.atoms[::-1]))
        assert lazy.nus.tobytes() == mu.nus.tobytes()
        assert lazy.weights.tobytes() == mu.weights.tobytes()


class TestModelStacks:
    def test_model_keeps_none_of_its_input_modes(self):
        model = example_atomic_model()
        modes = model.modes
        refs = [weakref.ref(m) for m in modes]
        rebuilt = QuantumModel(
            dim_system=2, dim_environment=3, env_state=model.env_state, modes=modes
        )
        del modes
        gc.collect()
        assert rebuilt == model
        assert all(ref() is None for ref in refs)

    def test_modes_round_trip_and_are_write_locked(self):
        model = example_atomic_model()
        again = QuantumModel(
            dim_system=2, dim_environment=3, env_state=model.env_state, modes=model.modes
        )
        assert again == model and again.mode_weights == model.mode_weights
        for m in model.modes:
            for op in (m.system_op, m.environment_op):
                with pytest.raises(ValueError):
                    op[0, 0] = 9.0


@pytest.mark.parametrize("dim, count", CASES)
class TestAgainstLoops:
    def test_total_mass_and_cumulative(self, dim, count):
        mu = random_measure(10 * dim + count, dim, count)
        assert close(total_mass(mu), loop_total_mass(mu))
        atoms_only = OperatorSpectralMeasure(dim=dim, atoms=mu.atoms)
        for nu in (-np.inf, *mu.nus.tolist(), 0.123, np.inf):
            want = loop_cumulative_atoms(atoms_only, nu)
            assert close(cumulative(atoms_only, nu), want)

    def test_integrate_pair(self, dim, count):
        mu = random_measure(20 * dim + count, dim, count)

        def f(nu):
            return np.exp(0.3j * nu) * (1 + nu)

        def g(nu):
            return 1 / (1.5 - 2j * nu)

        want = loop_integrate_pair(mu, f, g)
        assert close(integrate_pair(mu, f, g), want)

    def test_add_scaled(self, dim, count):
        mu1 = random_measure(30 * dim + count, dim, count, density=False)
        # shares three frequencies with mu1, one of them 1e-13 away
        shared = mu1.nus[:3].tolist()
        if shared:
            shared[0] += 1e-13
        own = random_measure(40 * dim + count, dim, count, density=False).atoms
        mu2 = OperatorSpectralMeasure(
            dim=dim, atoms=own + tuple((nu, mu1.weights[0]) for nu in shared)
        )
        got = add_scaled(0.5 + 1j, mu1, -2.0, mu2)
        want = loop_merged_atoms(abs(0.5 + 1j) ** 2, mu1, 4.0, mu2)
        assert got.nus.tolist() == [nu for nu, _ in want]
        assert np.array_equal(got.weights, np.reshape([w for _, w in want], got.weights.shape))


def test_add_scaled_groups_by_distance_to_the_first_frequency():
    # 1, 1 + 0.6e-12 and 1 + 1.2e-12: each is within 1e-12 of its neighbour,
    # but the third is not within 1e-12 of the group's first frequency
    w = np.eye(1)
    chain = [1.0, 1.0 + 0.6e-12, 1.0 + 1.2e-12, 1.0 + 1.8e-12, 5.0]
    mu1 = OperatorSpectralMeasure(dim=1, atoms=tuple((nu, w) for nu in chain[::2]))
    mu2 = OperatorSpectralMeasure(dim=1, atoms=tuple((nu, 2 * w) for nu in chain[1::2]))
    got = add_scaled(1.0, mu1, 1.0, mu2)
    want = loop_merged_atoms(1.0, mu1, 1.0, mu2)
    assert got.nus.tolist() == [nu for nu, _ in want] == [1.0, 1.0 + 1.2e-12, 5.0]
    assert got.weights[:, 0, 0].tolist() == [3.0, 3.0, 1.0]


@pytest.mark.parametrize("count", [0, 1, 6])
def test_model_functions_match_mode_loops(count):
    full = example_atomic_model()
    model = QuantumModel(
        dim_system=2, dim_environment=3, env_state=full.env_state, modes=full.modes[:count]
    )
    for tau in (0.0, 0.37, -1.9):
        assert close(model_covariance(model, tau), loop_model_covariance(model, tau))
    mu = model_spectral_measure(model)
    want = loop_model_atoms(model)
    assert mu.nus.tolist() == [nu for nu, _ in want]
    assert np.array_equal(mu.weights, np.reshape([w for _, w in want], mu.weights.shape))

    def f(nu):
        return np.exp(2j * np.pi * nu * 0.8)

    assert close(xhat_apply(model, f), loop_xhat_apply(model, f))


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    write_all(DATA)
    sys.exit(0)
