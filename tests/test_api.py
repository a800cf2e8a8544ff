"""Package-wide contracts: ``qwss`` re-exports each module's ``__all__``,
every deliberate error is a ``QwssError`` (or a ``TypeError``), the
library checks each scalar argument against the CLI's range and wording,
every array-holding value type follows the one ``_Record`` rule, and any
array either builds an object its codec writes back or is refused."""

import ast
import copy
import importlib
import math
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qwss
from qwss import (
    Composition,
    CovarianceTable,
    Derivative,
    DensityGrid,
    ExpOperator,
    KernelVerdict,
    KolmogorovFactorization,
    Mode,
    NotPositiveSemidefiniteError,
    OperatorSpectralMeasure,
    QuantumModel,
    QwssError,
    ScalarConvolution,
    SchemaError,
    Shift,
    Tabulated,
    Trajectory,
    UnboundedWhiteNoise,
    UniformGrid,
    check_psd_kernel,
    conditional_expectation,
    covariance_from_csv,
    covariance_from_spectrum,
    covariance_to_csv,
    deserialize_factorization,
    deserialize_filter,
    deserialize_kernel,
    deserialize_measure,
    deserialize_model,
    kolmogorov_decompose,
    lag_covariance,
    nearest_psd,
    partial_trace_environment,
    psd_sqrt,
    resolvent,
    serialize_factorization,
    serialize_filter,
    serialize_kernel,
    serialize_measure,
    serialize_model,
    solve_lyapunov,
    spectrum_from_covariance,
    synthesize,
    trajectory_from_binary,
    trajectory_from_csv,
    trajectory_to_binary,
    trajectory_to_csv,
    welch_estimate,
    white_noise,
)
from qwss import errors
from qwss.filters import FilterSpec
from qwss.measure import _Record

from helpers import outcome

MODULES = ("errors", "filters", "linalg", "measure", "quantum", "sampling", "serialize")


def test_all_joins_the_module_lists():
    joined = [name for m in MODULES for name in importlib.import_module(f"qwss.{m}").__all__]
    assert qwss.__all__ == joined + ["__version__"]
    assert len(set(qwss.__all__)) == len(qwss.__all__) == 81


def test_every_name_is_the_module_object():
    for m in MODULES:
        module = importlib.import_module(f"qwss.{m}")
        for name in module.__all__:
            assert getattr(qwss, name) is getattr(module, name), (m, name)


def _child(code):
    """The lines that ``code`` prints in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=Path(qwss.__file__).parent.parent,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_import_loads_nothing_until_a_name_is_used():
    # `import qwss` adds the package alone, so no numpy. After what the seven
    # modules import (and the lookup's importlib), one public name adds the
    # seven modules and nothing else (no cli, no scipy).
    deps = {"importlib"}
    for m in MODULES:
        for node in ast.walk(ast.parse((Path(qwss.__file__).parent / f"{m}.py").read_text())):
            if isinstance(node, ast.Import):
                deps.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                deps.add(node.module)
    lazy, loaded = _child(
        "import importlib, sys\n"
        "before = set(sys.modules)\n"
        "import qwss\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
        f"for name in {sorted(deps)!r}:\n"
        "    importlib.import_module(name)\n"
        "before = set(sys.modules)\n"
        "qwss.DensityGrid\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    assert lazy.split() == ["qwss"]
    assert loaded.split() == [f"qwss.{m}" for m in MODULES]


def test_star_import_and_dir_list_every_public_name_on_first_use():
    # each in a fresh interpreter, so that it is the lookup which loads
    names = [n for m in MODULES for n in importlib.import_module(f"qwss.{m}").__all__]
    names.append("__version__")
    (star,) = _child(
        "ns = {}\nexec('from qwss import *', ns)\ndel ns['__builtins__']\nprint(sorted(ns))"
    )
    assert eval(star) == sorted(names) and len(names) == 81
    (listed,) = _child("import qwss\nprint(dir(qwss))")
    assert set(names) | set(MODULES) <= set(eval(listed))


def test_every_raise_is_a_package_error_or_a_type_error():
    # OSError and IsADirectoryError are write_files' reports of the file system
    allowed = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.QwssError)
    } | {"TypeError", "OSError", "IsADirectoryError"}
    raised = []

    def visit(node, file, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                raised.append((file, scope, child.lineno, ast.unparse(exc)))
            visit(child, file, inner)

    for path in sorted(Path(qwss.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, "")
    assert len(raised) > 100
    # and PEP 562's refusal of a name the package lacks, which `from qwss import
    # cli` needs in order to fall back to importing the submodule
    lazy = [("__init__.py", "__getattr__", "AttributeError")]
    # and a record's refusal to set or delete a name, as frozen dataclasses raise it
    frozen = [("measure.py", f"_Record.{m}", "AttributeError") for m in ("__setattr__", "__delattr__")]
    assert [(f, s, e) for f, s, _, e in raised if e not in allowed] == lazy + frozen


def test_every_tolerance_is_declared_once_in_the_table():
    # the table is errors.py's module-level names bound to a float literal, each
    # on one line that says what it bounds; no other literal below 1e-6 may
    # decide a check, and every entry is read
    table, small, read = {}, [], set()
    for path in sorted(Path(qwss.__file__).parent.glob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        declared = set()
        if path.name == "errors.py":
            for node in tree.body:
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
                    if isinstance(node.value.value, float):
                        table[node.targets[0].id] = source.splitlines()[node.lineno - 1]
                        declared.add(node.value)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                if 0 < abs(node.value) < 1e-6 and node not in declared:
                    small.append((path.name, node.lineno, node.value))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert {"TOL_HERM", "TOL_PSD", "MODEL_TOL"} <= set(table)
    assert [name for name, line in table.items() if "  # " not in line] == []
    assert small == []
    assert sorted(set(table) - read) == []


MU = white_noise([[1.0]], band=1.0, bins=4)
TRAJ = Trajectory(dt=0.1, samples=np.zeros((32, 1)))
TABLE = CovarianceTable(dt=0.1, values=np.ones((3, 1, 1)))
STATE = [[1.0]]


@pytest.mark.parametrize(
    "call, name, message",
    [
        (lambda: CovarianceTable(dt=0.0, values=[[[1.0]]]),
         "dt", "dt must be a positive finite number, got 0.0"),
        (lambda: Trajectory(dt=math.nan, samples=np.zeros((2, 1))),
         "dt", "dt must be a positive finite number, got nan"),
        (lambda: covariance_from_spectrum(MU, dt=-0.1, lags=2),
         "dt", "dt must be a positive finite number, got -0.1"),
        (lambda: covariance_from_spectrum(MU, dt=0.1, lags=-1),
         "lags", "lags must be >= 0, got -1"),
        (lambda: synthesize(MU, dt=math.inf, n=8, seed=1),
         "dt", "dt must be a positive finite number, got inf"),
        (lambda: synthesize(MU, dt=0.1, n=6, seed=1),
         "n", "n must be a power of two, got 6"),
        (lambda: synthesize(MU, dt=0.1, n=8, seed=-1),
         "seed", "seed must be in [0, 2**128), got -1"),
        (lambda: welch_estimate(TRAJ, segment=3),
         "segment", "segment must be even and >= 2, got 3"),
        (lambda: welch_estimate(TRAJ, segment=8, overlap=0.95),
         "overlap", "overlap must be in [0, 0.9], got 0.95"),
        (lambda: check_psd_kernel(TABLE, [0.0], tol=0.0),
         "tol", "tol must be a positive finite number, got 0.0"),
        (lambda: kolmogorov_decompose(np.ones((1, 1, 1, 1)), tol=math.nan),
         "tol", "tol must be a positive finite number, got nan"),
        (lambda: white_noise([[1.0]], band=1.0, bins=0),
         "bins", "bins must be >= 1, got 0"),
        (lambda: white_noise([[1.0]], band=-math.inf),
         "band", "band must be a positive finite number, got -inf"),
        (lambda: DensityGrid(-1.0, 1.0, np.zeros((0, 1, 1))),
         "bins", "bins must be >= 1, got 0"),
        (lambda: OperatorSpectralMeasure(dim=0),
         "dim", "dim must be >= 1, got 0"),
        (lambda: Derivative(dim=0),
         "dim", "dim must be >= 1, got 0"),
        (lambda: QuantumModel(0, 1, STATE, ()),
         "dim_system", "dim_system must be >= 1, got 0"),
        (lambda: QuantumModel(1, 0, STATE, ()),
         "dim_environment", "dim_environment must be >= 1, got 0"),
        # every array a record keeps has each axis of size >= 1, so no record
        # is empty or of dim 0 (the shape rule of qwss.measure._Record)
        pytest.param(lambda: DensityGrid(-1.0, 1.0, np.zeros((2, 0, 0))),
                     "d", "d must be >= 1, got 0", id="density-dim-0"),
        pytest.param(lambda: Tabulated(0.0, 1.0, np.zeros((1, 0, 0))),
                     "d", "d must be >= 1, got 0", id="tabulated-0x0"),
        pytest.param(lambda: CovarianceTable(dt=0.1, values=np.zeros((2, 0, 0))),
                     "d", "d must be >= 1, got 0", id="covariance-dim-0"),
        pytest.param(lambda: CovarianceTable(dt=0.1, values=np.zeros((0, 1, 1))),
                     "m+1", "m+1 must be >= 1, got 0", id="covariance-no-lags"),
        pytest.param(lambda: Trajectory(dt=0.1, samples=np.zeros((0, 2))),
                     "n", "n must be >= 1, got 0", id="trajectory-no-samples"),
        pytest.param(lambda: Trajectory(dt=0.1, samples=np.zeros((4, 0))),
                     "dim", "dim must be >= 1, got 0", id="trajectory-dim-0"),
        pytest.param(lambda: KolmogorovFactorization(rank=1, factors=np.zeros((0, 1, 2))),
                     "n", "n must be >= 1, got 0", id="factorization-no-points"),
        pytest.param(lambda: KolmogorovFactorization(rank=2, factors=np.zeros((0, 2, 3))),
                     "n", "n must be >= 1, got 0", id="factorization-no-points-rank-2"),
        pytest.param(lambda: KolmogorovFactorization(rank=1, factors=np.zeros((2, 1, 0))),
                     "d", "d must be >= 1, got 0", id="factorization-dim-0"),
        pytest.param(lambda: Mode(0.0, np.zeros((0, 0)), [[1.0]]),
                     "dim_system", "dim_system must be >= 1, got 0", id="mode-system-0x0"),
        pytest.param(lambda: Mode(0.0, [[1.0]], np.zeros((0, 0))),
                     "dim_environment", "dim_environment must be >= 1, got 0",
                     id="mode-environment-0x0"),
        pytest.param(lambda: ExpOperator(np.zeros((0, 0)), np.zeros((0, 0))),
                     "d", "d must be >= 1, got 0", id="exp-operator-0x0"),
    ],
)
def test_library_ranges_match_the_cli(call, name, message):
    with pytest.raises(QwssError) as info:
        call()
    assert type(info.value) is QwssError
    assert (str(info.value), info.value.location) == (message, name)


# a float count raises instead of being truncated (seed=1.5 drew seed 1)
FLOAT_COUNTS = {
    "synthesize seed=1.5": lambda: synthesize(MU, dt=0.1, n=8, seed=1.5),
    "synthesize seed=1e30": lambda: synthesize(MU, dt=0.1, n=8, seed=1e30),
    "synthesize n=8.9": lambda: synthesize(MU, dt=0.1, n=8.9, seed=1),
    "covariance_from_spectrum lags": lambda: covariance_from_spectrum(MU, 0.1, lags=2.5),
    "lag_covariance lags": lambda: lag_covariance(TRAJ, lags=2.0),
    "welch_estimate segment": lambda: welch_estimate(TRAJ, segment=8.0),
    "spectrum_from_covariance bins": lambda: spectrum_from_covariance(TABLE, bins=8.0),
    "white_noise bins": lambda: white_noise([[1.0]], band=1.0, bins=2.0),
    "OperatorSpectralMeasure dim": lambda: OperatorSpectralMeasure(dim=1.0),
    "Derivative dim": lambda: Derivative(dim=1.0),
    "QuantumModel dim_system": lambda: QuantumModel(1.0, 1, STATE, ()),
    "partial_trace_environment": lambda: partial_trace_environment(np.eye(2), 1.0, 2),
    "conditional_expectation": lambda: conditional_expectation(np.eye(2), STATE, 2.0),
}


@pytest.mark.parametrize("case", FLOAT_COUNTS)
def test_count_arguments_are_not_truncated(case):
    with pytest.raises(TypeError):
        FLOAT_COUNTS[case]()


# a bool count raises instead of being read as 0 or 1 (n=True drew one sample)
BOOL_COUNTS = {
    "synthesize n": lambda: synthesize(MU, dt=0.1, n=True, seed=1),
    "synthesize seed": lambda: synthesize(MU, dt=0.1, n=8, seed=False),
    "covariance_from_spectrum lags": lambda: covariance_from_spectrum(MU, 0.1, lags=True),
    "lag_covariance lags": lambda: lag_covariance(TRAJ, lags=True),
    "welch_estimate segment": lambda: welch_estimate(TRAJ, segment=True),
    "spectrum_from_covariance bins": lambda: spectrum_from_covariance(TABLE, bins=True),
    "white_noise bins": lambda: white_noise([[1.0]], band=1.0, bins=True),
    "OperatorSpectralMeasure dim": lambda: OperatorSpectralMeasure(dim=True),
    "Derivative dim": lambda: Derivative(dim=True),
    "QuantumModel dim_environment": lambda: QuantumModel(1, True, STATE, ()),
    "partial_trace_environment": lambda: partial_trace_environment(np.eye(1), True, 1),
    "conditional_expectation": lambda: conditional_expectation(np.eye(1), STATE, True),
}


@pytest.mark.parametrize("case", BOOL_COUNTS)
def test_count_arguments_reject_booleans(case):
    with pytest.raises(TypeError, match="must be an integer, got (True|False)"):
        BOOL_COUNTS[case]()


def _fresh(*shape):
    # complex128 and C-contiguous: the input a record could keep without a copy
    return np.ones(shape, dtype=np.complex128)


# each array-holding record: a maker of fresh input arrays, and its constructor
RECORDS = {
    UniformGrid: (lambda: [_fresh(2, 1, 1)], lambda v: UniformGrid(-1.0, 1.0, v)),
    DensityGrid: (lambda: [_fresh(2, 1, 1)], lambda v: DensityGrid(-1.0, 1.0, v)),
    Tabulated: (lambda: [_fresh(2, 1, 1)], lambda v: Tabulated(-1.0, 1.0, v)),
    OperatorSpectralMeasure: (
        lambda: [_fresh(1, 1), _fresh(2, 1, 1)],
        lambda w, v: OperatorSpectralMeasure(1, [(0.5, w)], DensityGrid(-1.0, 1.0, v)),
    ),
    CovarianceTable: (lambda: [_fresh(3, 1, 1)], lambda v: CovarianceTable(0.1, v)),
    Mode: (lambda: [_fresh(1, 1), _fresh(2, 2)], lambda m, d: Mode(0.5, m, d)),
    QuantumModel: (
        lambda: [np.eye(2, dtype=np.complex128) / 2, np.diag([1.0 + 0j, -1.0])],
        lambda rho, d: QuantumModel(1, 2, rho, [Mode(0.5, [[1.0]], d)]),
    ),
    KolmogorovFactorization: (
        lambda: [_fresh(2, 1, 1)], lambda f: KolmogorovFactorization(1, f)
    ),
    Trajectory: (lambda: [_fresh(4, 1)], lambda x: Trajectory(0.1, x, seed=3)),
    ExpOperator: (lambda: [_fresh(1, 1), _fresh(1, 1)], ExpOperator),
    UnboundedWhiteNoise: (lambda: [_fresh(1, 1)], UnboundedWhiteNoise),
}


def test_every_array_record_is_listed():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    # the unhashable records that compare by _Record's rule; FilterSpec is abstract
    own_eq = {
        c for c in subclasses(_Record)
        if c.__eq__ is _Record.__eq__ and c.__hash__ is None and c is not FilterSpec
    }
    assert own_eq == set(RECORDS)


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
def test_records_own_and_lock_their_arrays_and_compare_by_value(kind):
    make, build = RECORDS[kind]
    inputs = make()
    record = build(*inputs)
    assert type(record) is kind
    assert record == build(*make()) and not record != build(*make())
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)
    stored = [v for v in vars(record).values() if isinstance(v, np.ndarray)]
    assert stored and not any(a.flags.writeable for a in stored)
    for x in inputs:
        assert x.flags.writeable
        assert not any(np.shares_memory(x, a) for a in stored)


def test_records_of_different_types_differ():
    g = np.ones((2, 1, 1))
    assert DensityGrid(-1.0, 1.0, g) != Tabulated(-1.0, 1.0, g)
    assert UniformGrid(-1.0, 1.0, g) != DensityGrid(-1.0, 1.0, g)
    # the seed is provenance, which equality skips
    assert Trajectory(0.1, np.ones((4, 1)), seed=1) == Trajectory(0.1, np.ones((4, 1)))


def test_only_record_store_sets_fields_and_locks_arrays():
    found = set()

    def visit(node, file, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
                if child.name in ("__eq__", "_locked"):
                    found.add((file, inner, "def"))
            if isinstance(child, ast.Attribute) and child.attr in ("setflags", "__setattr__"):
                found.add((file, scope, ast.unparse(child)))
            visit(child, file, inner)

    for path in sorted(Path(qwss.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, "")
    assert found == {
        ("measure.py", "_Record._store", "value.setflags"),
        ("measure.py", "_Record._store", "object.__setattr__"),
        ("measure.py", "_Record.__eq__", "def"),
        # replaces the recursive dataclass __eq__ of a filter tree, no array record
        ("filters.py", "Composition.__eq__", "def"),
    }


# --- what the generated dataclass code did, kept by _Record --------------------


# each record built by keyword, equal to its RECORDS build from the same inputs
BY_KEYWORD = {
    UniformGrid: lambda v: UniformGrid(nu_min=-1.0, nu_max=1.0, values=v),
    DensityGrid: lambda v: DensityGrid(nu_min=-1.0, nu_max=1.0, values=v),
    Tabulated: lambda v: Tabulated(nu_min=-1.0, nu_max=1.0, values=v),
    OperatorSpectralMeasure: lambda w, v: OperatorSpectralMeasure(
        dim=1, atoms=[(0.5, w)], density=DensityGrid(nu_min=-1.0, nu_max=1.0, values=v)
    ),
    CovarianceTable: lambda v: CovarianceTable(dt=0.1, values=v),
    Mode: lambda m, d: Mode(nu=0.5, system_op=m, environment_op=d),
    QuantumModel: lambda rho, d: QuantumModel(
        dim_system=1, dim_environment=2, env_state=rho,
        modes=[Mode(nu=0.5, system_op=[[1.0]], environment_op=d)],
    ),
    KolmogorovFactorization: lambda f: KolmogorovFactorization(rank=1, factors=f),
    Trajectory: lambda x: Trajectory(dt=0.1, samples=x, seed=3),
    ExpOperator: lambda g, a: ExpOperator(gamma=g, a=a),
    UnboundedWhiteNoise: lambda s: UnboundedWhiteNoise(intensity=s),
}


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
def test_records_build_by_keyword_and_survive_pickle_and_copy(kind):
    make, build = RECORDS[kind]
    record = BY_KEYWORD[kind](*make())
    assert record == build(*make())
    with pytest.raises(TypeError, match=f"^unhashable type: '{kind.__name__}'$"):
        hash(record)
    for again in (pickle.loads(pickle.dumps(record)), copy.copy(record)):
        assert type(again) is kind and again is not record
        assert again == record and repr(again) == repr(record)


def test_records_print_as_the_generated_repr():
    d = np.diag([1.0, -1.0])
    assert repr(Shift(2, 0.25)) == "Shift(dim=2, s=0.25)"
    assert repr(Derivative(dim=1)) == "Derivative(dim=1)"
    assert repr(ExpOperator([[2.0]], [[1.0]])) == (
        "ExpOperator(gamma=array([[2.+0.j]]), a=array([[1.+0.j]]))"
    )
    assert repr(UnboundedWhiteNoise([[1.0]])) == "UnboundedWhiteNoise(intensity=array([[1.+0.j]]))"
    assert repr(Mode(0.5, [[1.0]], d)) == (
        "Mode(nu=0.5, system_op=array([[1.+0.j]]), environment_op=array([[ 1.+0.j,  0.+0.j],\n"
        "       [ 0.+0.j, -1.+0.j]]))"
    )
    assert repr(QuantumModel(1, 2, np.eye(2) / 2, [Mode(0.5, [[1.0]], d)])) == (
        "QuantumModel(dim_system=1, dim_environment=2, env_state=array([[0.5+0.j, 0. +0.j],\n"
        "       [0. +0.j, 0.5+0.j]]), nus=array([0.5]), system_ops=array([[[1.+0.j]]]), "
        "environment_ops=array([[[ 1.+0.j,  0.+0.j],\n"
        "        [ 0.+0.j, -1.+0.j]]]), mode_weights=(1.0,))"
    )
    assert repr(KolmogorovFactorization(1, [[[1.0]], [[2.0]]])) == (
        "KolmogorovFactorization(rank=1, factors=array([[[1.+0.j]],\n\n       [[2.+0.j]]]))"
    )
    assert repr(KernelVerdict(True, -0.5, 3, 2)) == (
        "KernelVerdict(passed=True, witness=-0.5, points=3, dim=2)"
    )
    assert repr(ScalarConvolution(1, abs)) == "ScalarConvolution(dim=1, hhat=<built-in function abs>)"


def test_records_without_arrays_hash_as_the_tuple_of_their_fields():
    pairs = [
        (Shift(2, 0.25), Shift(dim=2, s=0.25), (2, 0.25)),
        (Derivative(1), Derivative(dim=1), (1,)),
        (ScalarConvolution(1, abs), ScalarConvolution(dim=1, hhat=abs), (1, abs)),
        (KernelVerdict(True, -0.5, 3, 2),
         KernelVerdict(passed=True, witness=-0.5, points=3, dim=2), (True, -0.5, 3, 2)),
    ]
    for a, b, fields in pairs:
        assert a == b and a is not b
        assert hash(a) == hash(b) == hash(fields)
    assert Shift(2, 0.25) != Shift(2, 0.5) and KernelVerdict(True, 0.0, 1, 1) != (True, 0.0, 1, 1)


# a record of each value type that holds no array, beside those of RECORDS
PLAIN = [
    Shift(1, 0.5),
    Derivative(1),
    ScalarConvolution(1, abs),
    Composition(Shift(1, 0.5), Derivative(1)),
    KernelVerdict(True, 0.0, 1, 1),
]


@pytest.mark.parametrize(
    "record", [build(*make()) for make, build in RECORDS.values()] + PLAIN,
    ids=lambda record: type(record).__name__,
)
def test_records_refuse_assignment_and_deletion(record):
    # subclasses such as DensityGrid and Tabulated too, for any name
    name = next(iter(vars(record)))  # the first field
    for target in (name, "extra"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{target}'$"):
            setattr(record, target, 1)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{target}'$"):
            delattr(record, target)
    assert name in vars(record) and "extra" not in vars(record)


# --- the library boundary: any array builds a writable object or is refused ---


def _stacks(axes: str):
    """Complex arrays, NaN and inf included, with every axis of size 0-3: of
    the shape ``axes`` names (a repeated name, one size), or of any shape of
    up to four axes, so also of the wrong ndim or not square."""
    names = axes.split()
    named = st.fixed_dictionaries({k: st.integers(0, 3) for k in names})
    shapes = st.one_of(
        named.map(lambda size: tuple(size[k] for k in names)),
        st.lists(st.integers(0, 3), max_size=4).map(tuple),
    )
    return shapes.flatmap(lambda shape: arrays(np.complex128, shape, elements=st.complex_numbers()))


def _measure(grid):
    return OperatorSpectralMeasure(grid.dim, density=grid)


def _model(mode):
    dk = len(mode.environment_op)
    return QuantumModel(len(mode.system_op), dk, np.eye(dk) / dk, [mode])


# the axes of each input, the call, and the codec of its result
BOUNDARY = {
    "DensityGrid": (("bins d d",), lambda v: _measure(DensityGrid(-1.0, 1.0, v)),
                    serialize_measure, deserialize_measure),
    "Tabulated": (("bins d d",), lambda v: Tabulated(-1.0, 1.0, v),
                  serialize_filter, deserialize_filter),
    "CovarianceTable": (("m d d",), lambda v: CovarianceTable(0.25, v),
                        covariance_to_csv, covariance_from_csv),
    "Trajectory-binary": (("n dim",), lambda x: Trajectory(0.25, x),
                          trajectory_to_binary, trajectory_from_binary),
    "Trajectory-csv": (("n dim",), lambda x: Trajectory(0.25, x),
                       trajectory_to_csv, trajectory_from_csv),
    "KolmogorovFactorization": (
        ("n rank d",), lambda f: KolmogorovFactorization(f.shape[1] if f.ndim > 1 else 0, f),
        serialize_factorization, deserialize_factorization,
    ),
    "Mode": (("dh dh", "dk dk"), lambda m, d: _model(Mode(0.0, m, d)),
             serialize_model, deserialize_model),
    "ExpOperator": (("d d", "d d"), ExpOperator, serialize_filter, deserialize_filter),
    "kolmogorov_decompose": (("n n d d",), kolmogorov_decompose,
                             serialize_factorization, deserialize_factorization),
    "serialize_kernel": (("n n d d",), lambda k: k, serialize_kernel, deserialize_kernel),
}


@pytest.mark.parametrize("case", BOUNDARY)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_array_builds_a_writable_object_or_is_refused(case, data):
    # a bare ValueError, IndexError or ZeroDivisionError fails the test;
    # numpy's overflow warnings on entries near 1e308 do not
    axes, call, write, read = BOUNDARY[case]
    values = [data.draw(_stacks(a), label=a) for a in axes]
    with np.errstate(all="ignore"):
        try:
            obj = call(*values)
        except (QwssError, TypeError):
            return
        try:
            written = write(obj)
        except SchemaError:  # as a 1-lag table in CSV: no time step to write
            return
        assert write(read(written)) == written


HUGE = 1.7e308
NOT_PSD = NotPositiveSemidefiniteError
# each ends as it does with warnings ignored: a refusal, or the same bits; the
# kernel whose largest eigenvalue overflows is refused (it once factored at rank 0)
QUIET = {
    "DensityGrid-inf": (lambda: DensityGrid(0.0, 1.0, [[[math.inf]]]),
                        NOT_PSD, "density bin 0 holds a non-finite entry"),
    "atom-inf": (lambda: OperatorSpectralMeasure(1, [(0.0, [[math.inf]])]),
                 NOT_PSD, "atom 0 weight holds a non-finite entry"),
    "white_noise-inf": (lambda: white_noise([[math.inf]], band=1.0),
                        NOT_PSD, "white noise intensity holds a non-finite entry"),
    "QuantumModel-inf": (lambda: QuantumModel(1, 1, [[math.inf]], []),
                         NOT_PSD, "environment state holds a non-finite entry"),
    "psd_sqrt-inf": (lambda: psd_sqrt([[math.inf, 0], [0, 1]]),
                     NOT_PSD, "psd_sqrt input holds a non-finite entry"),
    "nearest_psd-inf": (lambda: nearest_psd([[math.inf, 0], [0, 1]]), None, None),
    "DensityGrid-huge": (lambda: DensityGrid(0.0, 1.0, [[[HUGE, HUGE], [HUGE, HUGE]]]),
                         None, None),
    "check_psd_kernel-huge": (lambda: check_psd_kernel(lambda t: [[HUGE]], [0.0, 1.0]),
                              None, None),
    "kolmogorov_decompose-huge": (
        lambda: kolmogorov_decompose(np.full((2, 2, 1, 1), HUGE)), QwssError,
        "block kernel is too large to factor: its largest eigenvalue overflows",
    ),
    # a NaN Hermitian defect passes any bound, so finiteness is tested first
    "resolvent-inf": (lambda: resolvent([[math.inf]], 0.3),
                      QwssError, "gamma holds a non-finite entry"),
    "resolvent-nan": (lambda: resolvent([[math.nan]], 0.3),
                      QwssError, "gamma holds a non-finite entry"),
    "solve_lyapunov-inf": (lambda: solve_lyapunov([[math.inf]], [[1.0]]),
                           QwssError, "gamma holds a non-finite entry"),
    "solve_lyapunov-nan": (lambda: solve_lyapunov([[math.nan]], [[1.0]]),
                           QwssError, "gamma holds a non-finite entry"),
    "solve_lyapunov-s-nan": (lambda: solve_lyapunov([[1.0]], [[math.nan]]),
                             QwssError, "s holds a non-finite entry"),
    # 2*pi*nu is refused before it is formed: 2*pi*1e308 overflows
    "resolvent-nu-nan": (lambda: resolvent([[1.0]], math.nan), QwssError,
                         "nu must be a frequency with 2*pi*nu finite, got nan"),
    "resolvent-nu-inf": (lambda: resolvent([[1.0]], [0.5, math.inf]), QwssError,
                         "nu must be a frequency with 2*pi*nu finite, got inf"),
    "resolvent-nu-huge": (lambda: resolvent([[1.0]], 1e308), QwssError,
                          "nu must be a frequency with 2*pi*nu finite, got 1e+308"),
}


@pytest.mark.parametrize("case", QUIET)
def test_psd_checks_warn_on_no_inf_or_overflowing_entry(case):
    call, error, message = QUIET[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        quiet = outcome(call)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loud = outcome(call)
    if error is not None:
        assert loud == quiet == (error, message)
    else:
        assert loud[0] == quiet[0] == "ok"
        assert pickle.dumps(loud[1]) == pickle.dumps(quiet[1])  # bit for bit
