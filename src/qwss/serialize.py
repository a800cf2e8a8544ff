"""Codecs for measures, filters, models, kernels, tables, and trajectories.

Conventions shared by every format:

- frequencies are cycles per unit time in all files
- every complex field is a stack of matrices (one matrix, or ``(..., d, d)``
  for density values, multipliers, kernel blocks and factors), and one stack
  codec handles them all: ``_enc`` writes row-major nested arrays with
  ``[re, im]`` as the last axis, and ``_as_stack`` reads them back, naming a
  bad entry by its JSON path (``density.values[3]``, ``blocks[1][2]``)
- JSON documents carry a ``"kind"`` discriminator, reject unknown keys, and
  are emitted with a fixed key order and shortest round-trip float formatting,
  so serializing equal objects yields byte-identical output
- CSV headers are ``tau`` (covariance tables), ``nu`` (density tables) or
  ``t`` (trajectories) followed by ``re_ij``/``im_ij`` columns in row-major
  index order
- the binary trajectory format is little-endian: magic ``QWSS``, version u32,
  dim u32, n u64, dt f64, then n*dim complex128 samples (interleaved re/im
  f64, time-major)

Schema violations raise SchemaError with a JSON-path location. Non-PSD
weights raise the measure constructors' NotPositiveSemidefiniteError, which
names the atom or bin and the witness eigenvalue; the decoder sets its
``location`` to the JSON path (``atoms[i].weight``, ``density.values[b]``).
"""

from __future__ import annotations

import csv
import errno
import io
import json
import math
import os
import struct

import numpy as np

from .errors import NotPositiveSemidefiniteError, SchemaError
from .filters import (
    Composition,
    Derivative,
    ExpOperator,
    FilterSpec,
    ScalarConvolution,
    Shift,
    Tabulated,
)
from .measure import (
    CovarianceTable,
    DensityGrid,
    KernelVerdict,
    OperatorSpectralMeasure,
)
from .quantum import KolmogorovFactorization, Mode, QuantumModel
from .sampling import Trajectory

__all__ = [
    "serialize_measure",
    "deserialize_measure",
    "serialize_filter",
    "deserialize_filter",
    "serialize_model",
    "deserialize_model",
    "serialize_kernel",
    "deserialize_kernel",
    "serialize_factorization",
    "deserialize_factorization",
    "serialize_verdict",
    "deserialize_verdict",
    "covariance_to_csv",
    "covariance_from_csv",
    "trajectory_to_csv",
    "trajectory_from_csv",
    "trajectory_to_binary",
    "trajectory_from_binary",
    "density_to_csv",
    "write_files",
]


# --- primitive encoding / decoding ---------------------------------------


def _interleave(a: np.ndarray) -> np.ndarray:
    """A complex stack as reals with ``[re, im]`` as a new last axis."""
    return np.stack((a.real, a.imag), -1)


def _enc(a: np.ndarray) -> list:
    return _interleave(a).tolist()


def _dumps(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2, allow_nan=False) + "\n").encode("utf-8")


def _loads(data) -> dict:
    if isinstance(data, (bytes, bytearray)):
        data = bytes(data).decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as e:
        raise SchemaError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise SchemaError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level must be a JSON object")
    return doc


def _check_keys(doc: dict, required: tuple, optional: tuple, loc: str | None):
    for key in doc:
        if key not in required and key not in optional:
            where = key if loc is None else f"{loc}.{key}"
            raise SchemaError(f"unknown key {key!r}", location=where)
    for key in required:
        if key not in doc:
            raise SchemaError(f"missing key {key!r}", location=loc)


def _check_kind(doc: dict, kind: str):
    got = doc.get("kind")
    if got != kind:
        raise SchemaError(f"expected kind {kind!r}, got {got!r}", location="kind")


def _as_real(v, loc: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError("expected a real number", location=loc)
    try:
        x = float(v)
    except OverflowError:
        raise SchemaError("number is too large for a float", location=loc) from None
    if not math.isfinite(x):
        raise SchemaError("number must be finite", location=loc)
    return x


def _as_int(v, loc: str, minimum: int | None = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError("expected an integer", location=loc)
    if minimum is not None and v < minimum:
        raise SchemaError(f"must be >= {minimum}, got {v}", location=loc)
    return v


def _as_bool(v, loc: str) -> bool:
    if not isinstance(v, bool):
        raise SchemaError("expected a boolean", location=loc)
    return v


def _as_stack(v, loc: str, shape: tuple) -> np.ndarray:
    """Decode nested ``[re, im]`` arrays at JSON path ``loc`` to a complex stack.

    ``shape`` gives the size of each axis; a ``None`` size is free for the
    first entry and taken from it for the rest. Entries of a leading axis are
    located as ``loc[i]``; a matrix (the last two axes) is checked as a whole
    at its own path, and with 0 expected rows it may be ``[]``.
    """
    if len(shape) > 2:
        v = _as_list(v, loc)
        if shape[0] is not None and len(v) != shape[0]:
            raise SchemaError(
                f"expected {shape[0]} entries, got {len(v)}", location=loc
            )
        first = _as_stack(v[0], f"{loc}[0]", shape[1:])
        rest = [
            _as_stack(e, f"{loc}[{i}]", first.shape) for i, e in enumerate(v[1:], 1)
        ]
        return np.stack([first] + rest)
    rows, cols = shape
    if rows == 0 and v == []:
        return np.empty((0, cols), dtype=np.complex128)
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
        for z in row:
            if not isinstance(z, list) or len(z) != 2:
                raise SchemaError("expected a complex scalar as [re, im]", location=loc)
            out.append(complex(_as_real(z[0], loc), _as_real(z[1], loc)))
    m = np.array(out, dtype=np.complex128).reshape(len(v), width)
    if rows is not None and m.shape[0] != rows:
        raise SchemaError(f"expected {rows} rows, got {m.shape[0]}", location=loc)
    if cols is not None and m.shape[1] != cols:
        raise SchemaError(f"expected {cols} columns, got {m.shape[1]}", location=loc)
    return m


def _as_list(v, loc: str) -> list:
    if not isinstance(v, list):
        raise SchemaError("expected an array", location=loc)
    return v


def _as_object(v, loc: str) -> dict:
    if not isinstance(v, dict):
        raise SchemaError("expected an object", location=loc)
    return v


# --- spectral measures -----------------------------------------------------


def measure_to_document(mu: OperatorSpectralMeasure) -> dict:
    doc = {
        "kind": "spectral_measure",
        "dim": int(mu.dim),
        "atoms": [
            {"nu": nu, "weight": w}
            for nu, w in zip(mu.nus.tolist(), _enc(mu.weights))
        ],
    }
    if mu.density is not None:
        den = mu.density
        doc["density"] = {
            "nu_min": float(den.nu_min),
            "nu_max": float(den.nu_max),
            "bins": int(den.bins),
            "values": _enc(den.values),
        }
    return doc


def _located(path, build):
    """``build()``; a not-PSD error gets the JSON ``path(i)`` of its slice ``i``
    as its location."""
    try:
        return build()
    except NotPositiveSemidefiniteError as e:
        e.location = path(e.index[0])
        raise


def measure_from_document(doc: dict) -> OperatorSpectralMeasure:
    _check_keys(doc, ("kind", "dim", "atoms"), ("density",), None)
    _check_kind(doc, "spectral_measure")
    dim = _as_int(doc["dim"], "dim", minimum=1)
    atoms = []
    for i, entry in enumerate(_as_list(doc["atoms"], "atoms")):
        loc = f"atoms[{i}]"
        entry = _as_object(entry, loc)
        _check_keys(entry, ("nu", "weight"), (), loc)
        nu = _as_real(entry["nu"], f"{loc}.nu")
        atoms.append((nu, _as_stack(entry["weight"], f"{loc}.weight", (dim, dim))))
    density = None
    if "density" in doc:
        den = _as_object(doc["density"], "density")
        _check_keys(den, ("nu_min", "nu_max", "bins", "values"), (), "density")
        nu_min = _as_real(den["nu_min"], "density.nu_min")
        nu_max = _as_real(den["nu_max"], "density.nu_max")
        bins = _as_int(den["bins"], "density.bins", minimum=1)
        vals = _as_stack(den["values"], "density.values", (bins, dim, dim))
        density = _located(
            lambda b: f"density.values[{b}]",
            lambda: DensityGrid(nu_min=nu_min, nu_max=nu_max, values=vals),
        )
    return _located(
        lambda i: f"atoms[{i}].weight",
        lambda: OperatorSpectralMeasure(dim=dim, atoms=tuple(atoms), density=density),
    )


def serialize_measure(mu: OperatorSpectralMeasure) -> bytes:
    return _dumps(measure_to_document(mu))


def deserialize_measure(data) -> OperatorSpectralMeasure:
    return measure_from_document(_loads(data))


# --- filters ----------------------------------------------------------------


def filter_to_document(filt: FilterSpec) -> dict:
    if isinstance(filt, Shift):
        return {
            "kind": "filter",
            "variant": "shift",
            "dim": int(filt.dim),
            "s": float(filt.s),
        }
    if isinstance(filt, Derivative):
        return {"kind": "filter", "variant": "derivative", "dim": int(filt.dim)}
    if isinstance(filt, ExpOperator):
        return {
            "kind": "filter",
            "variant": "exp_operator",
            "gamma": _enc(filt.gamma),
            "a": _enc(filt.a),
        }
    if isinstance(filt, Tabulated):
        return {
            "kind": "filter",
            "variant": "tabulated",
            "nu_min": float(filt.nu_min),
            "nu_max": float(filt.nu_max),
            "values": _enc(filt.values),
        }
    if isinstance(filt, Composition):
        return {
            "kind": "filter",
            "variant": "composition",
            "first": filter_to_document(filt.first),
            "second": filter_to_document(filt.second),
        }
    if isinstance(filt, ScalarConvolution):
        raise SchemaError(
            "scalar convolution filters hold an arbitrary callable "
            "and cannot be serialized; tabulate the response instead"
        )
    raise SchemaError(f"not a filter: {type(filt).__name__}")


_FILTER_KEYS = {
    "shift": (("dim", "s"), ()),
    "derivative": (("dim",), ()),
    "exp_operator": (("gamma", "a"), ()),
    "tabulated": (("nu_min", "nu_max", "values"), ()),
    "composition": (("first", "second"), ()),
}


def filter_from_document(doc: dict, loc: str | None = None) -> FilterSpec:
    prefix = f"{loc}." if loc else ""
    doc = _as_object(doc, loc or "filter")
    if "variant" not in doc:
        raise SchemaError("missing key 'variant'", location=loc)
    variant = doc["variant"]
    if not isinstance(variant, str) or variant not in _FILTER_KEYS:
        raise SchemaError(
            f"unknown filter variant {variant!r}", location=f"{prefix}variant"
        )
    required, optional = _FILTER_KEYS[variant]
    _check_keys(doc, ("kind", "variant") + required, optional, loc)
    _check_kind(doc, "filter")
    if variant == "shift":
        return Shift(
            dim=_as_int(doc["dim"], f"{prefix}dim", minimum=1),
            s=_as_real(doc["s"], f"{prefix}s"),
        )
    if variant == "derivative":
        return Derivative(dim=_as_int(doc["dim"], f"{prefix}dim", minimum=1))
    if variant == "exp_operator":
        g = _as_stack(doc["gamma"], f"{prefix}gamma", (None, None))
        a = _as_stack(doc["a"], f"{prefix}a", (len(g), len(g)))
        return ExpOperator(gamma=g, a=a)
    if variant == "tabulated":
        raw = _as_list(doc["values"], f"{prefix}values")
        if not raw:
            raise SchemaError("need at least one bin", location=f"{prefix}values")
        d, cols = _as_stack(raw[0], f"{prefix}values[0]", (None, None)).shape
        if cols != d:
            raise SchemaError(
                "multiplier matrices must be square", location=f"{prefix}values[0]"
            )
        vals = _as_stack(raw, f"{prefix}values", (None, d, d))
        return Tabulated(
            nu_min=_as_real(doc["nu_min"], f"{prefix}nu_min"),
            nu_max=_as_real(doc["nu_max"], f"{prefix}nu_max"),
            values=vals,
        )
    return Composition(
        first=filter_from_document(doc["first"], f"{prefix}first"),
        second=filter_from_document(doc["second"], f"{prefix}second"),
    )


def serialize_filter(filt: FilterSpec) -> bytes:
    return _dumps(filter_to_document(filt))


def deserialize_filter(data) -> FilterSpec:
    return filter_from_document(_loads(data))


# --- quantum models ---------------------------------------------------------


def model_to_document(model: QuantumModel) -> dict:
    return {
        "kind": "quantum_model",
        "dim_system": int(model.dim_system),
        "dim_environment": int(model.dim_environment),
        "env_state": _enc(model.env_state),
        "modes": [
            {"nu": nu, "system_op": m, "environment_op": d}
            for nu, m, d in zip(
                model.nus.tolist(), _enc(model.system_ops), _enc(model.environment_ops)
            )
        ],
    }


def model_from_document(doc: dict) -> QuantumModel:
    _check_keys(
        doc,
        ("kind", "dim_system", "dim_environment", "env_state", "modes"),
        (),
        None,
    )
    _check_kind(doc, "quantum_model")
    dh = _as_int(doc["dim_system"], "dim_system", minimum=1)
    dk = _as_int(doc["dim_environment"], "dim_environment", minimum=1)
    rho = _as_stack(doc["env_state"], "env_state", (dk, dk))
    modes = []
    for i, entry in enumerate(_as_list(doc["modes"], "modes")):
        loc = f"modes[{i}]"
        entry = _as_object(entry, loc)
        _check_keys(entry, ("nu", "system_op", "environment_op"), (), loc)
        modes.append(
            Mode(
                nu=_as_real(entry["nu"], f"{loc}.nu"),
                system_op=_as_stack(entry["system_op"], f"{loc}.system_op", (dh, dh)),
                environment_op=_as_stack(
                    entry["environment_op"], f"{loc}.environment_op", (dk, dk)
                ),
            )
        )
    return QuantumModel(
        dim_system=dh, dim_environment=dk, env_state=rho, modes=tuple(modes)
    )


def serialize_model(model: QuantumModel) -> bytes:
    return _dumps(model_to_document(model))


def deserialize_model(data) -> QuantumModel:
    return model_from_document(_loads(data))


# --- kernels and factorizations ---------------------------------------------


def kernel_to_document(blocks: np.ndarray) -> dict:
    k = np.ascontiguousarray(blocks, dtype=np.complex128)
    if k.ndim != 4 or k.shape[0] != k.shape[1] or k.shape[2] != k.shape[3]:
        raise SchemaError(f"kernel blocks must have shape (n, n, d, d), got {k.shape}")
    return {
        "kind": "kernel",
        "dim": int(k.shape[2]),
        "blocks": _enc(k),
    }


def kernel_from_document(doc: dict) -> np.ndarray:
    _check_keys(doc, ("kind", "dim", "blocks"), (), None)
    _check_kind(doc, "kernel")
    d = _as_int(doc["dim"], "dim", minimum=1)
    n = len(_as_list(doc["blocks"], "blocks"))
    if n < 1:
        raise SchemaError("need at least one block row", location="blocks")
    return _as_stack(doc["blocks"], "blocks", (n, n, d, d))


def serialize_kernel(blocks: np.ndarray) -> bytes:
    return _dumps(kernel_to_document(blocks))


def deserialize_kernel(data) -> np.ndarray:
    return kernel_from_document(_loads(data))


def factorization_to_document(fact: KolmogorovFactorization) -> dict:
    return {
        "kind": "kolmogorov_factorization",
        "rank": int(fact.rank),
        "dim": int(fact.factors.shape[2]),
        "factors": _enc(fact.factors),
    }


def factorization_from_document(doc: dict) -> KolmogorovFactorization:
    _check_keys(doc, ("kind", "rank", "dim", "factors"), (), None)
    _check_kind(doc, "kolmogorov_factorization")
    rank = _as_int(doc["rank"], "rank", minimum=0)
    d = _as_int(doc["dim"], "dim", minimum=1)
    raw = _as_list(doc["factors"], "factors")
    if not raw:
        raise SchemaError("need at least one factor", location="factors")
    return KolmogorovFactorization(
        rank=rank, factors=_as_stack(raw, "factors", (None, rank, d))
    )


def serialize_factorization(fact: KolmogorovFactorization) -> bytes:
    return _dumps(factorization_to_document(fact))


def deserialize_factorization(data) -> KolmogorovFactorization:
    return factorization_from_document(_loads(data))


# --- verdicts ----------------------------------------------------------------


def verdict_to_document(verdict: KernelVerdict) -> dict:
    doc = {
        "kind": "kernel_verdict",
        "passed": bool(verdict.passed),
        "dim": int(verdict.dim),
        "points": int(verdict.points),
    }
    if verdict.witness is not None:
        doc["witness"] = float(verdict.witness)
    return doc


def verdict_from_document(doc: dict) -> KernelVerdict:
    _check_keys(doc, ("kind", "passed", "dim", "points"), ("witness",), None)
    _check_kind(doc, "kernel_verdict")
    witness = _as_real(doc["witness"], "witness") if "witness" in doc else None
    return KernelVerdict(
        passed=_as_bool(doc["passed"], "passed"),
        witness=witness,
        points=_as_int(doc["points"], "points", minimum=1),
        dim=_as_int(doc["dim"], "dim", minimum=1),
    )


def serialize_verdict(verdict: KernelVerdict) -> bytes:
    return _dumps(verdict_to_document(verdict))


def deserialize_verdict(data) -> KernelVerdict:
    return verdict_from_document(_loads(data))


# --- CSV tables ---------------------------------------------------------------


def _matrix_header(d: int) -> list[str]:
    return [
        name
        for i in range(d)
        for j in range(d)
        for name in (f"re_{i}{j}", f"im_{i}{j}")
    ]


def _vector_header(d: int) -> list[str]:
    return [name for i in range(d) for name in (f"re_{i}", f"im_{i}")]


def _write_rows(header: list[str], axis: np.ndarray, flat: np.ndarray) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    n = flat.shape[0]
    writer.writerows(np.column_stack((axis, _interleave(flat).reshape(n, -1))).tolist())
    return buf.getvalue()


def _read_rows(text, index_name: str, expected_header) -> tuple[float, np.ndarray]:
    """Parse a CSV body into (dt, complex array (rows, entries)).

    ``expected_header`` maps an entry count to the full expected header, or
    None if no entry count fits.
    """
    if isinstance(text, (bytes, bytearray)):
        text = bytes(text).decode("utf-8")
    rows = list(csv.reader(io.StringIO(text)))
    rows = [r for r in rows if r]
    if not rows:
        raise SchemaError("empty CSV")
    header = rows[0]
    if not header or header[0] != index_name:
        raise SchemaError(
            f"first column must be {index_name!r}, got {header[:1]}", location="header"
        )
    ncols = len(header) - 1
    if ncols <= 0 or ncols % 2 != 0:
        raise SchemaError("need re/im column pairs after the index", location="header")
    expected = expected_header(ncols // 2)
    if expected is None or header != [index_name] + expected:
        raise SchemaError("header does not match the format", location="header")
    body = rows[1:]
    if len(body) < 2:
        raise SchemaError("need at least two data rows to recover the time step")
    entries = ncols // 2
    data = np.empty((len(body), entries), dtype=np.complex128)
    axis = np.empty(len(body))
    for k, row in enumerate(body):
        if len(row) != len(header):
            raise SchemaError(f"row {k} has {len(row)} fields, expected {len(header)}")
        try:
            nums = [float(x) for x in row]
        except ValueError:
            raise SchemaError(f"row {k} holds a non-numeric field") from None
        if not all(math.isfinite(x) for x in nums):
            raise SchemaError(f"row {k} holds a non-finite value")
        axis[k] = nums[0]
        data[k] = np.asarray(nums[1::2]) + 1j * np.asarray(nums[2::2])
    if abs(axis[0]) > 1e-12 * max(1.0, abs(axis[-1])):
        raise SchemaError(f"index must start at 0, got {axis[0]}")
    dt = axis[1] - axis[0]
    if dt <= 0:
        raise SchemaError(f"index must increase, got step {dt}")
    ideal = np.arange(len(body)) * dt
    if np.abs(axis - ideal).max() > 1e-9 * max(1.0, abs(axis[-1])):
        raise SchemaError("index column must be uniformly spaced from 0")
    return dt, data


def covariance_to_csv(table: CovarianceTable) -> str:
    flat = table.values.reshape(len(table.values), table.dim**2)
    return _write_rows(["tau"] + _matrix_header(table.dim), table.lags(), flat)


def covariance_from_csv(text) -> CovarianceTable:
    def expected(entries: int):
        d = math.isqrt(entries)
        return _matrix_header(d) if d * d == entries else None

    dt, data = _read_rows(text, "tau", expected)
    d = math.isqrt(data.shape[1])
    return CovarianceTable(dt=dt, values=data.reshape(data.shape[0], d, d))


def density_to_csv(mu: OperatorSpectralMeasure) -> str:
    """Plot-ready CSV of the density part: ``nu`` at bin midpoints, then the
    matrix columns."""
    den = mu.density
    if den is None:
        raise SchemaError("measure has no density part to tabulate")
    d = mu.dim
    flat = den.values.reshape(den.bins, d * d)
    return _write_rows(["nu"] + _matrix_header(d), den.midpoints(), flat)


def trajectory_to_csv(traj: Trajectory) -> str:
    times = np.arange(traj.n) * traj.dt
    return _write_rows(["t"] + _vector_header(traj.dim), times, traj.samples)


def trajectory_from_csv(text) -> Trajectory:
    dt, data = _read_rows(text, "t", _vector_header)
    return Trajectory(dt=dt, samples=data)


# --- binary trajectories -------------------------------------------------------


_MAGIC = b"QWSS"
_BINARY_VERSION = 1
_HEADER = struct.Struct("<4sIIQd")


def trajectory_to_binary(traj: Trajectory) -> bytes:
    header = _HEADER.pack(_MAGIC, _BINARY_VERSION, traj.dim, traj.n, traj.dt)
    return header + np.ascontiguousarray(traj.samples, dtype="<c16").tobytes()


def trajectory_from_binary(data: bytes) -> Trajectory:
    data = bytes(data)
    if len(data) < _HEADER.size:
        raise SchemaError(f"truncated header: {len(data)} bytes")
    magic, version, dim, n, dt = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise SchemaError(f"bad magic {magic!r}, expected {_MAGIC!r}")
    if version != _BINARY_VERSION:
        raise SchemaError(f"unsupported version {version}")
    if dim < 1 or n < 1:
        raise SchemaError(f"invalid shape n={n}, dim={dim}")
    expected = _HEADER.size + 16 * dim * n
    if len(data) != expected:
        raise SchemaError(f"expected {expected} bytes total, got {len(data)}")
    samples = np.frombuffer(data, dtype="<c16", offset=_HEADER.size)
    return Trajectory(dt=dt, samples=samples.reshape(n, dim).astype(np.complex128))


# --- file output -------------------------------------------------------------


def write_files(files: dict) -> None:
    """Write every ``{path: bytes or str}`` entry (text as UTF-8), or none.

    Each file goes to a sibling temp file first, and the temp files are
    renamed into place only after all of them are written, so a failure
    while writing leaves every target as it was and no temp file behind.
    A target that is a directory, which the rename would fail on, is
    refused before anything is written. New files get mode 0666 less the
    umask, as ``open(path, "wb")`` does.
    """
    staged, renamed = [], 0
    try:
        for path, data in files.items():
            path = os.fspath(path)
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, "output is a directory", path)
            directory = os.path.dirname(os.path.abspath(path))
            tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
            try:
                fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
            except OSError as exc:  # name the output, not its temp file
                raise OSError(exc.errno, exc.strerror, path) from None
            staged.append((tmp, path))
            with os.fdopen(fd, "wb") as f:
                f.write(data.encode("utf-8") if isinstance(data, str) else data)
        for tmp, path in staged:
            os.replace(tmp, path)
            renamed += 1
    finally:
        for tmp, _ in staged[renamed:]:
            try:
                os.unlink(tmp)
            except OSError:
                pass
