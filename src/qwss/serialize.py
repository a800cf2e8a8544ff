"""Codecs for measures, filters, models, kernels, tables, and trajectories.

Conventions shared by every format:

- frequencies are cycles per unit time in all files
- every complex field is a stack of matrices (one matrix, or ``(..., d, d)``
  for density values, multipliers, kernel blocks and factors), written as
  row-major nested arrays with ``[re, im]`` as the last axis: ``_dumps``
  fills each from one ``%r`` template of ``json.dumps``' indent-2 layout.
  ``_as_stack`` reads a stack of finite floats as one checked array and
  walks any other entry by entry: only the walk names a bad entry, by its
  JSON path (``density.values[3]``, ``blocks[1][2]``)
- JSON documents carry a ``"kind"`` discriminator, reject unknown keys, and
  are emitted with a fixed key order and shortest round-trip float formatting,
  so serializing equal objects yields byte-identical output
- CSV headers are ``tau`` (covariance tables), ``nu`` (density tables) or
  ``t`` (trajectories) followed by ``re_ij``/``im_ij`` columns in row-major
  index order
- the binary trajectory format is little-endian: magic ``QWSS``, version u32,
  dim u32, n u64, dt f64, then n*dim complex128 samples (interleaved re/im
  f64, time-major)

Each kind of JSON document is declared once, as a table of fields in key
order (``_MEASURE``, ..., and one ``_Object`` per filter variant, ``_SHIFT``
to ``_COMPOSITION``, whose keys are its constructor's parameters): a key,
a codec (``float``, ``bool``, a range from ``errors``, a ``_Stack`` with a
shape rule, an ``_Object``, or ``[_Object]``, a list of them) and where the
writer takes the value from. ``_read`` and ``_write`` walk any table; the
writer runs each field's check too, so it refuses what the reader rejects.
Filter trees are walked on explicit stacks, to any depth JSON can nest.

Schema violations raise SchemaError with a JSON-path location. Non-PSD
weights raise the measure constructors' NotPositiveSemidefiniteError, which
names the atom or bin and the witness eigenvalue; the decoder sets its
``location`` to the JSON path (``atoms[i].weight``, ``density.values[b]``).
"""

from __future__ import annotations

import csv
import errno
import io
import itertools
import json
import math
import os
import struct
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from .errors import COUNT, POSITIVE, SIZE, TOL_CSV_ORIGIN, TOL_CSV_STEP
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


def _layout(shape: tuple, indent: int) -> str:
    """The ``%r`` template of a nested list of ``shape`` as ``json.dumps``
    lays it out with ``indent=2``, opened on a line indented ``indent`` spaces."""
    t = "%r"
    for depth in reversed(range(len(shape))):
        pad = "\n" + " " * (indent + 2 * depth)
        t = f"[{pad}  " + f",{pad}  ".join([t] * shape[depth]) + f"{pad}]" if shape[depth] else "[]"
    return t


def _dumps(doc: dict, stacks: list) -> bytes:
    """``doc`` as indent-2 JSON, each marker ``"\\0k"`` that ``_write`` left for
    a stack filled in from ``stacks[k]``, one template per shape and indent.
    ``json.dumps`` writes the NUL as ``\\u0000``, which no key or ``kind``
    holds; the fill is a loop over the text, so only ``json.dumps`` nests."""
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except RecursionError:
        raise SchemaError("cannot write JSON: nested too deeply") from None
    head, *tails = text.split('"\\u0000')
    out, layouts = [head], {}
    for tail in tails:
        k, rest = tail.split('"', 1)
        shape, floats = stacks[int(k)]
        line = out[-1][out[-1].rfind("\n") + 1:]
        key = shape, len(line) - len(line.lstrip(" "))
        if key not in layouts:
            layouts[key] = _layout(*key)
        out += (layouts[key] % tuple(floats), rest)
    out.append("\n")
    return "".join(out).encode("utf-8")


def _json(codec, v) -> bytes:
    stacks = []
    return _dumps(_write(codec, v, stacks=stacks), stacks)


def _text(data) -> str:
    if not isinstance(data, (bytes, bytearray)):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise SchemaError(f"invalid UTF-8: {e}") from None


def _loads(data) -> dict:
    try:
        doc = json.loads(_text(data))
    except json.JSONDecodeError as e:
        raise SchemaError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise SchemaError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level must be a JSON object")
    return doc


def _at(loc: str | None, key: str) -> str:
    return f"{loc}.{key}" if loc else key


def _check_keys(doc: dict, required: tuple, optional: tuple, loc: str | None):
    for key in doc:
        if key not in required and key not in optional:
            raise SchemaError(f"unknown key {key!r}", location=_at(loc, key))
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


def _as_int(v, loc: str, allowed=None) -> int:
    """An integer field, in the range ``allowed`` (``SIZE`` or ``COUNT``) if given."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError("expected an integer", location=loc)
    if allowed is not None and not allowed.test(v):
        raise SchemaError(f"must be {allowed.what}, got {v}", location=loc)
    return v


def _as_bool(v, loc: str) -> bool:
    if not isinstance(v, bool):
        raise SchemaError("expected a boolean", location=loc)
    return v


def _as_stack(v, loc: str, shape: tuple) -> np.ndarray:
    """Decode nested ``[re, im]`` arrays at JSON path ``loc`` to a complex stack.

    ``shape`` gives the size of each axis; a ``None`` size is free for the
    first entry and taken from it for the rest. A stack of that shape with
    only finite ``float`` leaves is read as one array (its axes end at an
    empty list, so none is empty); anything else is walked by
    ``_walk_stack``, which names the bad entry.
    """
    a = np.array(v, dtype=object)
    if a.ndim == len(shape) + 1 and all(w in (None, n) for n, w in zip(a.shape, (*shape, 2))):
        if set(map(type, a.ravel().tolist())) == {float}:
            x = a.astype(np.float64)
            if np.isfinite(x).all():
                return x.view(np.complex128).reshape(a.shape[:-1])  # -0.0 kept
    return _walk_stack(v, loc, shape)


def _walk_stack(v, loc: str, shape: tuple) -> np.ndarray:
    """``_as_stack`` entry by entry. Entries of a leading axis are located as
    ``loc[i]``; a matrix (the last two axes) is checked as a whole at its own
    path, and with 0 expected rows it may be ``[]``.
    """
    if len(shape) > 2:
        v = _as_list(v, loc)
        if shape[0] is not None and len(v) != shape[0]:
            raise SchemaError(
                f"expected {shape[0]} entries, got {len(v)}", location=loc
            )
        first = _walk_stack(v[0], f"{loc}[0]", shape[1:])
        rest = [
            _walk_stack(e, f"{loc}[{i}]", first.shape) for i, e in enumerate(v[1:], 1)
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


# --- JSON documents ------------------------------------------------------------


class _Object:
    """A JSON object: its fields in key order, each ``(key, codec[, get[,
    optional]])``, read as ``build(**values)`` (``None`` for an absent
    optional field) and written from ``get(obj)``, by default the attribute
    ``key``; ``head`` holds the constant keys written ahead of them."""

    def __init__(self, *fields: tuple, build: Callable, **head: str):
        padded = ((*f, None, False)[:4] for f in fields)
        self.fields = [(k, c, g or attrgetter(k), o) for k, c, g, o in padded]
        self.build, self.head = build, head
        self.required = (*head, *(k for k, _, _, o in self.fields if not o))
        self.optional = tuple(k for k, _, _, o in self.fields if o)


class _Stack(NamedTuple):
    """A complex stack: ``shape(env, v)`` is the size of each axis, ``None``
    where free, given the stack ``v`` (its JSON list, or its array); ``empty``
    is the error for no entries, where their number is free."""

    shape: Callable
    empty: str | None = None


class _Multipliers(_Stack):
    """A tabulated filter's ``values``: square matrices, sized by the first."""


def _check(obj: _Object, doc, loc: str | None) -> dict:
    doc = _as_object(doc, loc)
    _check_keys(doc, obj.required, obj.optional, loc)
    if "kind" in obj.head:
        _check_kind(doc, obj.head["kind"])
    return doc


def _read(codec, v, loc: str | None = None, env=()):
    """Decode ``v`` at ``loc``. An object's keys are checked, then its fields
    read in order, each into ``env``: the values read so far, enclosing
    objects' included, which shape rules use."""
    if isinstance(codec, _Object):
        doc, env, values = _check(codec, v, loc), dict(env), {}
        for key, inner, _, _ in codec.fields:
            x = _read(inner, doc[key], _at(loc, key), env) if key in doc else None
            env[key] = values[key] = x
        return codec.build(**values)
    if isinstance(codec, list):
        entries = enumerate(_as_list(v, loc))
        return [_read(codec[0], e, f"{loc}[{i}]", env) for i, e in entries]
    if isinstance(codec, _Stack) and not (codec.empty is None or _as_list(v, loc)):
        raise SchemaError(codec.empty, location=loc)
    if isinstance(codec, _Multipliers):
        d, cols = _as_stack(v[0], f"{loc}[0]", (None, None)).shape
        if cols != d:
            raise SchemaError("multiplier matrices must be square", location=f"{loc}[0]")
        return _as_stack(v, loc, (None, d, d))
    if isinstance(codec, _Stack):
        return _as_stack(v, loc, codec.shape(env, v))
    if codec is float:
        return _as_real(v, loc)
    return _as_bool(v, loc) if codec is bool else _as_int(v, loc, codec)


def _write(codec, v, loc: str | None = None, env=(), rows: bool = False, stacks=None):
    """``v`` as JSON, checked as ``_read`` checks it; with ``rows``, a column
    that holds a field of every object of a list. A stack is checked for its
    shape (no free axis empty) and finite numbers; with a list ``stacks``, it
    goes there as ``(shape, floats)`` and out as the marker ``"\\0k"``, its
    index, for ``_dumps`` to fill. ``env`` holds stacks as arrays."""
    if isinstance(codec, _Object):
        doc, env = dict(codec.head), dict(env)
        for key, inner, get, optional in codec.fields:
            x = get(v)
            if x is not None or not optional:
                doc[key] = _write(inner, x, _at(loc, key), env, stacks=stacks)
                env[key] = x if isinstance(inner, _Stack) else doc[key]
        return doc
    if isinstance(codec, list):
        fields = codec[0].fields
        columns = [_write(c, get(v), loc, env, True, stacks) for _, c, get, _ in fields]
        keys = [key for key, _, _, _ in fields]
        return [dict(zip(keys, row)) for row in zip(*columns)]
    if isinstance(codec, _Stack):
        if codec.empty is not None and not len(v):
            raise SchemaError(codec.empty, location=loc)
        want = ((len(v),) if rows else ()) + codec.shape(env, v)
        if v.ndim != len(want) or any(
            n < 1 if w is None else n != w for n, w in zip(v.shape, want)
        ):
            msg = f"shape {v.shape} is not {want} (None: any size >= 1)"
            raise SchemaError(msg, location=loc)
        if not np.isfinite(v).all():
            raise SchemaError("number must be finite", location=loc)
        a = _interleave(v)
        if stacks is None:
            return a.tolist()
        shape, marks = a.shape[rows:], []
        for floats in a.reshape(len(a) if rows else 1, math.prod(shape)).tolist():
            marks.append(f"\0{len(stacks)}")
            stacks.append((shape, floats))
        return marks if rows else marks[0]
    if rows:
        return [_write(codec, x, loc, env) for x in v.tolist()]
    return _read(codec, codec(v) if codec in (float, bool) else int(v), loc, env)


def _located(path, build):
    """``build()``; a not-PSD error gets the JSON ``path(i)`` of its slice ``i``
    as its location."""
    try:
        return build()
    except NotPositiveSemidefiniteError as e:
        e.location = path(e.index[0])
        raise


def _square(key: str):  # the shape rule of a key x key matrix
    return lambda env, v: (env[key], env[key])


_ATOM = _Object(
    ("nu", float, attrgetter("nus")),
    ("weight", _Stack(_square("dim")), attrgetter("weights")),
    build=lambda nu, weight: (nu, weight),
)
_DENSITY = _Object(
    ("nu_min", float),
    ("nu_max", float),
    ("bins", SIZE),
    ("values", _Stack(lambda env, v: (env["bins"], env["dim"], env["dim"]))),
    build=lambda nu_min, nu_max, bins, values: _located(
        lambda b: f"density.values[{b}]", lambda: DensityGrid(nu_min, nu_max, values)
    ),
)
_MEASURE = _Object(
    ("dim", SIZE),
    ("atoms", [_ATOM], lambda mu: mu),
    ("density", _DENSITY, None, True),
    build=lambda dim, atoms, density: _located(
        lambda i: f"atoms[{i}].weight", lambda: OperatorSpectralMeasure(dim, atoms, density)
    ),
    kind="spectral_measure",
)
_MODE = _Object(
    ("nu", float, attrgetter("nus")),
    ("system_op", _Stack(_square("dim_system")), attrgetter("system_ops")),
    ("environment_op", _Stack(_square("dim_environment")), attrgetter("environment_ops")),
    build=Mode,
)
_MODEL = _Object(
    ("dim_system", SIZE),
    ("dim_environment", SIZE),
    ("env_state", _Stack(_square("dim_environment"))),
    ("modes", [_MODE], lambda model: model),
    build=QuantumModel,
    kind="quantum_model",
)
_KERNEL = _Object(  # n x n blocks, n the number of block rows
    ("dim", SIZE, lambda k: k.shape[-1]),
    ("blocks", _Stack(lambda env, v: (len(v), len(v), env["dim"], env["dim"]),
                      "need at least one block row"), lambda k: k),
    build=lambda dim, blocks: blocks,
    kind="kernel",
)
_FACTORIZATION = _Object(  # with rank 0, each factor is []
    ("rank", COUNT),
    ("dim", SIZE),
    ("factors", _Stack(lambda env, v: (len(v), env["rank"], env["dim"]),
                       "need at least one factor")),
    build=lambda rank, dim, factors: KolmogorovFactorization(rank=rank, factors=factors),
    kind="kolmogorov_factorization",
)
_VERDICT = _Object(
    ("passed", bool),
    ("dim", SIZE),
    ("points", SIZE),
    ("witness", float, None, True),
    build=KernelVerdict,
    kind="kernel_verdict",
)

# a filter document holds its variant's constructor parameters, in order
_SHIFT = _Object(("dim", SIZE), ("s", float), build=Shift, kind="filter", variant="shift")
_DERIVATIVE = _Object(("dim", SIZE), build=Derivative, kind="filter", variant="derivative")
_EXP_OPERATOR = _Object(
    ("gamma", _Stack(lambda env, v: (None, None))),
    ("a", _Stack(lambda env, v: (len(env["gamma"]), len(env["gamma"])))),
    build=ExpOperator, kind="filter", variant="exp_operator",
)
_TABULATED = _Object(
    ("nu_min", float),
    ("nu_max", float),
    ("values", _Multipliers(lambda env, v: (None, None, None), "need at least one bin")),
    build=Tabulated, kind="filter", variant="tabulated",
)
_COMPOSITION = _Object(  # no codecs: the filter walks below handle the factors
    ("first", None), ("second", None), build=Composition, kind="filter", variant="composition"
)
_FILTER_DOCS = {
    t.head["variant"]: t for t in (_SHIFT, _DERIVATIVE, _EXP_OPERATOR, _TABULATED, _COMPOSITION)
}


def serialize_measure(mu: OperatorSpectralMeasure) -> bytes:
    return _json(_MEASURE, mu)


def deserialize_measure(data) -> OperatorSpectralMeasure:
    return _read(_MEASURE, _loads(data))


def filter_to_document(filt: FilterSpec, stacks=None) -> dict:
    if isinstance(filt, Composition):  # post-order on an explicit stack, any depth
        return filt._fold(lambda f: filter_to_document(f, stacks), lambda first, second: {
            "kind": "filter", "variant": "composition", "first": first, "second": second
        })
    if isinstance(filt, ScalarConvolution):
        raise SchemaError(
            "scalar convolution filters hold an arbitrary callable "
            "and cannot be serialized; tabulate the response instead"
        )
    for table in _FILTER_DOCS.values():
        if isinstance(filt, table.build):
            return _write(table, filt, stacks=stacks)
    raise SchemaError(f"not a filter: {type(filt).__name__}")


def filter_from_document(doc: dict, loc: str | None = None) -> FilterSpec:
    # post-order on an explicit stack, any depth; each node's variant and keys
    # are checked on the way down, so errors come in a recursive walk's order
    stack, done = [(doc, loc)], []
    while stack:
        node = stack.pop()
        if node is None:  # both factors of a composition are built
            second = done.pop()
            done.append(Composition(first=done.pop(), second=second))
            continue
        doc, loc = node
        doc = _as_object(doc, loc or "filter")
        if "variant" not in doc:
            raise SchemaError("missing key 'variant'", location=loc)
        variant = doc["variant"]
        if not isinstance(variant, str) or variant not in _FILTER_DOCS:
            raise SchemaError(
                f"unknown filter variant {variant!r}", location=_at(loc, "variant")
            )
        if variant != "composition":
            done.append(_read(_FILTER_DOCS[variant], doc, loc))
            continue
        _check(_COMPOSITION, doc, loc)
        stack += [None, *((doc[key], _at(loc, key)) for key in ("second", "first"))]
    return done[0]


def serialize_filter(filt: FilterSpec) -> bytes:
    stacks = []
    return _dumps(filter_to_document(filt, stacks), stacks)


def deserialize_filter(data) -> FilterSpec:
    return filter_from_document(_loads(data))


def serialize_model(model: QuantumModel) -> bytes:
    return _json(_MODEL, model)


def deserialize_model(data) -> QuantumModel:
    return _read(_MODEL, _loads(data))


def serialize_kernel(blocks: np.ndarray) -> bytes:
    return _json(_KERNEL, np.ascontiguousarray(blocks, dtype=np.complex128))


def deserialize_kernel(data) -> np.ndarray:
    return _read(_KERNEL, _loads(data))


def serialize_factorization(fact: KolmogorovFactorization) -> bytes:
    return _json(_FACTORIZATION, fact)


def deserialize_factorization(data) -> KolmogorovFactorization:
    return _read(_FACTORIZATION, _loads(data))


def serialize_verdict(verdict: KernelVerdict) -> bytes:
    return _json(_VERDICT, verdict)


def deserialize_verdict(data) -> KernelVerdict:
    return _read(_VERDICT, _loads(data))


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


def _check_rows(n: int) -> None:
    if n < 2:
        raise SchemaError("need at least two data rows to recover the time step")


def _write_rows(header: list[str], axis: np.ndarray, flat: np.ndarray) -> str:
    """The header, then one line per row of ``axis`` and ``flat``, each field
    its ``repr``, formatted in blocks of 4096 rows through one template."""
    table = np.column_stack((axis, _interleave(flat).reshape(len(flat), -1)))
    line = ",".join(["%r"] * table.shape[1]) + "\n"
    out = [",".join(header) + "\n"]
    for start in range(0, len(table), 4096):
        block = table[start:start + 4096]
        out.append(line * len(block) % tuple(block.ravel().tolist()))
    return "".join(out)


def _read_rows(text, index_name: str, expected_header) -> tuple[float, np.ndarray]:
    """Parse a CSV body into (dt, complex array (rows, entries)).

    ``expected_header`` maps an entry count to the full expected header, or
    None if no entry count fits.
    """
    rows = list(csv.reader(io.StringIO(_text(text))))
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
    _check_rows(len(body))
    table = None
    if all(len(row) == len(header) for row in body):  # all fields in one pass
        try:
            fields = map(float, itertools.chain.from_iterable(body))
            table = np.fromiter(fields, np.float64, len(body) * len(header)).reshape(len(body), -1)
        except ValueError:
            pass
    if table is None or not np.isfinite(table).all():  # the first bad row
        table = np.empty((len(body), len(header)))
        for k, row in enumerate(body):
            if len(row) != len(header):
                raise SchemaError(f"row {k} has {len(row)} fields, expected {len(header)}")
            try:
                table[k] = [float(x) for x in row]
            except ValueError:
                raise SchemaError(f"row {k} holds a non-numeric field") from None
            if not np.isfinite(table[k]).all():
                raise SchemaError(f"row {k} holds a non-finite value")
    axis = table[:, 0]
    data = table[:, 1:].copy().view(np.complex128)  # re, im as written: -0.0 too
    if abs(axis[0]) > TOL_CSV_ORIGIN * max(1.0, abs(axis[-1])):
        raise SchemaError(f"index must start at 0, got {axis[0]}")
    dt = axis[1] - axis[0]
    if dt <= 0:
        raise SchemaError(f"index must increase, got step {dt}")
    ideal = np.arange(len(body)) * dt
    if np.abs(axis - ideal).max() > TOL_CSV_STEP * max(1.0, abs(axis[-1])):
        raise SchemaError("index column must be uniformly spaced from 0")
    return dt, data


def _index(n: int, dt: float) -> np.ndarray:
    """The index column ``m * dt``, refused where it overflows, as the reader would."""
    _check_rows(n)
    with np.errstate(over="ignore"):
        axis = np.arange(n) * dt
    if not np.isfinite(axis[-1]):
        raise SchemaError(f"index column overflows: {n - 1} * dt is not finite", location="dt")
    return axis


def covariance_to_csv(table: CovarianceTable) -> str:
    flat = table.values.reshape(len(table.values), table.dim**2)
    return _write_rows(["tau"] + _matrix_header(table.dim), _index(len(flat), table.dt), flat)


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
    return _write_rows(["t"] + _vector_header(traj.dim), _index(traj.n, traj.dt), traj.samples)


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
    if not POSITIVE.test(dt):
        raise SchemaError(f"invalid time step dt={dt}")
    expected = _HEADER.size + 16 * dim * n
    if len(data) != expected:
        raise SchemaError(f"expected {expected} bytes total, got {len(data)}")
    samples = np.frombuffer(data, dtype="<c16", offset=_HEADER.size)
    return Trajectory(dt=dt, samples=samples.reshape(n, dim))


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
