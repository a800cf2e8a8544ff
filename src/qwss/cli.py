"""Command-line pipeline around the measure, filter, model, and sampling APIs.

Subcommands:

- ``bochner``:    measure JSON -> covariance table CSV
- ``inverse``:    covariance table CSV -> measure JSON
- ``filter``:     measure JSON + filter JSON -> measure JSON
- ``checkpsd``:   covariance table CSV + sample times -> verdict JSON
- ``kolmogorov``: kernel JSON -> factorization JSON
- ``model``:      quantum model JSON -> spectral measure JSON (+ covariance CSV)
- ``synth``:      measure JSON -> trajectory (CSV for ``.csv``, else binary)
- ``estimate``:   trajectory -> measure JSON (+ lag covariance CSV)
- ``demo ou``:    end-to-end resolvent-filtered white noise pipeline

All frequencies in files and flags are cycles per unit time. A trajectory
is CSV when its file name ends in ``.csv`` and binary otherwise, on read and
write alike; there is no format flag. ``_COMMANDS`` declares each parameter
once. A config file given with ``--config path.json`` may set any of them:
its keys are the subcommand's flags plus ``command`` (which must match),
``input`` and ``output``, and for ``filter`` an inline filter document under
``filter``. Config values override flags.

Flags and config keys share one set of checks, run before any file is read
or written. A malformed value (``--n 1e3``, ``--window foo``, a config
``NaN`` or ``1e400``) is a ``schema`` error and a value out of range
(``--tol -1``, ``--n 63``, ``"dt": 0``, a flag's ``nan``) an
``invalid_value`` error, both located at the parameter name. Unknown flags
or config keys and missing parameters, positionals or subcommands are
``schema`` errors. Constraints that tie a parameter to another one or to
the input (``segment <= n``, ``lags < n/2``) are checked by the library.

Every failure prints one JSON object ``{"error": {"code", "message",
"location"}}`` to stderr and exits 1; ``-h`` exits 0. ``checkpsd`` exits 0
when the kernel passes and 2 when it fails, the one use of exit 2, with the
verdict JSON on stdout either way.

A command writes no file itself: it returns its outputs, and ``main``
writes all of them or none (``serialize.write_files``), then prints the
command's stdout. A failure leaves no output file and no temp file.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    AliasingError,
    DimensionMismatchError,
    FilterDomainError,
    NotPositiveDefiniteError,
    NotPositiveSemidefiniteError,
    OffGridLagError,
    QwssError,
    SchemaError,
)
from .filters import ExpOperator, apply_filter, ou_covariance, white_noise
from .measure import (
    CovarianceTable,
    check_psd_kernel,
    covariance_from_spectrum,
    spectrum_from_covariance,
    total_mass,
)
from .quantum import kolmogorov_decompose, model_spectral_measure
from .sampling import Trajectory, lag_covariance, synthesize, welch_estimate
from .serialize import (
    _as_int,
    _as_object,
    _as_real,
    _loads,
    covariance_from_csv,
    covariance_to_csv,
    deserialize_filter,
    deserialize_kernel,
    deserialize_measure,
    deserialize_model,
    density_to_csv,
    filter_from_document,
    serialize_factorization,
    serialize_measure,
    trajectory_from_binary,
    trajectory_from_csv,
    trajectory_to_binary,
    trajectory_to_csv,
    verdict_to_document,
    write_files,
)

__all__ = ["main"]


_ERROR_CODES = {
    SchemaError: "schema",
    NotPositiveSemidefiniteError: "not_psd",
    NotPositiveDefiniteError: "not_positive_definite",
    AliasingError: "aliasing",
    OffGridLagError: "off_grid_lag",
    DimensionMismatchError: "dimension_mismatch",
    FilterDomainError: "filter_domain",
    MemoryError: "resource",
}


def _error_json(exc: BaseException) -> str:
    code = "invalid_value"
    for cls, name in _ERROR_CODES.items():
        if isinstance(exc, cls):
            code = name
            break
    else:
        if isinstance(exc, OSError):
            code = "io"
    doc = {
        "error": {
            "code": code,
            "message": str(exc) or type(exc).__name__,
            "location": getattr(exc, "location", None),
        }
    }
    return json.dumps(doc, allow_nan=False)


# --- parameters ----------------------------------------------------------------


class _OutOfRange(ValueError):
    """A well-typed flag or config value outside its range (``invalid_value``)."""

    def __init__(self, message: str, location: str):
        super().__init__(message)
        self.location = location


def _string(v, loc):
    if not isinstance(v, str):
        raise SchemaError("expected a string", location=loc)
    return v


class _Kind(NamedTuple):
    """Decoders of a flag's text and of a config value (``SchemaError`` when
    malformed), the range check of the value (``_OutOfRange``), and the
    flag's placeholder in the help."""

    text: Callable
    json: Callable
    check: Callable = lambda value, loc: None
    metavar: str | None = None


def _number(convert, test, what):
    """Kind of an ``int`` or ``float`` parameter in the range ``test``."""
    is_int = convert is int
    noun, from_json = ("an integer", _as_int) if is_int else ("a real number", _as_real)

    def text(t, loc):
        try:
            return convert(t)
        except ValueError:
            raise SchemaError(f"expected {noun}, got {t!r}", location=loc) from None

    def check(v, loc):
        if not test(v):
            raise _OutOfRange(f"{loc} must be {what}, got {v}", location=loc)

    return _Kind(text, from_json, check)


_FINITE = _number(float, np.isfinite, "a finite number")
_POSITIVE = _number(float, lambda x: 0 < x < np.inf, "a positive finite number")
_OVERLAP = _number(float, lambda x: 0 <= x <= 0.9, "in [0, 0.9]")
_COUNT = _number(int, lambda m: m >= 0, ">= 0")
_SIZE = _number(int, lambda m: m >= 1, ">= 1")
_POWER_OF_TWO = _number(int, lambda m: m >= 1 and m & (m - 1) == 0, "a power of two")
_EVEN = _number(int, lambda m: m >= 2 and m % 2 == 0, "even and >= 2")
_SEED = _number(int, lambda s: 0 <= s < 2**128, "in [0, 2**128)")
_PATH = _Kind(_string, _string)


def _times(v, loc):
    if isinstance(v, str):
        parts = [p for p in v.split(",") if p.strip()]
        return [_FINITE.text(p, f"{loc}[{i}]") for i, p in enumerate(parts)]
    if isinstance(v, list):
        return [_as_real(x, f"{loc}[{i}]") for i, x in enumerate(v)]
    raise SchemaError("expected a comma list or array of times", location=loc)


def _each_finite(times, loc):
    for i, t in enumerate(times):
        _FINITE.check(t, f"{loc}[{i}]")


def _one_of(*allowed):
    def decode(v, loc):
        if _string(v, loc) not in allowed:
            raise SchemaError(f"must be one of {allowed}, got {v!r}", location=loc)
        return v

    return _Kind(decode, decode, metavar="{%s}" % ",".join(allowed))


class _Param(NamedTuple):
    """A positional or ``--name`` flag, and the config key ``name``.
    ``required`` is True, or the parameter whose presence makes it required."""

    name: str
    kind: _Kind = _PATH
    default: object = None
    required: bool | str = False
    help: str | None = None
    positional: bool = False


_IN, _OUT = _Param("input", positional=True), _Param("output", positional=True)
_TOL = _Param("tol", _POSITIVE, 1e-9)

# subcommand -> (help line, parameters)
_COMMANDS = {
    "bochner": ("measure JSON to covariance table CSV", (
        _IN, _OUT,
        _Param("dt", _POSITIVE, required=True),
        _Param("lags", _COUNT, 128),
    )),
    "inverse": ("covariance table CSV to measure JSON", (
        _IN, _OUT,
        _Param("bins", _SIZE),
        _Param("window", _one_of("bartlett", "boxcar"), "bartlett"),
    )),
    "filter": ("push a measure through a filter", (
        _IN,
        # a filter file; in a config, an inline filter document
        _Param("filter", _Kind(_string, _as_object), positional=True),
        _OUT,
    )),
    "checkpsd": ("kernel positivity verdict for a table", (
        _IN,
        _Param("times", _Kind(_times, _times, _each_finite), required=True,
               help="comma-separated sample times"),
        _TOL,
        _Param("out", help="also write the verdict JSON here"),
    )),
    "kolmogorov": ("factor a PSD block kernel", (_IN, _OUT, _TOL)),
    "model": ("quantum model JSON to spectral measure", (
        _IN, _OUT,
        _Param("covariance", help="also write a covariance table CSV here"),
        _Param("dt", _POSITIVE, required="covariance"),
        _Param("lags", _COUNT, 128),
    )),
    "synth": ("draw a trajectory from a measure", (
        _IN, _OUT,
        _Param("dt", _POSITIVE, required=True),
        _Param("n", _POWER_OF_TWO, required=True),
        _Param("seed", _SEED, required=True),
    )),
    "estimate": ("estimate spectrum (and covariance)", (
        _IN, _OUT,
        _Param("segment", _EVEN, required=True),
        _Param("overlap", _OVERLAP, 0.5),
        _Param("taper", _one_of("hann", "bartlett", "boxcar"), "hann"),
        _Param("covariance", help="also write a lag covariance CSV here"),
        _Param("lags", _COUNT, required="covariance"),
    )),
    "demo ou": ("resolvent-filtered white noise pipeline", (
        _Param("output", positional=True, help="output directory"),
        _Param("gamma", _POSITIVE, 1.0),
        _Param("intensity", _POSITIVE, 1.0),
        _Param("band", _POSITIVE, 50.0),
        _Param("bins", _SIZE, 4096),
        _Param("dt", _POSITIVE, 0.01),
        _Param("n", _POWER_OF_TWO, 32768),
        _Param("seed", _SEED, 7),
        _Param("lags", _COUNT, 500),
        _Param("segment", _EVEN, 1024),
    )),
}


def _resolve(args: argparse.Namespace) -> None:
    """Decode, check and default the parameters of the command in ``args``,
    config values overriding flags. A command calls this before any I/O."""
    params = {p.name: p for p in _COMMANDS[args.command_name][1]}
    values = {}

    def take(p, decode, raw):
        values[p.name] = decode(raw, p.name)
        p.kind.check(values[p.name], p.name)

    for p in params.values():
        if getattr(args, p.name) is not None:
            take(p, p.kind.text, getattr(args, p.name))
    config = {}
    if args.config is not None:
        try:
            config = _loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as e:
            raise SchemaError(f"cannot read config: {e}") from None
    for key, raw in config.items():
        if key == "command":
            if _string(raw, key) != args.command_name:
                raise SchemaError(
                    f"config is for command {raw!r}, invoked {args.command_name!r}",
                    location=key,
                )
        elif key in params:
            take(params[key], params[key].kind.json, raw)
        else:
            raise SchemaError(f"unknown config key {key!r}", location=key)
    for p in params.values():
        if p.name not in values and (p.required is True or p.required in values):
            raise SchemaError(
                f"parameter {p.name!r} is required (flag --{p.name} or config key)",
                location=p.name,
            )
        setattr(args, p.name, values.get(p.name, p.default))


# --- shared I/O helpers --------------------------------------------------------


def _read_bytes(path: str) -> bytes:
    return Path(path).read_bytes()


def _read_trajectory(path: str) -> Trajectory:
    if path.endswith(".csv"):
        return trajectory_from_csv(Path(path).read_text(encoding="utf-8"))
    return trajectory_from_binary(_read_bytes(path))


class _Result(NamedTuple):
    """What a command produced: its files as ``{path: bytes or str}``, which
    ``main`` writes all or none of, then its stdout text and exit status."""

    files: dict
    stdout: str = ""
    status: int = 0


# --- commands -------------------------------------------------------------------


def _cmd_bochner(args) -> _Result:
    _resolve(args)
    mu = deserialize_measure(_read_bytes(args.input))
    table = covariance_from_spectrum(mu, dt=args.dt, lags=args.lags)
    return _Result({args.output: covariance_to_csv(table)})


def _cmd_inverse(args) -> _Result:
    _resolve(args)
    table = covariance_from_csv(_read_bytes(args.input))
    bins = args.bins
    if bins is None:
        bins = max(256, table.values.shape[0])
    mu = spectrum_from_covariance(table, bins=bins, window=args.window)
    return _Result({args.output: serialize_measure(mu)})


def _cmd_filter(args) -> _Result:
    _resolve(args)
    mu = deserialize_measure(_read_bytes(args.input))
    if isinstance(args.filter, dict):
        filt = filter_from_document(args.filter, "filter")
    else:
        filt = deserialize_filter(_read_bytes(args.filter))
    out = apply_filter(mu, filt)
    return _Result({args.output: serialize_measure(out)})


def _cmd_checkpsd(args) -> _Result:
    _resolve(args)
    table = covariance_from_csv(_read_bytes(args.input))
    verdict = check_psd_kernel(table, times=args.times, tol=args.tol)
    payload = json.dumps(verdict_to_document(verdict), allow_nan=False) + "\n"
    files = {args.out: payload} if args.out else {}
    return _Result(files, payload, 0 if verdict.passed else 2)


def _cmd_kolmogorov(args) -> _Result:
    _resolve(args)
    blocks = deserialize_kernel(_read_bytes(args.input))
    fact = kolmogorov_decompose(blocks, tol=args.tol)
    return _Result({args.output: serialize_factorization(fact)})


def _cmd_model(args) -> _Result:
    _resolve(args)
    model = deserialize_model(_read_bytes(args.input))
    mu = model_spectral_measure(model)
    files = {args.output: serialize_measure(mu)}
    if args.covariance:
        table = covariance_from_spectrum(mu, dt=args.dt, lags=args.lags)
        files[args.covariance] = covariance_to_csv(table)
    return _Result(files)


def _cmd_synth(args) -> _Result:
    _resolve(args)
    mu = deserialize_measure(_read_bytes(args.input))
    traj = synthesize(mu, dt=args.dt, n=args.n, seed=args.seed)
    if args.output.endswith(".csv"):
        return _Result({args.output: trajectory_to_csv(traj)})
    return _Result({args.output: trajectory_to_binary(traj)})


def _cmd_estimate(args) -> _Result:
    _resolve(args)
    traj = _read_trajectory(args.input)
    mu = welch_estimate(
        traj, segment=args.segment, overlap=args.overlap, taper=args.taper
    )
    files = {args.output: serialize_measure(mu)}
    if args.covariance:
        table = lag_covariance(traj, lags=args.lags)
        files[args.covariance] = covariance_to_csv(table)
    return _Result(files)


def _cmd_demo_ou(args) -> _Result:
    import hashlib  # here, so that importing qwss.cli does not load it

    _resolve(args)
    gamma = np.array([[args.gamma]], dtype=np.complex128)
    intensity = np.array([[args.intensity]], dtype=np.complex128)
    a = np.eye(1, dtype=np.complex128)

    noise = white_noise(intensity, band=args.band, bins=args.bins)
    filtered = apply_filter(noise, ExpOperator(gamma=gamma, a=a))
    table = covariance_from_spectrum(filtered, dt=args.dt, lags=args.lags)
    theory_vals = ou_covariance(gamma, intensity, a, np.arange(args.lags + 1) * args.dt)
    theory = CovarianceTable(dt=args.dt, values=theory_vals)
    traj = synthesize(filtered, dt=args.dt, n=args.n, seed=args.seed)
    estimated = welch_estimate(traj, segment=args.segment)
    est_table = lag_covariance(traj, lags=args.lags)
    outputs = {
        "spectrum.json": serialize_measure(filtered),
        "spectrum.csv": density_to_csv(filtered).encode(),
        "covariance.csv": covariance_to_csv(table).encode(),
        "covariance_theory.csv": covariance_to_csv(theory).encode(),
        "trajectory.qwss": trajectory_to_binary(traj),
        "estimated_spectrum.json": serialize_measure(estimated),
        "estimated_spectrum.csv": density_to_csv(estimated).encode(),
        "estimated_covariance.csv": covariance_to_csv(est_table).encode(),
    }

    sum_sq = float(np.sum(np.abs(theory.values) ** 2))
    est_err = float(
        np.sqrt(np.sum(np.abs(est_table.values - theory.values) ** 2) / sum_sq)
    )
    mass_err = float(
        np.abs(total_mass(estimated) - total_mass(filtered)).max()
        / np.abs(total_mass(filtered)).max()
    )
    summary = {
        "kind": "demo_summary",
        "demo": "ou",
        "parameters": {
            p.name: getattr(args, p.name)
            for p in _COMMANDS["demo ou"][1]
            if not p.positional
        },
        "diagnostics": {
            "covariance_zero_lag": float(table.values[0, 0, 0].real),
            "theory_zero_lag": float(theory.values[0, 0, 0].real),
            "lag_estimate_rel_error": est_err,
            "total_mass_rel_error": mass_err,
        },
        "outputs": {
            name: {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
            for name, data in outputs.items()
        },
    }
    outputs["summary.json"] = json.dumps(summary, indent=2, allow_nan=False) + "\n"
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    files = {out / name: data for name, data in outputs.items()}
    return _Result(files, f"wrote {len(files)} files to {out}\n")


# --- parser --------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are ``schema`` errors, not exit 2."""

    def error(self, message):
        raise SchemaError(message)


def build_parser() -> argparse.ArgumentParser:
    """The parser of ``_COMMANDS``; flags stay text until ``_resolve``."""
    parser = _Parser(
        prog="qwss", description="Operator-valued stationary process toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, params) in _COMMANDS.items():
        if name == "demo ou":
            demo = sub.add_parser("demo", help="end-to-end demonstration pipelines")
            demo_sub = demo.add_subparsers(dest="demo", required=True)
            p = demo_sub.add_parser("ou", help=summary)
        else:
            p = sub.add_parser(name, help=summary)
        for param in params:
            flag = param.name if param.positional else f"--{param.name}"
            p.add_argument(flag, metavar=param.kind.metavar, help=param.help)
        p.add_argument(
            "--config", metavar="PATH", help="JSON file whose values override the flags"
        )
        # looked up per call, so that a stand-in for a command takes effect
        func = globals()["_cmd_" + name.replace(" ", "_")]
        p.set_defaults(func=func, command_name=name)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # stderr carries only the JSON error: a NaN or inf that overflow
        # leaves behind fails validation, so numpy's warnings add nothing
        with np.errstate(all="ignore"):
            result = args.func(args)
        write_files(result.files)
        sys.stdout.write(result.stdout)
        return result.status
    except (QwssError, ValueError, OSError, MemoryError) as e:
        print(_error_json(e), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
