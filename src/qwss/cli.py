"""Command-line pipeline around the measure, filter, model, and sampling APIs.

Subcommands:

- ``bochner``:    measure JSON -> covariance table CSV
- ``inverse``:    covariance table CSV -> measure JSON
- ``filter``:     measure JSON + filter JSON -> measure JSON
- ``checkpsd``:   covariance table CSV + sample times -> verdict JSON
- ``kolmogorov``: kernel JSON -> factorization JSON
- ``model``:      quantum model JSON -> spectral measure JSON (+ covariance CSV)
- ``synth``:      measure JSON -> trajectory (binary or CSV)
- ``estimate``:   trajectory -> measure JSON (+ lag covariance CSV)
- ``demo ou``:    end-to-end resolvent-filtered white noise pipeline

All frequencies in files and flags are cycles per unit time. A config file
given with ``--config path.json`` holds the same names as the flags plus
optional ``command``/``input``/``output`` keys; config values override
flags. Unknown config keys are rejected.

On validation failure every command prints one JSON object
``{"error": {"code", "message", "location"}}`` to stderr and exits 1.
``checkpsd`` exits 0 when the kernel passes and 2 when it fails; the verdict
JSON goes to stdout either way. Output files are written atomically.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

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
    OperatorSpectralMeasure,
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
    _matrix_header,
    _write_rows,
    covariance_from_csv,
    covariance_to_csv,
    deserialize_filter,
    deserialize_kernel,
    deserialize_measure,
    deserialize_model,
    filter_from_document,
    serialize_factorization,
    serialize_measure,
    serialize_verdict,
    trajectory_from_binary,
    trajectory_from_csv,
    trajectory_to_binary,
    trajectory_to_csv,
    verdict_to_document,
    write_bytes_atomic,
    write_text_atomic,
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


# --- config handling ---------------------------------------------------------


def _pos_real(v, loc):
    x = _as_real(v, loc)
    if not x > 0:
        raise SchemaError(f"must be a positive number, got {v}", location=loc)
    return x


def _unit_real(v, loc):
    x = _as_real(v, loc)
    if not (0.0 <= x <= 0.9):
        raise SchemaError(f"must be in [0, 0.9], got {v}", location=loc)
    return x


def _int_at_least(minimum):
    return lambda v, loc: _as_int(v, loc, minimum=minimum)


class _OutOfRange(ValueError):
    """A well-typed flag or config value outside its range (``invalid_value``)."""

    def __init__(self, message: str, location: str):
        super().__init__(message)
        self.location = location


def _seed(v, loc):
    v = _as_int(v, loc)
    if not 0 <= v < 2**128:
        raise _OutOfRange(f"seed must be in [0, 2**128), got {v}", location=loc)
    return v


def _string(v, loc):
    if not isinstance(v, str):
        raise SchemaError("expected a string", location=loc)
    return v


def _choice(*allowed):
    def cast(v, loc):
        v = _string(v, loc)
        if v not in allowed:
            raise SchemaError(f"must be one of {allowed}, got {v!r}", location=loc)
        return v

    return cast


def _times_value(v, loc):
    if isinstance(v, str):
        parts = [p for p in v.split(",") if p.strip()]
        try:
            return [float(p) for p in parts]
        except ValueError:
            raise SchemaError(f"cannot parse times {v!r}", location=loc) from None
    if isinstance(v, list):
        return [_as_real(x, f"{loc}[{i}]") for i, x in enumerate(v)]
    raise SchemaError("expected a comma list or array of times", location=loc)


# per-command config schema: key -> caster; "input"/"output" override positionals
_CONFIG_SCHEMAS = {
    "bochner": {"dt": _pos_real, "lags": _int_at_least(0)},
    "inverse": {"bins": _int_at_least(1), "window": _choice("bartlett", "boxcar")},
    "filter": {"filter": _as_object},
    "checkpsd": {"times": _times_value, "tol": _pos_real},
    "kolmogorov": {"tol": _pos_real},
    "model": {"dt": _pos_real, "lags": _int_at_least(0), "covariance": _string},
    "synth": {
        "dt": _pos_real,
        "n": _int_at_least(1),
        "seed": _seed,
        "format": _choice("auto", "binary", "csv"),
    },
    "estimate": {
        "segment": _int_at_least(1),
        "overlap": _unit_real,
        "taper": _choice("hann", "bartlett", "boxcar"),
        "lags": _int_at_least(0),
        "covariance": _string,
    },
    "demo ou": {
        "gamma": _pos_real,
        "intensity": _pos_real,
        "band": _pos_real,
        "bins": _int_at_least(1),
        "dt": _pos_real,
        "n": _int_at_least(1),
        "seed": _seed,
        "lags": _int_at_least(0),
        "segment": _int_at_least(1),
    },
}


def _apply_config(args: argparse.Namespace) -> None:
    if not getattr(args, "config", None):
        return
    try:
        raw = Path(args.config).read_text(encoding="utf-8")
    except OSError as e:
        raise SchemaError(f"cannot read config: {e}") from None
    doc = _loads(raw)
    schema = _CONFIG_SCHEMAS[args.command_name]
    for key, value in doc.items():
        if key == "command":
            name = _string(value, "command")
            if name != args.command_name:
                raise SchemaError(
                    f"config is for command {name!r}, invoked {args.command_name!r}",
                    location="command",
                )
        elif key == "input" and hasattr(args, "input"):
            args.input = _string(value, "input")
        elif key == "output" and hasattr(args, "output"):
            args.output = _string(value, "output")
        elif key in schema:
            setattr(args, key, schema[key](value, key))
        else:
            raise SchemaError(f"unknown config key {key!r}", location=key)


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise SchemaError(
                f"parameter {name!r} is required (flag --{name} or config key)"
            )


# --- shared I/O helpers --------------------------------------------------------


def _read_bytes(path: str) -> bytes:
    return Path(path).read_bytes()


def _read_trajectory(path: str) -> Trajectory:
    if path.endswith(".csv"):
        return trajectory_from_csv(Path(path).read_text(encoding="utf-8"))
    return trajectory_from_binary(_read_bytes(path))


def _write_trajectory(path: str, traj: Trajectory, fmt: str) -> None:
    if fmt == "auto":
        fmt = "csv" if path.endswith(".csv") else "binary"
    if fmt == "csv":
        write_text_atomic(path, trajectory_to_csv(traj))
    else:
        write_bytes_atomic(path, trajectory_to_binary(traj))


def _density_csv(mu: OperatorSpectralMeasure) -> str:
    """Plot-ready CSV of the density part: nu at bin midpoints, re/im columns."""
    den = mu.density
    if den is None:
        raise SchemaError("measure has no density part to tabulate")
    d = mu.dim
    flat = den.values.reshape(den.bins, d * d)
    return _write_rows(["nu"] + _matrix_header(d), den.midpoints(), flat)


# --- commands -------------------------------------------------------------------


def _cmd_bochner(args) -> int:
    _require(args, "dt")
    mu = deserialize_measure(_read_bytes(args.input))
    table = covariance_from_spectrum(mu, dt=args.dt, lags=args.lags)
    write_text_atomic(args.output, covariance_to_csv(table))
    return 0


def _cmd_inverse(args) -> int:
    table = covariance_from_csv(_read_bytes(args.input))
    bins = args.bins
    if bins is None:
        bins = max(256, table.values.shape[0])
    mu = spectrum_from_covariance(table, bins=bins, window=args.window)
    write_bytes_atomic(args.output, serialize_measure(mu))
    return 0


def _cmd_filter(args) -> int:
    mu = deserialize_measure(_read_bytes(args.input))
    if args.filter is not None:
        filt = filter_from_document(args.filter, "filter")
    else:
        filt = deserialize_filter(_read_bytes(args.filter_path))
    out = apply_filter(mu, filt)
    write_bytes_atomic(args.output, serialize_measure(out))
    return 0


def _cmd_checkpsd(args) -> int:
    _require(args, "times")
    times = _times_value(args.times, "times")
    table = covariance_from_csv(_read_bytes(args.input))
    verdict = check_psd_kernel(table, times=times, tol=args.tol)
    payload = json.dumps(verdict_to_document(verdict), allow_nan=False)
    if args.out:
        write_text_atomic(args.out, payload + "\n")
    print(payload)
    return 0 if verdict.passed else 2


def _cmd_kolmogorov(args) -> int:
    blocks = deserialize_kernel(_read_bytes(args.input))
    fact = kolmogorov_decompose(blocks, tol=args.tol)
    write_bytes_atomic(args.output, serialize_factorization(fact))
    return 0


def _cmd_model(args) -> int:
    model = deserialize_model(_read_bytes(args.input))
    mu = model_spectral_measure(model)
    write_bytes_atomic(args.output, serialize_measure(mu))
    if args.covariance:
        _require(args, "dt")
        table = covariance_from_spectrum(mu, dt=args.dt, lags=args.lags)
        write_text_atomic(args.covariance, covariance_to_csv(table))
    return 0


def _cmd_synth(args) -> int:
    _require(args, "dt", "n", "seed")
    mu = deserialize_measure(_read_bytes(args.input))
    traj = synthesize(mu, dt=args.dt, n=args.n, seed=args.seed)
    _write_trajectory(args.output, traj, args.format)
    return 0


def _cmd_estimate(args) -> int:
    _require(args, "segment")
    traj = _read_trajectory(args.input)
    mu = welch_estimate(
        traj, segment=args.segment, overlap=args.overlap, taper=args.taper
    )
    write_bytes_atomic(args.output, serialize_measure(mu))
    if args.covariance:
        _require(args, "lags")
        table = lag_covariance(traj, lags=args.lags)
        write_text_atomic(args.covariance, covariance_to_csv(table))
    return 0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cmd_demo_ou(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gamma = np.array([[args.gamma]], dtype=np.complex128)
    intensity = np.array([[args.intensity]], dtype=np.complex128)
    a = np.eye(1, dtype=np.complex128)

    noise = white_noise(intensity, band=args.band, bins=args.bins)
    filtered = apply_filter(noise, ExpOperator(gamma=gamma, a=a))
    write_bytes_atomic(out / "spectrum.json", serialize_measure(filtered))
    write_text_atomic(out / "spectrum.csv", _density_csv(filtered))

    table = covariance_from_spectrum(filtered, dt=args.dt, lags=args.lags)
    write_text_atomic(out / "covariance.csv", covariance_to_csv(table))
    theory_vals = np.stack(
        [
            ou_covariance(gamma, intensity, a, m * args.dt)
            for m in range(args.lags + 1)
        ]
    )
    theory = CovarianceTable(dt=args.dt, values=theory_vals)
    write_text_atomic(out / "covariance_theory.csv", covariance_to_csv(theory))

    traj = synthesize(filtered, dt=args.dt, n=args.n, seed=args.seed)
    write_bytes_atomic(out / "trajectory.qwss", trajectory_to_binary(traj))

    estimated = welch_estimate(traj, segment=args.segment)
    write_bytes_atomic(out / "estimated_spectrum.json", serialize_measure(estimated))
    write_text_atomic(out / "estimated_spectrum.csv", _density_csv(estimated))
    est_table = lag_covariance(traj, lags=args.lags)
    write_text_atomic(out / "estimated_covariance.csv", covariance_to_csv(est_table))

    sum_sq = float(np.sum(np.abs(theory.values) ** 2))
    est_err = float(
        np.sqrt(np.sum(np.abs(est_table.values - theory.values) ** 2) / sum_sq)
    )
    mass_err = float(
        np.abs(total_mass(estimated) - total_mass(filtered)).max()
        / np.abs(total_mass(filtered)).max()
    )
    files = [
        "spectrum.json",
        "spectrum.csv",
        "covariance.csv",
        "covariance_theory.csv",
        "trajectory.qwss",
        "estimated_spectrum.json",
        "estimated_spectrum.csv",
        "estimated_covariance.csv",
    ]
    summary = {
        "kind": "demo_summary",
        "demo": "ou",
        "parameters": {
            "gamma": args.gamma,
            "intensity": args.intensity,
            "band": args.band,
            "bins": args.bins,
            "dt": args.dt,
            "n": args.n,
            "seed": args.seed,
            "lags": args.lags,
            "segment": args.segment,
        },
        "diagnostics": {
            "covariance_zero_lag": float(table.values[0, 0, 0].real),
            "theory_zero_lag": float(theory.values[0, 0, 0].real),
            "lag_estimate_rel_error": est_err,
            "total_mass_rel_error": mass_err,
        },
        "outputs": {
            name: {
                "bytes": (out / name).stat().st_size,
                "sha256": _sha256(out / name),
            }
            for name in files
        },
    }
    write_text_atomic(
        out / "summary.json", json.dumps(summary, indent=2, allow_nan=False) + "\n"
    )
    print(f"wrote {len(files) + 1} files to {out}")
    return 0


# --- parser --------------------------------------------------------------------


def _add_config_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--config",
        metavar="PATH",
        help="JSON file whose values override the flags",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwss",
        description="Operator-valued stationary process toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bochner", help="measure JSON to covariance table CSV")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--dt", type=float)
    p.add_argument("--lags", type=int, default=128)
    _add_config_flag(p)
    p.set_defaults(func=_cmd_bochner, command_name="bochner")

    p = sub.add_parser("inverse", help="covariance table CSV to measure JSON")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--bins", type=int)
    p.add_argument("--window", choices=("bartlett", "boxcar"), default="bartlett")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_inverse, command_name="inverse")

    p = sub.add_parser("filter", help="push a measure through a filter")
    p.add_argument("input")
    p.add_argument("filter_path", metavar="filter")
    p.add_argument("output")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_filter, command_name="filter", filter=None)

    p = sub.add_parser("checkpsd", help="kernel positivity verdict for a table")
    p.add_argument("input")
    p.add_argument("--times", help="comma-separated sample times")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", help="also write the verdict JSON here")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_checkpsd, command_name="checkpsd")

    p = sub.add_parser("kolmogorov", help="factor a PSD block kernel")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--tol", type=float, default=1e-9)
    _add_config_flag(p)
    p.set_defaults(func=_cmd_kolmogorov, command_name="kolmogorov")

    p = sub.add_parser("model", help="quantum model JSON to spectral measure")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--covariance", help="also write a covariance table CSV here")
    p.add_argument("--dt", type=float)
    p.add_argument("--lags", type=int, default=128)
    _add_config_flag(p)
    p.set_defaults(func=_cmd_model, command_name="model")

    p = sub.add_parser("synth", help="draw a trajectory from a measure")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--dt", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=("auto", "binary", "csv"), default="auto")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_synth, command_name="synth")

    p = sub.add_parser("estimate", help="estimate spectrum (and covariance)")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--segment", type=int)
    p.add_argument("--overlap", type=float, default=0.5)
    p.add_argument("--taper", choices=("hann", "bartlett", "boxcar"), default="hann")
    p.add_argument("--covariance", help="also write a lag covariance CSV here")
    p.add_argument("--lags", type=int)
    _add_config_flag(p)
    p.set_defaults(func=_cmd_estimate, command_name="estimate")

    p = sub.add_parser("demo", help="end-to-end demonstration pipelines")
    demo_sub = p.add_subparsers(dest="demo", required=True)
    d = demo_sub.add_parser("ou", help="resolvent-filtered white noise pipeline")
    d.add_argument("out", help="output directory")
    d.add_argument("--gamma", type=float, default=1.0)
    d.add_argument("--intensity", type=float, default=1.0)
    d.add_argument("--band", type=float, default=50.0)
    d.add_argument("--bins", type=int, default=4096)
    d.add_argument("--dt", type=float, default=0.01)
    d.add_argument("--n", type=int, default=32768)
    d.add_argument("--seed", type=int, default=7)
    d.add_argument("--lags", type=int, default=500)
    d.add_argument("--segment", type=int, default=1024)
    _add_config_flag(d)
    d.set_defaults(func=_cmd_demo_ou, command_name="demo ou")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None:
            _seed(args.seed, "seed")
        _apply_config(args)
        # stderr carries only the JSON error: a NaN or inf that overflow
        # leaves behind fails validation, so numpy's warnings add nothing
        with np.errstate(all="ignore"):
            return args.func(args)
    except QwssError as e:
        print(_error_json(e), file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError) as e:
        print(_error_json(e), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
