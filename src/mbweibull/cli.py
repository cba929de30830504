"""Command-line interface.

Subcommands: simulate, fit, study, vannman, hazard-grid. Every command
that writes a file also writes a ``<out>.manifest.json`` sidecar with the
effective configuration and input digest. Outputs are byte-deterministic
for fixed flags and seed (set SOURCE_DATE_EPOCH to pin the manifest
timestamp as well).
"""

import argparse
import hashlib
import json
import operator
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .errors import ConvergenceError, DomainError, NoClusterError
from .fitting import deviance_test, fit_m1, fit_m2, fit_mbw
from .mixture import DEFAULT_PARAMS, PARAM_NAMES, _csv, hazard_grid, hazard_grid_csv, mbw_params
from .sampler import SeededStream, sample_mbw
from .studies import StudyConfig, run_study
from .vannman import VANNMAN_DATA

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_CONVERGENCE = 3


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    t = int(epoch) if epoch is not None else int(time.time())
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))


def _json_safe(obj):
    """``obj`` with every non-finite float, at any depth, replaced by None."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return None if isinstance(obj, float) and not np.isfinite(obj) else obj


def _write_json(path, obj):
    """Write ``obj`` as strict JSON (a non-finite number becomes null)."""
    with open(path, "w") as fh:
        fh.write(json.dumps(_json_safe(obj), sort_keys=True, indent=2, allow_nan=False) + "\n")


def _write_manifest(out_path, args, params=None, seed=None, input_path=None):
    """The ``<out_path>.manifest.json`` sidecar; its parameters default to the
    parsed flags other than the subcommand, --out, --data and --seed."""
    if params is None:
        skip = ("command", "func", "out", "data", "seed")
        params = {k: v for k, v in vars(args).items() if k not in skip}
    manifest = {
        "command": args.command,
        "parameters": params,
        "seed": seed,
        "timestamp": _timestamp(),
        "version": __version__,
    }
    if input_path is not None:
        with open(input_path, "rb") as fh:
            manifest["input_digest"] = "sha256:" + hashlib.sha256(fh.read()).hexdigest()
    _write_json(str(out_path) + ".manifest.json", manifest)


_COPULA_FLAGS = ("copula", "copula_a", "copula_b")


def _flags(args) -> dict:
    return {name: getattr(args, name) for name in DEFAULT_PARAMS}


def _add_model_flags(p, names=tuple(DEFAULT_PARAMS)):
    for name in names:
        flag = "--" + name.replace("_", "-")
        if name == "copula":
            p.add_argument(flag, choices=["gfgm", "gaussian"], default=DEFAULT_PARAMS[name])
        else:
            p.add_argument(flag, type=float, default=DEFAULT_PARAMS[name])


def _read_xy_csv(path) -> np.ndarray:
    with open(path) as fh:
        head = fh.readline().split(",")
    try:
        float(head[0]), float(head[1])
    except (ValueError, IndexError):
        pass  # the first line names the columns
    else:
        raise DomainError(f"{path} needs a header line naming its columns, such as x,y")
    try:
        with warnings.catch_warnings():
            # an empty file warns here and fails the size check below
            warnings.simplefilter("ignore")
            data = np.genfromtxt(path, delimiter=",", names=True)
    except (ValueError, IndexError) as e:
        raise DomainError(f"could not parse {path}: {e}") from e
    if data.size == 0 or data.dtype.names is None or len(data.dtype.names) < 2:
        raise DomainError(f"could not parse x,y columns from {path}")
    cols = data.dtype.names
    out = np.column_stack([data[cols[0]], data[cols[1]]]).astype(float)
    if out.ndim != 2 or not np.isfinite(out).all():
        raise DomainError(f"non-numeric values in {path}")
    return out


def cmd_simulate(args) -> int:
    m = mbw_params(**_flags(args))
    pts = sample_mbw(args.n, m, SeededStream(seed=args.seed))
    with open(args.out, "w") as fh:
        fh.write(_csv(pts, "x,y"))
    _write_manifest(args.out, args, seed=args.seed)
    return EXIT_OK


def _fit_one(data, args):
    if args.model == "m1":
        return fit_m1(data)
    if args.model == "m2":
        return fit_m2(data)
    return fit_mbw(
        data,
        copula_family=args.copula,
        a=args.copula_a,
        b=args.copula_b,
        min_pts=args.minpts,
        eps=args.eps,
    )


def _print_fit(result):
    print(f"model: {result.model}")
    print(f"{'parameter':<10}{'estimate':>14}{'SE':>14}{'p-value':>12}")
    for name, est in result.estimates.items():
        se = result.std_errors.get(name, float("nan"))
        pv = result.p_values.get(name, float("nan"))
        flag = " (boundary)" if name in result.boundary_flags else ""
        print(f"{name:<10}{est:>14.6f}{se:>14.6f}{pv:>12.2g}{flag}")
    print(f"loglik: {result.loglik:.4f}")
    print(f"AIC:    {result.aic:.4f}")
    if not result.converged:
        print("warning: optimizer did not converge")


# M3's copula and stage-1 flags at their defaults. M1 and M2 fix a GFGM
# copula with a = b = 1 and estimate no d, so they refuse any other value
_M3_FLAGS = {"copula": "gfgm", "copula_a": 1.0, "copula_b": 1.0, "minpts": 4, "eps": None}


def cmd_fit(args) -> int:
    if args.model != "m3":
        refused = [f"--{k.replace('_', '-')} {getattr(args, k)}"
                   for k, v in _M3_FLAGS.items() if getattr(args, k) != v]
        if refused:
            raise DomainError(f"--model {args.model} takes no {', '.join(refused)}: "
                              "it fixes a GFGM(1, 1) copula and estimates no d")
    data = VANNMAN_DATA if args.data == "vannman" else _read_xy_csv(args.data)
    result = _fit_one(data, args)
    _print_fit(result)
    if args.out:
        _write_json(args.out, result.to_dict())
        _write_manifest(args.out, args, input_path=None if args.data == "vannman" else args.data)
    return EXIT_OK if result.converged else EXIT_CONVERGENCE


def _decode(raw, table, what) -> dict:
    """The JSON object ``raw`` with each value converted by ``table[key]``. Raises
    DomainError on a non-object, an unknown key or a value that does not convert."""
    if not isinstance(raw, dict):
        raise DomainError(f"{what} is not a JSON object")
    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise DomainError(f"unknown {what} key(s): {', '.join(unknown)}")
    out = {}
    for key, value in raw.items():
        try:
            out[key] = table[key](value)
        except DomainError:
            raise
        except (TypeError, ValueError, AttributeError, OverflowError) as e:
            raise DomainError(f"{what} {key!r}: {e}") from e
    return out


def _int(value) -> int:
    """``value`` if it is a JSON integer; a bool, float or string is refused."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    return operator.index(value)


def _float(value) -> float:
    """``value`` as a float if it is a JSON number; a bool or string is refused."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


# the study-config keys and their conversions; a key the config leaves out
# takes its StudyConfig default, or for the model its DEFAULT_PARAMS value
_STUDY_KEYS = {
    "true_params": lambda v: _decode(v, dict.fromkeys(PARAM_NAMES, _float), "true_params"),
    "copula": str, "copula_a": _float, "copula_b": _float,
    "sample_sizes": lambda v: tuple(map(_int, v)),
    "n_replicates": _int, "level": _float, "base_seed": _int, "min_pts": _int,
    "eps_by_n": lambda v: {int(n): _float(eps) for n, eps in v.items()},
}


def cmd_study(args) -> int:
    with open(args.config) as fh:
        settings = _decode(json.load(fh), _STUDY_KEYS, "study config")
    model = {**DEFAULT_PARAMS, **settings.pop("true_params", {})}
    model.update((k, settings.pop(k)) for k in _COPULA_FLAGS if k in settings)
    cfg = StudyConfig(mbw_params(**model), workers=args.workers, **settings)
    reports = run_study(cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    for n, report in sorted(reports.items()):
        base = os.path.join(args.out_dir, f"study_n{n}")
        with open(base + ".csv", "w") as fh:
            fh.write(report.to_csv())
        _write_json(base + ".json", vars(report))
        _write_manifest(
            base + ".csv",
            args,
            {"sample_size": n, "n_replicates": cfg.n_replicates},
            seed=cfg.base_seed,
            input_path=args.config,
        )
        print(f"n={n}: wrote {base}.csv ({report.n_failures} failed replicates)")
    return EXIT_OK


def cmd_vannman(args) -> int:
    print("board,schedule1,schedule2")
    for i, (x, y) in enumerate(VANNMAN_DATA, start=1):
        print(f"{i},{x:.2f},{y:.2f}")
    print()
    m1 = fit_m1(VANNMAN_DATA)
    m2 = fit_m2(VANNMAN_DATA)
    m3 = fit_mbw(VANNMAN_DATA, min_pts=4, eps=1.6)
    for r in (m1, m2, m3):
        _print_fit(r)
        print()
    print("model comparison:")
    print(f"{'model':<6}{'loglik':>12}{'AIC':>12}")
    for r in (m1, m2, m3):
        print(f"{r.model:<6}{r.loglik:>12.4f}{r.aic:>12.4f}")
    for full, reduced in ((m2, m1), (m3, m2)):
        dev = deviance_test(full, reduced)
        print(
            f"deviance {full.model} vs {reduced.model}: stat={dev['statistic']:.2f} "
            f"df={dev['df']} p={dev['p_value']:.3g}"
        )
    return EXIT_OK


def cmd_hazard_grid(args) -> int:
    m = mbw_params(**_flags(args))
    grid = hazard_grid(m, args.x_min, args.x_max, args.y_min, args.y_max, args.step)
    with open(args.out, "w") as fh:
        fh.write(hazard_grid_csv(grid))
    _write_manifest(args.out, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbw",
        description="Bivariate Weibull mixture model for instantaneous and early failures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw samples from the mixture model")
    _add_model_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit model m1, m2, or m3 to x,y CSV data")
    p.add_argument("--data", required=True, help="CSV path, or 'vannman'")
    p.add_argument("--model", choices=["m1", "m2", "m3"], default="m3")
    _add_model_flags(p, _COPULA_FLAGS)
    p.add_argument("--minpts", type=int, default=_M3_FLAGS["minpts"])
    p.add_argument("--eps", type=float, default=_M3_FLAGS["eps"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("study", help="run the replicated simulation study")
    p.add_argument("--config", required=True, help="JSON study configuration")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--workers", type=int, default=StudyConfig.workers)
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("vannman", help="print the wood data and compare m1/m2/m3")
    p.set_defaults(func=cmd_vannman)

    p = sub.add_parser("hazard-grid", help="evaluate f, R, h on a grid")
    _add_model_flags(p)
    p.add_argument("--x-min", type=float, default=0.01)
    p.add_argument("--x-max", type=float, default=2.0)
    p.add_argument("--y-min", type=float, default=0.01)
    p.add_argument("--y-max", type=float, default=2.0)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_hazard_grid)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # DomainError, DegenerateDataError and JSONDecodeError are ValueErrors
    except (ValueError, NoClusterError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except ConvergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
