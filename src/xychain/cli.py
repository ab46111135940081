"""Command-line front end.

Subcommands: spectrum, evolve, oracle, compare, analyze, scan.  All file
output is byte-deterministic: floats at 17 significant digits in CSV,
sorted keys in JSON, and every CSV gets a .meta.json sidecar recording
the full run configuration.

Exit codes: 0 success, 1 comparison failure, 2 invalid configuration,
3 resource cap exceeded, 4 analysis failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .analysis import anisotropy_field_scan, detect_stages, quiet_cold, scan_grid_spec, timescales
from .approx import Polarization3, niemeijer_trajectory
from .chain import ChainParams, build_sectors, spectral_table
from .dynamics import DEFAULT_CONFIG_SUM_CAP, BathKind, pz_config_sum, pz_trajectory
from .errors import AnalysisError, CapExceededError, ConfigError
from .oracle import DEFAULT_ED_CAP, oracle_trajectory

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_ANALYSIS = 4

COMPARE_TOL = 1e-9


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell if isinstance(cell, str) else _fmt(cell) for cell in row])


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(obj, sort_keys=True, indent=2))
        f.write("\n")


def _emit_json(obj, out: str | None) -> None:
    if out:
        _write_json(out, obj)
        print(f"wrote {out}")
    else:
        print(json.dumps(obj, sort_keys=True, indent=2))


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one CLI invocation."""

    command: str
    version: str
    options: dict

    def to_dict(self) -> dict:
        return {"command": self.command, "version": self.version, "options": self.options}


def _runconfig(args: argparse.Namespace) -> RunConfig:
    skip = {"func", "command"}
    options = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    return RunConfig(args.command, __version__, options)


def _sidecar(path: str, args: argparse.Namespace, extra: dict | None = None) -> None:
    payload = {"run": _runconfig(args).to_dict()}
    if extra:
        payload.update(extra)
    _write_json(path + ".meta.json", payload)


def _emit_table(args, header, rows, json_extra: dict, sidecar_extra: dict | None = None) -> None:
    """The table as JSON (with json_extra) or as CSV with its .meta.json sidecar."""
    if args.format == "json":
        cells = [[c if isinstance(c, str) else float(c) for c in row] for row in rows]
        _emit_json({"columns": header, "rows": cells, **json_extra}, args.out)
    else:
        _write_csv(args.out, header, rows)
        _sidecar(args.out, args, sidecar_extra)
        print(f"wrote {args.out}")


def _chain_params(args: argparse.Namespace) -> ChainParams:
    return ChainParams(N=args.N, kappa=args.kappa, gamma=args.gamma, h=args.h)


def _check_time_axis(tmax: float | None, points: int) -> None:
    if tmax is None or not (tmax > 0 and np.isfinite(tmax)):
        raise ConfigError("--tmax must be positive and finite")
    if points < 1:
        raise ConfigError("--points must be at least 1")


def _grid(args: argparse.Namespace) -> np.ndarray:
    _check_time_axis(args.tmax, args.points)
    return np.linspace(0.0, args.tmax, args.points)


def _p0(args: argparse.Namespace) -> Polarization3:
    return Polarization3(args.p0x, args.p0y, args.p0z)


def _float_list(text: str) -> list[float]:
    items = [s.strip() for s in text.split(",") if s.strip()]
    try:
        return [float(s) for s in items]
    except ValueError as exc:
        raise ConfigError(f"could not parse float list {text!r}") from exc


# --- subcommands ---------------------------------------------------------


def cmd_spectrum(args: argparse.Namespace) -> int:
    params = _chain_params(args)
    rows = []
    for sector in build_sectors(params):
        table = spectral_table(params, sector)
        for i, q2 in enumerate(sector.q2):
            rows.append(
                (
                    str(q2),
                    sector.parity.value,
                    table.epsilon[i],
                    table.Gamma[i],
                    table.E[i],
                    table.theta[i],
                )
            )
    _emit_table(args, ["q2", "sector", "epsilon", "Gamma", "E", "theta"], rows, {})
    return EXIT_OK


def cmd_evolve(args: argparse.Namespace) -> int:
    params = _chain_params(args)
    grid = _grid(args)
    if args.method == "closed_form":
        traj = pz_trajectory(params, args.p0z, grid)
        header = ["t", "pz"]
        rows = zip(traj.grid, traj.samples)
    elif args.method == "niemeijer":
        traj = niemeijer_trajectory(_p0(args), params, grid)
        header = ["t", "px", "py", "pz"]
        rows = ((t, *row) for t, row in zip(traj.grid, traj.samples))
    else:
        raise ConfigError(f"evolve does not support method {args.method!r}")
    meta = {**traj.meta, "bath": traj.bath.value}
    run = _runconfig(args).to_dict()
    _emit_table(args, header, rows, {"meta": meta, "run": run}, {"meta": meta, "method": traj.method.value})
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    params = _chain_params(args)
    grid = _grid(args)
    kind = BathKind(args.method)
    traj = oracle_trajectory(params, kind, _p0(args), grid, cap=args.cap)
    header = ["t", "px", "py", "pz", "energy", "purity", "parity"]
    rows = zip(traj.grid, *traj.samples.T, *(traj.meta[k] for k in header[4:]))
    sidecar = {"bath": kind.value, "p0": [args.p0x, args.p0y, args.p0z]}
    _emit_table(args, header, rows, {"run": _runconfig(args).to_dict()}, sidecar)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    params = _chain_params(args)
    tmax = args.tmax if args.tmax is not None else 4.0 * args.N / args.kappa
    _check_time_axis(tmax, args.points)
    if args.seed < 0:
        raise ConfigError("--seed must be nonnegative")
    p0 = Polarization3(0.0, 0.0, args.p0z)
    rng = np.random.default_rng(args.seed)
    times = np.unique(rng.uniform(0.0, tmax, args.points))
    values: dict[str, list[float]] = {}
    skipped: list[str] = []

    values["closed_form"] = [float(v) for v in pz_trajectory(params, args.p0z, times).samples]
    config_cap = min(args.cap, DEFAULT_CONFIG_SUM_CAP)
    if args.N <= config_cap:
        values["config_sum"] = [pz_config_sum(params, args.p0z, t, cap=config_cap) for t in times]
    else:
        skipped.append("config_sum")
    if args.N <= args.cap:
        traj = oracle_trajectory(params, BathKind.INFINITE_T, p0, times, cap=args.cap)
        values["ed_oracle"] = [float(v) for v in traj.samples[:, 2]]
    else:
        skipped.append("ed_oracle")

    names = sorted(values)
    pairs = {}
    all_pass = True
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            diff = float(np.abs(np.asarray(values[a]) - np.asarray(values[b])).max())
            ok = diff <= COMPARE_TOL
            all_pass = all_pass and ok
            pairs[f"{a}_vs_{b}"] = {"max_abs_diff": diff, "pass": ok}
    report = {
        "params": {"N": args.N, "kappa": args.kappa, "gamma": args.gamma, "h": args.h},
        "p0z": args.p0z,
        "seed": args.seed,
        "times": [float(t) for t in times],
        "values": values,
        "pairs": pairs,
        "skipped": skipped,
        "tolerance": COMPARE_TOL,
        "run": _runconfig(args).to_dict(),
    }
    _emit_json(report, args.out)
    return EXIT_OK if all_pass else EXIT_MISMATCH


def cmd_analyze(args: argparse.Namespace) -> int:
    params = _chain_params(args)
    grid = _grid(args)
    if not (args.delta > 0 and np.isfinite(args.delta)):
        raise ConfigError("--delta must be positive and finite")
    report: dict = {"run": _runconfig(args).to_dict()}
    if args.method == "closed_form":
        traj = pz_trajectory(params, args.p0z, grid)
        report["timescales"] = None  # needs transverse components
    elif args.method == "niemeijer":
        traj = niemeijer_trajectory(_p0(args), params, grid)
    elif args.method in ("oracle_zero_T", "oracle_infinite_T"):
        kind = BathKind(args.method.removeprefix("oracle_"))
        traj = oracle_trajectory(params, kind, _p0(args), grid, cap=args.cap)
    else:
        raise ConfigError(f"analyze does not support method {args.method!r}")
    if traj.is_vector:
        report["timescales"] = timescales(traj).to_dict()
    stages = detect_stages(traj, params, args.p0z, delta_frac=args.delta)
    report["stages"] = stages.to_dict()
    if grid[-1] >= 10.0 * params.N / params.kappa:
        report["quiet_cold"] = quiet_cold(traj, params).to_dict()
    else:
        report["quiet_cold"] = {"skipped": "tail shorter than 10 N / kappa"}
    _emit_json(report, args.out)
    return EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    hs = _float_list(args.h)
    points = anisotropy_field_scan(
        args.N, args.kappa, _float_list(args.gamma), hs, args.p0z, args.tmax, args.points, jobs=args.jobs
    )
    tmax, n_points = scan_grid_spec(args.N, args.kappa, hs, args.tmax, args.points)
    rows = [(p.gamma, p.h, p.amplitude, p.mean_pz) for p in points]
    header = ["gamma", "h", "amplitude", "mean_pz"]
    run = _runconfig(args).to_dict()
    _emit_table(args, header, rows, {"run": run}, {"t_max": tmax, "n_points": n_points})
    return EXIT_OK


# --- parser --------------------------------------------------------------


def _add_ring(p: argparse.ArgumentParser) -> None:
    p.add_argument("--N", type=int, required=True, help="number of sites (even)")
    p.add_argument("--kappa", type=float, default=1.0, help="coupling strength")
    p.add_argument("--gamma", type=float, default=0.0, help="anisotropy in [0, 1]")
    p.add_argument("--h", type=float, default=5.0, help="transverse field (must exceed kappa)")


def _add_p0(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p0x", type=float, default=0.0)
    p.add_argument("--p0y", type=float, default=0.0)
    p.add_argument("--p0z", type=float, default=1.0)


def _add_grid(p: argparse.ArgumentParser, tmax_required: bool = True) -> None:
    p.add_argument("--tmax", type=float, default=None, required=tmax_required)
    p.add_argument("--points", type=int, default=None if not tmax_required else 1001)


def _add_out(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--out", default=None, required=required, help="output file path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xychain",
        description="Probe-spin reduced dynamics on a finite transverse-field XY ring",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="per-momentum spectral table of both parity sectors")
    _add_ring(p)
    _add_out(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("evolve", help="closed-form or weak-coupling trajectory")
    _add_ring(p)
    _add_p0(p)
    _add_grid(p)
    _add_out(p)
    p.add_argument("--method", choices=("closed_form", "niemeijer"), default="closed_form")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("oracle", help="dense exact-diagonalization trajectory")
    _add_ring(p)
    _add_p0(p)
    _add_grid(p)
    _add_out(p)
    p.add_argument("--method", choices=("infinite_T", "zero_T"), required=True, help="bath kind")
    p.add_argument("--cap", type=int, default=DEFAULT_ED_CAP, help="largest N accepted")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("compare", help="cross-check all feasible pz routes at random times")
    _add_ring(p)
    p.add_argument("--p0z", type=float, default=1.0)
    p.add_argument("--tmax", type=float, default=None, help="default 4N/kappa")
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--cap", type=int, default=DEFAULT_ED_CAP)
    _add_out(p, required=False)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("analyze", help="timescales, stages, quiet-window statistics")
    _add_ring(p)
    _add_p0(p)
    _add_grid(p)
    _add_out(p, required=False)
    p.add_argument(
        "--method",
        choices=("closed_form", "niemeijer", "oracle_zero_T", "oracle_infinite_T"),
        default="closed_form",
    )
    p.add_argument("--delta", type=float, default=0.02, help="stage deviation fraction")
    p.add_argument("--cap", type=int, default=DEFAULT_ED_CAP)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("scan", help="late-time oscillation metrics over a (gamma, h) grid")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--gamma", required=True, help="comma-separated list, e.g. 0,0.5,1")
    p.add_argument("--h", required=True, help="comma-separated list, e.g. 2,10")
    p.add_argument("--p0z", type=float, default=1.0)
    p.add_argument("--tmax", type=float, default=None, help="default 3N/kappa")
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    _add_out(p)
    p.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS


if __name__ == "__main__":
    raise SystemExit(main())
