"""Checks of a workload's outputs, run after the timed loop.

Each check is ``(name, ok, detail)``.  The seed picks the points checked,
through ``random.Random(seed)``.  The closed form is checked against
``math.fsum`` and J0 against mpmath, both independent of the code under
test; the scan is recomputed in-process through the library.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

COMPARE_TOL = 1e-9     # every pair of pz routes in `compare`
DRIFT_TOL = 1e-10      # oracle energy, purity and parity, max - min
FSUM_TOL = 1e-12       # closed-form CSV against the fsum evaluation
J0_TOL = 2e-14         # bessel_j0 against mpmath, the README's claim
# |p| <= 1 up to rounding: a pure probe state (|p| = 1 at t = 0 here) comes
# out of the dense evolution a few ulp off the sphere.
BLOCH_TOL = 1e-12
FSUM_POINTS = 4
J0_POINTS = 8
SCAN_POINTS = 2


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


def _columns(path: Path) -> dict[str, list[float]]:
    header, *body = _rows(path)
    return {name: [float(r[i]) for r in body] for i, name in enumerate(header)}


def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def closed_form_pz(N: int, kappa: float, gamma: float, h: float, p0z: float, t: float) -> float:
    """pz(t) from the two-sector formula, every sum taken with math.fsum.

    pz = p0z/2 (A_odd^2 + A_even^2 + B_odd^2 + B_even^2), with per sector
    A = (1/N) sum_q cos(E_q t) and B = (1/N) sum_q (eps_q / E_q) sin(E_q t);
    2q runs over the even integers -N+2..N (odd sector) and the odd
    integers -N+1..N-1 (even sector).
    """
    squares = []
    for q2s in (range(-N + 2, N + 1, 2), range(-N + 1, N, 2)):
        a, b = [], []
        for q2 in q2s:
            angle = math.pi * q2 / N
            eps = h - kappa * math.cos(angle)
            E = math.hypot(eps, gamma * kappa * math.sin(angle))
            a.append(math.cos(E * t))
            b.append(eps / E * math.sin(E * t))
        squares += [(math.fsum(a) / N) ** 2, (math.fsum(b) / N) ** 2]
    return 0.5 * p0z * math.fsum(squares)


def _closed_form(out: Path, ops, rng: random.Random) -> list:
    analyze, evolve, spectrum = ops
    report = _json(out / analyze.out)
    checks = [(
        "analyze.report",
        "stages" in report and "skipped" not in report["quiet_cold"],
        f"quiet_cold={report['quiet_cold']}",
    )]
    pz = _columns(out / evolve.out)
    t, values = pz["t"], pz["pz"]
    checks.append(("evolve.pz_at_0", t[0] == 0.0 and values[0] == evolve.p0z, f"pz(0) = {values[0]!r}"))
    for i in sorted(rng.sample(range(1, len(t)), FSUM_POINTS)):
        want = closed_form_pz(evolve.N, evolve.kappa, evolve.gamma, evolve.h, evolve.p0z, t[i])
        diff = abs(values[i] - want)
        checks.append((f"evolve.fsum[t={t[i]!r}]", diff <= FSUM_TOL, f"|diff| = {diff:.3e}"))
    rows = len(_rows(out / spectrum.out)) - 1
    checks.append(("spectrum.rows", rows == 2 * spectrum.N, f"{rows} rows"))
    return checks


def _weak_coupling(out: Path, ops, rng: random.Random) -> list:
    import mpmath
    from xychain.bessel import SERIES_CUTOFF, bessel_j0

    (analyze,) = ops
    report = _json(out / analyze.out)
    checks = [(
        "analyze.report",
        "stages" in report and report["timescales"] is not None,
        f"timescales={report['timescales']}",
    )]
    # Half the points on the power-series branch, half on the asymptotic one.
    x_max = analyze.kappa * analyze.tmax
    xs = [rng.uniform(0.0, SERIES_CUTOFF) for _ in range(J0_POINTS // 2)]
    xs += [rng.uniform(SERIES_CUTOFF, x_max) for _ in range(J0_POINTS - len(xs))]
    with mpmath.workdps(40):
        for x in xs:
            diff = abs(bessel_j0(x) - float(mpmath.besselj(0, x)))
            checks.append((f"bessel_j0[x={x!r}]", diff <= J0_TOL, f"|diff| = {diff:.3e}"))
    return checks


def _dense_oracle(out: Path, ops, rng: random.Random) -> list:
    oracle, compare = ops
    cols = _columns(out / oracle.out)
    checks = [("oracle.rows", len(cols["t"]) == oracle.points, f"{len(cols['t'])} rows")]
    for name in ("energy", "purity", "parity"):
        drift = max(cols[name]) - min(cols[name])
        checks.append((f"oracle.{name}_drift", drift <= DRIFT_TOL, f"{drift:.3e}"))
    norm = max(math.sqrt(x * x + y * y + z * z) for x, y, z in zip(cols["px"], cols["py"], cols["pz"]))
    checks.append(("oracle.bloch_ball", norm <= 1.0 + BLOCH_TOL, f"max |p| = {norm!r}"))
    report = _json(out / compare.out)
    checks.append(("compare.routes", not report["skipped"] and len(report["pairs"]) == 3,
                   f"pairs={sorted(report['pairs'])} skipped={report['skipped']}"))
    for pair, res in sorted(report["pairs"].items()):
        ok = res["pass"] and res["max_abs_diff"] <= COMPARE_TOL
        checks.append((f"compare.{pair}", ok, f"max |diff| = {res['max_abs_diff']:.3e}"))
    return checks


def _scan(out: Path, ops, rng: random.Random) -> list:
    import numpy as np
    from xychain.analysis import scan_grid_spec, scan_metric
    from xychain.chain import ChainParams

    (scan,) = ops
    cols = _columns(out / scan.out)
    rows = {(g, h): (a, m) for g, h, a, m in zip(cols["gamma"], cols["h"], cols["amplitude"], cols["mean_pz"])}
    gammas = [float(v) for v in scan.gamma.split(",")]
    hs = [float(v) for v in scan.h.split(",")]
    checks = [("scan.rows", len(rows) == len(gammas) * len(hs), f"{len(rows)} rows")]
    t_max, n_points = scan_grid_spec(scan.N, scan.kappa, hs, scan.tmax, scan.points)
    grid = np.linspace(0.0, t_max, n_points)
    for g, h in rng.sample([(g, h) for g in gammas for h in hs], SCAN_POINTS):
        point = scan_metric(ChainParams(N=scan.N, kappa=scan.kappa, gamma=g, h=h), scan.p0z, grid)
        want = (point.amplitude, point.mean_pz)
        got = rows.get((g, h))
        checks.append((f"scan.row[gamma={g},h={h}]", got == want, f"csv {got} vs recomputed {want}"))
    return checks


_BY_WORKLOAD = {
    "closed_form": _closed_form,
    "weak_coupling": _weak_coupling,
    "dense_oracle": _dense_oracle,
    "scan": _scan,
}


def check_outputs(workload: str, out: Path, ops, seed: int) -> list:
    """Checks of the files one op wrote to ``out``; ``ops`` are its parsed arguments."""
    return _BY_WORKLOAD[workload](out, ops, random.Random(seed))
