"""The benchmark's workloads: the CLI invocations each one runs, and the size guard.

Every op is a list of ``xychain`` CLI arguments.  The seed is the only
input that varies between runs: it goes to ``compare --seed`` and, in
``checks.py``, picks the points where outputs are checked.  Output paths
are relative to the worker's output directory.
"""

from __future__ import annotations

NAMES = ("closed_form", "weak_coupling", "dense_oracle", "scan")

# A dense N = 12 run peaks at about 0.7 GB (the 4096 x 4096 Hamiltonian,
# its eigenvectors and the kron temporaries).  N = 14 is estimated, not
# measured, to need more than 7 GiB, so it is refused until the oracle
# stops building the full matrix.
MAX_DENSE_N = 12
SCAN_JOBS = 2

_FULL = {
    "closed_form": (
        "analyze --N 1000 --gamma 0.5 --h 2 --tmax 10000 --points 80001 --out analyze.json",
        "evolve --N 100 --tmax 400 --points 40001 --out pz.csv",
        "spectrum --N 8 --gamma 0.5 --out spectrum.csv",
    ),
    "weak_coupling": (
        "analyze --N 1000 --method niemeijer --p0x 0.6 --p0z 0.8 --tmax 999 --points 2000001"
        " --out analyze.json",
    ),
    "dense_oracle": (
        "oracle --N 12 --gamma 0.5 --h 2 --method zero_T --p0x 0.6 --p0z 0.8 --tmax 20 --points 401"
        " --out oracle.csv",
        "compare --N 10 --gamma 1 --h 2 --points 20 --seed {seed} --out compare.json",
    ),
    "scan": ("scan --N 400 --gamma 0,0.5,1 --h 2,5,10 --jobs {jobs} --out scan.csv",),
}

# The same commands at sizes that finish in well under a second each.
_SMOKE = {
    "closed_form": (
        "analyze --N 20 --gamma 0.5 --h 2 --tmax 200 --points 4001 --out analyze.json",
        "evolve --N 10 --tmax 40 --points 401 --out pz.csv",
        "spectrum --N 4 --gamma 0.5 --out spectrum.csv",
    ),
    "weak_coupling": (
        "analyze --N 20 --method niemeijer --p0x 0.6 --p0z 0.8 --tmax 19 --points 2001"
        " --out analyze.json",
    ),
    "dense_oracle": (
        "oracle --N 6 --gamma 0.5 --h 2 --method zero_T --p0x 0.6 --p0z 0.8 --tmax 5 --points 41"
        " --out oracle.csv",
        "compare --N 6 --gamma 1 --h 2 --points 5 --seed {seed} --out compare.json",
    ),
    "scan": ("scan --N 20 --gamma 0,1 --h 2,5 --jobs {jobs} --out scan.csv",),
}


def scan_jobs(nproc: int) -> int:
    """Pool size for the scan workload: two workers, never more than CPUs."""
    return min(SCAN_JOBS, nproc)


def ops(name: str, seed: int, jobs: int, smoke: bool = False) -> list[list[str]]:
    """The workload's CLI argument lists, in the order one op runs them."""
    table = _SMOKE if smoke else _FULL
    return [line.format(seed=seed, jobs=jobs).split() for line in table[name]]


def validate(argvs: list[list[str]], nproc: int) -> None:
    """Refuse a dense oracle above MAX_DENSE_N sites or a pool larger than nproc.

    Looks only at the arguments, so it can be tested without starting a
    process.  Every op is a command followed by flag/value pairs.
    """
    for argv in argvs:
        command, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
        dense = command in ("oracle", "compare") or opts.get("--method", "").startswith("oracle_")
        if dense and int(opts["--N"]) > MAX_DENSE_N:
            raise ValueError(
                f"{command} --N {opts['--N']}: the dense oracle is refused above N = {MAX_DENSE_N}"
            )
        jobs = int(opts.get("--jobs", "1"))
        if command == "scan" and not 1 <= jobs <= nproc:
            raise ValueError(f"scan --jobs {jobs}: the pool must hold 1 to nproc = {nproc} workers")
