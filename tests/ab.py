"""Interleaved A/B timing of the certify op between two commits, in one process.

Run from the repository root, with one BLAS thread so that runs compare:

    OPENBLAS_NUM_THREADS=1 python3 tests/ab.py --base REV [--change REV] [--label L]

Pytest does not collect this file.  ``git archive`` copies each commit's
``src/risksharing`` into a temporary directory as a package named after the
commit (every import inside the package is relative), and the base a second
time, as its own package, for an A/A comparison: one package object passed
as both sides would read exactly 1 with no spread.  The ``many-states`` and
``many-agents`` pool markets are built with each package's own classes, by
the recipe of ``perfbench/workloads.py`` (``POOL_ENTROPY``, ``FAMILIES`` and
``pool_market``'s draws, in their drawn order).

A pair times the certify op of ``perfbench/workloads.py`` (competitive
benchmark, game equilibrium, diagnostics, and the ledger, which computes
the diagnostics again) once on each of the three packages, in an order
drawn from the order seed, on the pair's market; the pairs cycle through
the workload's markets.  Every ledger entry must pass and every ``z`` must
match ``perfbench/reference.json``.  Each market is solved once on every
side before the timing starts.

The file ``BENCH_<label>.json`` at the repository root records both
commits, the markets, the order seed, the CPU count of the affinity mask
and the BLAS thread variables.  Per workload it holds the median per-pair
time ratio change/base, its quartiles and a bootstrap 95% interval of the
median (2,000 resamples), the same for the base's second copy against the
base (the A/A interval), and each side's median op time.  Under
``taskset -c 0`` the block pool has one thread.
"""

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from importlib import import_module
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import FAMILIES, POOL_ENTROPY, POOL_SIZES, load_reference, market_key, z_matches  # noqa: E402

PAIRS = {"many-states": 40, "many-agents": 160}
RESAMPLES = 2000
BLAS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def markets(workload):
    """The ``(n_agents, n_states, j)`` of the workload's pool markets, in pool order."""
    return [(n, s, j) for j in range(POOL_SIZES[workload]) for n, s in FAMILIES[workload]]


def pool_market(pkg: str, n_agents: int, n_states: int, j: int):
    """Pool entry ``j`` in its drawn order, built with the package ``pkg``'s classes."""
    agents, measures = import_module(f"{pkg}.agents"), import_module(f"{pkg}.measures")
    rng = np.random.default_rng([POOL_ENTROPY, n_agents, n_states, j])
    weights = rng.dirichlet(np.full(n_states, 5.0))
    draws = [(rng.normal(0.0, 1.0, n_states), float(rng.uniform(0.3, 3.0))) for _ in range(n_agents)]
    base = measures.StateSpace(weights).baseline()
    return agents.Market(
        [agents.Agent(delta, measures.normalize_log_density(base, tilt)) for tilt, delta in draws]
    )


def certify(pkg: str, market):
    """The benchmark's op on ``pkg``: its wall time, ``z`` and failing ledger entries."""
    ad_mod, nash, diagnostics, bundle = (
        import_module(f"{pkg}.{m}") for m in ("arrow_debreu", "nash", "diagnostics", "bundle")
    )
    t0 = time.perf_counter()
    ad = ad_mod.solve_arrow_debreu(market)
    eq = nash.solve_nash(market, ad=ad)
    diagnostics.compute_diagnostics(market, ad, eq)
    ledger = bundle.nash_ledger(market, ad, eq)
    return time.perf_counter() - t0, eq.z, [e["name"] for e in ledger if not e["pass"]]


def archive(rev: str, name: str, into: Path) -> str:
    """``rev``'s ``src/risksharing`` as the package ``name`` under ``into``; its full hash."""
    commit = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", commit, "src/risksharing"], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        for member in tf.getmembers():
            if member.isfile():
                member.name = f"{name}/{member.name.removeprefix('src/risksharing/')}"
                tf.extract(member, into, filter="data")
    return commit


def summary(ratios, rng) -> dict:
    """Median, quartiles and bootstrap 95% interval of the median of ``ratios``."""
    ratios = np.asarray(ratios)
    boot = np.median(rng.choice(ratios, (RESAMPLES, len(ratios))), axis=1)
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    lo, hi = np.percentile(boot, [2.5, 97.5])
    return {"median": median, "quartiles": [q1, q3], "interval": [lo, hi]}


def run(workload, sides, reference, rng, pairs) -> dict:
    """Time ``pairs`` pairs of ``workload`` on the packages ``sides`` (base, base copy, change)."""
    entries = markets(workload)
    built = {pkg: [pool_market(pkg, *e) for e in entries] for pkg in sides}
    for e, *per_side in zip(entries, *built.values()):
        roots = [np.asarray(r) for r in reference[market_key(*e)]]
        for pkg, market in zip(sides, per_side):
            _, z, failing = certify(pkg, market)
            if failing or not z_matches(z, roots):
                raise SystemExit(f"{pkg} on {market_key(*e)}: failing {failing}, z {z.tolist()}")
    times = np.empty((pairs, len(sides)))
    for p in range(pairs):
        k = p % len(entries)
        for i in rng.permutation(len(sides)):
            times[p, i] = certify(sides[i], built[sides[i]][k])[0]
    return {
        "pairs": pairs,
        "ratio": summary(times[:, 2] / times[:, 0], rng),
        "aa": summary(times[:, 1] / times[:, 0], rng),
        "median_op_s": dict(zip(("base", "base_copy", "change"), np.median(times, axis=0))),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the parent of the change")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--label", default=None, help="BENCH_<label>.json; default the change's hash")
    parser.add_argument("--seed", type=int, default=None, help="order seed; default drawn")
    args = parser.parse_args()
    seed = int(np.random.SeedSequence().entropy % 2**32) if args.seed is None else args.seed
    rng = np.random.default_rng(seed)
    reference = load_reference()
    with tempfile.TemporaryDirectory() as tmp:
        base = archive(args.base, "ab_base", Path(tmp))
        archive(args.base, "ab_base_copy", Path(tmp))
        change = archive(args.change, "ab_change", Path(tmp))
        sys.path.insert(0, tmp)
        sides = ("ab_base", "ab_base_copy", "ab_change")
        doc = {
            "base": base,
            "change": change,
            "order_seed": seed,
            "cpus": len(os.sched_getaffinity(0)),
            "blas": {k: os.environ.get(k) for k in BLAS},
            "markets": {w: [market_key(*e) for e in markets(w)] for w in PAIRS},
            "workloads": {},
        }
        for workload, pairs in PAIRS.items():
            result = run(workload, sides, reference, rng, pairs)
            doc["workloads"][workload] = result
            r, aa = result["ratio"], result["aa"]
            print(f"{workload}: change/base {r['median']:.3f} "
                  f"[{r['interval'][0]:.3f}, {r['interval'][1]:.3f}], A/A {aa['median']:.3f} "
                  f"[{aa['interval'][0]:.3f}, {aa['interval'][1]:.3f}], {result['pairs']} pairs")
    path = ROOT / f"BENCH_{args.label or change[:7]}.json"
    path.write_text(json.dumps(doc, indent=1, default=float) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
