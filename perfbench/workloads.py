"""Workload inputs, the op each workload times, and the correctness gate.

Inputs come from fixed pools so that every op can be checked against a
committed reference: pool entry ``j`` of a market family is drawn from
``numpy.random.default_rng([POOL_ENTROPY, n_agents, n_states, j])`` with
the recipe of the package's test helpers (Dirichlet(5) state weights, N(0, 1)
belief tilts, tolerances uniform on [0.3, 3]).  The run's ``--seed`` fixes
the order in which a run visits the pool, permutes the states and agents of
every market, and orders the commands of each ``cli`` pass, so two seeds
give the program different inputs.

A pass is the unit a run repeats: one market per agent count on
``many-agents``, one market on ``many-states``, one cycle of CLI commands on
``cli``.  Runs execute whole passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORK = OUT / "work"
REFERENCE = HERE / "reference.json"
NASH_SCENARIO = HERE / "scenarios" / "cli-nash.yaml"

POOL_ENTROPY = 1412_4208
# (agent count, state count) of each market family.
FAMILIES = {
    "many-agents": ((3, 500), (4, 500), (6, 500), (8, 500)),
    "many-states": ((2, 100_000),),
}
# Pool entries a workload visits.  many-agents solves the same two markets
# per agent count on every seed: within one agent count a market can cost
# 2.5 times another, and with eight ops a run the median op falls between
# the n = 4 and n = 6 markets, so new markets per seed spread op_p50_s by a
# quarter across seeds.
POOL_SIZES = {"many-agents": 2, "many-states": 16, "cli": 16}
# Primary z must match its reference to this relative tolerance, the same
# one solve_nash uses to tell distinct roots apart.
Z_RTOL = 1e-7
REPLICATE = ("example-2.7", "example-3.9", "limit-one-agent")


@dataclass
class Op:
    """One timed op: a certified equilibrium, or one CLI command."""

    name: str
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_kb: int = 0
    ok: bool = False
    error: str = ""
    extra: dict = field(default_factory=dict)


def pool_market(n_agents: int, n_states: int, j: int, seed=None):
    """Pool entry ``j`` with its states and agents permuted by ``seed``.

    Returns the market and its agent order, which maps the reference ``z``
    of the unpermuted entry onto this market.  ``seed=None`` keeps the
    drawn order.
    """
    from risksharing import Agent, Market, StateSpace, normalize_log_density

    rng = np.random.default_rng([POOL_ENTROPY, n_agents, n_states, j])
    weights = rng.dirichlet(np.full(n_states, 5.0))
    draws = [(rng.normal(0.0, 1.0, n_states), float(rng.uniform(0.3, 3.0))) for _ in range(n_agents)]
    states, agents = np.arange(n_states), np.arange(n_agents)
    if seed is not None:
        perm = np.random.default_rng([seed, n_agents, n_states, j])
        states, agents = perm.permutation(n_states), perm.permutation(n_agents)
    space = StateSpace(weights[states])
    base = space.baseline()
    market = Market(
        [Agent(draws[a][1], normalize_log_density(base, draws[a][0][states])) for a in agents]
    )
    return market, agents


def market_key(n_agents: int, n_states: int, j: int) -> str:
    return f"market/{n_agents}x{n_states}/{j}"


def pool_entry(workload: str, seed: int, k: int) -> int:
    """The pool entry pass ``k`` of a run visits: the seed's order, cycled."""
    size = POOL_SIZES[workload]
    return int(np.random.default_rng(seed).permutation(size)[k % size])


def load_reference() -> dict:
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        return json.load(fh)["z"]


def z_matches(z, roots) -> bool:
    """True when ``z`` equals one of the reference roots (the primary first)."""
    z = np.asarray(z, dtype=float).ravel()
    for ref in roots:
        ref = np.asarray(ref, dtype=float).ravel()
        if ref.shape == z.shape and np.max(np.abs(z - ref)) <= Z_RTOL * (1.0 + np.max(np.abs(ref))):
            return True
    return False


# ---------------------------------------------------------------- in-process


def pass_inputs(workload: str, seed: int, k: int) -> list:
    """The ops of pass ``k``: a list of (op name, reference key, market or argv)."""
    if workload == "cli":
        return cli_pass(seed, k)
    j = pool_entry(workload, seed, k)
    ops = []
    for n, s in FAMILIES[workload]:
        market, agents = pool_market(n, s, j, seed)
        ops.append((f"n{n}/S{s}/j{j}", (market_key(n, s, j), agents), market))
    return ops


def certify(market):
    """The op: competitive benchmark, game equilibrium, diagnostics, ledger.

    The calls go through module attributes so that the traced run's
    wrappers see them.
    """
    from risksharing import arrow_debreu, bundle, diagnostics, nash

    ad = arrow_debreu.solve_arrow_debreu(market)
    eq = nash.solve_nash(market, ad=ad)
    diagnostics.compute_diagnostics(market, ad, eq)
    ledger = bundle.nash_ledger(market, ad, eq)
    return eq, ledger


def run_market_op(name, key, market, reference) -> Op:
    """``key`` is the reference key and the market's agent order."""
    from risksharing import SolverError

    ref_key, agents = key
    roots = [np.asarray(r)[agents] for r in reference[ref_key]]
    op = Op(name)
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        eq, ledger = certify(market)
    except SolverError as exc:
        op.wall_s, op.cpu_s = time.perf_counter() - t0, time.process_time() - c0
        op.error = f"SolverError: {exc}"
        return op
    op.wall_s, op.cpu_s = time.perf_counter() - t0, time.process_time() - c0
    op.extra = {"z": eq.z.tolist(), "roots": len(eq.all_roots)}
    failing = [e["name"] for e in ledger if not e["pass"]]
    if failing:
        op.error = f"ledger entries failed: {failing}"
    elif not z_matches(eq.z, roots):
        op.error = f"z {eq.z.tolist()} differs from reference {roots[0].tolist()}"
    else:
        op.ok = True
    return op


# ----------------------------------------------------------------------- cli


def replicate_command(name: str):
    return (f"replicate {name}", name, ["replicate", name, "--out", str(WORK / f"{name}.json")])


def nash_command(j: int):
    """``nash`` on the sampled scenario, with pool entry ``j`` as its sample seed."""
    out = str(WORK / "cli-nash.json")
    return (f"nash cli-nash/j{j}", f"cli-nash/{j}",
            ["nash", str(NASH_SCENARIO), "--seed", str(j), "--out", out])


def cli_pass(seed: int, k: int) -> list:
    """Commands of CLI pass ``k``: a list of (op name, reference key, argv).

    Producers run in a seed-chosen order, then ``verify`` on each bundle in
    the same order.  Creates the directory the bundles go to.
    """
    WORK.mkdir(parents=True, exist_ok=True)
    producers = [replicate_command(name) for name in REPLICATE]
    producers.append(nash_command(pool_entry("cli", seed, k)))
    order = np.random.default_rng([seed, k]).permutation(len(producers))
    producers = [producers[i] for i in order]
    verifies = [(f"verify {name.split()[1]}", None, ["verify", argv[-1]]) for name, _, argv in producers]
    return producers + verifies


def cli_env(single_thread: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if single_thread:
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def check_cli(op: Op, key, argv, code: int, stdout: str, reference) -> None:
    if code != 0:
        op.error = f"exit code {code}"
        return
    if argv[0] == "verify":
        lines = stdout.strip().splitlines()
        if not lines or lines[-1] != "certified":
            op.error = "verify did not print 'certified'"
            return
        op.ok = True
        return
    with open(argv[-1], "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    z = doc["limits"]["z_infinity"] if "limits" in doc else doc["nash"]["z"]
    op.extra = {"z": z, "bytes": os.path.getsize(argv[-1])}
    if not doc.get("certified"):
        op.error = "bundle not certified"
    elif not z_matches(z, reference[key]):
        op.error = f"z {z} differs from reference {reference[key][0]}"
    else:
        op.ok = True


def run_cli_subprocess(name, key, argv, reference, env) -> Op:
    """One CLI command in a fresh interpreter; CPU and peak RSS of that child."""
    op = Op(name)
    log = WORK / "cli-stdout.txt"
    with open(log, "w", encoding="utf-8") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "risksharing.cli", *argv],
            stdout=fh,
            stderr=subprocess.STDOUT,
            cwd=ROOT,
            env=env,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        op.wall_s = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    op.cpu_s = usage.ru_utime + usage.ru_stime
    op.rss_kb = usage.ru_maxrss
    check_cli(op, key, argv, proc.returncode, log.read_text(encoding="utf-8"), reference)
    return op


def run_cli_inprocess(name, key, argv, reference) -> Op:
    """The same command through ``risksharing.cli.main`` in this process."""
    from risksharing import cli

    op = Op(name)
    buf = io.StringIO()
    c0, t0 = time.process_time(), time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    op.wall_s, op.cpu_s = time.perf_counter() - t0, time.process_time() - c0
    check_cli(op, key, argv, code, buf.getvalue(), reference)
    return op


def build_inputs(workload: str, seed: int):
    """Everything a run needs before its first op (timed as set-up)."""
    if workload == "cli":
        from risksharing import scenario

        scenario.load_scenario(NASH_SCENARIO)
    return pass_inputs(workload, seed, 0)
