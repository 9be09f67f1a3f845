"""Fingerprints of the solver's results, to show that a change keeps them bit for bit.

Run from the repository root, with one BLAS thread so that runs compare:

    OPENBLAS_NUM_THREADS=1 python3 tests/same_results.py

Pytest does not collect this file.  For each family of markets it prints one
line: the SHA-256 of the results, the outcome counts and the histogram of
``len(all_roots)``.  The families are

- ``pool``: the benchmark's market pool, every entry of every market family
  that ``perfbench/workloads.py`` visits, in their drawn order;
- ``stress``: ``stress_market(7, 9, 0..99)`` and ``stress_market(2026, 7, 0..39)``;
- ``sweep``: ``extreme_market(0..119)``;
- ``hedge``: ``hedge_market(seed, k)`` for the six ``(seed, k)`` in
  ``HEDGE_MARKETS``, the markets of the root-hedge search whose game solve
  raises ``SolverError``; their line is the baseline for a change that
  solves them;
- ``range``: 300 markets over the documented range of tolerances: for t in
  0..299, ``random_market(default_rng([35, t]), n_states=50)`` (2 to 4
  agents) with its tolerances redrawn from the same generator, log-uniform
  on [``DELTA_MIN``, ``DELTA_MAX``];
- ``cli``: the commands in ``CLI_COMMANDS``, run in process through
  ``risksharing.cli.main`` into a temporary directory: ``replicate`` of each
  built-in scenario, ``nash perfbench/scenarios/cli-nash.yaml --seed 0..3``,
  and ``ad``, ``best-response --agent 1`` and ``best-response --agent 2
  --truthful-others`` on that file.

Each market is solved as the benchmark certifies one: the competitive
benchmark, the game equilibrium, then its residual ledger, with warnings as
errors.  Its outcome is one of ``certified`` (every ledger entry passes),
``failed`` (some entry fails), ``refused`` (the competitive benchmark
raises ``SolverError``) or ``solver_error`` (the game solve raises it).
The hash reads, market by market in order, the outcome's name; for a solved
market the bytes of ``z``, ``log_ratios``, every entry of ``all_roots``,
``agent_values`` and every ledger value, as float64; for a ``SolverError``
its message and its diagnostics as sorted JSON.

The run then compares its lines, without their timing column, with the
committed ``tests/same_results.expected``, names each family whose line
differs and exits 1 if any does.  A change that moves results on purpose
writes its new lines, timings removed, into that file and says so.

Each line ends with the work the family cost, counted by wrapping three
names of ``risksharing.nash``: the calls of ``_inner_log_ratios`` (``inner``)
and the transfer vectors they solve at (``points``); the calls of the kernel
``solve_exp_linear`` as ``nash`` imports it (``kernel``) and the elements
they solve (``elements``); the calls of ``over_blocks`` as ``nash``
imports it whose ``combine`` is ``nash._joined``, one per lockstep Newton
pass of the inner solve, as the sum of their stack heights (``passes``) and
the most of them in one ``_inner_log_ratios`` call (``longest``); and the
entries that ``_inner_log_ratios`` returns NaN, its failed solves
(``unsolved``).  These are deterministic, so the expected file checks them
too.

The pool's markets long enough for two blocks of states (``roots.BLOCK_MIN``)
are solved on ``n // BLOCK_MIN`` blocks, dealt to as many threads as the
process has CPUs, up to one per block, so their line would hide a
difference between CPU counts.  The run therefore solves them once more on
one worker and once on two, by setting ``roots.WORKERS`` in this process,
prints the block layout on stderr and exits 1 if any of their bytes differ
from the line's.  The expected file does not depend on the machine's CPUs.

No family's markets are long enough for ``solve_nash`` to split its Newton
starts into chunks (``nash.STACK_BUDGET``), so every line above comes from
starts run in one lockstep stack.  The run therefore solves the ``stress``
and ``hedge`` families once more with ``nash.STACK_BUDGET`` set to 1, so
that every start runs in a chunk of its own, prints the chunk layout on
stderr and exits 1 if any market's bytes differ, a ``SolverError``'s
diagnostics as sorted JSON among them.

The ``cli`` line hashes, command by command in order, the exit code, the
standard output with the bundle path replaced by ``BUNDLE``, the bundle as
sorted JSON without ``provenance.timestamp``, and the exit code of
``verify`` on the bundle; it counts both exit codes.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from helpers import extreme_market, hedge_market, random_market, stress_market  # noqa: E402
from risksharing import SolverError, nash, solve_arrow_debreu, solve_nash  # noqa: E402
from risksharing.agents import DELTA_MAX, DELTA_MIN, Agent, Market  # noqa: E402
from risksharing import roots as blocks  # noqa: E402
from risksharing.bundle import nash_ledger  # noqa: E402
from risksharing.cli import main as cli_main  # noqa: E402
from risksharing.scenario import BUILTIN_SCENARIOS  # noqa: E402
from workloads import FAMILIES, POOL_SIZES, pool_market  # noqa: E402

EXPECTED = Path(__file__).with_suffix(".expected")
HEDGE_MARKETS = ((11, 301), (12, 57), (13, 76), (13, 400), (13, 805), (13, 912))
NASH_SCENARIO = str(ROOT / "perfbench" / "scenarios" / "cli-nash.yaml")
CLI_COMMANDS = (
    *(["replicate", name] for name in BUILTIN_SCENARIOS),
    *(["nash", NASH_SCENARIO, "--seed", str(seed)] for seed in range(4)),
    ["ad", NASH_SCENARIO],
    ["best-response", NASH_SCENARIO, "--agent", "1"],
    ["best-response", NASH_SCENARIO, "--agent", "2", "--truthful-others"],
)
WORK = Counter()


def count_work():
    """Wrap ``nash._inner_log_ratios``, ``nash.solve_exp_linear`` and
    ``nash.over_blocks`` so that every call adds its count and size to ``WORK``."""
    inner, kernel, blocks_of = nash._inner_log_ratios, nash.solve_exp_linear, nash.over_blocks
    calls = Counter()  # the lockstep passes of the running inner solve

    def counted_inner(market, ad, z, start, ws):
        WORK.update(inner=1, points=len(z))
        calls.clear()
        result = inner(market, ad, z, start, ws)
        WORK.update(unsolved=int(np.sum(np.isnan(result[1][:, 0]))))
        WORK["longest"] = max(WORK["longest"], calls["passes"])
        return result

    def counted_kernel(alpha, beta, rhs, start=None):
        WORK.update(kernel=1, elements=np.size(rhs))
        return kernel(alpha, beta, rhs, start)

    def counted_blocks(fn, arrays, combine):
        if combine is nash._joined:
            calls.update(passes=1)
            WORK.update(passes=len(arrays[0]))
        return blocks_of(fn, arrays, combine)

    nash._inner_log_ratios, nash.solve_exp_linear = counted_inner, counted_kernel
    nash.over_blocks = counted_blocks


def pool():
    for workload, families in FAMILIES.items():
        for n_agents, n_states in families:
            for j in range(POOL_SIZES[workload]):
                yield pool_market(n_agents, n_states, j)[0]


def stress():
    for seed, hi, trials in ((7, 9, 100), (2026, 7, 40)):
        for trial in range(trials):
            yield stress_market(seed, hi, trial)


def sweep():
    for trial in range(120):
        yield extreme_market(trial)


def hedge():
    for seed, k in HEDGE_MARKETS:
        yield hedge_market(seed, k)


def documented_range():
    for t in range(300):
        rng = np.random.default_rng([35, t])
        market = random_market(rng, n_states=50)
        deltas = 10 ** rng.uniform(np.log10(DELTA_MIN), np.log10(DELTA_MAX), market.n_agents)
        yield Market([Agent(d, a.beliefs) for d, a in zip(deltas, market.agents)])


def solved(market) -> tuple:
    """The outcome of ``market``, the bytes the hash reads for it, and its root count."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ad = solve_arrow_debreu(market)
        except SolverError as err:
            outcome, error = "refused", err
        else:
            try:
                eq = solve_nash(market, ad=ad)
            except SolverError as err:
                outcome, error = "solver_error", err
            else:
                ledger = nash_ledger(market, ad, eq)
                outcome = "certified" if all(e["pass"] for e in ledger) else "failed"
    data = [outcome.encode()]
    if outcome in ("refused", "solver_error"):
        data.append(str(error).encode())
        data.append(json.dumps(error.diagnostics, sort_keys=True, default=str).encode())
        return outcome, data, None
    arrays = (eq.z, eq.log_ratios, *eq.all_roots, eq.agent_values, [e["value"] for e in ledger])
    data += [np.asarray(a, dtype=np.float64).tobytes() for a in arrays]
    return outcome, data, len(eq.all_roots)


def fingerprint(markets, long=None, every=None) -> tuple:
    """The hash, the outcome counts and the root-count histogram of ``markets``;
    the bytes of each market long enough for two blocks go into the list
    ``long``, and those of every market into the list ``every``."""
    digest, outcomes, roots = hashlib.sha256(), Counter(), Counter()
    for market in markets:
        outcome, data, n_roots = solved(market)
        outcomes[outcome] += 1
        for chunk in data:
            digest.update(chunk)
        if n_roots is not None:
            roots[n_roots] += 1
        if long is not None and market.space.n_states >= 2 * blocks.BLOCK_MIN:
            long.append((market, data))
        if every is not None:
            every.append((market, data))
    return digest.hexdigest(), outcomes, roots


def workers_differ(long) -> int:
    """Re-solve the ``(market, bytes)`` pairs of ``long`` on one worker and on two,
    print the block layout on stderr, and count the solves whose bytes differ."""
    layout = Counter(m.space.n_states for m, _ in long)
    for n_states, count in sorted(layout.items()):
        print(f"workers check: {count} pool markets of {n_states} states, solved in "
              f"{n_states // blocks.BLOCK_MIN} blocks (BLOCK_MIN {blocks.BLOCK_MIN}) on 1 and 2 "
              f"workers, and first on {blocks.WORKERS}", file=sys.stderr)
    workers, differ = blocks.WORKERS, 0
    try:
        for blocks.WORKERS in (1, 2):
            differ += sum(solved(market)[1] != data for market, data in long)
    finally:
        blocks.WORKERS = workers
    return differ


def one_chunk_differs(kept) -> int:
    """Re-solve the ``(market, bytes)`` pairs of each family in the map ``kept``
    with every Newton start in a chunk of its own, print on stderr the chunks
    ``nash._newton`` received, and count the markets whose bytes differ."""
    budget, newton, sizes, layout, differ = nash.STACK_BUDGET, nash._newton, [], Counter(), 0
    nash.STACK_BUDGET = 1
    nash._newton = lambda *args: sizes.append(len(args[2])) or newton(*args)
    try:
        for name, pairs in kept.items():
            for m, data in pairs:
                sizes.clear()
                differ += solved(m)[1] != data
                layout[name, m.n_agents, sum(sizes), len(sizes)] += 1
    finally:
        nash.STACK_BUDGET, nash._newton = budget, newton
    for (name, n_agents, n_starts, n_chunks), count in sorted(layout.items()):
        print(f"one-chunk check: {count} {name} markets of {n_agents} agents, {n_starts} starts "
              f"re-run in {n_chunks} chunks (STACK_BUDGET {budget} -> 1)", file=sys.stderr)
    return differ


def cli_fingerprint() -> tuple:
    """The hash and the command and ``verify`` exit-code counts of ``CLI_COMMANDS``."""
    digest, exits, verified = hashlib.sha256(), Counter(), Counter()
    with tempfile.TemporaryDirectory() as tmp:
        for k, argv in enumerate(CLI_COMMANDS):
            out, stdout = f"{tmp}/{k}.json", io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli_main([*argv, "--out", out])
                check = cli_main(["verify", out])
            bundle = json.loads(Path(out).read_text())
            del bundle["provenance"]["timestamp"]
            exits[code] += 1
            verified[check] += 1
            text = f"{code}\n{stdout.getvalue()}\n{check}\n".replace(out, "BUNDLE")
            digest.update(text.encode())
            digest.update(json.dumps(bundle, sort_keys=True).encode())
    return digest.hexdigest(), exits, verified


def work() -> str:
    keys = ("inner", "points", "kernel", "elements", "passes", "longest", "unsolved")
    return " ".join(f"{k} {WORK[k]}" for k in keys)


def main() -> int:
    count_work()
    lines, long, kept = {}, [], {"stress": [], "hedge": []}
    families = (("pool", pool), ("stress", stress), ("sweep", sweep), ("hedge", hedge),
                ("range", documented_range))
    for name, markets in families:
        t0 = time.perf_counter()
        WORK.clear()
        digest, outcomes, roots = fingerprint(
            markets(), long if name == "pool" else None, kept.get(name)
        )
        counts = " ".join(
            f"{k} {outcomes[k]}" for k in ("certified", "failed", "refused", "solver_error")
        )
        histogram = ", ".join(f"{k}: {v}" for k, v in sorted(roots.items()))
        lines[name] = f"{name:6} {digest}  {counts}  roots {{{histogram}}}  {work()}"
        print(f"{lines[name]}  {time.perf_counter() - t0:.1f} s")
    t0 = time.perf_counter()
    WORK.clear()
    digest, exits, verified = cli_fingerprint()
    lines["cli"] = (f"cli    {digest}  exit {dict(sorted(exits.items()))}  "
                    f"verify {dict(sorted(verified.items()))}  {work()}")
    print(f"{lines['cli']}  {time.perf_counter() - t0:.1f} s")
    expected = {line.split()[0]: line for line in EXPECTED.read_text().splitlines()}
    differ = [name for name in {**lines, **expected} if lines.get(name) != expected.get(name)]
    if differ:
        print(f"differs from {EXPECTED.name}: {', '.join(differ)}", file=sys.stderr)
    split = workers_differ(long)
    if split:
        print(f"{split} of {2 * len(long)} solves differ on one or two workers", file=sys.stderr)
    chunked = one_chunk_differs(kept)
    if chunked:
        total = sum(map(len, kept.values()))
        print(f"{chunked} of {total} markets differ with one start a chunk", file=sys.stderr)
    return 1 if differ or split or chunked else 0


if __name__ == "__main__":
    sys.exit(main())
