"""Compute the reference transfers ``z`` that every benchmark op is checked against.

Run from the repository root:

    python3 perfbench/make_reference.py

It solves every pool market and every CLI producer command once and writes
``perfbench/reference.json``: for each input, the roots the solver reported,
primary first.  Each input is also certified by the residual ledger; the
script exits with status 1, and writes nothing, if any input is not.

The committed file was computed once, on the commit that introduced the
benchmark.  Regenerate it only when a change is meant to move the solved
transfers, and say so in CHANGES.md; never to make a failing op pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
import workloads as wl


def market_references(workload) -> dict:
    out = {}
    for n, s in wl.FAMILIES[workload]:
        for j in range(wl.POOL_SIZES[workload]):
            eq, ledger = wl.certify(wl.pool_market(n, s, j)[0])
            failing = [e["name"] for e in ledger if not e["pass"]]
            if failing:
                raise SystemExit(f"market {n}x{s}/{j} is not certified: {failing}")
            out[wl.market_key(n, s, j)] = [r.tolist() for r in eq.all_roots]
            print(wl.market_key(n, s, j), eq.z.tolist(), file=sys.stderr)
    return out


def cli_reference(key, argv) -> list:
    from risksharing import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    doc = json.loads(open(argv[-1], encoding="utf-8").read())
    if code != 0 or not doc["certified"]:
        raise SystemExit(f"{key}: exit code {code}, certified {doc['certified']}")
    if "limits" in doc:
        return [doc["limits"]["z_infinity"]]
    return doc["nash"]["all_roots"]


def main() -> int:
    run.import_package()
    wl.WORK.mkdir(parents=True, exist_ok=True)
    z = {}
    commands = [wl.replicate_command(name) for name in wl.REPLICATE]
    commands += [wl.nash_command(j) for j in range(wl.POOL_SIZES["cli"])]
    for _, key, argv in commands:
        z[key] = cli_reference(key, argv)
        print(key, z[key][0], file=sys.stderr)
    z.update(market_references("many-states"))
    z.update(market_references("many-agents"))
    doc = {"provenance": run.provenance("reference", 0), "z_rtol": wl.Z_RTOL, "z": z}
    wl.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
