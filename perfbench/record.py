"""Record the ``--json`` outputs the drift check compares against.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/record.py [seed ...]

For each workload and seed it generates the deck, runs every problem once
in-process, refuses to record an output that fails the correctness gate, and
merges ``{problem sha256[:16]: [output sha256[:16], numeric fields]}`` into
``perfbench/golden/<workload>.json``.  Without arguments it records the main
and hold-out seeds and seeds 0-10.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run  # pins the BLAS threads before numpy is imported
import verify
from problems import DECKS, HOLDOUT_SEED, MAIN_SEED, generate


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or sorted({MAIN_SEED, HOLDOUT_SEED, *range(11)})
    if not os.path.isdir(os.path.join("src", "cstar_entropy")):
        print("error: run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    from cstar_entropy import cli

    os.makedirs(verify.GOLDEN_DIR, exist_ok=True)
    for workload in sorted(DECKS):
        golden = verify.load_golden(workload)
        checker = run.Checker(workload, {})
        for seed in seeds:
            workdir = os.path.join(run.WORK_ROOT, f"record-{workload}-{seed}-{os.getpid()}")
            try:
                deck, _ = generate(workload, seed, workdir)
                outcomes = [checker.check(run.run_command(cli, p)) for p in deck]
                run.check_discovered_blocks(cli, workload, outcomes)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            for o in outcomes:
                if not o.ok:
                    print(f"{workload} seed {seed} slot {o.problem.slot} fails the gate: "
                          f"{'; '.join(o.reasons)}", file=sys.stderr)
                    return 1
                out = json.loads(o.text)
                golden[verify.problem_key(o.problem)] = [
                    verify.output_digest(o.text),
                    {k: v for k, v in out.items() if not isinstance(v, str)}]
            print(f"{workload} seed {seed}: {len(outcomes)} outputs recorded")
        with open(os.path.join(verify.GOLDEN_DIR, f"{workload}.json"), "w",
                  encoding="utf-8") as fh:
            fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                                         for k, v in sorted(golden.items())) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
