"""Benchmark: verified entropy commands through the ``cstar-entropy`` CLI.

Run from the repository root:

    python3 perfbench/run.py --workload discover --seed 1 --seconds 20 --trace 0

Each workload writes a seeded deck of problem files, then issues them one
after another (closed loop, one client, one process) through
``cli.main([<command>, <file>, "--json"])`` and checks every output against
a numpy reference built from the generating data.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the same problems under the span
tracer and prints the per-layer metrics.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import os

# One BLAS thread, pinned before numpy is imported, so a command's time does
# not depend on what runs on the other core.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

import verify  # noqa: E402
from problems import DECKS, Problem, generate  # noqa: E402
from spans import LAYERS, PEAK_MB, Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_COMMANDS = 100        # so at least ten commands lie beyond the 90th percentile
SETUP_SAMPLES = 5
WORK_ROOT = ".bench_work"

# The machine-speed probe: a fixed slice of LAPACK, einsum, small-array and
# interpreter work that shares no code with the package, so only the machine's speed
# moves it.  On a shared 2-core host the speed of the whole machine drifted
# by up to 40 % over minutes, moving every command and the probe alike, so
# timings are reported at the reference speed.  The speed also swung within
# a second, so each command is scaled by the probes taken right before and
# right after it.  In two sets of six certify runs, scaling by the run's mean
# probe left a 0.11 spread (interquartile range over median) in the median
# command time; this local scaling left 0.03-0.04.
REFERENCE_PROBE_S = 2.0e-3
PROBES_PER_GAP = 2
_PROBE = np.random.default_rng(0).standard_normal((40, 40)) + 0j

# The layer(s) each workload exists to exercise; the traced run checks that
# they hold the largest self-time share.
EXPECTED_DOMINANT = {
    "discover": ("algebra",),
    "certify": ("decomp",),
    "cross_check": ("gns", "algebra.block_decompose"),
    "closed_form": ("states", "entropy"),
}


@dataclass
class Outcome:
    """One issued command: its problem, wall time, exit code, output and verdict."""

    problem: Problem
    seconds: float
    code: int | None
    text: str
    error: str
    reasons: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.reasons


def run_command(cli, problem: Problem, argv=None) -> Outcome:
    """Call ``cli.main`` in-process on the problem (or on argv), timing only the call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(problem.argv if argv is None else argv)
    except Exception as exc:  # a traceback that would reach a CLI user
        code = None
        err.write(f"raised {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    return Outcome(problem, seconds, code, out.getvalue(), err.getvalue().strip())


class Checker:
    """Applies the correctness gate and the drift check to every outcome."""

    def __init__(self, workload: str, golden: dict):
        self.workload = workload
        self.golden = golden
        self.drift_checked = 0
        self.bytes_changed = 0

    def check(self, o: Outcome) -> Outcome:
        if o.code != 0:
            o.reasons.append(f"exit {o.code}: {o.error}")
            return o
        try:
            out = json.loads(o.text)
        except json.JSONDecodeError as exc:
            o.reasons.append(f"output is not JSON: {exc}")
            return o
        o.reasons += verify.gate(self.workload, o.problem, out)
        recorded = self.golden.get(verify.problem_key(o.problem))
        moved, changed = verify.drift(recorded, o.text, out)
        o.reasons += moved
        if recorded is not None:
            self.drift_checked += 1
            self.bytes_changed += changed
        return o


def speed_probes(count: int) -> list[float]:
    """Wall times of back-to-back machine-speed probes, about 2 ms each."""
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        for _ in range(3):
            np.linalg.eigh(_PROBE + _PROBE.conj().T)
        x = 0
        for i in range(3000):
            x += i * i
        np.einsum("ij,jk->ik", _PROBE, _PROBE)
        for i in range(10):
            rng = np.random.Generator(np.random.Philox(key=i))
            np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        out.append(time.perf_counter() - t0)
    return out


def run_decks(cli, deck: list[Problem], checker: Checker,
              seconds: float) -> tuple[list[Outcome], list[float], list[float]]:
    """Issue whole decks until both the time and the command count are reached.

    Speed probes run before the first command and after every command,
    outside the timed regions.  Returns the outcomes, each command's speed
    index (from the probes on either side of it) and every probe time.
    """
    outcomes, gaps = [], [speed_probes(PROBES_PER_GAP)]
    start = time.perf_counter()
    while True:
        for p in deck:
            outcomes.append(checker.check(run_command(cli, p)))
            gaps.append(speed_probes(PROBES_PER_GAP))
        if time.perf_counter() - start >= seconds and len(outcomes) >= MIN_COMMANDS:
            speeds = [speed_index(before + after) for before, after in zip(gaps, gaps[1:])]
            return outcomes, speeds, [t for gap in gaps for t in gap]


def check_discovered_blocks(cli, workload: str, outcomes: list[Outcome]) -> None:
    """discover: run ``structure`` once per distinct problem, outside the timed region."""
    if workload != "discover":
        return
    verdict = {}
    for o in outcomes:
        p = o.problem
        if p.slot not in verdict:
            s = run_command(cli, p, ["structure", p.path, "--json"])
            if s.code != 0:
                verdict[p.slot] = [f"structure exit {s.code}: {s.error}"]
            else:
                verdict[p.slot] = verify.blocks_match(p, json.loads(s.text))
        o.reasons += verdict[p.slot]


def setup_seconds(warm: Problem) -> tuple[list[float], list[float]]:
    """Fresh interpreter to the end of one warm-up command, timed from spawn to exit.

    Returns the samples and the speed probes taken between them.
    """
    samples, probes = [], []
    for _ in range(SETUP_SAMPLES):
        probes += speed_probes(20)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), *warm.argv],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=120, check=False)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): "
                               f"{proc.stderr.decode(errors='replace').strip()}")
    return samples, probes


def metric_layer(module: str) -> str:
    """Metric names start with a letter, so ``_linalg`` is reported as ``linalg``."""
    return module.lstrip("_")


def speed_index(probes: list[float]) -> float:
    """How much slower than the reference the machine ran: mean probe over reference probe."""
    return statistics.fmean(probes) / REFERENCE_PROBE_S


def end_to_end(outcomes: list[Outcome], speeds: list[float], setup: list[float],
               setup_speed: float) -> dict:
    """The end-to-end metrics, each command's time divided by its speed index."""
    times = [o.seconds / speed for o, speed in zip(outcomes, speeds)]
    verified = sum(o.ok for o in outcomes)
    p50, p90 = np.percentile(times, [50, 90])
    return {
        "problems_per_s": (verified / sum(times), "1/s"),
        "problem_s.p50": (float(p50), "s"),
        "problem_s.p90": (float(p90), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup) / setup_speed, "s"),
        "verified_share": (verified / len(outcomes), "share"),
    }


def per_layer(tracer: Tracer, traced: list[Outcome], untraced: list[Outcome],
              bytes_changed: int) -> dict:
    metrics = {}
    for name, stat in tracer.stats.items():
        mod, fn = name.split(".")
        base = f"{metric_layer(mod)}.{fn}"
        metrics[f"{base}.calls"] = (stat.calls, "count")
        metrics[f"{base}.busy_s"] = (stat.busy_s, "s")
        metrics[f"{base}.self_s"] = (stat.self_s, "s")
        metrics[f"{base}.failed"] = (stat.failed, "count")
    oracle = tracer.stats["decomp.infimum_oracle"]
    metrics["decomp.infimum_oracle.samples_per_s"] = (
        oracle.samples / oracle.busy_s if oracle.busy_s else 0.0, "1/s")
    for name in PEAK_MB:
        metrics[f"{name}.peak_mb"] = (tracer.stats[name].peak_mb, "MB")
    wall = sum(o.seconds for o in traced)
    for layer, self_s in tracer.layer_self_s().items():
        metrics[f"layer.{metric_layer(layer)}.self_share"] = (self_s / wall, "share")
    metrics["layer.unattributed.share"] = (
        (wall - tracer.stats["cli.main"].busy_s) / wall, "share")
    metrics["trace.overhead"] = (wall / sum(o.seconds for o in untraced) - 1.0, "ratio")
    everything = traced + untraced
    metrics["failed_share"] = (sum(not o.ok for o in everything) / len(everything), "share")
    metrics["drift.bytes_changed"] = (bytes_changed, "count")
    return metrics


def report_trace(tracer: Tracer, metrics: dict, workload: str, wall: float) -> list[str]:
    """Layer shares, overhead, the per-function table and the reason check."""
    share = {layer: metrics[f"layer.{metric_layer(layer)}.self_share"][0] for layer in LAYERS}
    lines = ["", "per-layer self time (share of traced command wall time):"]
    for layer in sorted(share, key=share.get, reverse=True):
        lines.append(f"  {layer:<10} {100 * share[layer]:6.2f} %")
    lines.append(f"  {'(none)':<10} {100 * metrics['layer.unattributed.share'][0]:6.2f} %")
    lines.append(f"tracing overhead: {100 * metrics['trace.overhead'][0]:.1f} % "
                 "(traced vs untraced wall time of the same commands)")
    lines.append("")
    lines.append(f"  {'function':<36} {'calls':>8} {'busy_s':>10} {'self_s':>10} {'failed':>6}")
    for name, stat in tracer.stats.items():
        if stat.calls:
            lines.append(f"  {name:<36} {stat.calls:>8} {stat.busy_s:>10.4f} "
                         f"{stat.self_s:>10.4f} {stat.failed:>6}")

    claimed = EXPECTED_DOMINANT[workload]
    if workload == "cross_check":
        # block_decompose's self time moves from algebra to the claimed side
        decompose = metrics["algebra.block_decompose.self_s"][0] / wall
        share["algebra"] -= decompose
        mine = share.pop("gns") + decompose
    else:
        mine = sum(share.pop(layer) for layer in claimed)
    other = max(share, key=share.get)
    lines.append(f"reason check: {' + '.join(claimed)} self share {100 * mine:.1f} %, "
                 f"largest other {other} {100 * share[other]:.1f} % -> "
                 f"{'confirmed' if mine >= share[other] else 'NOT confirmed'}")
    return lines


def traced_run(cli, args, deck: list[Problem], warm: Problem, checker: Checker):
    """Alternate a traced and an untraced pass over the deck until the time is up.

    Both passes issue the same commands, so their wall-time ratio is the
    tracing overhead; alternating them deck by deck cancels slow drifts of
    the machine's speed.
    """
    run_command(cli, warm)
    gc.collect()
    tracer = Tracer()
    traced, untraced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        tracer.install()
        try:
            for p in deck:
                tracer.command = len(traced)
                traced.append(checker.check(run_command(cli, p)))
        finally:
            tracer.uninstall()
        untraced += [checker.check(run_command(cli, p)) for p in deck]
    outcomes = traced + untraced
    check_discovered_blocks(cli, args.workload, outcomes)
    tracer.write(os.path.join(WORK_ROOT, f"spans-{args.workload}-{args.seed}.tsv"))
    metrics = per_layer(tracer, traced, untraced, checker.bytes_changed)
    wall = sum(o.seconds for o in traced)
    return report_trace(tracer, metrics, args.workload, wall), metrics, outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(DECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join("src", "cstar_entropy")):
        print("error: run from the repository root; src/cstar_entropy not found", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    from cstar_entropy import cli

    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        deck, warm = generate(args.workload, args.seed, workdir)
        checker = Checker(args.workload, verify.load_golden(args.workload))
        if args.trace:
            lines, metrics, outcomes = traced_run(cli, args, deck, warm, checker)
        else:
            setup, setup_probes = setup_seconds(warm)
            run_command(cli, warm)
            gc.collect()
            outcomes, speeds, probes = run_decks(cli, deck, checker, args.seconds)
            check_discovered_blocks(cli, args.workload, outcomes)
            run_speed, setup_speed = speed_index(probes), speed_index(setup_probes)
            metrics = end_to_end(outcomes, speeds, setup, setup_speed)
            raw = end_to_end(outcomes, [1.0] * len(outcomes), setup, 1.0)
            lines = [f"machine speed index {run_speed:.4f} while timing, {setup_speed:.4f} "
                     f"during set-up (mean probe over {1e3 * REFERENCE_PROBE_S:.2f} ms); "
                     "unscaled: " + ", ".join(f"{k} {raw[k][0]:.6g}" for k in
                                              ("problems_per_s", "problem_s.p50",
                                               "problem_s.p90", "setup_s"))]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [o for o in outcomes if not o.ok]
    rungs = {r: sum(1 for p in deck if p.rung == r) for r in ("small", "mid", "top")}
    print(f"workload {args.workload}, seed {args.seed}, {len(outcomes)} commands in decks of "
          f"{len(deck)} ({rungs['small']} small, {rungs['mid']} mid, {rungs['top']} top), "
          f"closed loop, 1 client, BLAS threads {BLAS_THREADS}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:.6g} {unit}")
    if "failed_share" not in metrics:
        print(f"{'failed_share':<44} {len(failed) / len(outcomes):.6g} share")
    print(f"drift: {checker.drift_checked} of {len(outcomes)} commands matched a recorded "
          f"problem; {checker.bytes_changed} with changed --json bytes")
    for line in lines:
        print(line)
    for o in failed[:10]:
        print(f"FAILED slot {o.problem.slot} ({o.problem.argv[0]}): {'; '.join(o.reasons)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
