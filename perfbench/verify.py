"""Correctness gate and drift check for every benchmark command.

The gate compares each ``--json`` output with the reference the generator
computed from the generating data.  The drift check compares it with the
output recorded for the same problem file at the commit that defined the
benchmark (``golden/<workload>.json``, keyed by the sha256 of the file).
"""

from __future__ import annotations

import hashlib
import json
import os

from problems import Problem

GATE_TOL = 1e-9
DRIFT_TOL = 1e-12
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def output_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def problem_key(p: Problem) -> str:
    """Recorded outputs are keyed by the problem file's bytes, not by its seed."""
    return p.digest[:16]


def load_golden(workload: str) -> dict:
    path = os.path.join(GOLDEN_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _near(a, b, tol: float) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= tol


def gate(workload: str, p: Problem, out: dict) -> list[str]:
    """Reasons the output of p disagrees with its reference (empty when it passes)."""
    bad = []
    if workload in ("discover", "closed_form"):
        if not _near(out.get("state_entropy"), p.s_ref, GATE_TOL):
            bad.append(f"state_entropy {out.get('state_entropy')!r} != reference {p.s_ref!r}")
        if not _near(out.get("multiplicity_term"), p.mult_ref, GATE_TOL):
            bad.append(f"multiplicity_term {out.get('multiplicity_term')!r} != {p.mult_ref!r}")
        rel = out.get("vn_of_representative", 0) - out.get("state_entropy", 0) \
            - out.get("multiplicity_term", 0)
        if abs(rel) > GATE_TOL:
            bad.append(f"vn - state - multiplicity = {rel:.3e}")
    elif workload == "certify":
        found = out.get("min_entropy_found")
        if not _near(found, p.s_ref, GATE_TOL):
            bad.append(f"min_entropy_found {found!r} outside reference {p.s_ref!r} +- {GATE_TOL}")
        if out.get("samples") != p.samples:
            bad.append(f"samples {out.get('samples')!r} != {p.samples}")
    elif workload == "cross_check":
        if not _near(out.get("gns_entropy"), p.s_ref, GATE_TOL):
            bad.append(f"gns_entropy {out.get('gns_entropy')!r} != reference {p.s_ref!r}")
        if out.get("irreducible") is not p.pure:
            bad.append(f"irreducible {out.get('irreducible')!r} for a {'pure' if p.pure else 'mixed'} state")
        if out.get("gns_dimension") != p.gns_dim:
            bad.append(f"gns_dimension {out.get('gns_dimension')!r} != {p.gns_dim}")
    return bad


def drift(recorded: list | None, text: str, out: dict) -> tuple[list[str], bool]:
    """(reasons numeric fields moved beyond 1e-12, whether the bytes changed)."""
    if recorded is None:
        return [], False
    digest, values = recorded
    bad = []
    for key, ref in values.items():
        got = out.get(key)
        if isinstance(ref, (bool, int)):
            if got != ref:
                bad.append(f"drift: {key} {got!r} != recorded {ref!r}")
        elif not _near(got, ref, DRIFT_TOL):
            bad.append(f"drift: {key} {got!r} != recorded {ref!r}")
    return bad, output_digest(text) != digest


def blocks_match(p: Problem, out: dict) -> list[str]:
    """The discovered block multiset (from ``structure --json``) equals the generated one."""
    found = sorted(tuple(b) for b in out.get("blocks", []))
    if found != sorted(p.blocks):
        return [f"discovered blocks {found} != generated {sorted(p.blocks)}"]
    return []
