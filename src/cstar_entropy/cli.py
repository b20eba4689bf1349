"""Batch command-line front end.

Reads problem files describing an algebra (explicit blocks or generator
matrices) plus a state (ambient density matrix, canonical form, or values on
a declared basis), dispatches to the library, and prints reports either as
text or as one JSON document.  Complex matrices are serialized as nested
arrays of [re, im] pairs.

Exit codes: 0 ok, 2 parse or input validation error, 3 numerical failure,
4 invalid state.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import algebra as alg
from . import decomp, entropy, gns, states, thermo
from ._linalg import Cutoff
from .errors import DecompositionError, NotAStateError, ValidationError

_LN2 = float(np.log(2.0))


class _ParseError(Exception):
    pass


def _numbers_from_json(obj, what: str, ndim: int) -> np.ndarray:
    """Float array of ndim dimensions from rectangular nested lists of finite JSON numbers.

    Every entry must be an int or a float: numpy would convert a numeric string
    or a boolean.  Each level of nesting is flattened in one pass; a string or
    an object in place of a list flattens into strings, which the type check
    of the entries rejects.
    """
    shape, level = [], [obj]
    for _ in range(ndim):
        try:
            lengths = set(map(len, level))
        except TypeError:  # a number, a boolean or null in place of a list
            lengths = set()
        if len(lengths) != 1:
            raise _ParseError(f"{what}: expected {ndim}-deep nested lists of equal lengths")
        shape.append(lengths.pop())
        level = list(itertools.chain.from_iterable(level))
    if not (types := set(map(type, level))) <= {int, float}:
        raise _ParseError(f"{what}: entries must be numbers, got "
                          + ", ".join(sorted(t.__name__ for t in types - {int, float})))
    try:
        arr = np.array(level, dtype=float).reshape(shape)
    except OverflowError as exc:  # an integer literal beyond the float range
        raise _ParseError(f"{what}: {exc}") from None
    if not np.isfinite(arr).all():
        raise _ParseError(f"{what}: entries must be finite numbers")
    return arr


def _complex_from_json(obj, what: str, ndim: int) -> np.ndarray:
    """Complex array of ndim dimensions from nested [re, im] pairs, all finite."""
    arr = _numbers_from_json(obj, what, ndim + 1)
    if arr.shape[-1] != 2:
        raise _ParseError(f"{what}: expected [re, im] pairs, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def _json_list(obj, what: str) -> list:
    if not isinstance(obj, list):
        raise _ParseError(f"{what} must be a list, got {type(obj).__name__}")
    return obj


def _matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(mat, complex)]


@dataclass
class _Problem:
    structure: alg.BlockStructure
    state: states.StateFunctional | None
    sub: alg.SubalgebraBasis | None    # generated algebra; W changes generator to block coordinates
    generators: list[np.ndarray] | None
    unitary: np.ndarray | None
    tol: float
    seed: int
    samples: int


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _ParseError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, a file that is not UTF-8, an integer of more digits than
        # int() converts, or nesting deeper than the recursion limit
        raise _ParseError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise _ParseError(f"{path}: top level must be an object")
    return doc


def _is_number(value) -> bool:
    """A JSON number: an int or a float, but not a bool or a numeric string."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_int(value, what: str) -> int:
    """An int or an integral float such as 1000.0; not a string, a bool, 2.7 or inf."""
    if not _is_number(value) or (isinstance(value, float) and not value.is_integer()):
        raise _ParseError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _resolve_options(doc: dict, args) -> tuple[float, int, int]:
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise _ParseError("options must be an object")
    tol = options.get("tol", Cutoff.TOL) if args.tol is None else args.tol
    if not _is_number(tol):
        raise _ParseError(f"options: tol must be a number, got {tol!r}")
    try:
        tol = float(tol)
    except OverflowError as exc:
        raise _ParseError(f"options: tol must be a number: {exc}") from None
    if not np.isfinite(tol) or tol <= 0:
        raise _ParseError(f"tol must be a positive finite number, got {tol!r}")
    seed = _json_int(options.get("seed", 0), "options: seed") if args.seed is None else args.seed
    samples = getattr(args, "samples", None)
    if samples is None:
        samples = _json_int(options.get("samples", 1000), "options: samples")
    return tol, seed, samples


def _parse_problem(args, structure_only: bool = False) -> _Problem:
    """The problem in args.file; structure_only asks for generators and reads no state."""
    doc = _load_json(args.file)
    tol, seed, samples = _resolve_options(doc, args)

    algebra_form = doc.get("algebra")
    if not isinstance(algebra_form, dict) or len(algebra_form.keys() & {"blocks", "generators"}) != 1:
        raise _ParseError("algebra must contain exactly one of 'blocks' or 'generators'")
    sub = gens = None
    if "blocks" in algebra_form:
        if structure_only:
            raise _ParseError("this command requires the algebra as generators")
        try:
            structure = alg.make_algebra([tuple(_json_int(x, "algebra blocks: a dimension")
                                                for x in b) for b in algebra_form["blocks"]])
        except (TypeError, ValueError) as exc:
            raise _ParseError(f"algebra blocks: {exc}") from None
        if structure.ambient_dim ** 2 * 16 > np.iinfo(np.intp).max:
            raise _ParseError(f"algebra blocks: ambient dimension {structure.ambient_dim} is too "
                              "large for a d x d complex array")
    else:
        gens = [_complex_from_json(g, f"generator {k}", 2)
                for k, g in enumerate(_json_list(algebra_form["generators"], "algebra generators"))]
        sub = alg.generate_subalgebra(gens, tol=tol, seed=seed)
        structure = sub.structure

    def to_blocks(mat: np.ndarray, what: str) -> np.ndarray:
        if sub is None:
            return mat
        if mat.shape != sub.w.shape:
            raise _ParseError(f"{what}: shape {mat.shape} does not match the generators")
        return sub.w.conj().T @ mat @ sub.w

    state = None
    state_form = doc.get("state")
    if not structure_only:
        if not isinstance(state_form, dict) or \
                len(state_form.keys() & {"density", "canonical", "values"}) != 1:
            raise _ParseError(
                "state must contain exactly one of 'density', 'canonical' or 'values'")
        if "density" in state_form:
            rho = _complex_from_json(state_form["density"], "state density", 2)
            state = states.state_from_density(to_blocks(rho, "state density"), structure)
        elif "canonical" in state_form:
            canon = state_form["canonical"]
            if not isinstance(canon, dict) or "p" not in canon or "rhos" not in canon:
                raise _ParseError("canonical state needs 'p' and 'rhos'")
            p = _numbers_from_json(canon["p"], "canonical p", 1)
            rhos = [None if r is None else _complex_from_json(r, "block state", 2)
                    for r in _json_list(canon["rhos"], "canonical rhos")]
            state = states.StateFunctional.from_canonical(structure, p, rhos)
        else:
            vals = _complex_from_json(state_form["values"], "state values", 1)
            if not _json_list(state_form.get("basis", []), "state basis"):
                raise _ParseError("state values need a declared 'basis'")
            basis = [to_blocks(b, f"basis element {k}") for k, b in
                     enumerate(_complex_from_json(state_form["basis"], "state basis", 3))]
            state = states.state_from_values(structure, basis, vals, tol)

    unitary = None
    if "unitary" in doc:
        unitary = _complex_from_json(doc["unitary"], "unitary", 2)
    return _Problem(structure=structure, state=state, sub=sub,
                    generators=gens, unitary=unitary,
                    tol=tol, seed=seed, samples=samples)


def _format_blocks(structure: alg.BlockStructure) -> str:
    """Blocks as ``[(n,m)xk, ...]``, runs of equal adjacent blocks counted."""
    runs = [(block, len(list(group))) for block, group in itertools.groupby(structure.blocks)]
    return "[" + ", ".join(f"({n},{m})" + (f"x{k}" if k > 1 else "") for (n, m), k in runs) + "]"


def _unit(args) -> tuple[float, str]:
    return (_LN2, "bits") if args.bits else (1.0, "nats")


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _cmd_structure(args) -> None:
    """Blocks, dimensions and the residual: the largest relative projection residual
    ``||W* S W - P(W* S W)|| / ||S||`` of the generators S and their adjoints."""
    problem = _parse_problem(args, structure_only=True)
    residual = alg.generator_residual(problem.generators, problem.sub)
    payload = {
        "blocks": [list(b) for b in problem.structure.blocks],
        "ambient_dim": problem.structure.ambient_dim,
        "algebra_dim": problem.structure.algebra_dim,
        "residual": residual,
    }
    lines = [
        f"blocks: {_format_blocks(problem.structure)}",
        f"ambient dimension: {problem.structure.ambient_dim}",
        f"algebra dimension: {problem.structure.algebra_dim}",
        f"residual: {residual:.3e}",
    ]
    if args.show_unitary:
        payload["unitary"] = _matrix_to_json(problem.sub.w)
        lines.append(f"unitary: {payload['unitary']}")
    _emit(args, payload, lines)


def _cmd_entropy(args) -> None:
    problem = _parse_problem(args)
    report = entropy.state_entropy(problem.state, problem.tol)
    scale, unit = _unit(args)
    payload = {
        "state_entropy": report.state_entropy / scale,
        "sector_entropy": report.sector_entropy / scale,
        "mean_block_entropy": report.mean_block_entropy / scale,
        "vn_of_representative": report.vn_of_representative / scale,
        "multiplicity_term": report.multiplicity_term / scale,
        "unit": unit,
    }
    lines = [
        f"state entropy:          {payload['state_entropy']:.9g} {unit}",
        f"sector mixing entropy:  {payload['sector_entropy']:.9g} {unit}",
        f"mean block entropy:     {payload['mean_block_entropy']:.9g} {unit}",
        f"S_VN of representative: {payload['vn_of_representative']:.9g} {unit}",
        f"multiplicity term:      {payload['multiplicity_term']:.9g} {unit}",
    ]
    _emit(args, payload, lines)


def _cmd_oracle(args) -> None:
    problem = _parse_problem(args)
    found, _ = decomp.infimum_oracle(problem.state, samples=problem.samples, seed=problem.seed,
                                     tol=problem.tol)
    closed = entropy.state_entropy(problem.state, problem.tol).state_entropy
    scale, unit = _unit(args)
    payload = {
        "min_entropy_found": found / scale,
        "state_entropy": closed / scale,
        "gap": (found - closed) / scale,
        "samples": problem.samples,
        "unit": unit,
    }
    lines = [
        f"minimum found: {payload['min_entropy_found']:.9g} {unit} ({problem.samples} samples)",
        f"state entropy: {payload['state_entropy']:.9g} {unit}",
        f"gap:           {payload['gap']:.3e} {unit}",
    ]
    _emit(args, payload, lines)


def _cmd_schrodinger(args) -> None:
    problem = _parse_problem(args)
    if problem.unitary is None:
        raise _ParseError("this command needs a 'unitary' entry in the problem file")
    rho = states.representative_density(problem.state)
    dec = decomp.schrodinger_decomposition(rho, problem.unitary)
    weights = dec.weights()
    mixed = decomp.decomposition_entropy(dec)
    vn = entropy.von_neumann(rho)
    scale, unit = _unit(args)
    payload = {
        "weights": [float(w) for w in weights],
        "decomposition_entropy": mixed / scale,
        "vn_entropy": vn / scale,
        "excess": (mixed - vn) / scale,
        "unit": unit,
    }
    lines = [
        f"weights: {np.array2string(weights, precision=9)}",
        f"decomposition entropy: {payload['decomposition_entropy']:.9g} {unit}",
        f"S_VN of the state:     {payload['vn_entropy']:.9g} {unit}",
        f"excess over S_VN:      {payload['excess']:.9g} {unit}",
    ]
    _emit(args, payload, lines)


def _cmd_gns(args) -> None:
    problem = _parse_problem(args)
    g = gns.gns_construct(problem.state, problem.tol)
    irreducible = gns.is_irreducible(g)
    sectors = gns.resolve_sectors(g, seed=problem.seed)
    via_gns = gns.sectors_entropy(sectors)
    closed = entropy.state_entropy(problem.state, problem.tol).state_entropy
    scale, unit = _unit(args)
    payload = {
        "gns_dimension": g.dim,
        "irreducible": bool(irreducible),
        "gns_entropy": via_gns / scale,
        "state_entropy": closed / scale,
        "gap": (via_gns - closed) / scale,
        "unit": unit,
    }
    lines = [
        f"GNS dimension: {g.dim}",
        f"irreducible:   {'yes' if irreducible else 'no'}",
        f"GNS entropy:   {payload['gns_entropy']:.9g} {unit}",
        f"state entropy: {payload['state_entropy']:.9g} {unit}",
        f"gap:           {payload['gap']:.3e} {unit}",
    ]
    _emit(args, payload, lines)


def _cmd_zeno(args) -> None:
    prob = thermo.zeno_success_probability(args.k)
    payload = {"k": args.k, "success_probability": prob}
    _emit(args, payload, [f"success probability after {args.k} steps: {prob:.9g}"])


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="cstar-entropy",
        description="entropy of states over finite-dimensional operator algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_samples: bool = False) -> None:
        p.add_argument("--tol", type=float, default=None, help="numerical tolerance (default 1e-9)")
        p.add_argument("--seed", type=int, default=None, help="random seed (default 0)")
        if with_samples:
            p.add_argument("--samples", type=int, default=None,
                           help="number of random samples (default 1000)")
        p.add_argument("--bits", action="store_true", help="report entropies in bits")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("structure", help="discover the block structure of a generated algebra")
    p.add_argument("file")
    p.add_argument("--show-unitary", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_structure)

    p = sub.add_parser("entropy", help="entropy report for a state")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("oracle", help="sampled decomposition-entropy minimum vs the closed form")
    p.add_argument("file")
    common(p, with_samples=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("schrodinger", help="decomposition induced by a unitary")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_schrodinger)

    p = sub.add_parser("gns", help="GNS representation and the entropy through it")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_gns)

    p = sub.add_parser("zeno", help="success probability of the k-step rotation")
    p.add_argument("k", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_zeno, bits=False)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
    except _ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotAStateError as exc:
        print(f"not a state: {exc}", file=sys.stderr)
        return 4
    except (DecompositionError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("numerical failure: out of memory", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
