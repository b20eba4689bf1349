"""Batch command-line front end.

Reads problem files describing an algebra (explicit blocks or generator
matrices) plus a state (ambient density matrix, canonical form, or values on
a declared basis), dispatches to the library, and prints reports either as
text or as one JSON document.  Complex matrices are serialized as nested
arrays of [re, im] pairs.

A command on a file runs four stages in order: ``_decode`` reads and checks
the whole file with no numerical work, so every input error in it exits 2
first; ``_build`` discovers a generated algebra and constructs the state;
the ``_cmd_*`` function computes one ordered list of rows (key, label,
value, text); ``_render`` writes the rows as text lines or as one JSON object.

Exit codes: 0 ok, 2 parse or input validation error, 3 numerical failure,
4 invalid state.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from collections.abc import Callable
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
    """A problem file: decoded and checked by _decode, then sub and state filled in by _build."""
    tol: float
    seed: int
    samples: int
    structure: alg.BlockStructure | None   # the algebra as blocks; from sub when generated
    generators: list[np.ndarray] | None
    make_state: Callable | None           # (structure, to_blocks) -> StateFunctional
    unitary: np.ndarray | None
    sub: alg.SubalgebraBasis | None = None  # generated; W takes generator to block coordinates
    state: states.StateFunctional | None = None


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
    tol = float(_numbers_from_json(tol, "tol", 0))
    if tol <= 0:
        raise _ParseError(f"tol must be a positive finite number, got {tol!r}")
    seed = _json_int(options.get("seed", 0), "options: seed") if args.seed is None else args.seed
    samples = getattr(args, "samples", None)
    if samples is None:
        samples = _json_int(options.get("samples", 1000), "options: samples")
    return tol, seed, samples


def _decode(args) -> _Problem:
    """The problem in args.file, read and checked whole with no numerical work.

    ``structure`` takes the algebra as generators and reads no state;
    ``schrodinger`` needs a unitary.
    """
    doc = _load_json(args.file)
    tol, seed, samples = _resolve_options(doc, args)

    algebra_form = doc.get("algebra")
    if not isinstance(algebra_form, dict) or len(algebra_form.keys() & {"blocks", "generators"}) != 1:
        raise _ParseError("algebra must contain exactly one of 'blocks' or 'generators'")
    structure = gens = None
    if "blocks" in algebra_form:
        if args.command == "structure":
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

    def ambient(mat: np.ndarray, what: str) -> np.ndarray:
        if gens and mat.shape != gens[0].shape:
            raise _ParseError(f"{what}: shape {mat.shape} does not match the generators")
        return mat

    make_state = None
    state_form = doc.get("state")
    if args.command != "structure":
        if not isinstance(state_form, dict) or \
                len(state_form.keys() & {"density", "canonical", "values"}) != 1:
            raise _ParseError(
                "state must contain exactly one of 'density', 'canonical' or 'values'")
        if "density" in state_form:
            rho = ambient(_complex_from_json(state_form["density"], "state density", 2),
                          "state density")
            make_state = lambda st, to_blocks: states.state_from_density(to_blocks(rho), st)
        elif "canonical" in state_form:
            canon = state_form["canonical"]
            if not isinstance(canon, dict) or "p" not in canon or "rhos" not in canon:
                raise _ParseError("canonical state needs 'p' and 'rhos'")
            p = _numbers_from_json(canon["p"], "canonical p", 1)
            rhos = [None if r is None else _complex_from_json(r, "block state", 2)
                    for r in _json_list(canon["rhos"], "canonical rhos")]
            make_state = lambda st, _: states.StateFunctional.from_canonical(st, p, rhos)
        else:
            vals = _complex_from_json(state_form["values"], "state values", 1)
            if not _json_list(state_form.get("basis", []), "state basis"):
                raise _ParseError("state values need a declared 'basis'")
            basis = [ambient(b, f"basis element {k}") for k, b in
                     enumerate(_complex_from_json(state_form["basis"], "state basis", 3))]
            make_state = lambda st, to_blocks: states.state_from_values(
                st, [to_blocks(b) for b in basis], vals, tol)

    unitary = _complex_from_json(doc["unitary"], "unitary", 2) if "unitary" in doc else None
    if unitary is None and args.command == "schrodinger":
        raise _ParseError("this command needs a 'unitary' entry in the problem file")
    return _Problem(tol=tol, seed=seed, samples=samples, structure=structure, generators=gens,
                    make_state=make_state, unitary=unitary)


def _build(problem: _Problem) -> _Problem:
    """Discovery on the generators, then the state, its matrices taken to block coordinates."""
    if problem.generators is not None:
        problem.sub = alg.generate_subalgebra(problem.generators, tol=problem.tol,
                                              seed=problem.seed)
        problem.structure = problem.sub.structure
    if problem.make_state is not None:
        w = None if problem.sub is None else problem.sub.w
        problem.state = problem.make_state(
            problem.structure, lambda mat: mat if w is None else w.conj().T @ mat @ w)
    return problem


def _format_blocks(structure: alg.BlockStructure) -> str:
    """Blocks as ``[(n,m)xk, ...]``, runs of equal adjacent blocks counted."""
    runs = [(block, len(list(group))) for block, group in itertools.groupby(structure.blocks)]
    return "[" + ", ".join(f"({n},{m})" + (f"x{k}" if k > 1 else "") for (n, m), k in runs) + "]"


_G, _E = "{:.9g} {}", "{:.3e} {}"   # an entropy and a gap, each followed by the unit


def _in_unit(args, *rows) -> list[tuple]:
    """Entropy rows (key, label, nats, template) in the unit --bits picks, then the unit row."""
    scale, unit = (_LN2, "bits") if args.bits else (1.0, "nats")
    return [(key, label, nats / scale, template.format(nats / scale, unit))
            for key, label, nats, template in rows] + [("unit", None, unit, None)]


def _render(args, rows: list[tuple]) -> None:
    """Rows (key, label, value, text) as one JSON object of key: value, or as the text lines
    label + text of the rows that have a label."""
    if args.json:
        print(json.dumps({key: value for key, _, value, _ in rows}, sort_keys=True))
    else:
        print("\n".join(label + text for _, label, _, text in rows if label is not None))


def _cmd_structure(args, problem: _Problem) -> list[tuple]:
    """Blocks, dimensions and the residual: the largest relative projection residual
    ``||W* S W - P(W* S W)|| / ||S||`` of the generators S, which an adjoint shares."""
    st = problem.structure
    residual = alg.generator_residual(problem.generators, problem.sub)
    rows = [("blocks", "blocks: ", [list(b) for b in st.blocks], _format_blocks(st)),
            ("ambient_dim", "ambient dimension: ", st.ambient_dim, str(st.ambient_dim)),
            ("algebra_dim", "algebra dimension: ", st.algebra_dim, str(st.algebra_dim)),
            ("residual", "residual: ", residual, f"{residual:.3e}")]
    if args.show_unitary:
        unitary = _matrix_to_json(problem.sub.w)
        rows.append(("unitary", "unitary: ", unitary, str(unitary)))
    return rows


def _cmd_entropy(args, problem: _Problem) -> list[tuple]:
    report = entropy.state_entropy(problem.state, problem.tol)
    return _in_unit(
        args,
        ("state_entropy", "state entropy:          ", report.state_entropy, _G),
        ("sector_entropy", "sector mixing entropy:  ", report.sector_entropy, _G),
        ("mean_block_entropy", "mean block entropy:     ", report.mean_block_entropy, _G),
        ("vn_of_representative", "S_VN of representative: ", report.vn_of_representative, _G),
        ("multiplicity_term", "multiplicity term:      ", report.multiplicity_term, _G))


def _cmd_oracle(args, problem: _Problem) -> list[tuple]:
    report = decomp.infimum_oracle(problem.state, samples=problem.samples, seed=problem.seed,
                                   tol=problem.tol)
    found, closed = report.min_entropy_found, report.state_entropy
    return [("samples", None, problem.samples, None), *_in_unit(
        args,
        ("min_entropy_found", "minimum found: ", found, _G + f" ({problem.samples} samples)"),
        ("state_entropy", "state entropy: ", closed, _G),
        ("gap", "gap:           ", found - closed, _E))]


def _cmd_schrodinger(args, problem: _Problem) -> list[tuple]:
    rho = states.representative_density(problem.state)
    dec = decomp.schrodinger_decomposition(rho, problem.unitary)
    weights = dec.weights()
    mixed = decomp.decomposition_entropy(dec)
    vn = entropy.von_neumann(rho)
    return [("weights", "weights: ", [float(w) for w in weights],
             np.array2string(weights, precision=9)), *_in_unit(
        args,
        ("decomposition_entropy", "decomposition entropy: ", mixed, _G),
        ("vn_entropy", "S_VN of the state:     ", vn, _G),
        ("excess", "excess over S_VN:      ", mixed - vn, _G))]


def _cmd_gns(args, problem: _Problem) -> list[tuple]:
    g = gns.gns_construct(problem.state, problem.tol)
    irreducible = gns.is_irreducible(g)
    via_gns = gns.sectors_entropy(gns.resolve_sectors(g))
    closed = entropy.closed_form_entropy(problem.state, problem.tol)
    return [("gns_dimension", "GNS dimension: ", g.dim, str(g.dim)),
            ("irreducible", "irreducible:   ", bool(irreducible), "yes" if irreducible else "no"),
            *_in_unit(args,
                      ("gns_entropy", "GNS entropy:   ", via_gns, _G),
                      ("state_entropy", "state entropy: ", closed, _G),
                      ("gap", "gap:           ", via_gns - closed, _E))]


def _cmd_zeno(args, _) -> list[tuple]:
    prob = thermo.zeno_success_probability(args.k)
    return [("k", None, args.k, None),
            ("success_probability", f"success probability after {args.k} steps: ", prob,
             f"{prob:.9g}")]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="cstar-entropy",
        description="entropy of states over finite-dimensional operator algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def file_command(name: str, func, text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=text)
        p.add_argument("file")
        p.add_argument("--tol", type=float, default=None, help="numerical tolerance (default 1e-9)")
        p.add_argument("--seed", type=int, default=None, help="random seed (default 0)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)
        return p

    file_command("structure", _cmd_structure,
                 "discover the block structure of a generated algebra").add_argument(
        "--show-unitary", action="store_true")
    for name, func, text in (
            ("entropy", _cmd_entropy, "entropy report for a state"),
            ("oracle", _cmd_oracle, "sampled decomposition-entropy minimum vs the closed form"),
            ("schrodinger", _cmd_schrodinger, "decomposition induced by a unitary"),
            ("gns", _cmd_gns, "GNS representation and the entropy through it")):
        file_command(name, func, text).add_argument("--bits", action="store_true",
                                                    help="report entropies in bits")
    sub.choices["oracle"].add_argument("--samples", type=int, default=None,
                                       help="number of random samples (default 1000)")

    p = sub.add_parser("zeno", help="success probability of the k-step rotation")
    p.add_argument("k", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_zeno)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        rows = args.func(args, _build(_decode(args)) if "file" in args else None)
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
    _render(args, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
