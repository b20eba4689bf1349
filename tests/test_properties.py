"""Randomized property tests of the closed-form representative and entropy.

Block structures have at most 4 blocks with n <= 5 and m <= 3 (3 blocks with
n <= 3 and m <= 2 where the algebra is rediscovered from generators or
through GNS).  States mix random block densities of every rank, and sectors
may carry zero weight.  The CLI fuzz test feeds generated problem files,
well-formed or not, through every problem command.
"""

import contextlib
import io
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cstar_entropy as ce
from cstar_entropy._linalg import Cutoff
from cstar_entropy.cli import main

from helpers import embedded_standard_basis, random_isometry, riesz_representative, rng_stream

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)
DISCOVERY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)


@st.composite
def structures_and_states(draw, max_n=5, max_m=3, max_blocks=4):
    blocks = draw(st.lists(st.tuples(st.integers(1, max_n), st.integers(1, max_m)),
                           min_size=1, max_size=max_blocks))
    structure = ce.make_algebra(blocks)
    ranks = [draw(st.integers(1, n)) for n, _ in blocks]
    active = draw(st.lists(st.booleans(), min_size=len(blocks), max_size=len(blocks)))
    if not any(active):
        active[draw(st.integers(0, len(blocks) - 1))] = True
    rng = rng_stream(draw(st.integers(0, 2**32 - 1)))
    p = rng.dirichlet(np.ones(len(blocks))) * np.array(active)
    p = p / p.sum()
    rhos = []
    for (n, _), r in zip(blocks, ranks):
        a = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        rho = a @ a.conj().T
        rhos.append(rho / np.trace(rho).real)
    return structure, ce.StateFunctional.from_canonical(structure, p, rhos), p


@PROPERTY_SETTINGS
@given(structures_and_states())
def test_closed_form_matches_riesz_solve(case):
    structure, om, _ = case
    closed = ce.representative_density(om).matrix
    riesz = riesz_representative(embedded_standard_basis(structure), om.values())
    assert np.max(np.abs(closed - riesz)) <= 1e-12


@PROPERTY_SETTINGS
@given(structures_and_states())
def test_multiplicity_relation(case):
    structure, om, p = case
    report = ce.state_entropy(om)
    vn = ce.von_neumann(ce.representative_density(om))
    mult = sum(w * np.log(m) for w, (_, m) in zip(p, structure.blocks))
    assert abs(report.state_entropy - (vn - mult)) <= 1e-12
    assert abs(report.vn_of_representative - vn) <= 1e-12


@PROPERTY_SETTINGS
@given(structures_and_states())
def test_entropy_bounds(case):
    structure, om, _ = case
    s = ce.state_entropy(om).state_entropy
    assert -1e-12 <= s <= np.log(sum(n for n, _ in structure.blocks)) + 1e-12


@PROPERTY_SETTINGS
@given(structures_and_states(), st.sampled_from([None, 1e-9, 1e-3, 0.2]))
def test_closed_form_entropy_is_the_reports_value(case, tol):
    _, om, _ = case
    assert ce.closed_form_entropy(om, tol) == ce.state_entropy(om, tol).state_entropy
    # a tol at the largest sector weight keeps no sector, and both say so alike
    largest = max(float(w.sum()) for w, _ in om.spectra)
    errors = []
    for fn in (ce.closed_form_entropy, ce.state_entropy):
        with pytest.raises(ce.ValidationError) as exc:
            fn(om, largest)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]


@PROPERTY_SETTINGS
@given(structures_and_states(), st.data())
def test_entropy_invariant_under_block_permutation(case, data):
    structure, om, _ = case
    perm = data.draw(st.permutations(range(structure.num_blocks)))
    permuted = ce.make_algebra([structure.blocks[i] for i in perm])
    om_perm = ce.StateFunctional(permuted, tuple(om.block_values[i] for i in perm))
    s = ce.state_entropy(om).state_entropy
    assert abs(ce.state_entropy(om_perm).state_entropy - s) <= 1e-10


@DISCOVERY_SETTINGS
@given(structures_and_states(max_n=3, max_m=2, max_blocks=3), st.integers(0, 2**32 - 1))
def test_entropy_invariant_under_conjugated_generators(case, seed):
    structure, om, _ = case
    rng = rng_stream(seed)
    v = random_isometry(structure.ambient_dim, structure.ambient_dim, rng)
    gens = [v @ ce.embed(ce.random_element(structure, rng)) @ v.conj().T for _ in range(2)]
    found = ce.block_decompose(ce.generate_subalgebra(gens).basis)
    assert sorted(found.structure.blocks) == sorted(structure.blocks)
    rho = v @ ce.representative_density(om).matrix @ v.conj().T
    rediscovered = ce.state_from_density(found.w.conj().T @ rho @ found.w, found.structure)
    s = ce.state_entropy(om).state_entropy
    assert abs(ce.state_entropy(rediscovered).state_entropy - s) <= 1e-10


@DISCOVERY_SETTINGS
@given(structures_and_states(max_n=3, max_m=2, max_blocks=3), st.integers(0, 2**32 - 1),
       st.integers(0, 2**32 - 1))
def test_discovered_blocks_do_not_depend_on_the_seed(case, rotation_seed, seed):
    structure, _, _ = case
    rng = rng_stream(rotation_seed)
    v = random_isometry(structure.ambient_dim, structure.ambient_dim, rng)
    gens = [v @ ce.embed(ce.random_element(structure, rng)) @ v.conj().T for _ in range(2)]
    found = ce.block_decompose(ce.generate_subalgebra(gens).basis, seed=seed)
    assert found.structure.blocks == tuple(sorted(structure.blocks, key=lambda b: (-b[0], -b[1])))


@DISCOVERY_SETTINGS
@given(structures_and_states(max_n=3, max_m=2, max_blocks=3))
def test_gns_route_matches_closed_form(case):
    structure, om, _ = case
    s = ce.state_entropy(om).state_entropy
    assert abs(ce.gns_state_entropy(om) - s) <= 1e-10


@DISCOVERY_SETTINGS
@given(structures_and_states(max_n=3, max_m=2, max_blocks=3))
def test_gns_structure_is_weighted_blocks_with_rank_multiplicities(case):
    # block i acts on C^{n_i} (x) C^{rank rho_i} in the GNS space, and not at all if p_i = 0
    structure, om, p = case
    g = ce.gns_construct(om)
    sectors = ce.resolve_sectors(g)
    expected = sorted((n, np.linalg.matrix_rank(v)) for (n, _), v, w in
                      zip(structure.blocks, om.block_values, p) if w > 0)
    assert sorted(sectors.structure.blocks) == expected
    assert ce.is_irreducible(g) == ce.is_pure(om)
    s = ce.state_entropy(om).state_entropy
    assert abs(ce.sectors_entropy(sectors) - s) <= 1e-10


@DISCOVERY_SETTINGS
@given(structures_and_states(), st.integers(0, 2**32 - 1))
def test_oracle_never_goes_below_closed_form(case, seed):
    structure, om, _ = case
    s = ce.state_entropy(om).state_entropy
    report = ce.infimum_oracle(om, samples=200, seed=seed)
    # sample 0 is the minimal decomposition, so the minimum also never exceeds S
    assert s - 1e-10 <= report.min_entropy_found <= s + 1e-10
    dec = ce.oracle_decomposition(om, report.best_index, seed=seed)
    assert np.allclose(dec.state().values(), om.values(), atol=1e-9)


# ---- CLI fuzz -------------------------------------------------------------

_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 5), st.text(max_size=2),
                  st.lists(st.integers(0, 2), max_size=2),
                  st.dictionaries(st.text(max_size=1), st.integers(), max_size=1))
_BAD_ENTRY = st.sampled_from([float("nan"), float("inf"), -1.0, 2.0, "0.5", True, False])
_COMMANDS = ["entropy", "oracle", "gns", "structure", "schrodinger"]
_MUTATIONS = [
    "state_shape", "other_shape", "matrix_entry", "algebra_junk", "blocks_junk", "block_dim",
    "generator_junk", "state_junk", "p_junk", "drop_basis", "dependent_basis", "outside_basis",
    "unitary_junk", "option_junk", "missing_block_state", "none"]
_FORM_OF = {"p_junk": "canonical", "missing_block_state": "canonical", "drop_basis": "values",
            "dependent_basis": "values", "outside_basis": "values"}


def _pairs(mat):
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(mat, complex)]


def _density(rng, n, rank=None):
    a = rng.standard_normal((n, rank or n)) + 1j * rng.standard_normal((n, rank or n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@st.composite
def problem_files(draw, mutation):
    """A well-formed problem document over a small block structure, then the given mutation.

    The document is valid before the mutation, so unmutated files reach every
    command's numerics; a mutation breaks exactly one field (junk in place of
    a value, a non-finite or out-of-range entry, a mis-shaped matrix, a
    declared basis with an element missing, dependent or outside the algebra).
    """
    blocks = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 2)), min_size=1,
                           max_size=3))
    structure = ce.make_algebra(blocks)
    d = structure.ambient_dim
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if mutation == "block_dim" or draw(st.booleans()):
        algebra = {"blocks": [list(b) for b in blocks]}
    else:
        algebra = {"generators": [_pairs(ce.embed(ce.random_element(structure, rng)))
                                  for _ in range(draw(st.integers(1, 2)))]}
    rho = _density(rng, d, draw(st.integers(1, d)))
    # a mutation of the weights or of the declared basis needs the state form that has them
    form = _FORM_OF.get(mutation) or draw(st.sampled_from(["density", "canonical", "values"]))
    units = embedded_standard_basis(structure)
    if form == "density":
        state = {"density": _pairs(rho)}
    elif form == "canonical":
        active = draw(st.lists(st.booleans(), min_size=len(blocks), max_size=len(blocks)))
        p = rng.dirichlet(np.ones(len(blocks))) * np.array(active)
        p = p / p.sum() if p.sum() > 0 else np.eye(len(blocks))[0]
        state = {"canonical": {"p": [float(w) for w in p],
                               "rhos": [_pairs(_density(rng, n)) if w > 0 else None
                                        for w, (n, _) in zip(p, blocks)]}}
    else:
        mix = rng.standard_normal((len(units), len(units)))
        basis = np.tensordot(mix, units, axes=1)
        state = {"values": [[float(np.trace(rho @ b).real), float(np.trace(rho @ b).imag)]
                            for b in basis], "basis": [_pairs(b) for b in basis]}
    doc = {"algebra": algebra, "state": state,
           "unitary": _pairs(np.linalg.qr(rng.standard_normal((d, d)))[0]),
           "options": {"seed": draw(st.integers(0, 9)), "samples": draw(st.integers(1, 40))}}

    state_matrices = ([state["density"]] if "density" in state else []) + state.get("basis", []) \
        + [r for r in state.get("canonical", {}).get("rhos", []) if r is not None]
    matrices = state_matrices + algebra.get("generators", []) + [doc["unitary"]]
    if mutation == "algebra_junk":
        doc["algebra"] = draw(st.one_of(_JUNK, st.just({"blocks": [[1, 1]], "generators": []})))
    elif mutation == "blocks_junk":
        doc["algebra"] = {"blocks": draw(st.lists(
            st.lists(st.one_of(st.integers(-1, 3), _JUNK), max_size=3), max_size=3))}
    elif mutation == "block_dim":
        # a fraction, a boolean, a numeric string, or an integer too large for a d x d array
        block = algebra["blocks"][draw(st.integers(0, len(blocks) - 1))]
        block[draw(st.integers(0, 1))] = draw(
            st.sampled_from([0.5, 2.7, True, False, "2", 10**20]))
    elif mutation == "generator_junk":
        doc["algebra"] = {"generators": draw(st.one_of(_JUNK, st.lists(_JUNK, max_size=2)))}
    elif mutation == "state_junk":
        doc["state"] = draw(st.one_of(_JUNK, st.just({"values": [[1.0, 0.0]]})))
    elif mutation == "matrix_entry":
        mat = matrices[draw(st.integers(0, len(matrices) - 1))]
        row = mat[draw(st.integers(0, len(mat) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = [draw(_BAD_ENTRY), draw(_BAD_ENTRY)]
    elif mutation in ("state_shape", "other_shape"):
        pool = state_matrices if mutation == "state_shape" and state_matrices else matrices
        size = draw(st.integers(0, 4))
        pool[draw(st.integers(0, len(pool) - 1))][:] = _pairs(
            np.ones((size, draw(st.sampled_from([size, size + 1])))))
    elif mutation == "p_junk":
        state["canonical"]["p"] = draw(st.one_of(_JUNK, st.lists(st.floats(-1.0, 2.0),
                                                                 max_size=4)))
    elif mutation == "missing_block_state":
        canon = state["canonical"]
        weighted = [k for k, w in enumerate(canon["p"]) if w > Cutoff.WEIGHT_FLOOR]
        canon["rhos"][draw(st.sampled_from(weighted))] = None
    elif mutation in ("drop_basis", "dependent_basis", "outside_basis"):
        k = draw(st.integers(0, len(state["basis"]) - 1))
        if mutation == "drop_basis":
            del state["basis"][k], state["values"][k]
        elif mutation == "dependent_basis":
            state["basis"][k] = state["basis"][-1 - k]
        else:
            state["basis"][k] = _pairs(rng.standard_normal((d, d)))
    elif mutation == "unitary_junk":
        doc["unitary"] = draw(st.one_of(_JUNK, st.just(_pairs(np.ones((d, d))))))
    elif mutation == "option_junk":
        key = draw(st.sampled_from(["tol", "seed", "samples"]))
        doc["options"][key] = draw(st.one_of(
            st.sampled_from(["12", " 7 ", "1e-9"]), _JUNK,
            st.sampled_from([0.0, -1.0, 1e-300, 1e-3, 0.5, 100.0, float("nan"), float("inf")])))
    return doc


def _holds_str_or_bool(obj) -> bool:
    """Whether a JSON value holds a string or a boolean at any depth."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return any(map(_holds_str_or_bool, obj))
    return isinstance(obj, (str, bool))


# One run per mutation, so every mutation is reached: 16 x 15 = 240 examples.
@pytest.mark.parametrize("mutation", _MUTATIONS)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_fuzz_exit_codes(mutation, data):
    doc = data.draw(problem_files(mutation))
    command = data.draw(st.sampled_from(_COMMANDS))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, path, "--json"])
    assert code in (0, 2, 3, 4)
    if any(isinstance(v, str) for v in doc["options"].values()) or mutation == "block_dim":
        assert code == 2
    # a sector of positive weight without a block state is an input error wherever the state is read
    if mutation == "missing_block_state" and command != "structure":
        assert code == 2
    # a string or boolean matrix entry is an input error in every matrix the command reads
    if mutation == "matrix_entry" and _holds_str_or_bool(
            doc["algebra"] if command == "structure" else doc):
        assert code == 2
    if code == 0:
        json.loads(out.getvalue())
        # an entropy of zero, and a gap of zero between two of them, print as 0.0
        assert not re.search(r"-0\.0(?!\d)", out.getvalue()), out.getvalue()
    else:
        lines = err.getvalue().strip().splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith(("error:", "invalid input:", "numerical failure:",
                                    "not a state:"))
        # numbers print as Python numbers, not numpy-2 scalar reprs
        assert not re.search(r"np\.(float64|complex128|int64)\(", lines[0]), lines[0]
