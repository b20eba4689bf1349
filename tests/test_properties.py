"""Randomized property tests of the closed-form representative and entropy.

Block structures have at most 4 blocks with n <= 5 and m <= 3 (3 blocks with
n <= 3 and m <= 2 where the algebra is rediscovered from generators or
through GNS).  States mix random block densities of every rank, and sectors
may carry zero weight.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import cstar_entropy as ce
from cstar_entropy.states import riesz_representative

from helpers import haar_unitary, rng_stream

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
    closed = ce.representative_density(om, structure).matrix
    riesz = riesz_representative(ce.embedded_standard_basis(structure), om.values())
    assert np.max(np.abs(closed - riesz)) <= 1e-12


@PROPERTY_SETTINGS
@given(structures_and_states())
def test_multiplicity_relation(case):
    structure, om, p = case
    report = ce.state_entropy(om, structure)
    vn = ce.von_neumann(ce.representative_density(om, structure))
    mult = sum(w * np.log(m) for w, (_, m) in zip(p, structure.blocks))
    assert abs(report.state_entropy - (vn - mult)) <= 1e-12
    assert abs(report.vn_of_representative - vn) <= 1e-12


@PROPERTY_SETTINGS
@given(structures_and_states())
def test_entropy_bounds(case):
    structure, om, _ = case
    s = ce.state_entropy(om, structure).state_entropy
    assert -1e-12 <= s <= np.log(sum(n for n, _ in structure.blocks)) + 1e-12


@PROPERTY_SETTINGS
@given(structures_and_states(), st.data())
def test_entropy_invariant_under_block_permutation(case, data):
    structure, om, _ = case
    perm = data.draw(st.permutations(range(structure.num_blocks)))
    permuted = ce.make_algebra([structure.blocks[i] for i in perm])
    om_perm = ce.StateFunctional(permuted, tuple(om.block_values[i] for i in perm))
    s = ce.state_entropy(om, structure).state_entropy
    assert abs(ce.state_entropy(om_perm, permuted).state_entropy - s) <= 1e-10


@DISCOVERY_SETTINGS
@given(structures_and_states(max_n=3, max_m=2, max_blocks=3), st.integers(0, 2**32 - 1))
def test_entropy_invariant_under_conjugated_generators(case, seed):
    structure, om, _ = case
    rng = rng_stream(seed)
    v = haar_unitary(structure.ambient_dim, rng)
    gens = [v @ ce.embed(ce.random_element(structure, rng)) @ v.conj().T for _ in range(2)]
    found, w = ce.block_decompose(ce.generate_subalgebra(gens))
    assert sorted(found.blocks) == sorted(structure.blocks)
    rho = v @ ce.representative_density(om, structure).matrix @ v.conj().T
    rediscovered = ce.state_from_density(w.conj().T @ rho @ w, found)
    s = ce.state_entropy(om, structure).state_entropy
    assert abs(ce.state_entropy(rediscovered, found).state_entropy - s) <= 1e-10


@DISCOVERY_SETTINGS
@given(structures_and_states(max_n=3, max_m=2, max_blocks=3))
def test_gns_route_matches_closed_form(case):
    structure, om, _ = case
    s = ce.state_entropy(om, structure).state_entropy
    assert abs(ce.gns_state_entropy(om, structure).state_entropy - s) <= 1e-10
