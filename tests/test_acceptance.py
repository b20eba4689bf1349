"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything runs at desk scale (ambient dimension <= 12) with fixed seeds;
tolerances are stated inline with each check.
"""

from contextlib import contextmanager

import numpy as np
import pytest

import cstar_entropy as ce

from helpers import (
    convex_combine,
    embedded_standard_basis,
    random_ambient_density,
    random_isometry,
    random_pure_state,
    random_state,
    random_structure,
    rng_stream,
    conjugated_algebra_generators,
    standard_basis,
)


@contextmanager
def _verdict(capsys, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"acceptance {label}: FAIL")
        raise
    with capsys.disabled():
        print(f"acceptance {label}: PASS")


def test_criterion_1_oracle_never_beats_closed_form(capsys):
    with _verdict(capsys, "1 (infimum oracle vs closed form)"):
        rng = rng_stream(1001)
        checked = 0
        for trial in range(10):
            st = random_structure(rng, max_ambient=8)
            for k in range(5):
                om = random_state(rng, st)
                s = ce.state_entropy(om).state_entropy
                report = ce.infimum_oracle(om, samples=10_000, seed=100 * trial + k)
                found = report.min_entropy_found
                assert found >= s - 1e-9, f"oracle beat the closed form by {s - found:.2e}"
                assert found <= s + 1e-9, "sample 0 did not attain the closed form"
                dec = ce.oracle_decomposition(om, report.best_index, seed=100 * trial + k)
                assert np.allclose(dec.density(),
                                   ce.representative_density(om).matrix, atol=1e-9)
                checked += 1
        assert checked >= 50


def test_criterion_2_multiplicity_relation(capsys):
    with _verdict(capsys, "2 (entropy vs von Neumann entropy)"):
        rng = rng_stream(1002)
        for _ in range(20):
            st = random_structure(rng, multiplicities=False)
            rep = ce.state_entropy(random_state(rng, st))
            assert abs(rep.state_entropy - rep.vn_of_representative) <= 1e-9
        for _ in range(20):
            st = random_structure(rng, multiplicities=True)
            rep = ce.state_entropy(random_state(rng, st))
            assert abs(rep.vn_of_representative - rep.state_entropy
                       - rep.multiplicity_term) <= 1e-9


def test_criterion_3_schrodinger_suite(capsys):
    with _verdict(capsys, "3 (mixing unitaries: reconstruction, bound, majorization)"):
        rng = rng_stream(1003)
        for _ in range(1000):
            d = int(rng.integers(2, 7))
            rho = random_ambient_density(rng, d)
            lam = np.clip(np.linalg.eigvalsh(rho), 0.0, None)[::-1]
            lam = lam / lam.sum()
            if lam[-1] < 1e-9:  # keep the weight/B-matrix comparison exact
                continue
            u = random_isometry(d, d, rng)
            dec = ce.schrodinger_decomposition(rho, u)
            assert np.linalg.norm(dec.density() - rho) <= 1e-9
            h = ce.decomposition_entropy(dec)
            vn = ce.von_neumann(rho)
            assert h >= vn - 1e-9
            b = ce.doubly_stochastic_from_unitary(u)
            assert np.max(np.abs(b.sum(axis=0) - 1.0)) <= 1e-10
            assert np.max(np.abs(b.sum(axis=1) - 1.0)) <= 1e-10
            assert np.max(np.abs(dec.weights() - b @ lam)) <= 1e-10
            assert ce.majorizes(lam, dec.weights()).relation in ("majorizes", "equal")


def test_criterion_4_concavity_and_purity(capsys):
    with _verdict(capsys, "4 (concavity; zero entropy exactly for pure states)"):
        rng = rng_stream(1004)
        st = ce.make_algebra([(2, 1), (2, 2)])
        lambdas = np.linspace(0.1, 0.9, 9)
        for _ in range(1000):
            om_a, om_b = random_state(rng, st), random_state(rng, st)
            s_a = ce.state_entropy(om_a).state_entropy
            s_b = ce.state_entropy(om_b).state_entropy
            lam = float(rng.choice(lambdas))
            mix = convex_combine([om_a, om_b], [lam, 1.0 - lam])
            s_mix = ce.state_entropy(mix).state_entropy
            assert s_mix >= lam * s_a + (1.0 - lam) * s_b - 1e-9
        for trial in range(50):
            st2 = random_structure(rng)
            pure = random_pure_state(rng, st2)
            assert ce.state_entropy(pure).state_entropy <= 1e-9
            # a mixture of two sectors with weights bounded away from 0 and 1
            if st2.num_blocks >= 2:
                w = float(rng.uniform(0.2, 0.8))
                p = np.zeros(st2.num_blocks)
                p[0], p[1] = w, 1.0 - w
                rhos = [None] * st2.num_blocks
                for i in (0, 1):
                    v = rng.standard_normal(st2.blocks[i][0]) * (1.0 + 0j)
                    v /= np.linalg.norm(v)
                    rhos[i] = np.outer(v, v.conj())
                om = ce.StateFunctional.from_canonical(st2, p, rhos)
                assert ce.state_entropy(om).state_entropy > 0.01


def test_criterion_5_gns_suite(capsys):
    with _verdict(capsys, "5 (GNS: reproduction, irreducibility, entropy equality)"):
        rng = rng_stream(1005)
        for trial in range(100):
            st = random_structure(rng, max_ambient=8)
            pure = bool(trial % 2)
            om = random_pure_state(rng, st) if pure else random_state(rng, st)
            g = ce.gns_construct(om)
            elements = [ce.random_element(st, rng) for _ in range(10)]
            for a in elements:
                coeffs = np.concatenate([part.reshape(-1) for part in a.parts])
                lhs = g.cyclic.conj() @ (g.represent(coeffs) @ g.cyclic)
                assert abs(lhs - om.expect(a)) <= 1e-9
            assert ce.is_irreducible(g) == ce.is_pure(om)
            via_gns = ce.gns_state_entropy(om)
            closed = ce.state_entropy(om).state_entropy
            assert abs(via_gns - closed) <= 1e-9


def test_criterion_6_structure_discovery(capsys):
    with _verdict(capsys, "6 (block-structure discovery roundtrip)"):
        rng = rng_stream(1006)
        for trial in range(100):
            st = random_structure(rng, max_ambient=12)
            sub = ce.generate_subalgebra(conjugated_algebra_generators(rng, st))
            blocks = ce.block_decompose(sub.basis, seed=trial).structure
            assert sorted(blocks.blocks) == sorted(st.blocks)
            assert blocks.algebra_dim == sub.dim
            assert blocks.ambient_dim == st.ambient_dim
            assert sum(n * n for n, _ in blocks.blocks) == sub.dim
            assert sum(n * m for n, m in blocks.blocks) == sub.ambient_dim


def test_criterion_7_representative_uniqueness(capsys):
    with _verdict(capsys, "7 (unique in-algebra representative)"):
        rng = rng_stream(1007)
        for _ in range(25):
            st = random_structure(rng)
            om = random_state(rng, st)
            rep = ce.representative_density(om).matrix
            for a, mat in zip(standard_basis(st), embedded_standard_basis(st)):
                assert abs(np.trace(rep @ mat) - om.expect(a)) <= 1e-10
            # the representative is the Hilbert-Schmidt projection of any
            # ambient density matrix inducing the same functional
            rho = random_ambient_density(rng, st.ambient_dim)
            om2 = ce.state_from_density(rho, st)
            rep2 = ce.representative_density(om2).matrix
            proj, _ = ce.structure_projection(rho, st)
            assert np.allclose(rep2, proj, atol=1e-9)
            for mat in embedded_standard_basis(st):
                assert abs(np.trace((rho - rep2) @ mat)) <= 1e-10


def test_criterion_8_thermodynamic_checks(capsys):
    with _verdict(capsys, "8 (Zeno probability, heat ledger, gas entropy)"):
        assert ce.zeno_success_probability(10_000) >= 0.999
        grid = np.unique(np.logspace(0, 5, 60).astype(int))
        values = [ce.zeno_success_probability(int(k)) for k in grid]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

        rng = rng_stream(1008)
        for _ in range(10):
            st = random_structure(rng, multiplicities=False)
            om = random_state(rng, st)
            acct = ce.GasAccount(copies=4, temperature=1.5,
                                 sector_entropies=np.zeros(st.num_blocks), boltzmann=2.0)
            dec = ce.minimal_decomposition(om)
            ledger = -sum(ce.compression_heat(w, acct) for w in dec.weights())
            ledger /= acct.boltzmann * acct.copies * acct.temperature
            vn = ce.von_neumann(ce.representative_density(om))
            assert abs(ledger - vn) <= 1e-9
            assert abs(ce.gas_entropy(om, acct)
                       - ce.state_entropy(om).state_entropy) <= 1e-9


def test_criterion_9_hand_values(capsys):
    with _verdict(capsys, "9 (hand-computed values)"):
        st = ce.make_algebra([(1, 1), (1, 1)])
        om = ce.StateFunctional.from_canonical(st, [0.25, 0.75], [np.eye(1), np.eye(1)])
        assert ce.state_entropy(om).state_entropy == pytest.approx(0.5623351, abs=1e-6)
        for n in range(1, 9):
            stn = ce.make_algebra([(n, 1)])
            omn = ce.state_from_density(np.eye(n) / n, stn)
            assert ce.state_entropy(omn).state_entropy == pytest.approx(
                np.log(n), abs=1e-12)
