"""Tests for Shannon/von Neumann entropies and the closed-form state entropy."""

import numpy as np
import pytest

import cstar_entropy as ce
from cstar_entropy.errors import ValidationError
from cstar_entropy.states import active_sectors

from helpers import (convex_combine, multiplicity_free, random_pure_state, random_state,
                     random_structure, rng_stream)

# computed by direct evaluation of -sum p log p
H_QUARTER = 0.5623351446188083
LOG2 = 0.6931471805599453


class TestShannon:
    def test_deterministic_vector(self):
        assert ce.shannon([1.0, 0.0, 0.0]) == 0.0

    def test_uniform_pair(self):
        assert ce.shannon([0.5, 0.5]) == pytest.approx(LOG2, abs=1e-12)

    def test_quarter_three_quarter(self):
        assert ce.shannon([0.25, 0.75]) == pytest.approx(H_QUARTER, abs=1e-12)

    def test_small_negatives_clamped(self):
        assert ce.shannon([1.0 + 5e-10, -5e-10]) == pytest.approx(0.0, abs=1e-8)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValidationError):
            ce.shannon([0.5, 0.2])

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            ce.shannon([1.5, -0.5])

    @pytest.mark.parametrize("p, message", [
        ([0.5, 0.6], "probability vector sums to 1.1, expected 1"),
        ([1.2, -0.2], "probability vector has negative entry -0.2"),
        ([], "probability vector must be one-dimensional and nonempty"),
        ([[0.5, 0.5]], "probability vector must be one-dimensional and nonempty")])
    def test_rejection_prints_a_plain_number(self, p, message):
        with pytest.raises(ValidationError) as err:
            ce.shannon(p)
        assert str(err.value) == message

    def test_schur_concavity_spot_check(self):
        # p majorizes q implies H(p) <= H(q)
        rng = rng_stream(31)
        for _ in range(50):
            lam = rng.dirichlet(np.ones(4))
            u = np.linalg.qr(rng.standard_normal((4, 4))
                             + 1j * rng.standard_normal((4, 4)))[0]
            q = (np.abs(u) ** 2) @ lam  # a randomization of lam
            assert ce.shannon(lam) <= ce.shannon(q) + 1e-12


class TestVonNeumann:
    def test_rank_one_projector(self):
        psi = np.array([0.6, 0.8j], dtype=complex)
        assert ce.von_neumann(np.outer(psi, psi.conj())) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_maximally_mixed(self, n):
        assert ce.von_neumann(np.eye(n) / n) == pytest.approx(np.log(n), abs=1e-12)

    def test_matches_shannon_of_spectrum(self):
        assert ce.von_neumann(np.diag([0.25, 0.75])) == pytest.approx(H_QUARTER, abs=1e-12)

    def test_basis_invariance(self):
        rng = rng_stream(32)
        u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
        assert ce.von_neumann(u @ rho @ u.conj().T) == pytest.approx(
            ce.von_neumann(rho), abs=1e-10)

    def test_invalid_density_rejected(self):
        with pytest.raises(ValidationError):
            ce.von_neumann(np.diag([0.5, 0.6]))


class TestStateEntropy:
    def test_pure_state_vanishes(self):
        rng = rng_stream(33)
        for _ in range(10):
            st = random_structure(rng)
            om = random_pure_state(rng, st)
            assert ce.state_entropy(om).state_entropy < 1e-9

    def test_diagonal_algebra_hand_value(self):
        st = ce.make_algebra([(1, 1), (1, 1)])
        om = ce.StateFunctional.from_canonical(st, [0.25, 0.75], [np.eye(1), np.eye(1)])
        assert ce.state_entropy(om).state_entropy == pytest.approx(H_QUARTER, abs=1e-9)

    def test_multiplicity_pure_state_report(self):
        # zero state entropy, but the representative has entropy log 2
        st = ce.make_algebra([(2, 2)])
        psi = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        om = ce.StateFunctional.from_canonical(st, [1.0], [np.outer(psi, psi.conj())])
        report = ce.state_entropy(om)
        assert report.state_entropy == pytest.approx(0.0, abs=1e-9)
        assert report.vn_of_representative == pytest.approx(LOG2, abs=1e-9)
        assert report.multiplicity_term == pytest.approx(LOG2, abs=1e-9)

    def test_report_internal_consistency(self):
        rng = rng_stream(34)
        for _ in range(10):
            st = random_structure(rng)
            om = random_state(rng, st)
            rep = ce.state_entropy(om)
            assert rep.state_entropy == pytest.approx(
                rep.sector_entropy + rep.mean_block_entropy, abs=1e-9)
            assert rep.vn_of_representative == pytest.approx(
                rep.state_entropy + rep.multiplicity_term, abs=1e-9)
            assert rep.state_entropy >= -1e-12

    def test_multiplicity_free_equality(self):
        rng = rng_stream(35)
        for _ in range(10):
            st = random_structure(rng, multiplicities=False)
            om = random_state(rng, st)
            rep = ce.state_entropy(om)
            assert rep.vn_of_representative == pytest.approx(rep.state_entropy, abs=1e-9)

    def test_multiplicity_invariance(self):
        # the entropy does not depend on the representation multiplicities
        rng = rng_stream(36)
        st = ce.make_algebra([(2, 3), (3, 2)])
        flat = multiplicity_free(st)
        for _ in range(5):
            om = random_state(rng, st)
            p, rhos = ce.canonical_form(ce.representative_density(om), st)
            om_flat = ce.StateFunctional.from_canonical(flat, p, rhos)
            assert ce.state_entropy(om).state_entropy == pytest.approx(
                ce.state_entropy(om_flat).state_entropy, abs=1e-9)

    def test_numeric_concavity(self):
        rng = rng_stream(37)
        st = ce.make_algebra([(2, 1), (2, 2)])
        for _ in range(20):
            om_a, om_b = random_state(rng, st), random_state(rng, st)
            s_a = ce.state_entropy(om_a).state_entropy
            s_b = ce.state_entropy(om_b).state_entropy
            for lam in np.linspace(0.1, 0.9, 9):
                mix = convex_combine([om_a, om_b], [lam, 1 - lam])
                s_mix = ce.state_entropy(mix).state_entropy
                assert s_mix >= lam * s_a + (1 - lam) * s_b - 1e-9

    def test_zero_iff_pure(self):
        rng = rng_stream(38)
        for _ in range(10):
            st = random_structure(rng)
            om = random_state(rng, st)
            s = ce.state_entropy(om).state_entropy
            assert (s < 1e-9) == ce.is_pure(om)


class TestMinimalDecomposition:
    def test_pure_state_single_component(self):
        st = ce.make_algebra([(2, 1)])
        psi = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2)
        om = ce.StateFunctional.from_canonical(st, [1.0], [np.outer(psi, psi.conj())])
        dec = ce.minimal_decomposition(om)
        assert len(dec.components) == 1
        assert dec.components[0][0] == pytest.approx(1.0)

    def test_full_block_spectral_weights(self):
        st = ce.make_algebra([(2, 1)])
        om = ce.state_from_density(np.diag([0.25, 0.75]).astype(complex), st)
        dec = ce.minimal_decomposition(om)
        assert np.allclose(sorted(dec.weights()), [0.25, 0.75])

    def test_weight_at_the_floor_is_dropped(self):
        # a weight equal to Cutoff.WEIGHT_FLOOR = 1e-12 is dropped, as by the oracle
        # and identity_decomposition_random
        st = ce.make_algebra([(2, 1)])
        om = ce.state_from_density(np.diag([1e-12, 1 - 1e-12]), st)
        assert om.spectra[0][0][1] == 1e-12
        dec = ce.minimal_decomposition(om)
        assert len(dec.components) == 1 and dec.components[0][0] == 1.0

    def test_two_sector_components(self):
        st = ce.make_algebra([(1, 1), (1, 1)])
        om = ce.StateFunctional.from_canonical(st, [0.5, 0.5], [np.eye(1), np.eye(1)])
        dec = ce.minimal_decomposition(om)
        assert sorted(i for _, i, _ in dec.components) == [0, 1]

    def test_attains_state_entropy(self):
        rng = rng_stream(39)
        for _ in range(10):
            st = random_structure(rng)
            om = random_state(rng, st)
            dec = ce.minimal_decomposition(om)
            assert ce.shannon(dec.weights()) == pytest.approx(
                ce.state_entropy(om).state_entropy, abs=1e-9)

    def test_reconstructs_representative(self):
        rng = rng_stream(40)
        for _ in range(5):
            st = random_structure(rng)
            om = random_state(rng, st)
            dec = ce.minimal_decomposition(om)
            assert np.allclose(dec.density(),
                               ce.representative_density(om).matrix, atol=1e-9)


@pytest.mark.parametrize("call", [ce.state_entropy, ce.minimal_decomposition],
                         ids=["state_entropy", "minimal_decomposition"])
def test_tol_that_discards_every_sector_is_an_input_error(call):
    # S = 1.5 log 2; both sector weights are 0.5, so tol 0.6 keeps neither
    st = ce.make_algebra([(2, 1), (1, 1)])
    om = ce.StateFunctional.from_canonical(st, [0.5, 0.5], [np.eye(2) / 2, np.eye(1)])
    with pytest.raises(ValidationError,
                       match=r"tol 0\.6 discards every sector \(largest weight 0\.5\)"):
        call(om, 0.6)


class TestSectorsBelowTol:
    """A sector whose weight is at or below tol is dropped and the rest renormalized."""

    P = np.array([0.6, 0.4 - 1e-7, 1e-7])

    @classmethod
    def _state(cls):
        st = ce.make_algebra([(2, 1), (1, 1), (1, 1)])
        rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
        return ce.StateFunctional.from_canonical(st, cls.P, [rho, np.eye(1), np.eye(1)]), rho

    @staticmethod
    def _closed_form(p, rho):
        """H(p) + sum_i p_i S(rho_i), the one-dimensional blocks adding nothing."""
        lam = np.linalg.eigvalsh(rho)
        return float(-(p * np.log(p)).sum() - p[0] * (lam * np.log(lam)).sum())

    @staticmethod
    def _by_block(dec):
        weights = np.zeros(3)
        for w, i, _ in dec.components:
            weights[i] += w
        return weights

    def test_every_route_keeps_a_sector_above_tol(self):
        om, rho = self._state()
        expected = self._closed_form(self.P, rho)
        # dropping the 1e-7 sector moves the entropy by over 1e-6, so the 1e-12 checks tell the two apart
        assert abs(expected - self._closed_form(self.P[:2] / self.P[:2].sum(), rho)) > 1e-6
        assert ce.state_entropy(om, 1e-9).state_entropy == pytest.approx(expected, abs=1e-12)
        assert np.allclose(self._by_block(ce.minimal_decomposition(om, 1e-9)), self.P,
                           rtol=0.0, atol=1e-12)
        report = ce.infimum_oracle(om, samples=2000, seed=1, tol=1e-9)
        assert report.min_entropy_found == pytest.approx(expected, abs=1e-12)
        dec = ce.oracle_decomposition(om, report.best_index, seed=1, tol=1e-9)
        assert np.allclose(self._by_block(dec), self.P, rtol=0.0, atol=1e-12)
        assert ce.gns_construct(om, 1e-9).active == (0, 1, 2)

    def test_closed_form_and_oracle_renormalize_over_the_kept_sectors(self):
        om, rho = self._state()
        kept = self.P[:2] / self.P[:2].sum()
        expected = self._closed_form(kept, rho)
        assert ce.state_entropy(om, 1e-6).state_entropy == pytest.approx(expected, abs=1e-12)
        assert np.allclose(self._by_block(ce.minimal_decomposition(om, 1e-6)), [*kept, 0.0],
                           rtol=0.0, atol=1e-12)
        report = ce.infimum_oracle(om, samples=2000, seed=1, tol=1e-6)
        assert report.min_entropy_found == pytest.approx(expected, abs=1e-12)
        dec = ce.oracle_decomposition(om, report.best_index, seed=1, tol=1e-6)
        assert np.allclose(self._by_block(dec), [*kept, 0.0], rtol=0.0, atol=1e-12)

    def test_canonical_form_keeps_the_sectors_active_sectors_keeps(self):
        om, _ = self._state()
        p, rhos = ce.canonical_form(ce.representative_density(om), om.structure, 1e-6)
        kept = active_sectors(om, 1e-6)
        assert [i for i, _, _, _ in kept] == [0, 1]
        assert p[2] == 0.0 and rhos[2] is None
        assert np.allclose(p[:2], [w for _, w, _, _ in kept], rtol=0.0, atol=1e-15)

    def test_representative_entropy_reads_the_kept_sectors(self):
        # vn_of_representative = state_entropy + multiplicity_term, and the gas entropy with
        # zero sector entropies and no multiplicities is the state entropy, at a dropping tol too
        om, _ = self._state()
        report = ce.state_entropy(om, 1e-6)
        assert report.vn_of_representative == pytest.approx(
            report.state_entropy + report.multiplicity_term, abs=1e-12)
        acct = ce.GasAccount(copies=1, temperature=1.0, sector_entropies=np.zeros(3))
        assert ce.gas_entropy(om, acct, 1e-6) == pytest.approx(report.state_entropy, abs=1e-12)


class TestRepresentativeEntropyFromBlockSpectra:
    @staticmethod
    def _clipping_edge_state():
        # block 0 has an eigenvalue of -1e-13 that construction clips; block 1 carries no weight
        st = ce.make_algebra([(2, 2), (1, 3), (3, 1)])
        v = np.linalg.qr(np.array([[1.0, 2.0], [1j, -1.0]]))[0]
        x0 = v @ np.diag([0.55, -1e-13]) @ v.conj().T
        x2 = np.diag([0.3, 0.15 + 1e-13, 0.0])
        return ce.StateFunctional(st, (x0.T, np.zeros((1, 1)), x2.T))

    def test_no_density_matrix_is_constructed(self, monkeypatch):
        om = self._clipping_edge_state()
        acct = ce.GasAccount(copies=1, temperature=1.0, sector_entropies=np.zeros(3))
        built = []
        post_init = ce.DensityMatrix.__post_init__

        def spy(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(ce.DensityMatrix, "__post_init__", spy)
        ce.state_entropy(om)
        ce.gas_entropy(om, acct)
        assert built == []
        ce.representative_density(om)  # the spy does see a construction
        assert len(built) == 1

    def test_agrees_with_the_spectrum_of_the_representative_at_the_clipping_edge(self):
        om = self._clipping_edge_state()
        direct = ce.von_neumann(ce.representative_density(om))
        assert ce.state_entropy(om).vn_of_representative == pytest.approx(direct, abs=1e-12)
        acct = ce.GasAccount(copies=1, temperature=1.0, sector_entropies=np.zeros(3))
        assert ce.gas_entropy(om, acct) == pytest.approx(direct, abs=1e-12)
