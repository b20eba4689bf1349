"""Tests for the command-line front end: parsing, reports, exit codes."""

import json
import time
import tracemalloc

import numpy as np
import pytest

import cstar_entropy as ce
from cstar_entropy import entropy as entropy_module
from cstar_entropy._linalg import complex_gaussian
from cstar_entropy.cli import main

from helpers import (conjugated_algebra_generators, embedded_standard_basis, log_chunk_streams,
                     random_block_density, random_isometry, rng_stream)


def _mat(m):
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, complex)]


def _write(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def diag_quarter_problem(tmp_path):
    doc = {
        "algebra": {"blocks": [[1, 1], [1, 1]]},
        "state": {"density": _mat(np.diag([0.25, 0.75]))},
    }
    return _write(tmp_path, doc)


class TestEntropyCommand:
    def test_hand_value(self, diag_quarter_problem, capsys):
        assert main(["entropy", diag_quarter_problem, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["state_entropy"] == pytest.approx(0.5623351446188083, abs=1e-9)
        assert payload["unit"] == "nats"

    def test_pure_state(self, tmp_path, capsys):
        doc = {
            "algebra": {"blocks": [[2, 1]]},
            "state": {"density": _mat(np.diag([1.0, 0.0]))},
        }
        assert main(["entropy", _write(tmp_path, doc), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["state_entropy"] == pytest.approx(0.0, abs=1e-9)

    def test_multiplicity_report(self, tmp_path, capsys):
        psi = np.array([1.0, 0.0])
        doc = {
            "algebra": {"blocks": [[2, 2]]},
            "state": {"canonical": {"p": [1.0], "rhos": [_mat(np.outer(psi, psi))]}},
        }
        assert main(["entropy", _write(tmp_path, doc), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["state_entropy"] == pytest.approx(0.0, abs=1e-9)
        assert payload["vn_of_representative"] == pytest.approx(np.log(2), abs=1e-9)

    def test_bits_flag(self, diag_quarter_problem, capsys):
        assert main(["entropy", diag_quarter_problem, "--json", "--bits"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["state_entropy"] == pytest.approx(
            0.5623351446188083 / np.log(2), abs=1e-9)
        assert payload["unit"] == "bits"

    def test_human_readable_lines(self, diag_quarter_problem, capsys):
        assert main(["entropy", diag_quarter_problem]) == 0
        out = capsys.readouterr().out
        assert "state entropy" in out
        assert "0.562335" in out

    def test_values_on_declared_basis(self, tmp_path, capsys):
        st = ce.make_algebra([(2, 1)])
        rho = np.diag([0.25, 0.75]).astype(complex)
        basis = list(embedded_standard_basis(st))
        values = [[float(np.trace(rho @ b).real), float(np.trace(rho @ b).imag)]
                  for b in basis]
        doc = {
            "algebra": {"blocks": [[2, 1]]},
            "state": {"values": values, "basis": [_mat(b) for b in basis]},
        }
        assert main(["entropy", _write(tmp_path, doc), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["state_entropy"] == pytest.approx(0.5623351446188083, abs=1e-9)


class TestStructureCommand:
    def test_discovers_conjugated_diagonal(self, tmp_path, capsys):
        rng = rng_stream(110)
        v = random_isometry(3, 3, rng)
        gen = v @ np.diag([1.0, 2.0, 3.0]).astype(complex) @ v.conj().T
        doc = {"algebra": {"generators": [_mat(gen)]}}
        assert main(["structure", _write(tmp_path, doc), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["blocks"] == [[1, 1], [1, 1], [1, 1]]
        assert payload["residual"] < 1e-8

    def test_full_m2(self, tmp_path, capsys):
        doc = {"algebra": {"generators": [_mat(np.array([[0, 1], [0, 0]]))]}}
        assert main(["structure", _write(tmp_path, doc)]) == 0
        assert "(2,1)" in capsys.readouterr().out

    def test_block_with_multiplicity(self, tmp_path, capsys):
        rng = rng_stream(111)
        st = ce.make_algebra([(2, 2)])
        v = random_isometry(4, 4, rng)
        gens = [v @ ce.embed(ce.random_element(st, rng)) @ v.conj().T for _ in range(2)]
        doc = {"algebra": {"generators": [_mat(g) for g in gens]}}
        assert main(["structure", _write(tmp_path, doc), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["blocks"] == [[2, 2]]

    @pytest.mark.parametrize("blocks, text", [
        (((3, 1),), "[(3,1)]"),
        (((1, 1), (1, 1), (1, 1)), "[(1,1)x3]"),
        (((2, 2), (2, 2), (1, 1)), "[(2,2)x2, (1,1)]"),
        (((1, 1), (2, 1), (1, 2), (1, 1)), "[(2,1), (1,2), (1,1)x2]"),
    ])
    def test_text_report_counts_runs_of_equal_blocks(self, tmp_path, capsys, blocks, text):
        rng = rng_stream(112)
        st = ce.make_algebra(blocks)
        v = random_isometry(st.ambient_dim, st.ambient_dim, rng)
        gens = [v @ ce.embed(ce.random_element(st, rng)) @ v.conj().T for _ in range(2)]
        doc = {"algebra": {"generators": [_mat(g) for g in gens]}}
        assert main(["structure", _write(tmp_path, doc)]) == 0
        assert f"blocks: {text}\n" in capsys.readouterr().out

    def test_blocks_algebra_rejected(self, tmp_path, capsys):
        doc = {"algebra": {"blocks": [[2, 1]]}}
        assert main(["structure", _write(tmp_path, doc)]) == 2

    def test_residual_of_a_clean_rotated_file(self, tmp_path, capsys):
        # the residual is the generators' largest relative projection residual
        st = ce.make_algebra([(6, 2), (4, 2), (3, 1)])
        gens = conjugated_algebra_generators(rng_stream(113), st)
        doc = {"algebra": {"generators": [_mat(g) for g in gens]}}
        assert main(["structure", _write(tmp_path, doc), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["blocks"] == [[6, 2], [4, 2], [3, 1]]
        assert payload["ambient_dim"] == 23 and payload["algebra_dim"] == 61
        assert payload["residual"] <= 1e-10

    @pytest.mark.parametrize("n", range(3, 9))
    def test_shift_family(self, tmp_path, capsys, n):
        # span{I, J, J*} and its products reach only words of length two
        doc = {"algebra": {"generators": [_mat(np.diag(np.ones(n - 1), k=1))]}}
        for seed in range(10):
            assert main(["structure", _write(tmp_path, doc), "--json", "--seed", str(seed)]) == 0
            assert json.loads(capsys.readouterr().out)["blocks"] == [[n, 1]]


def _noisy_generators_file(tmp_path, seed, noise, tol):
    rng = rng_stream(120 + seed)
    gens = conjugated_algebra_generators(rng, ce.make_algebra([(3, 2), (2, 1)]))
    doc = {"algebra": {"generators": [_mat(g + noise * complex_gaussian(g.shape, rng))
                                      for g in gens]},
           "options": {"tol": tol, "seed": seed}}
    return _write(tmp_path, doc, f"noisy-{seed}.json")


class TestNoisyGenerators:
    @pytest.mark.parametrize("noise", [1e-8, 1e-7])
    def test_tol_above_the_noise_recovers_the_blocks(self, tmp_path, capsys, noise):
        for seed in range(20):
            assert main(["structure", _noisy_generators_file(tmp_path, seed, noise, 1e-6),
                         "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["blocks"] == [[3, 2], [2, 1]]

    @pytest.mark.parametrize("noise", [1e-10, 1e-9, 1e-8, 1e-6])
    def test_noise_is_never_an_input_error(self, tmp_path, capsys, noise):
        # noise near tol may give the blocks, a coarser split or a numerical failure
        for seed in range(10):
            path = _noisy_generators_file(tmp_path, seed, noise, 1e-9)
            assert main(["structure", path]) in (0, 3)


def test_structure_at_ambient_dimension_80(tmp_path, capsys):
    # the large rung: dim A = 832, read without a basis; loose bounds for a shared host
    st = ce.make_algebra([(24, 2), (16, 2)])
    gens = conjugated_algebra_generators(rng_stream(114), st)
    path = _write(tmp_path, {"algebra": {"generators": [_mat(g) for g in gens]}})
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        code = main(["structure", path, "--json"])
        wall = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["blocks"] == [[24, 2], [16, 2]]
    assert peak < 50 * 2**20
    assert wall < 2.0


def _count_state_path_calls(monkeypatch) -> list[str]:
    """Wrap the closed form, the entropy report and the decomposition builders under every
    name the package imports them by; each call appends the function's name to the list."""
    from cstar_entropy import decomp, states

    calls = []

    def counted(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    for name, modules in (("closed_form_entropy", (entropy_module, decomp)),
                          ("state_entropy", (entropy_module, decomp)),
                          ("minimal_decomposition", (entropy_module, decomp)),
                          ("_decomposition", (states, entropy_module, decomp))):
        wrapper = counted(name, getattr(modules[0], name))
        for module in modules:
            # raising=False: a module that does not import the name gains a counted one,
            # so a later import of it is counted too
            monkeypatch.setattr(module, name, wrapper, raising=False)
    return calls


class TestOracleCommand:
    def test_gap_zero_for_pure_state(self, tmp_path, capsys):
        doc = {
            "algebra": {"blocks": [[2, 1]]},
            "state": {"density": _mat(np.diag([1.0, 0.0]))},
            "options": {"samples": 50},
        }
        assert main(["oracle", _write(tmp_path, doc), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gap"] == pytest.approx(0.0, abs=1e-9)
        assert payload["samples"] == 50

    def test_gap_exactly_zero_where_sample_0_wins(self, tmp_path, capsys):
        # maximally mixed blocks, where the flat weights' entropy used to come out
        # 2.2e-16 below the closed form's
        doc = {
            "algebra": {"blocks": [[3, 2], [2, 1], [1, 1]]},
            "state": {"canonical": {"p": [0.5, 0.3, 0.2],
                                    "rhos": [_mat(np.eye(n) / n) for n in (3, 2, 1)]}},
        }
        assert main(["oracle", _write(tmp_path, doc), "--json", "--samples", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["gap"] == 0.0

    def test_flag_overrides_file_options(self, diag_quarter_problem, capsys):
        assert main(["oracle", diag_quarter_problem, "--json", "--samples", "25"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["samples"] == 25
        assert payload["min_entropy_found"] == pytest.approx(0.5623351446188083, abs=1e-9)

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 128 + 5)])
    def test_any_integer_seed_exits_0(self, tmp_path, capsys, seed):
        # the chunk streams take the seed modulo 2^128, so no seed reaches the user as a traceback
        path = _write(tmp_path, _m2_density_doc(options={"samples": 1500}))
        assert main(["oracle", path, "--json", "--seed", seed]) == 0
        assert json.loads(capsys.readouterr().out)["samples"] == 1500

    def test_flags_do_not_carry_over_to_the_next_command(self, tmp_path, capsys):
        # the parser is built once per process, so each call must parse afresh
        path = _write(tmp_path, _m2_density_doc(options={"samples": 12}))
        assert main(["oracle", path, "--samples", "5", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["samples"] == 5
        assert main(["oracle", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["samples"] == 12
        assert main(["oracle", path]) == 0
        assert "(12 samples)" in capsys.readouterr().out

    def test_closed_form_is_computed_once_and_no_decomposition_is_built(self, tmp_path, capsys,
                                                                      monkeypatch):
        # the oracle's report carries the closed form its scan starts from, so the
        # command neither recomputes it nor builds a report or a decomposition it would discard
        st = ce.make_algebra([(3, 2), (2, 1), (1, 1)])
        p, rhos = [0.5, 0.3, 0.2], [np.diag([0.5, 0.3, 0.2]), np.diag([0.6, 0.4]), np.eye(1)]
        path = _write(tmp_path, _canonical_doc([[3, 2], [2, 1], [1, 1]], p, rhos,
                                               options={"samples": 1500, "seed": 3}))
        calls = _count_state_path_calls(monkeypatch)
        assert main(["oracle", path, "--json"]) == 0
        assert calls == ["closed_form_entropy"]
        payload = json.loads(capsys.readouterr().out)
        report = ce.infimum_oracle(ce.StateFunctional.from_canonical(st, p, rhos), samples=1500, seed=3)
        assert (payload["min_entropy_found"], payload["state_entropy"], payload["gap"]) == \
            (report.min_entropy_found, report.state_entropy,
             report.min_entropy_found - report.state_entropy)


class TestSchrodingerCommand:
    def test_hadamard_mixing(self, tmp_path, capsys):
        doc = {
            "algebra": {"blocks": [[2, 1]]},
            "state": {"density": _mat(np.eye(2) / 2)},
            "unitary": _mat(np.array([[1, 1], [1, -1]]) / np.sqrt(2)),
        }
        assert main(["schrodinger", _write(tmp_path, doc), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["weights"] == pytest.approx([0.5, 0.5], abs=1e-10)
        assert payload["excess"] >= -1e-9

    def test_missing_unitary_is_parse_error(self, diag_quarter_problem):
        assert main(["schrodinger", diag_quarter_problem]) == 2


class TestGnsCommand:
    def test_faithful_m2_state(self, tmp_path, capsys):
        doc = {
            "algebra": {"blocks": [[2, 1]]},
            "state": {"density": _mat(np.diag([0.25, 0.75]))},
        }
        assert main(["gns", _write(tmp_path, doc), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gns_dimension"] == 4
        assert payload["irreducible"] is False
        assert abs(payload["gap"]) < 1e-9

    def test_pure_state_irreducible(self, tmp_path, capsys):
        doc = {
            "algebra": {"blocks": [[2, 1]]},
            "state": {"density": _mat(np.diag([1.0, 0.0]))},
        }
        assert main(["gns", _write(tmp_path, doc), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gns_dimension"] == 2
        assert payload["irreducible"] is True

    def test_closed_form_is_computed_once_and_no_report_is_built(self, tmp_path, capsys,
                                                                 monkeypatch):
        # the command prints one entropy of the closed form, so it builds no EntropyReport
        st = ce.make_algebra([(3, 2), (2, 1), (1, 1)])
        p, rhos = [0.5, 0.3, 0.2], [np.diag([0.5, 0.3, 0.2]), np.diag([0.6, 0.4]), np.eye(1)]
        path = _write(tmp_path, _canonical_doc([[3, 2], [2, 1], [1, 1]], p, rhos))
        calls = _count_state_path_calls(monkeypatch)
        assert main(["gns", path, "--json"]) == 0
        assert calls == ["closed_form_entropy"]
        payload = json.loads(capsys.readouterr().out)
        om = ce.StateFunctional.from_canonical(st, p, rhos)
        assert payload["state_entropy"] == ce.state_entropy(om).state_entropy
        assert payload["gap"] == payload["gns_entropy"] - payload["state_entropy"]

    @pytest.mark.parametrize("seed", [5, 6, 9])
    def test_coarse_tol_leaves_discovery_at_its_own_gap(self, tmp_path, capsys, seed):
        # --tol is the sector cutoff; read as discovery's relative cluster gap on the GNS
        # space, 0.3 failed verification (exit 3) on these states where entropy exits 0
        blocks = [[3, 2], [2, 1], [1, 1]]
        rng = rng_stream(seed)
        p = rng.dirichlet(np.ones(3))
        rhos = [random_block_density(rng, n) for n, _ in blocks]
        doc = {"algebra": {"blocks": blocks},
               "state": {"canonical": {"p": [float(w) for w in p], "rhos": [_mat(r) for r in rhos]}}}
        path = _write(tmp_path, doc)
        assert main(["entropy", path, "--tol", "0.3", "--json"]) == 0
        assert main(["gns", path, "--tol", "0.3", "--json"]) == 0


class TestZenoCommand:
    def test_ten_steps(self, capsys):
        assert main(["zeno", "10", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["success_probability"] == pytest.approx(0.7805460697811408, abs=1e-12)

    def test_invalid_k(self, capsys):
        assert main(["zeno", "0"]) == 2


class TestExitCodes:
    def test_parse_error_on_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["entropy", str(path)]) == 2

    def test_parse_error_on_missing_state(self, tmp_path):
        doc = {"algebra": {"blocks": [[2, 1]]}}
        assert main(["entropy", _write(tmp_path, doc)]) == 2

    def test_parse_error_on_two_algebra_forms(self, tmp_path):
        doc = {
            "algebra": {"blocks": [[2, 1]], "generators": [_mat(np.eye(2))]},
            "state": {"density": _mat(np.eye(2) / 2)},
        }
        assert main(["entropy", _write(tmp_path, doc)]) == 2

    def test_invalid_state_exit_code(self, tmp_path):
        skew = np.diag([1.5, -0.5])
        doc = {
            "algebra": {"blocks": [[1, 1], [1, 1]]},
            "state": {"canonical": {"p": [1.5, -0.5], "rhos": [_mat(np.eye(1)), _mat(np.eye(1))]}},
        }
        assert main(["entropy", _write(tmp_path, doc)]) == 4

    @pytest.mark.parametrize("seed", range(8))
    def test_one_cluster_of_a_generic_spectrum_exits_3_at_every_seed(self, tmp_path, seed):
        # at tol 2 no eigenvalue gap exceeds tol times the spectral scale, so all three
        # eigenvalues form one cluster; a generic element compresses onto it to no multiple
        # of a unitary, so every attempt retries whatever the draws
        v = random_isometry(3, 3, rng_stream(112))
        gen = v @ np.diag([1.0, 2.0, 3.0]).astype(complex) @ v.conj().T
        doc = {"algebra": {"generators": [_mat(gen)]}, "options": {"tol": 2.0, "seed": seed}}
        assert main(["structure", _write(tmp_path, doc)]) == 3

    def test_missing_file(self):
        assert main(["entropy", "/nonexistent/problem.json"]) == 2

    @pytest.mark.parametrize("text", [
        "[" * 100_000 + "]" * 100_000,
        '{"options": {"tol": ' + "1" * 5000 + "}}",
    ], ids=["nested_past_the_recursion_limit", "integer_of_5000_digits"])
    def test_json_that_cannot_be_loaded_is_a_parse_error(self, tmp_path, capsys, text):
        path = tmp_path / "problem.json"
        path.write_text(text)
        assert main(["entropy", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "invalid JSON" in err[0]

    def test_out_of_memory_is_a_numerical_failure(self, diag_quarter_problem, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(entropy_module, "state_entropy", exhausted)
        assert main(["entropy", diag_quarter_problem, "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "numerical failure: out of memory\n"

    @pytest.mark.parametrize("where", ["fail_open", "fail_normals"])
    def test_out_of_memory_in_an_oracle_chunk_is_a_numerical_failure(self, diag_quarter_problem, capsys,
                                                                      monkeypatch, where):
        # chunk 2's stream opens on the scanning thread, its normals are drawn on the helper thread
        log_chunk_streams(monkeypatch, **{where: (2,)})
        assert main(["oracle", diag_quarter_problem, "--samples", "3000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "numerical failure: out of memory\n"

    @pytest.mark.parametrize("tol", ["0.6", "1.0"])
    @pytest.mark.parametrize("command", ["entropy", "gns", "oracle"])
    def test_tol_that_discards_every_sector_exits_2(self, tmp_path, capsys, command, tol):
        # both sector weights are 0.5 (S = 1.5 log 2); at tol 0.6 the GNS rank cutoff 0.3 still
        # keeps the (1,1) block, at tol 1.0 it keeps nothing
        doc = {"algebra": {"blocks": [[2, 1], [1, 1]]},
               "state": {"canonical": {"p": [0.5, 0.5],
                                       "rhos": [_mat(np.eye(2) / 2), _mat(np.eye(1))]}}}
        assert main([command, _write(tmp_path, doc), "--tol", tol, "--json"]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == "" and len(err) == 1
        assert err[0].startswith(f"invalid input: tol {tol} ")


    def test_input_error_exits_2_before_discovery(self, tmp_path, capsys):
        # discovery fails on these generators at tol 0.5 (exit 3 above); the numeric string in
        # the density is found first, because the whole file is checked before any numerics
        rng = rng_stream(112)
        v = random_isometry(3, 3, rng)
        gen = v @ np.diag([1.0, 2.0, 3.0]).astype(complex) @ v.conj().T
        density = _mat(np.eye(3) / 3)
        density[0][0][0] = "0.5"
        doc = {"algebra": {"generators": [_mat(gen)]}, "state": {"density": density},
               "options": {"tol": 0.5}}
        assert main(["entropy", _write(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == "" and len(err) == 1 and err[0].startswith("error: state density")

    def test_bits_is_not_an_option_of_structure(self, tmp_path, capsys):
        # structure reports no entropy, so argparse rejects --bits there
        doc = {"algebra": {"generators": [_mat(np.diag([1.0, 2.0]))]}}
        with pytest.raises(SystemExit) as exc:
            main(["structure", _write(tmp_path, doc), "--bits"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bits" in capsys.readouterr().err


def _canonical_doc(blocks, p, rhos, **extra):
    return {"algebra": {"blocks": blocks},
            "state": {"canonical": {"p": p, "rhos": [_mat(r) for r in rhos]}}, **extra}


class TestTextOutput:
    """The full text report of each command on one small fixed file, byte for byte."""

    @pytest.mark.parametrize("doc,argv,expected", [
        (_canonical_doc([[2, 2], [1, 1]], [0.75, 0.25], [np.eye(2) / 2, np.eye(1)]),
         ["entropy"],
         "state entropy:          1.08219553 nats\n"
         "sector mixing entropy:  0.562335145 nats\n"
         "mean block entropy:     0.519860385 nats\n"
         "S_VN of representative: 1.60205592 nats\n"
         "multiplicity term:      0.519860385 nats\n"),
        (_canonical_doc([[2, 2], [1, 1]], [0.75, 0.25], [np.eye(2) / 2, np.eye(1)]),
         ["entropy", "--bits"],
         "state entropy:          1.56127812 bits\n"
         "sector mixing entropy:  0.811278124 bits\n"
         "mean block entropy:     0.75 bits\n"
         "S_VN of representative: 2.31127812 bits\n"
         "multiplicity term:      0.75 bits\n"),
        (_canonical_doc([[3, 2], [2, 1], [1, 1]], [0.5, 0.3, 0.2],
                        [np.eye(n) / n for n in (3, 2, 1)], options={"samples": 1}),
         ["oracle"],
         "minimum found: 1.78690331 nats (1 samples)\n"
         "state entropy: 1.78690331 nats\n"
         "gap:           0.000e+00 nats\n"),
        ({"algebra": {"blocks": [[2, 1]]}, "state": {"density": _mat(np.diag([0.25, 0.75]))},
          "unitary": _mat(np.array([[1, 1], [1, -1]]) / np.sqrt(2))},
         ["schrodinger"],
         "weights: [0.5 0.5]\n"
         "decomposition entropy: 0.693147181 nats\n"
         "S_VN of the state:     0.562335145 nats\n"
         "excess over S_VN:      0.130812036 nats\n"),
        (_canonical_doc([[2, 1], [1, 1]], [0.5, 0.5], [np.eye(2) / 2, np.eye(1)]),
         ["gns"],
         "GNS dimension: 5\n"
         "irreducible:   no\n"
         "GNS entropy:   1.03972077 nats\n"
         "state entropy: 1.03972077 nats\n"
         "gap:           2.220e-16 nats\n"),
        ({"algebra": {"blocks": [[2, 1]]}, "state": {"density": _mat(np.diag([1.0, 0.0]))}},
         ["gns"],
         "GNS dimension: 2\n"
         "irreducible:   yes\n"
         "GNS entropy:   0 nats\n"
         "state entropy: 0 nats\n"
         "gap:           0.000e+00 nats\n"),
        ({"algebra": {"generators": [_mat(np.diag([1.0, 2.0, 3.0, 3.0]))]}},
         ["structure", "--show-unitary"],
         "blocks: [(1,2), (1,1)x2]\n"
         "ambient dimension: 4\n"
         "algebra dimension: 3\n"
         "residual: 0.000e+00\n"
         "unitary: [[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.9970299173593475, 0.07701521856368496]], "
         "[[0.0, 0.0], [0.0, 0.0], [0.8330294844402966, -0.5532285947536822], [0.0, 0.0]], "
         "[[0.7013325432659556, -0.7128342470421203], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "
         "[[0.0, 0.0], [0.7013325432659556, -0.7128342470421203], [0.0, 0.0], [0.0, 0.0]]]\n"),
    ], ids=["entropy", "entropy_bits", "oracle", "schrodinger", "gns_reducible", "gns_irreducible",
            "structure_show_unitary"])
    def test_report(self, tmp_path, capsys, doc, argv, expected):
        assert main([argv[0], _write(tmp_path, doc), *argv[1:]]) == 0
        assert capsys.readouterr() == (expected, "")

    def test_zeno_report(self, capsys):
        assert main(["zeno", "10"]) == 0
        assert capsys.readouterr() == ("success probability after 10 steps: 0.78054607\n", "")


class TestRoutesAgreeOnWhatIsAState:
    """A functional is a state or not whatever the command, whatever --tol, and whether it is
    written as values or in canonical form; the density form adds its own precondition."""

    @pytest.mark.parametrize("tol", [None, "1e-6", "1e-12"], ids=["default", "1e-6", "1e-12"])
    @pytest.mark.parametrize("blocks,values,code,density_code", [
        ([[1, 4], [1, 1]], [-3e-8, 1 + 3e-8], 0, 0),  # representative eigenvalue -7.5e-9
        ([[1, 1], [1, 1]], [-3e-8, 1 + 3e-8], 4, 2),
        ([[1, 4], [1, 1]], [-5e-8, 1 + 5e-8], 4, 2),
        ([[1, 1], [1, 1]], [-5e-8, 1 + 5e-8], 4, 2),
        ([[1, 4], [1, 1]], [-5e-9, 1 + 5e-9], 0, 0),
        ([[1, 1], [1, 1]], [-5e-9, 1 + 5e-9], 0, 0),
        ([[1, 4], [1, 1]], [0.5, 0.5 + 5e-10], 0, 0),  # normalization off by +5e-10
        ([[1, 1], [1, 1]], [0.5, 0.5 + 5e-10], 0, 0),
        ([[1, 1], [1, 1]], [0.5, 0.5 + 5e-8], 0, 2),  # within the state's 1e-7, not the trace's 1e-8
        ([[1, 1], [1, 1]], [0.5, 0.5 + 5e-7], 4, 2),
    ], ids=["-3e-8_on_(1,4)", "-3e-8_on_(1,1)", "-5e-8_on_(1,4)", "-5e-8_on_(1,1)",
            "-5e-9_on_(1,4)", "-5e-9_on_(1,1)", "unit+5e-10_on_(1,4)", "unit+5e-10_on_(1,1)",
            "unit+5e-8_on_(1,1)", "unit+5e-7_on_(1,1)"])
    def test_entropy_oracle_and_gns_exit_alike(self, tmp_path, capsys, blocks, values, code,
                                               density_code, tol):
        # the density form checks its matrix as a DensityMatrix first (README, exit codes),
        # so it exits 2 on some functionals the state rule accepts or calls non-states
        st = ce.make_algebra([tuple(b) for b in blocks])
        units = embedded_standard_basis(st)
        forms = {"values": {"values": [[v, 0.0] for v in values], "basis": [_mat(b) for b in units]},
                 "canonical": {"canonical": {"p": values, "rhos": [_mat(np.eye(1))] * 2}},
                 "density": {"density": _mat(sum(v / m * b for v, b, (_, m)
                                                 in zip(values, units, st.blocks)))}}
        flags = ["--json"] + ([] if tol is None else ["--tol", tol])
        codes = {(form, command): main([command, _write(tmp_path, {"algebra": {"blocks": blocks},
                                                                   "state": state}), *flags])
                 for form, state in forms.items() for command in ("entropy", "oracle", "gns")}
        capsys.readouterr()
        assert codes == {(form, command): density_code if form == "density" else code
                         for form, command in codes}


def test_a_pure_state_reads_zero_on_every_route(tmp_path, capsys):
    # the block spectrum of |psi><psi| keeps a rounding eigenvalue, which read
    # 2.08e-15 nats until the closed form dropped it at Cutoff.WEIGHT_FLOOR
    psi = np.array([0.8, 0.6j])
    path = _write(tmp_path, {"algebra": {"blocks": [[2, 1]]},
                             "state": {"density": _mat(np.outer(psi, psi.conj()))}})
    for command, fields in (("entropy", ("state_entropy", "mean_block_entropy",
                                         "vn_of_representative")),
                            ("oracle", ("state_entropy", "min_entropy_found", "gap")),
                            ("gns", ("state_entropy", "gns_entropy", "gap"))):
        assert main([command, path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [payload[f] for f in fields] == [0.0] * 3, command


def _m2_density_doc(**extra):
    doc = {"algebra": {"blocks": [[2, 1]]}, "state": {"density": _mat(np.eye(2) / 2)}}
    doc.update(extra)
    return doc


class TestRejectedInputs:
    """Inputs that used to be accepted, or to escape as tracebacks."""

    def test_non_self_adjoint_canonical_state_exits_4(self, tmp_path, capsys):
        rho = np.array([[0.5, 0.5], [0.0, 0.5]])
        doc = {
            "algebra": {"blocks": [[2, 1]]},
            "state": {"canonical": {"p": [1.0], "rhos": [_mat(rho)]}},
        }
        assert main(["entropy", _write(tmp_path, doc), "--json"]) == 4
        assert "self-adjoint" in capsys.readouterr().err

    def test_non_self_adjoint_values_exit_4(self, tmp_path, capsys):
        st = ce.make_algebra([(2, 1)])
        basis = [_mat(b) for b in embedded_standard_basis(st)]
        # omega(E_11), omega(E_12), omega(E_21), omega(E_22): omega(E_21) != conj omega(E_12)
        values = [[0.5, 0.0], [0.5, 0.0], [0.0, 0.0], [0.5, 0.0]]
        doc = {"algebra": {"blocks": [[2, 1]]}, "state": {"values": values, "basis": basis}}
        assert main(["entropy", _write(tmp_path, doc), "--json"]) == 4
        assert "self-adjoint" in capsys.readouterr().err

    def test_positive_weight_without_a_block_state_exits_2(self, tmp_path, capsys):
        # the weights sum to 1, so the missing block state is an input error, not a non-state
        doc = {"algebra": {"blocks": [[2, 1], [1, 1]]},
               "state": {"canonical": {"p": [0.5, 0.5], "rhos": [_mat(np.eye(2) / 2), None]}}}
        assert main(["entropy", _write(tmp_path, doc), "--json"]) == 2
        assert capsys.readouterr().err == \
            "invalid input: block 1 has weight 0.5 but no block state\n"

    def test_unnormalized_state_prints_a_plain_number(self, tmp_path, capsys):
        doc = {"algebra": {"blocks": [[1, 1]]},
               "state": {"canonical": {"p": [1.0], "rhos": [_mat(np.eye(1) / 2)]}}}
        assert main(["entropy", _write(tmp_path, doc), "--json"]) == 4
        assert capsys.readouterr().err == \
            "not a state: functional is not normalized: value (0.5+0j) on the identity\n"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_density_exits_2(self, tmp_path, capsys, bad):
        doc = _m2_density_doc()
        doc["state"]["density"][0][0] = [bad, 0.0]
        assert main(["entropy", _write(tmp_path, doc), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

    @pytest.mark.parametrize("doc", [
        {"algebra": {"blocks": [[2]]}, "state": {"density": _mat(np.eye(2) / 2)}},
        _m2_density_doc(options={"seed": "x"}),
        _m2_density_doc(options={"tol": "abc"}),
        _m2_density_doc(options={"tol": float("nan")}),
        _m2_density_doc(options={"samples": "x"}),
        # int() and float() would parse these; the file format documents numbers
        _m2_density_doc(options={"samples": "12"}),
        _m2_density_doc(options={"seed": " 7 "}),
        _m2_density_doc(options={"tol": "1e-9"}),
        {"algebra": {"generators": 5}, "state": {"density": _mat(np.eye(2) / 2)}},
        {"algebra": {"blocks": [[1, 1]]},
         "state": {"canonical": {"p": ["x"], "rhos": [_mat(np.eye(1))]}}},
        {"algebra": {"blocks": [[1, 1]]}, "state": {"canonical": {"p": [1.0], "rhos": 3}}},
        {"algebra": {"blocks": [[1, 1]]}, "state": {"values": [[1.0, 0.0]], "basis": 7}},
        {"algebra": {"generators": [_mat(np.diag([1.0, 2.0]))]},
         "state": {"density": _mat(np.eye(3) / 3)}},
        {"algebra": {"generators": [_mat(np.diag([1.0, 2.0]))]},
         "state": {"values": [[1.0, 0.0], [0.0, 0.0]], "basis": [_mat(np.eye(3))] * 2}},
        # numpy would read these entries as 0.5, 1.0 or 0.0; the file format documents numbers
        {"algebra": {"blocks": [[2, 1]]},
         "state": {"density": [[["0.5", 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}},
        {"algebra": {"blocks": [[2, 1]]},
         "state": {"density": [[[0.5, False], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}},
        {"algebra": {"generators": [[[[True, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]]},
         "state": {"density": _mat(np.eye(2) / 2)}},
        {"algebra": {"blocks": [[1, 1]]},
         "state": {"values": [["1.0", 0.0]], "basis": [_mat(np.eye(1))]}},
        {"algebra": {"blocks": [[1, 1]]},
         "state": {"values": [[1.0, 0.0]], "basis": [[[[True, 0.0]]]]}},
        {"algebra": {"blocks": [[1, 1]]},
         "state": {"canonical": {"p": ["1.0"], "rhos": [_mat(np.eye(1))]}}},
        {"algebra": {"blocks": [[1, 1]]},
         "state": {"canonical": {"p": [True], "rhos": [_mat(np.eye(1))]}}},
        # an integer literal that no float holds
        {"algebra": {"blocks": [[1, 1]]}, "state": {"density": [[[10**400, 0]]]}},
        _m2_density_doc(options={"tol": True}),
        _m2_density_doc(options={"tol": 10**400}),
        {"algebra": {"blocks": [[1, 1]]}, "state": {"density": [[[1.0, 0.0, 0.0]]]}},
        [_m2_density_doc()],
        _m2_density_doc(options=[1e-9]),
        _m2_density_doc(options={"tol": 0.0}),
        {"algebra": {"blocks": [[1, 1]]}, "state": {"canonical": {"p": [1.0]}}},
    ], ids=["short_block", "seed", "tol", "nan_tol", "samples",
            "numeric_string_samples", "numeric_string_seed", "numeric_string_tol",
            "generators_not_list", "canonical_p_not_numeric", "rhos_not_list", "basis_not_list",
            "density_shape_vs_generators", "basis_shape_vs_generators",
            "density_string_entry", "density_boolean_entry", "generator_boolean_entry",
            "values_string_pair", "basis_boolean_element", "canonical_p_string",
            "canonical_p_boolean", "density_integer_beyond_float_range", "tol_boolean",
            "tol_integer_beyond_float_range", "density_triple_not_pair", "top_level_not_object",
            "options_not_object", "tol_zero", "canonical_without_rhos"])
    def test_malformed_field_is_one_error_line(self, tmp_path, capsys, doc):
        assert main(["oracle", _write(tmp_path, doc)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("options,flags", [
        ({"samples": 1e30}, []),
        ({}, ["--samples", "1" + "0" * 30]),
    ], ids=["file_1e30", "flag_of_31_digits"])
    def test_samples_above_the_bound_exit_2_at_once(self, tmp_path, capsys, options, flags):
        # a scan of 10**30 samples would never end; anything above 10**8 is an input error
        path = _write(tmp_path, _m2_density_doc(options=options))
        start = time.perf_counter()
        assert main(["oracle", path, "--json", *flags]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == "" and "samples must be at most 100000000" in captured.err

    @pytest.mark.parametrize("field", ["samples", "seed"])
    def test_infinite_integer_option_is_one_error_line(self, tmp_path, capsys, field):
        # a JSON 1e400 (or Infinity) parses as inf, which int() cannot convert
        doc = _m2_density_doc(options={field: 1e400})
        assert main(["oracle", _write(tmp_path, doc), "--json"]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == "" and len(err) == 1 and err[0].startswith("error:")
        assert field in err[0]

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol_flag_is_one_error_line(self, tmp_path, capsys, tol):
        # argparse reads both as floats; the flag is decoded as a JSON number would be
        assert main(["oracle", _write(tmp_path, _m2_density_doc()), "--tol", tol, "--json"]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == "" and len(err) == 1 and err[0].startswith("error:")
        assert "tol" in err[0]

    @pytest.mark.parametrize("options", [
        {"samples": 2.7}, {"samples": True}, {"seed": 1.5}, {"seed": True},
    ], ids=["fractional_samples", "boolean_samples", "fractional_seed", "boolean_seed"])
    def test_non_integer_option_is_rejected_not_truncated(self, tmp_path, capsys, options):
        assert main(["oracle", _write(tmp_path, _m2_density_doc(options=options)), "--json"]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == "" and len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("dim", [2.7, "2", True, float("nan"), 1e18, 10**20],
                             ids=["fraction", "numeric_string", "bool", "nan", "1e18", "1e20"])
    def test_block_dimension_that_is_not_a_usable_integer_exits_2(self, tmp_path, capsys, dim):
        # 1e18 and 10**20 are integers, but numpy cannot index a d x d complex array of them
        doc = {"algebra": {"blocks": [[dim, 1]]}, "state": {"density": _mat(np.eye(2) / 2)}}
        assert main(["entropy", _write(tmp_path, doc), "--json"]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == "" and len(err) == 1 and err[0].startswith("error: algebra blocks:")

    def test_integral_float_block_dimensions_still_run(self, tmp_path, capsys):
        outputs = []
        for blocks in ([[2, 1]], [[2.0, 1.0]]):
            doc = {"algebra": {"blocks": blocks}, "state": {"density": _mat(np.diag([0.25, 0.75]))}}
            assert main(["entropy", _write(tmp_path, doc), "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_integral_float_options_still_run(self, tmp_path, capsys):
        doc = _m2_density_doc(options={"samples": 40.0, "seed": 3.0})
        assert main(["oracle", _write(tmp_path, doc), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["samples"] == 40


_UNITS = embedded_standard_basis(ce.make_algebra([(2, 1), (1, 1)]))
_OUTSIDE = _UNITS[4] + np.eye(3)[:, [0]] @ np.eye(3)[[2]]   # E_33 + E_13


class TestDeclaredBasis:
    """A values-form basis must be exactly algebra_dim independent elements of the algebra."""

    @pytest.mark.parametrize("basis,values,message", [
        ([_UNITS[0] + _UNITS[3], _UNITS[1], _UNITS[2], _UNITS[4]], [0.6, 0, 0, 0.4], "exactly 5"),
        ([_UNITS[0], _UNITS[1], _UNITS[2], _UNITS[4], _UNITS[0] + _UNITS[4]], [0.3, 0, 0, 0.4, 0.7],
         "linearly independent"),
        ([*_UNITS[:4], _OUTSIDE], [0.5, 0, 0, 0.5, 0], "does not lie in the embedded algebra"),
    ], ids=["missing", "dependent", "outside"])
    def test_bad_basis_is_one_error_line_exit_2(self, tmp_path, capsys, basis, values, message):
        doc = {"algebra": {"blocks": [[2, 1], [1, 1]]},
               "state": {"values": [[v, 0.0] for v in values], "basis": [_mat(b) for b in basis]}}
        assert main(["entropy", _write(tmp_path, doc), "--json"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("invalid input:") and message in err[0]


class TestDeterminism:
    def test_byte_identical_json_output(self, tmp_path, capsys):
        rng = rng_stream(113)
        st = ce.make_algebra([(2, 1), (1, 1)])
        v = random_isometry(3, 3, rng)
        gens = [v @ ce.embed(ce.random_element(st, rng)) @ v.conj().T for _ in range(2)]
        rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
        doc = {
            "algebra": {"generators": [_mat(g) for g in gens]},
            "state": {"density": _mat(rho)},
            "options": {"seed": 9, "samples": 64},
        }
        path = _write(tmp_path, doc)
        outputs = []
        for _ in range(2):
            assert main(["oracle", path, "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_problem_roundtrip_through_serialization(self, tmp_path, capsys):
        # re-serializing the parsed matrices reproduces the same report
        rho = np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]])
        doc = {
            "algebra": {"blocks": [[2, 1]]},
            "state": {"density": _mat(rho)},
        }
        assert main(["entropy", _write(tmp_path, doc), "--json"]) == 0
        first = capsys.readouterr().out
        reparsed = _mat(np.asarray(doc["state"]["density"], float)[..., 0]
                        + 1j * np.asarray(doc["state"]["density"], float)[..., 1])
        doc2 = {"algebra": {"blocks": [[2, 1]]}, "state": {"density": reparsed}}
        assert main(["entropy", _write(tmp_path, doc2, "p2.json"), "--json"]) == 0
        assert capsys.readouterr().out == first
