"""Acceptance gate: the headline claims, each reported as one PASS/FAIL line.

Run with plain pytest; the per-criterion lines appear in the terminal summary
block (see conftest.record_acceptance).
"""

from __future__ import annotations

import contextlib
import itertools
import time

import numpy as np

from conftest import record_acceptance

from bcabe.certify import cost_certificate
from bcabe.cuts import activation_distill, enumerate_cuts, analyze_cut, lp_lower_bound
from bcabe.protocol import init_network, locc_audit, prepare_bcabe, teleport
from bcabe.states import (
    FamilyLabel,
    build_family,
    family_support_projector,
    ghz_basis,
    pauli_connection_search,
    verify_recursion,
)
from bcabe.tensor import DensityMatrix, PureState, partial_trace, partial_transpose, \
    trace_distance

import oracles
from oracles import enumerate_parity_strings, tensor_product

ALL_FAMILIES = list(FamilyLabel)


@contextlib.contextmanager
def criterion(number: int, name: str):
    note = {"detail": ""}
    try:
        yield note
    except BaseException as exc:
        record_acceptance(number, name, False, note["detail"] or repr(exc))
        raise
    record_acceptance(number, name, True, note["detail"])


def test_1_smolin_equivalence():
    with criterion(1, "smolin-equivalence") as note:
        start = time.perf_counter()
        distance = trace_distance(build_family(4, FamilyLabel.RHO_PLUS),
                                  DensityMatrix(4, oracles.smolin_state()))
        elapsed = time.perf_counter() - start
        note["detail"] = f"distance {distance:.2e} < 1e-12, {elapsed:.2f}s"
        assert distance < 1e-12
        assert elapsed < 1.0


def test_2_recursion():
    with criterion(2, "recursion") as note:
        start = time.perf_counter()
        worst = 0.0
        for two_n in (4, 6, 8):
            checks = verify_recursion({f: build_family(two_n, f) for f in ALL_FAMILIES})
            assert len(checks) == 8
            worst = max(worst, max(c.distance for c in checks))
        elapsed = time.perf_counter() - start
        note["detail"] = f"24 identities, max distance {worst:.2e} < 1e-12, {elapsed:.1f}s"
        assert worst < 1e-12
        assert elapsed < 30.0


def test_3_basis_structure():
    with criterion(3, "basis-structure") as note:
        worst = 0.0
        for two_n in (4, 6):
            for parity_class in ("p", "q"):
                assert len(enumerate_parity_strings(two_n, parity_class)) == 2 ** (two_n - 2)
            vectors = ghz_basis(two_n)
            assert len(vectors) == 2 ** two_n
            gram = vectors.conj() @ vectors.T
            worst = max(worst, float(np.abs(gram - np.eye(len(vectors))).max()))
        note["detail"] = f"Gram residual {worst:.2e} < 1e-12"
        assert worst < 1e-12


def test_4_cut_structure():
    with criterion(4, "cut-structure") as note:
        start = time.perf_counter()
        npt_margin = 0.0
        ppt_floor = 0.0
        for two_n in (4, 6):
            for label in ALL_FAMILIES:
                rho = build_family(two_n, label)
                for report in analyze_cut(rho, enumerate_cuts(two_n, side_size=1)):
                    assert report.classification == "NPT"
                    npt_margin = min(npt_margin, report.min_eigenvalue)
                for report in analyze_cut(rho, enumerate_cuts(two_n, side_size=2)):
                    if min(len(report.cut.side_a), len(report.cut.side_b)) != 2:
                        continue
                    assert report.classification == "PPT"
                    assert report.min_eigenvalue >= -1e-10
                    ppt_floor = min(ppt_floor, report.min_eigenvalue)
        elapsed = time.perf_counter() - start
        note["detail"] = (f"NPT margin {npt_margin:.4f}, PPT floor {ppt_floor:.1e}, "
                          f"{elapsed:.1f}s")
        assert npt_margin < -1e-10
        assert elapsed < 60.0


def test_5_activation():
    with criterion(5, "activation") as note:
        worst_prob = 0.0
        worst_fidelity = 0.0
        cases = [(4, residual) for residual in itertools.combinations(range(1, 5), 2)]
        cases.append((6, (1, 2)))
        for two_n, residual in cases:
            supports = {f: family_support_projector(two_n - 2, f) for f in FamilyLabel}
            for label in ALL_FAMILIES:
                rho = build_family(two_n, label)
                outcomes = activation_distill(rho, label, [residual], supports)[residual]
                for outcome in outcomes.values():
                    worst_prob = max(worst_prob, abs(outcome.probability - 0.25))
                    worst_fidelity = max(worst_fidelity, abs(outcome.fidelity - 1.0))
        note["detail"] = (f"probability error {worst_prob:.2e}, "
                          f"fidelity error {worst_fidelity:.2e}, both < 1e-12")
        assert worst_prob < 1e-12
        assert worst_fidelity < 1e-12


def test_6_lower_bound():
    with criterion(6, "lower-bound") as note:
        start = time.perf_counter()
        values = {}
        for two_n in (4, 6, 8, 10):
            value, witness = lp_lower_bound(two_n, enumerate_cuts(two_n, side_size=1))
            assert abs(value - two_n / 2) <= 1e-9
            assert abs(witness.total() - value) <= 1e-9
            values[two_n] = value
        elapsed = time.perf_counter() - start
        note["detail"] = f"optima {values} match N, {elapsed:.2f}s"
        assert elapsed < 1.0


def test_7_protocol_exactness():
    with criterion(7, "protocol-exactness") as note:
        start = time.perf_counter()
        worst = 0.0
        for two_n in (4, 6):
            for label in ALL_FAMILIES:
                certificate, ensemble, transcript = cost_certificate(two_n, label)
                distance = trace_distance(ensemble.mixed, build_family(two_n, label))
                worst = max(worst, distance)
                assert distance < 1e-12
                assert ensemble.singlets_used == two_n // 2
                assert locc_audit(transcript) == []
                assert certificate.exact
                assert certificate.achieved == two_n // 2
        elapsed = time.perf_counter() - start
        note["detail"] = f"8 certificates exact, max distance {worst:.2e}, {elapsed:.1f}s"
        assert elapsed < 120.0


def test_8_sampled_mode_sanity():
    with criterion(8, "sampled-mode-sanity") as note:
        ensemble, _ = prepare_bcabe(4, FamilyLabel.RHO_PLUS, mode="sampled",
                                    seed=0, samples=10000)
        distance = trace_distance(ensemble.mixed, build_family(4, FamilyLabel.RHO_PLUS))
        note["detail"] = f"distance {distance:.4f} < 0.05 at M=10000, seed 0"
        assert distance < 0.05


def test_9_property_suites():
    with criterion(9, "property-suites") as note:
        rng = np.random.default_rng(42)

        # teleportation branch-independence for an arbitrary payload
        payload = rng.normal(size=2) + 1j * rng.normal(size=2)
        payload /= np.linalg.norm(payload)
        net = init_network(4)
        qid = net.next_qubit_id
        net.next_qubit_id += 1
        net.amplitudes = np.kron(net.amplitudes, payload)
        net.qubit_order.append(qid)
        net.ownership[qid] = 1
        branches = teleport(net, 1, 2, qid)
        assert len(branches) == 4
        for prob, branch in branches:
            assert abs(prob - 0.25) < 1e-12
            state = PureState(len(branch.qubit_order), branch.amplitudes)
            discard = [i + 1 for i, q in enumerate(branch.qubit_order) if q != 2]
            carried = partial_trace(oracles.density_of(state), discard)
            assert np.allclose(carried.entries, np.outer(payload, payload.conj()),
                               atol=1e-12)

        # partial-transpose involution is entry-exact (second pass via the
        # independent reference, since the intermediate need not be PSD)
        rho = DensityMatrix(3, oracles.random_density(8, rng))
        once = partial_transpose(rho, [1, 3])
        twice = oracles.pt_reference(once, [1, 3], 3)
        assert np.array_equal(twice, rho.entries)

        # partial trace inverts the tensor product
        left = DensityMatrix(2, oracles.random_density(4, rng))
        right = DensityMatrix(1, oracles.random_density(2, rng))
        recovered = partial_trace(tensor_product(left, right), [3])
        assert np.allclose(recovered.entries, left.entries, atol=1e-12)

        # every ordered family pair is Pauli-connected at both sizes
        connected = 0
        for two_n in (4, 6):
            rho = {f: build_family(two_n, f) for f in ALL_FAMILIES}
            for a in ALL_FAMILIES:
                for b in ALL_FAMILIES:
                    if a is b:
                        continue
                    assert pauli_connection_search(rho[a], rho[b]) is not None
                    connected += 1
        note["detail"] = (f"teleport branches uniform, PT involution exact, "
                          f"trace inverts tensor, {connected} Pauli connections")
