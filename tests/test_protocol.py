"""Teleportation network, preparation ensembles, transcript audit, ebit ledger."""

from __future__ import annotations

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from bcabe import protocol
from bcabe.protocol import (
    ProtocolError,
    _bell_measure,
    _pick,
    ProtocolTranscript,
    bell_correlated_tuples,
    bell_generate,
    default_pairing,
    ebit_accounting,
    init_network,
    locc_audit,
    prepare_bcabe,
    teleport,
)
from bcabe.states import (
    BELL_ORDER,
    BellLabel,
    FamilyLabel,
    bell_product_state,
    _class_members,
    bell_tuple_decomposition,
    build_family,
)
from bcabe.tensor import PureState, partial_trace, trace_distance

import oracles

ALL_FAMILIES = list(FamilyLabel)

# recorded from the per-branch engine and unchanged since; the id hashes
# every event, including each measurement probability to the last bit
EXACT_TRANSCRIPT_IDS = [
    (4, FamilyLabel.RHO_PLUS, "2254ac81a5edb148"),
    (4, FamilyLabel.RHO_MINUS, "552fd07bafd1f5a9"),
    (4, FamilyLabel.SIGMA_PLUS, "54ec6c51b8d2842b"),
    (4, FamilyLabel.SIGMA_MINUS, "229142aaaf2e106c"),
    (6, FamilyLabel.RHO_PLUS, "48346b3bf9832eea"),
    (6, FamilyLabel.RHO_MINUS, "ac6769fb73d0d168"),
    (6, FamilyLabel.SIGMA_PLUS, "da339011e4c50271"),
    (6, FamilyLabel.SIGMA_MINUS, "370580cf4ee63994"),
]

# the tapes' sign rows mixed in integers and divided once: each exact mixture is its
# family's ideal dyadic X, 2^-(2N-1) on the class members, whatever the BLAS; the float
# mix of the Bell products before it left rounding residues off the X
EXACT_MIXTURE_SHA256 = [
    (4, FamilyLabel.RHO_PLUS, "73ba2a7cb54b83750a89a82ff16cd6c6af53fd78fe6306a6bf2ba55b6e2d05da"),
    (4, FamilyLabel.RHO_MINUS, "f2167c2a5f1303677369ced28c5f54f7e547fcb0dd896dbaf82a016687df9634"),
    (4, FamilyLabel.SIGMA_PLUS, "ccab86d70ff917b2ee54341a5b32445cb4a5abf8997fa391d27ebf2daf6d7a42"),
    (4, FamilyLabel.SIGMA_MINUS, "6db0604c4f5dcb3d034508e8d75ba0f091ad09d9ef6e517641dd7e5a139d35c0"),
    (6, FamilyLabel.RHO_PLUS, "d1d8654e0bba312d969c58009d6a731cba9f366be1120992fd12ead2dab34eec"),
    (6, FamilyLabel.RHO_MINUS, "c8158a31b08d4aef38db5eb2fde000590ff80d569dce29431e369d8e16bac8c1"),
    (6, FamilyLabel.SIGMA_PLUS, "ff41bc3c1f8a8f69f4b097106a62f8b9a6882be8c01ae95cc59cd6fb95e55461"),
    (6, FamilyLabel.SIGMA_MINUS, "8551a761d7ca506854cd03858986965f12669665006aab21c09fecf1d2581535"),
    (8, FamilyLabel.RHO_PLUS, "77e106410ac7191101dd79d326423ddeed945e24101fa246140746db35cb4b68"),
    (8, FamilyLabel.RHO_MINUS, "caf2e571c4de5fdc3f403bdd24989f5691a67e8d183668778640134975f9fdbb"),
    (8, FamilyLabel.SIGMA_PLUS, "02b742815af0a11e26b00670bdcc9da53f15151cc4da1f5d917a190abd3dcee1"),
    (8, FamilyLabel.SIGMA_MINUS, "5ba7767684ce751880f3a173fa127299ffbd3b6d44c1018e069298aed846398a"),
]


def _teleport_roundtrip(payload: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Send a fresh local qubit in state `payload` from party 1 to party 2."""
    net = init_network(4)
    qid = net.next_qubit_id
    net.next_qubit_id += 1
    net.amplitudes = np.kron(net.amplitudes, payload)
    net.qubit_order.append(qid)
    net.ownership[qid] = 1
    out = []
    for prob, branch in teleport(net, 1, 2, qid):
        # qubit 2 (party 2's singlet half) now carries the payload
        assert branch.owner_of(2) == 2
        state = PureState(len(branch.qubit_order), branch.amplitudes)
        discard = [i + 1 for i, q in enumerate(branch.qubit_order) if q != 2]
        reduced = partial_trace(oracles.density_of(state), discard)
        out.append((prob, reduced.entries))
    return out


def _sampled_runs(two_n: int, seed: int, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Each sampled run's tape and uniforms, drawn from the stream prepare_bcabe reads.

    Each run draws its tape bits, then one uniform per pair step.
    """
    rng, tapes, draws = np.random.default_rng(seed), [], []
    for _ in range(samples):
        tapes.append(int("".join(map(str, rng.integers(0, 2, two_n - 2))), 2))
        draws.append(rng.random(two_n // 2))
    return np.array(tapes), np.array(draws)


class TestTape:
    def test_rejects_non_bits(self, canonical):
        # a tape from outside arrives only through a transcript header
        head, *events = canonical.to_lines()
        header = json.loads(head) | {"tape": "10x1"}
        with pytest.raises(ValueError, match="'tape'"):
            ProtocolTranscript.from_lines([json.dumps(header)] + events)


class TestNetworkSetup:
    def test_initial_holdings(self):
        net = init_network(4)
        assert net.pairing == ((1, 2), (3, 4))
        assert net.ownership == {1: 1, 2: 2, 3: 3, 4: 4}
        assert len(net.singlets) == 2
        # each singlet half is maximally mixed on its own
        state = PureState(4, net.amplitudes)
        marginal = partial_trace(oracles.density_of(state), [2, 3, 4])
        assert np.allclose(marginal.entries, np.eye(2) / 2)

    def test_custom_pairing(self):
        net = init_network(4, pairing=((1, 3), (2, 4)))
        assert net.singlets[0][:2] == (1, 3)

    def test_bad_pairings(self):
        with pytest.raises(ValueError):
            init_network(4, pairing=((1, 2), (2, 4)))   # party repeated
        with pytest.raises(ValueError):
            init_network(4, pairing=((1, 2),))          # party missing
        with pytest.raises(ValueError):
            init_network(5)                             # odd size unsupported

    def test_clone_tapes_are_independent(self):
        net = init_network(4)
        net.tape = "0110"
        bell_generate(net, 1, BellLabel.PHI_PLUS)
        branches = teleport(net, 1, 2, 6)
        assert len(branches) == 4
        for _, branch in branches:
            assert branch.build_transcript().tape_bits == "0110"

    def test_networks_compare_by_identity(self):
        # a field-wise comparison would ask numpy for the truth of an amplitude array
        net = init_network(4)
        assert net == net
        assert (init_network(4) == init_network(4)) is False

    def test_bell_generate_is_local(self):
        net = init_network(4)
        bell_generate(net, 3, BellLabel.PSI_MINUS)
        assert net.ownership[5] == 3 and net.ownership[6] == 3
        assert net.events[-1]["kind"] == "bell-generated"
        with pytest.raises(ProtocolError):
            bell_generate(net, 9, BellLabel.PHI_PLUS)


class TestTeleport:
    @pytest.mark.parametrize("payload", [
        np.array([1.0, 0.0], dtype=complex),
        np.array([0.0, 1.0], dtype=complex),
        np.array([1.0, 1.0], dtype=complex) / np.sqrt(2),
        np.array([0.6, 0.8j], dtype=complex),
    ])
    def test_transports_any_state_on_every_branch(self, payload):
        branches = _teleport_roundtrip(payload)
        assert len(branches) == 4
        target = np.outer(payload, payload.conj())
        for prob, reduced in branches:
            assert prob == pytest.approx(0.25, abs=1e-12)
            assert np.allclose(reduced, target, atol=1e-12)

    def test_transports_entanglement(self):
        # teleport half of a psi- pair; the far pair must end up psi- exactly
        net = init_network(4)
        bell_generate(net, 1, BellLabel.PSI_MINUS)
        for prob, branch in teleport(net, 1, 2, 6):
            assert prob == pytest.approx(0.25, abs=1e-12)
            state = PureState(len(branch.qubit_order), branch.amplitudes)
            discard = [i + 1 for i, q in enumerate(branch.qubit_order) if q not in (5, 2)]
            pair = partial_trace(oracles.density_of(state), discard)
            slot5 = [q for q in branch.qubit_order if q in (5, 2)]
            want = oracles.BELL_VECTORS["psi-"]
            if slot5 != [5, 2]:
                want = want.reshape(2, 2).T.reshape(-1)
            assert np.allclose(pair.entries, np.outer(want, want.conj()), atol=1e-12)

    def test_bell_measure_matches_reference(self):
        # generic states, so every rounding step shows in the last bits; each
        # must equal the single-branch reference arithmetic exactly
        rng = np.random.default_rng(6)
        block = rng.normal(size=(5, 2 ** 10)) + 1j * rng.normal(size=(5, 2 ** 10))
        order = list(range(1, 11))
        for row in block:
            got = _bell_measure(row, 9, 3, 4)
            want = oracles.bell_measure_reference(row, order, 10, 4, 6)
            assert [p for p, _ in got] == [p for p, _ in want]
            for (_, amps), (_, want_amps) in zip(got, want):
                assert amps.tobytes() == want_amps.tobytes()

    def test_pick_matches_generator_choice(self):
        rng = np.random.default_rng(8)
        probs = rng.random((300, 4))
        draws = np.array([np.random.default_rng(s).random() for s in range(300)])
        want = [np.random.default_rng(s).choice(4, p=row / row.sum())
                for s, row in enumerate(probs)]
        assert [_pick(row, draw) for row, draw in zip(probs, draws)] == want

    def test_requires_singlet(self):
        net = init_network(4)
        bell_generate(net, 1, BellLabel.PHI_PLUS)
        with pytest.raises(ProtocolError):
            teleport(net, 1, 3, 6)   # parties 1 and 3 never shared a singlet

    def test_requires_ownership(self):
        net = init_network(4)
        with pytest.raises(ProtocolError):
            teleport(net, 1, 2, 3)   # qubit 3 belongs to party 3
        with pytest.raises(ProtocolError):
            teleport(net, 1, 2, 99)  # not live at all

    def test_singlet_consumed_once(self):
        net = init_network(4)
        bell_generate(net, 1, BellLabel.PHI_PLUS)
        _, branch = teleport(net, 1, 2, 6)[0]
        bell_generate(branch, 1, BellLabel.PHI_PLUS)
        with pytest.raises(ProtocolError):
            teleport(branch, 1, 2, branch.qubit_order[-1])

    def test_event_stream_shape(self):
        net = init_network(4)
        bell_generate(net, 1, BellLabel.PHI_MINUS)
        _, branch = teleport(net, 1, 2, 6)[2]
        kinds = [ev["kind"] for ev in branch.events]
        assert kinds == ["bell-generated", "local-measurement", "singlet-consumed",
                        "classical-message", "local-unitary"]
        measurement = branch.events[1]
        assert measurement["outcome"] == "10"
        assert measurement["probability"] == pytest.approx(0.25, abs=1e-12)


class TestTupleSupport:
    def test_smolin_tuples(self):
        tuples = bell_correlated_tuples(4, FamilyLabel.RHO_PLUS)
        assert len(tuples) == 4
        assert set(tuples) == {(b, b) for b in BellLabel}

    def test_six_qubit_count(self):
        tuples = bell_correlated_tuples(6, FamilyLabel.SIGMA_PLUS)
        assert len(tuples) == 16
        assert len(set(tuples)) == 16

    @pytest.mark.parametrize("label", ALL_FAMILIES)
    @pytest.mark.parametrize("two_n", [4, 6, 8])
    def test_parity_rule_matches_decomposition(self, two_n, label):
        # the dense decomposition finds the same support, in the same order, for any pairing
        rho = build_family(two_n, label)
        want = bell_correlated_tuples(two_n, label)
        half = two_n // 2
        for pairing in (default_pairing(two_n), tuple((k, k + half) for k in range(1, half + 1))):
            assert [labels for labels, _ in bell_tuple_decomposition(rho, pairing)] == want


class TestPreparation:
    @pytest.mark.parametrize("label", ALL_FAMILIES)
    def test_exact_four_qubits(self, label):
        ensemble, transcript = prepare_bcabe(4, label, mode="exact")
        assert ensemble.singlets_used == 2
        assert ensemble.singlets_used == ebit_accounting(transcript)[0]
        assert np.trace(ensemble.mixed.entries).real == pytest.approx(1.0, abs=1e-12)
        assert trace_distance(ensemble.mixed, build_family(4, label)) < 1e-12
        assert locc_audit(transcript) == []

    @pytest.mark.parametrize("label", ALL_FAMILIES)
    def test_exact_six_qubits(self, label):
        ensemble, transcript = prepare_bcabe(6, label, mode="exact")
        assert ensemble.singlets_used == 3
        assert ensemble.singlets_used == ebit_accounting(transcript)[0]
        assert trace_distance(ensemble.mixed, build_family(6, label)) < 1e-12
        assert locc_audit(transcript) == []

    @pytest.mark.parametrize("size", [4, 6])
    @pytest.mark.parametrize("label", ALL_FAMILIES)
    def test_exact_matches_per_branch_oracle(self, size, label):
        # the dense simulation of every branch, mixed densely, against the tapes' Bell
        # products mixed in one product: each branch of a tape is its product, so the
        # sums differ by rounding alone, each entry within 4 ulps of the largest, 2^-(2N-1)
        ensemble, _ = prepare_bcabe(size, label, mode="exact")
        tuples = bell_correlated_tuples(size, label)
        branches = oracles.protocol_branches(size, [tuple(b.value for b in t) for t in tuples])
        weights = np.array([prob for prob, _ in branches])
        amps = np.array([row for _, row in branches])
        assert len(branches) == len(tuples) * 4 ** (size // 2)
        want = oracles.mix_reference(weights, amps)
        bound = 4 * np.spacing(2.0 ** -(size - 1))
        assert np.abs(ensemble.mixed.entries - want).max() <= bound

    @pytest.mark.parametrize("size, label, seed, pairing", [
        (4, FamilyLabel.RHO_PLUS, 1, None), (4, FamilyLabel.SIGMA_MINUS, 2, None),
        (6, FamilyLabel.RHO_MINUS, 1, None), (6, FamilyLabel.SIGMA_PLUS, 2, None),
        (6, FamilyLabel.RHO_PLUS, 1, ((1, 4), (2, 6), (3, 5))),
    ])
    def test_sampled_weights_are_tape_shares(self, size, label, seed, pairing):
        # a Bell product is not X-shaped, so a mixture kept on the X alone would merge
        # tuples (phi+ phi+ with phi- phi-) that only the full products tell apart
        samples = 500
        ensemble, _ = prepare_bcabe(size, label, mode="sampled", seed=seed, samples=samples,
                                    pairing=pairing)
        tuples = bell_correlated_tuples(size, label)
        counts = np.bincount(_sampled_runs(size, seed, samples)[0], minlength=len(tuples))
        shares = {tuples[t]: counts[t] / samples for t in np.flatnonzero(counts)}
        got = dict(bell_tuple_decomposition(ensemble.mixed, pairing or default_pairing(size)))
        assert set(got) == set(shares)
        for labels, weight in got.items():
            assert weight == pytest.approx(shares[labels], abs=1e-12)
        # the products are orthonormal, so the distance is half the L1 gap of the weights
        half_l1 = 0.5 * np.abs(counts / samples - 1 / len(tuples)).sum()
        assert trace_distance(ensemble.mixed, build_family(size, label)) == pytest.approx(
            half_l1, abs=1e-12)

    @pytest.mark.parametrize("size, label, seed", [
        (4, FamilyLabel.RHO_MINUS, 11),
        (6, FamilyLabel.SIGMA_PLUS, 12),
        (8, FamilyLabel.SIGMA_MINUS, 13),
    ])
    def test_mix_matches_dense_reference_sampled(self, size, label, seed):
        # each run's branch simulated densely: its tape's tuple, then at every step the
        # outcome its uniform picks from the four equal probabilities; the runs mixed
        # densely at weight 1/M each.  The sums differ by rounding alone, which over M
        # terms stays within M ulps of the largest entry
        samples = 300
        ensemble, _ = prepare_bcabe(size, label, mode="sampled", seed=seed, samples=samples)
        tuples = bell_correlated_tuples(size, label)
        tapes, draws = _sampled_runs(size, seed, samples)
        branches = {t: oracles.protocol_branches(size, [tuple(b.value for b in tuples[t])])
                    for t in set(tapes.tolist())}
        amps = []
        for tape, run in zip(tapes, draws):
            outcomes = [_pick(np.full(4, 0.25), draw) for draw in run]
            amps.append(branches[tape][int("".join(map(str, outcomes)), 4)][1])
        want = oracles.mix_reference(np.full(samples, 1 / samples), np.array(amps))
        bound = samples * np.spacing(np.abs(want).max())
        assert np.abs(ensemble.mixed.entries - want).max() <= bound

    @pytest.mark.parametrize("size, label, transcript_id", EXACT_TRANSCRIPT_IDS)
    def test_exact_transcript_id_pinned(self, size, label, transcript_id):
        _, transcript = prepare_bcabe(size, label, mode="exact")
        assert transcript.transcript_id == transcript_id

    @pytest.mark.parametrize("size, label, seed, transcript_id, distance", [
        (4, FamilyLabel.RHO_PLUS, 7, "dcfec776e530cbfa", 0.02700000000000001),
        (6, FamilyLabel.SIGMA_MINUS, 3, "c9327b616e2e8cf3", 0.028499999999999973),
    ])
    def test_sampled_payload_pinned(self, size, label, seed, transcript_id, distance):
        # the transcript ids were recorded from the per-sample engine, whose generator
        # stream (tape bits, then one choice per pair step) every later engine keeps
        ensemble, transcript = prepare_bcabe(size, label, mode="sampled",
                                             seed=seed, samples=2000)
        assert transcript.transcript_id == transcript_id
        assert trace_distance(ensemble.mixed, build_family(size, label)) == distance

    @pytest.mark.parametrize("size", [4, 6, 8])
    @pytest.mark.parametrize("label", ALL_FAMILIES)
    def test_exact_mixture_is_the_dyadic_x(self, size, label):
        # an integer sum divided by a power of two is exact: the mixture is the family's
        # ideal X, 2^-(2N-1) (times the sign on the anti-diagonal) on the class members and
        # zero elsewhere, bit for bit, and is kept on its two diagonals
        ensemble, _ = prepare_bcabe(size, label, mode="exact")
        members, step = _class_members(size, label.parity_class), 2.0 ** -(size - 1)
        diagonal, anti = ensemble.mixed.x_parts
        assert diagonal.tobytes() == np.where(members, step, 0.0).astype(complex).tobytes()
        assert anti.tobytes() == np.where(members, label.sign * step, 0.0).astype(complex).tobytes()

    @pytest.mark.parametrize("size, label, digest", EXACT_MIXTURE_SHA256)
    def test_exact_mixture_pinned(self, size, label, digest):
        # every bit of the exact mixture, so a change to how the tapes are
        # mixed shows here even where the distance to the target does not move
        ensemble, _ = prepare_bcabe(size, label, mode="exact")
        assert hashlib.sha256(ensemble.mixed.entries.tobytes()).hexdigest() == digest

    def test_exact_eight_qubits(self):
        # the preparation never holds a table of all the branches
        two_n = 8
        table_bytes = 2 ** (two_n - 2) * 4 ** (two_n // 2) * 2 ** two_n * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            ensemble, transcript = prepare_bcabe(two_n, FamilyLabel.RHO_PLUS, mode="exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table_bytes / 4
        assert np.trace(ensemble.mixed.entries).real == pytest.approx(1.0, abs=1e-12)
        assert trace_distance(ensemble.mixed, build_family(8, FamilyLabel.RHO_PLUS)) < 1e-12
        assert locc_audit(transcript) == []

    @pytest.mark.parametrize("size, label, seed", [
        *((size, label, None) for size in (4, 6, 8) for label in ALL_FAMILIES),
        (4, FamilyLabel.SIGMA_MINUS, 3), (8, FamilyLabel.RHO_MINUS, 3),
        (6, FamilyLabel.RHO_PLUS, 11), (8, FamilyLabel.SIGMA_PLUS, 11),
    ])
    def test_transcript_equals_step_by_step_run(self, size, label, seed):
        # the transcript of exact mode, or of sampled run 0, equals the one a network writes
        # when it generates and teleports pair by pair: outcome 0 at every step in exact
        # mode; in sampled mode run 0's tape bits and Generator.choice picks, drawn here from
        # a generator seeded alike, which match the outcomes recorded; each probability is
        # measured on that network's one state
        mode = "exact" if seed is None else "sampled"
        _, transcript = prepare_bcabe(size, label, mode=mode, seed=seed or 0, samples=64)
        rng = np.random.default_rng(seed)
        tape = "0" * (size - 2) if seed is None else "".join(map(str, rng.integers(0, 2, size - 2)))
        net = init_network(size)
        net.tape = tape
        chosen = bell_correlated_tuples(size, label)[int(tape, 2)]
        for (leader, partner), bell in zip(net.pairing, chosen):
            bell_generate(net, leader, bell)
            branches = teleport(net, leader, partner, net.qubit_order[-1])
            probs = np.array([prob for prob, _ in branches])
            net = branches[0 if seed is None else rng.choice(4, p=probs / probs.sum())][1]
        assert net.build_transcript() == transcript
        assert net.build_transcript().to_lines() == transcript.to_lines()

    def test_sampled_eight_qubits_memory(self):
        # a table of every run's final row would be samples x 2^(2N) amplitudes;
        # the runs are mixed by tape, so the peak stays well below it
        two_n, samples = 8, 10000
        table_bytes = samples * 2 ** two_n * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            prepare_bcabe(two_n, FamilyLabel.RHO_PLUS, mode="sampled", samples=samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table_bytes / 4

    @pytest.mark.parametrize("size", [4, 6])
    @pytest.mark.parametrize("label", ALL_FAMILIES)
    def test_every_branch_is_its_tapes_bell_product(self, size, label):
        # the dense simulation of every branch: each ends, up to a global phase, in
        # the Bell product bell_product_state gives its tape's tuple
        tuples = bell_correlated_tuples(size, label)
        rows = bell_product_state(tuples, default_pairing(size), size)
        branches = oracles.protocol_branches(size, [tuple(b.value for b in t) for t in tuples])
        per_tape = 4 ** (size // 2)
        for b, (_, amps) in enumerate(branches):
            assert abs(np.vdot(rows[b // per_tape], amps)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("outcome", [BellLabel.PHI_MINUS, BellLabel.PSI_PLUS,
                                         BellLabel.PSI_MINUS])
    def test_doctored_correction_raises(self, outcome, monkeypatch):
        # one outcome left unfixed (no flip, no sign): that branch differs from the other three
        fixes = list(protocol._FIXES)
        fixes[outcome.index] = (0, 0)
        monkeypatch.setattr(protocol, "_FIXES", fixes)
        with pytest.raises(ProtocolError, match=r"teleport branches of pair \(1, 2\) differ"):
            prepare_bcabe(6, FamilyLabel.SIGMA_PLUS, mode="exact")

    def test_doctored_generation_raises(self, monkeypatch):
        # every pair generates its label with the minus bit flipped: each step's branches
        # agree, but the run ends on a product outside the family's support
        genuine = protocol.bell_generate
        monkeypatch.setattr(protocol, "bell_generate", lambda net, party, label: genuine(
            net, party, BELL_ORDER[label.index ^ 1]))
        with pytest.raises(ProtocolError, match="overlap 0.0 with tape 0000's product"):
            prepare_bcabe(6, FamilyLabel.SIGMA_PLUS, mode="exact")

    def test_sampled_converges(self):
        target = build_family(4, FamilyLabel.RHO_PLUS)
        distances = []
        for samples in (50, 500, 5000):
            ensemble, _ = prepare_bcabe(4, FamilyLabel.RHO_PLUS, mode="sampled",
                                        seed=7, samples=samples)
            distances.append(trace_distance(ensemble.mixed, target))
        assert distances[2] < distances[0]
        assert distances[2] < 0.05

    def test_sampled_reference_run(self):
        ensemble, transcript = prepare_bcabe(4, FamilyLabel.RHO_PLUS, mode="sampled",
                                             seed=0, samples=10000)
        distance = trace_distance(ensemble.mixed, build_family(4, FamilyLabel.RHO_PLUS))
        assert distance < 0.05
        assert locc_audit(transcript) == []

    @pytest.mark.parametrize("two_n, pairing", [(4, ((1, 3), (2, 4))),
                                                (6, ((1, 4), (2, 6), (3, 5)))])
    @pytest.mark.parametrize("label", ALL_FAMILIES)
    def test_nontrivial_pairing(self, two_n, pairing, label):
        ensemble, transcript = prepare_bcabe(two_n, label, mode="exact", pairing=pairing)
        assert trace_distance(ensemble.mixed, build_family(two_n, label)) < 1e-12
        assert locc_audit(transcript) == []
        total, weights = ebit_accounting(transcript)
        assert total == two_n // 2
        assert set(weights.weights) == set(pairing)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            prepare_bcabe(4, FamilyLabel.RHO_PLUS, mode="approximate")
        with pytest.raises(ValueError):
            prepare_bcabe(4, FamilyLabel.RHO_PLUS, mode="sampled", samples=0)
        with pytest.raises(ValueError):
            prepare_bcabe(10, FamilyLabel.RHO_PLUS)


@pytest.fixture(scope="module")
def canonical():
    _, transcript = prepare_bcabe(4, FamilyLabel.RHO_PLUS, mode="exact")
    return transcript


class TestTranscript:
    def test_roundtrip(self, canonical, tmp_path):
        lines = canonical.to_lines()
        assert ProtocolTranscript.from_lines(lines) == canonical
        path = tmp_path / "run.transcript"
        canonical.write(path)
        assert ProtocolTranscript.read(path) == canonical

    def test_id_stable_and_content_bound(self, canonical):
        assert len(canonical.transcript_id) == 16
        again = ProtocolTranscript.from_lines(canonical.to_lines())
        assert again.transcript_id == canonical.transcript_id
        tampered = ProtocolTranscript(
            num_parties=canonical.num_parties,
            pairing=canonical.pairing,
            tape_bits=canonical.tape_bits,
            initial_ownership=canonical.initial_ownership,
            singlets=canonical.singlets,
            events=canonical.events[:-1],
        )
        assert tampered.transcript_id != canonical.transcript_id

    def test_header_required(self):
        with pytest.raises(ValueError):
            ProtocolTranscript.from_lines(['{"kind": "classical-message"}'])

    @pytest.mark.parametrize("field", ["num_parties", "pairing", "tape",
                                       "initial_ownership", "singlets"])
    def test_header_field_missing_or_malformed(self, canonical, field):
        head, *events = canonical.to_lines()
        header = json.loads(head)
        without = {k: v for k, v in header.items() if k != field}
        with pytest.raises(ValueError, match=repr(field)):
            ProtocolTranscript.from_lines([json.dumps(without)] + events)
        with pytest.raises(ValueError, match=repr(field)):
            ProtocolTranscript.from_lines([json.dumps(header | {field: [["x"]]})] + events)

    @pytest.mark.parametrize("event", [
        {"kind": "local-unitary", "party": 1, "qubits": 5, "name": "Z"},
        {"kind": "local-unitary", "party": 1, "qubits": [[1]], "name": "Z"},
        {"kind": "bell-generated", "party": 1, "qubits": [[1]], "label": "phi+"},
        {"kind": "singlet-consumed", "pair": [1, "a"], "index": 1},
        {"kind": "singlet-consumed", "pair": 7, "index": 1},
        ["not", "an", "event"],
        "singlet-consumed",
        # well typed, but not the shape the protocol writes: one violation each
        {"kind": "bell-generated", "party": 1, "qubits": [], "label": "phi+"},
        {"kind": "bell-generated", "party": 1, "qubits": [9, 10, 11], "label": "nope"},
        {"kind": "local-unitary", "party": 2, "qubits": [], "name": "Q"},
        {"kind": "local-measurement", "party": 2, "qubits": [2], "basis": "bell", "outcome": "xx"},
        {"kind": "classical-message", "from": 1, "to": 2, "bits": "hello"},
    ])
    def test_audit_reports_malformed_events(self, canonical, event):
        doctored = ProtocolTranscript(
            canonical.num_parties, canonical.pairing, canonical.tape_bits,
            canonical.initial_ownership, canonical.singlets, canonical.events + (event,))
        assert len(locc_audit(doctored)) == 1
        total, weights = ebit_accounting(doctored)
        assert total == weights.total()

    def test_audit_passes(self, canonical):
        assert locc_audit(canonical) == []

    def test_audit_flags_nonlocal_operation(self, canonical):
        events = list(canonical.events)
        for i, ev in enumerate(events):
            if ev["kind"] == "local-unitary":
                events[i] = ev | {"party": ev["party"] % canonical.num_parties + 1}
                break
        doctored = ProtocolTranscript(
            canonical.num_parties, canonical.pairing, canonical.tape_bits,
            canonical.initial_ownership, canonical.singlets, tuple(events))
        violations = locc_audit(doctored)
        assert any("nonlocal quantum operation" in v for v in violations)

    def test_audit_flags_double_spend(self, canonical):
        events = list(canonical.events)
        spend = next(ev for ev in events if ev["kind"] == "singlet-consumed")
        events.append(spend)
        doctored = ProtocolTranscript(
            canonical.num_parties, canonical.pairing, canonical.tape_bits,
            canonical.initial_ownership, canonical.singlets, tuple(events))
        violations = locc_audit(doctored)
        assert any("singlet double-spend" in v for v in violations)

    def test_audit_flags_retired_qubit_use(self, canonical):
        measurement = next(ev for ev in canonical.events if ev["kind"] == "local-measurement")
        ghost = {"kind": "local-unitary", "party": measurement["party"],
                 "qubits": [measurement["qubits"][0]], "name": "Z"}
        doctored = ProtocolTranscript(
            canonical.num_parties, canonical.pairing, canonical.tape_bits,
            canonical.initial_ownership, canonical.singlets,
            canonical.events + (ghost,))
        violations = locc_audit(doctored)
        assert any("retired" in v for v in violations)

    def test_audit_flags_reused_retired_qubit_id(self, canonical):
        # qubits 6 and 1 were measured at event 1, so their ids are no longer fresh
        measurement = canonical.events[1]
        assert measurement["kind"] == "local-measurement" and measurement["qubits"] == [6, 1]
        reuse = {"kind": "bell-generated", "party": 1, "qubits": [6, 1], "label": "phi+"}
        doctored = ProtocolTranscript(
            canonical.num_parties, canonical.pairing, canonical.tape_bits,
            canonical.initial_ownership, canonical.singlets,
            canonical.events + (reuse,))
        at = f"event {len(canonical.events)}"
        assert locc_audit(doctored) == [f"{at}: generated qubit {q} is not fresh" for q in (6, 1)]

    @pytest.mark.parametrize("edits, expected", [
        # the measurement at event 1 still reads 00; the correction fits the sent bits only
        ({3: [{"bits": "11"}], 4: [{"name": "ZX"}]},
         ["event 3: bits 11 are not party 1's last outcome",
          "event 4: correction ZX fits no outcome received"]),
        ({4: [{"name": "Z"}]}, ["event 4: correction Z fits no outcome received"]),
        ({3: []}, ["event 3: correction I fits no outcome received"]),  # no message sent
        # measured, sent and corrected alike: consistent, so clean
        ({1: [{"outcome": "11"}], 3: [{"bits": "11"}], 4: [{"name": "ZX"}]}, []),
        # consistent, but the Z applied twice: the second Z undoes the fix it repeats
        ({1: [{"outcome": "01"}], 3: [{"bits": "01"}], 4: [{"name": "Z"}, {"name": "Z"}]},
         ["event 5: correction Z fits no outcome received"]),
    ], ids=["misreported-bits", "wrong-fix", "no-message", "consistent", "doubled-fix"])
    def test_audit_ties_correction_to_outcome(self, canonical, edits, expected):
        # each edited event is replaced by one copy per listed field update, none deleting it
        events = list(canonical.events)
        assert [events[k]["kind"] for k in (1, 3, 4)] == [
            "local-measurement", "classical-message", "local-unitary"]
        assert (events[1]["outcome"], events[3]["bits"], events[4]["name"]) == ("00", "00", "I")
        for k, updates in sorted(edits.items(), reverse=True):
            events[k:k + 1] = [events[k] | fields for fields in updates]
        doctored = ProtocolTranscript(
            canonical.num_parties, canonical.pairing, canonical.tape_bits,
            canonical.initial_ownership, canonical.singlets, tuple(events))
        assert locc_audit(doctored) == expected

    def test_audit_flags_unknown_kind(self, canonical):
        doctored = ProtocolTranscript(
            canonical.num_parties, canonical.pairing, canonical.tape_bits,
            canonical.initial_ownership, canonical.singlets,
            canonical.events + ({"kind": "entanglement-swap"},))
        assert locc_audit(doctored)


class TestEbitAccounting:
    def test_totals_and_breakdown(self):
        _, transcript = prepare_bcabe(6, FamilyLabel.RHO_PLUS, mode="exact")
        total, weights = ebit_accounting(transcript)
        assert total == 3
        assert weights.weights == {(1, 2): 1.0, (3, 4): 1.0, (5, 6): 1.0}
        assert weights.total() == 3.0
