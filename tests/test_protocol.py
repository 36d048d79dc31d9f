"""Teleportation network, preparation ensembles, transcript audit, ebit ledger."""

from __future__ import annotations

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from bcabe import protocol
from bcabe.protocol import (
    ROW_BLOCK,
    ProtocolError,
    _bell_measure,
    _mix,
    _nonzero_columns,
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
from bcabe.states import BellLabel, FamilyLabel, bell_tuple_decomposition, build_family
from bcabe.tensor import PureState, partial_trace, trace_distance

import oracles

ALL_FAMILIES = list(FamilyLabel)

# recorded from the per-branch engine; the id hashes every event,
# including each measurement probability to the last bit
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

EXACT_MIXTURE_SHA256 = [
    (4, FamilyLabel.RHO_PLUS, "3159c0c395be065e55b8ff37d2fd072ff39ee87eab086d89415a9f0e2500ebd4"),
    (4, FamilyLabel.RHO_MINUS, "6c215c95bad29c8151b81f99767c0fb6e40de02b3826a415528f7d9feb7e42dd"),
    (4, FamilyLabel.SIGMA_PLUS, "c5303bce4fbd589631763507106c932b255a130cca2c6d9ef47d07feed6a1587"),
    (4, FamilyLabel.SIGMA_MINUS, "f7e804ac34a93dd7622104d0dc45dd8ca96512f3ff0e9a85db72cfd58ed3bf2c"),
    (6, FamilyLabel.RHO_PLUS, "3df99cc3c58d042e2092ccb86d7af3a0401c69a534ec6a0911880199cf5ce5c1"),
    (6, FamilyLabel.RHO_MINUS, "7553d79fbea46a588b2f79a25bfe654e7758b19a46ff3227c841ab8e55baeffa"),
    (6, FamilyLabel.SIGMA_PLUS, "8d5b3382e4d315bd50a253b031dfb234d7d326649b00788522aa8f21077928c4"),
    (6, FamilyLabel.SIGMA_MINUS, "99c320b656ebefbf05f0621ad3ffd1a8997638532a770b07b7804f418aafbdbf"),
    # recorded from the dense einsum mix, before the sparse one replaced it
    (8, FamilyLabel.RHO_PLUS, "e3a9529f61615ddb9aa1d186398c706177e2abcfa06658a8fbaf1c494f2d435f"),
    (8, FamilyLabel.RHO_MINUS, "11e45f10efc1c4d5972a1f5a5f47e015facf72eef2631a1f903b29cdb0699ef1"),
    (8, FamilyLabel.SIGMA_PLUS, "88b32d897ed5efc30ac6edd020dff07f4019d0093d2ddb252009ff126f62344f"),
    (8, FamilyLabel.SIGMA_MINUS, "01682cc58f3a696fefb2b65a0016d79cdb09a22aee07b82804e2c87422c3c2d2"),
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


def _prepare_capturing(*args, blocks: list | None = None, **kwargs):
    """prepare_bcabe, plus every branch it mixed: (ensemble, transcript, weights, amps).

    Wraps protocol._mix and keeps a copy of each block's weights and of the
    rows its branches gather, so the branches are read through the one
    production path; rows in mixing order.  A list given as blocks receives
    each block's branch count.
    """
    captured, mix = [], protocol._mix

    def capture(out, weights, rows, cols, index):
        captured.append((weights.copy(), rows[index]))
        if blocks is not None:
            blocks.append(len(index))
        mix(out, weights, rows, cols, index)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "_mix", capture)
        ensemble, transcript = prepare_bcabe(*args, **kwargs)
    weights, amps = (np.concatenate(parts) for parts in zip(*captured))
    return ensemble, transcript, weights, amps


def _measured_rows(two_n: int) -> int:
    """Rows an exact prepare_bcabe hands _bell_measure.

    At step k one per distinct label prefix: 4**(k+1), or one per tape once each
    tape has its own.  The four corrected outcomes of a step agree byte for byte,
    so they add no row, and the transcript reads its execution off the same pass.
    """
    pairs, tapes = two_n // 2, 2 ** (two_n - 2)
    return sum(min(4 ** (k + 1), tapes) for k in range(pairs))


def _count_measured_rows(monkeypatch, bound: int) -> list[int]:
    """Spy on protocol._bell_measure: the rows it is handed, summed in a one-item list.

    Fails as soon as the sum passes bound, before the rows of a run whose outcome rows
    stopped being byte-identical grow x4 per step.
    """
    measured, measure = [0], protocol._bell_measure

    def spy(amps, *slots):
        measured[0] += len(amps)
        assert measured[0] <= bound, (
            f"more than {bound} rows Bell-measured: the outcome rows are not byte-identical")
        return measure(amps, *slots)

    monkeypatch.setattr(protocol, "_bell_measure", spy)
    return measured


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

    def test_bell_measure_rows_match_reference(self):
        # generic rows, so every rounding step shows in the last bits; each
        # row of the block must equal the single-branch arithmetic exactly
        rng = np.random.default_rng(6)
        block = rng.normal(size=(5, 2 ** 10)) + 1j * rng.normal(size=(5, 2 ** 10))
        probs, states = _bell_measure(block, 9, 3, 4)
        order = list(range(1, 11))
        for r, row in enumerate(block):
            want = oracles.bell_measure_reference(row, order, 10, 4, 6)
            assert probs[r].tolist() == [p for p, _ in want]
            for m, (_, amps) in enumerate(want):
                assert states[r, m].tobytes() == amps.tobytes()

    def test_pick_matches_generator_choice(self):
        rng = np.random.default_rng(8)
        probs = rng.random((300, 4))
        draws = np.array([np.random.default_rng(s).random() for s in range(300)])
        want = [np.random.default_rng(s).choice(4, p=row / row.sum())
                for s, row in enumerate(probs)]
        assert _pick(probs, draws).tolist() == want

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
        ensemble, transcript, weights, amps = _prepare_capturing(4, label, mode="exact")
        assert weights.shape == (64,)  # 4 tapes x 4^2 outcomes
        assert amps.shape == (64, 16)
        assert ensemble.singlets_used == 2
        assert ensemble.singlets_used == ebit_accounting(transcript)[0]
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(np.linalg.norm(amps, axis=1), 1, atol=1e-12)
        assert trace_distance(ensemble.mixed, build_family(4, label)) < 1e-12
        assert locc_audit(transcript) == []

    @pytest.mark.parametrize("label", [FamilyLabel.RHO_PLUS, FamilyLabel.SIGMA_MINUS])
    def test_exact_six_qubits(self, label):
        ensemble, transcript, weights, amps = _prepare_capturing(6, label, mode="exact")
        assert weights.shape == (1024,)  # 16 tapes x 4^3 outcomes
        assert amps.shape == (1024, 64)
        assert ensemble.singlets_used == 3
        assert ensemble.singlets_used == ebit_accounting(transcript)[0]
        assert trace_distance(ensemble.mixed, build_family(6, label)) < 1e-12
        assert locc_audit(transcript) == []

    @pytest.mark.parametrize("label", ALL_FAMILIES)
    def test_exact_four_matches_per_branch_oracle(self, label):
        _, _, weights, amps = _prepare_capturing(4, label, mode="exact")
        tuples = bell_correlated_tuples(4, label)
        want = oracles.protocol_branches(4, [tuple(b.value for b in t) for t in tuples])
        assert len(weights) == len(amps) == len(want)
        for prob, row, (want_prob, want_amps) in zip(weights, amps, want):
            assert prob == want_prob
            assert row.tobytes() == want_amps.tobytes()

    @pytest.mark.parametrize("size, label, transcript_id", EXACT_TRANSCRIPT_IDS)
    def test_exact_transcript_id_pinned(self, size, label, transcript_id):
        _, transcript = prepare_bcabe(size, label, mode="exact")
        assert transcript.transcript_id == transcript_id

    @pytest.mark.parametrize("size, label, seed, transcript_id, distance", [
        (4, FamilyLabel.RHO_PLUS, 7, "dcfec776e530cbfa", 0.027000000000000017),
        (6, FamilyLabel.SIGMA_MINUS, 3, "c9327b616e2e8cf3", 0.028499999999999834),
    ])
    def test_sampled_payload_pinned(self, size, label, seed, transcript_id, distance):
        # recorded from the per-sample engine, whose generator stream (tape
        # bits, then one choice per pair step) the batched engine must keep
        ensemble, transcript = prepare_bcabe(size, label, mode="sampled",
                                             seed=seed, samples=2000)
        assert transcript.transcript_id == transcript_id
        assert trace_distance(ensemble.mixed, build_family(size, label)) == distance

    @pytest.mark.parametrize("size, label, digest", EXACT_MIXTURE_SHA256)
    def test_exact_mixture_pinned(self, size, label, digest):
        # every bit of the exact mixture, so a change to how the branches are
        # mixed shows here even where the distance to the target does not move
        ensemble, _ = prepare_bcabe(size, label, mode="exact")
        assert hashlib.sha256(ensemble.mixed.entries.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("size, rows_per_block", [(4, [64]), (6, [256] * 4)])
    def test_exact_blocks_hold_row_block_rows(self, size, rows_per_block):
        # ROW_BLOCK // 4^N whole tapes per block: all 4 at size 4, 4 of 16 at size 6
        assert ROW_BLOCK == 256
        blocks = []
        _prepare_capturing(size, FamilyLabel.RHO_PLUS, mode="exact", blocks=blocks)
        assert blocks == rows_per_block

    @pytest.mark.parametrize("size", [4, 6])
    @pytest.mark.parametrize("label", ALL_FAMILIES)
    @pytest.mark.parametrize("tapes_per_block", ["one", "all"])
    def test_exact_bits_do_not_depend_on_row_block(self, size, label, tapes_per_block,
                                                   monkeypatch):
        # one tape per block, or every branch in one block: both keep the pins bit for bit
        tapes, tape_rows = 2 ** (size - 2), 4 ** (size // 2)
        row_block = tape_rows * (1 if tapes_per_block == "one" else tapes)
        monkeypatch.setattr(protocol, "ROW_BLOCK", row_block)
        blocks = []
        ensemble, transcript, _, _ = _prepare_capturing(size, label, mode="exact", blocks=blocks)
        assert blocks == [row_block] * (tapes * tape_rows // row_block)
        digest = hashlib.sha256(ensemble.mixed.entries.tobytes()).hexdigest()
        assert digest == dict(((s, f), d) for s, f, d in EXACT_MIXTURE_SHA256)[size, label]
        pins = dict(((s, f), t) for s, f, t in EXACT_TRANSCRIPT_IDS)
        assert transcript.transcript_id == pins[size, label]

    @pytest.mark.parametrize("size", [4, 6])
    @pytest.mark.parametrize("label", ALL_FAMILIES)
    def test_mix_matches_dense_reference_exact(self, size, label):
        ensemble, _, weights, amps = _prepare_capturing(size, label, mode="exact")
        assert oracles.mix_reference(weights, amps).tobytes() == ensemble.mixed.entries.tobytes()

    @pytest.mark.parametrize("size, label, seed", [
        (4, FamilyLabel.RHO_MINUS, 11),
        (6, FamilyLabel.SIGMA_PLUS, 12),
        (8, FamilyLabel.SIGMA_MINUS, 13),
    ])
    def test_mix_matches_dense_reference_sampled(self, size, label, seed):
        # more than one block, the last one partly filled
        ensemble, _, weights, amps = _prepare_capturing(size, label, mode="sampled",
                                                        seed=seed, samples=ROW_BLOCK + 44)
        assert len(amps) == ROW_BLOCK + 44
        assert oracles.mix_reference(weights, amps).tobytes() == ensemble.mixed.entries.tobytes()

    @pytest.mark.parametrize("sparse_row", [0, 1, ROW_BLOCK - 1, ROW_BLOCK])
    def test_mix_of_rows_with_unequal_nonzero_counts(self, sparse_row):
        # Bell products by hand, then one extra exact zero in one row; mixed as
        # production does, one block of ROW_BLOCK rows and then the rest
        names = list(oracles.BELL_VECTORS)
        rng = np.random.default_rng(sparse_row)
        amps = np.array([np.kron(oracles.BELL_VECTORS[names[a]], oracles.BELL_VECTORS[names[b]])
                         for a, b in rng.integers(0, 4, (ROW_BLOCK + 8, 2))])
        amps[sparse_row, np.flatnonzero(amps[sparse_row])[1]] = 0.0
        weights = rng.random(len(amps))
        weights /= weights.sum()
        out, cols = np.zeros(amps.shape[1] ** 2, dtype=complex), _nonzero_columns(amps)
        index = np.arange(len(amps))
        _mix(out, weights[:ROW_BLOCK], amps, cols, index[:ROW_BLOCK])
        _mix(out, weights[ROW_BLOCK:], amps, cols, index[ROW_BLOCK:])
        assert out.tobytes() == oracles.mix_reference(weights, amps).tobytes()

    def test_exact_eight_qubits(self):
        # mixed block by block, the preparation never holds a table of all the branches
        two_n = 8
        table_bytes = 2 ** (two_n - 2) * 4 ** (two_n // 2) * 2 ** two_n * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            prepare_bcabe(two_n, FamilyLabel.RHO_PLUS, mode="exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table_bytes / 4
        ensemble, transcript, weights, amps = _prepare_capturing(two_n, FamilyLabel.RHO_PLUS,
                                                                 mode="exact")
        assert weights.shape == (16384,)  # 64 tapes x 4^4 outcomes
        assert amps.shape == (16384, 256)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert trace_distance(ensemble.mixed, build_family(8, FamilyLabel.RHO_PLUS)) < 1e-12
        assert locc_audit(transcript) == []

    @pytest.mark.parametrize("size", [4, 6, 8])
    def test_exact_measures_each_distinct_row_once(self, size, monkeypatch):
        # 8, 36 and 148 rows, where measuring every branch row takes 20, 336 and 5,440
        measured = _count_measured_rows(monkeypatch, _measured_rows(size))
        prepare_bcabe(size, FamilyLabel.SIGMA_MINUS, mode="exact")
        assert measured == [_measured_rows(size)]

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

    def test_sampled_measures_at_most_the_exact_rows(self, monkeypatch):
        # 10,000 runs read the same distinct rows an exact run does, or fewer
        measured = _count_measured_rows(monkeypatch, _measured_rows(8))
        prepare_bcabe(8, FamilyLabel.RHO_MINUS, mode="sampled", seed=0, samples=10000)
        assert 0 < measured[0] <= _measured_rows(8)

    def test_sampled_eight_qubits_memory(self):
        # a table of every run's final row would be samples x 2^(2N) amplitudes;
        # the runs share their distinct rows, so the peak stays well below it
        two_n, samples = 8, 10000
        table_bytes = samples * 2 ** two_n * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            prepare_bcabe(two_n, FamilyLabel.RHO_PLUS, mode="sampled", samples=samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table_bytes / 4

    def test_every_branch_is_a_bell_product(self):
        # condition on the tape: the four branches of one tape are identical
        _, _, _, amps = _prepare_capturing(4, FamilyLabel.RHO_PLUS, mode="exact")
        by_tape = [amps[i:i + 16] for i in range(0, 64, 16)]
        for group in by_tape:
            first = group[0]
            for row in group:
                overlap = abs(np.vdot(first, row))
                assert overlap == pytest.approx(1.0, abs=1e-12)

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

    def test_nontrivial_pairing(self):
        for two_n, pairing in ((4, ((1, 3), (2, 4))), (6, ((1, 4), (2, 6), (3, 5)))):
            ensemble, transcript = prepare_bcabe(two_n, FamilyLabel.RHO_PLUS, mode="exact",
                                                 pairing=pairing)
            target = build_family(two_n, FamilyLabel.RHO_PLUS)
            assert trace_distance(ensemble.mixed, target) < 1e-12
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
        ({3: {"bits": "11"}, 4: {"name": "ZX"}},
         ["event 3: bits 11 are not party 1's last outcome",
          "event 4: correction ZX fits no outcome received"]),
        ({4: {"name": "Z"}}, ["event 4: correction Z fits no outcome received"]),
        ({3: None}, ["event 3: correction I fits no outcome received"]),  # no message sent
        # measured, sent and corrected alike: consistent, so clean
        ({1: {"outcome": "11"}, 3: {"bits": "11"}, 4: {"name": "ZX"}}, []),
    ], ids=["misreported-bits", "wrong-fix", "no-message", "consistent"])
    def test_audit_ties_correction_to_outcome(self, canonical, edits, expected):
        events = list(canonical.events)
        assert [events[k]["kind"] for k in (1, 3, 4)] == [
            "local-measurement", "classical-message", "local-unitary"]
        assert (events[1]["outcome"], events[3]["bits"], events[4]["name"]) == ("00", "00", "I")
        for k, fields in sorted(edits.items(), reverse=True):
            if fields is None:
                del events[k]
            else:
                events[k] = events[k] | fields
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
