"""LOCC preparation of the family states from N shared singlets.

The 2N parties are grouped into N disjoint pairs.  Each pair shares one
phi+ singlet; no other entanglement exists.  A pre-shared classical tape of
2N-2 bits selects one Bell-label tuple out of the target family's
2**(2N-2)-element tuple support (all tuples equally likely).  Each pair's
first party generates its tuple component locally as a fresh two-qubit Bell
state and teleports one half to its partner through the shared singlet,
consuming it.  Averaged over the tape, the 2N surviving qubits (one per
party) carry the target family exactly, at a cost of exactly N singlets.

Every execution is logged as a transcript: a header (parties, pairing, tape,
initial qubit ownership, singlet registry) followed by one event per line.
Event kinds and payloads:

    {"kind": "bell-generated", "party": p, "qubits": [a, b], "label": "phi+"}
    {"kind": "local-measurement", "party": p, "qubits": [a, b],
     "basis": "bell", "outcome": "01", "probability": 0.25}
    {"kind": "singlet-consumed", "pair": [i, j], "index": k}
    {"kind": "classical-message", "from": i, "to": j, "bits": "01"}
    {"kind": "local-unitary", "party": p, "qubits": [q], "name": "Z"}

Measured qubits retire immediately; qubit ids are allocated monotonically and
never reused, which keeps the live state dimension bounded (at most 2N+2
qubits) because each pair is generated and teleported before the next.
locc_audit replays a transcript against the ownership history derived from
the header and flags any nonlocal quantum operation or singlet double-spend.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .cuts import EdgeWeights
from .states import (
    BELL_CORRECTIONS,
    BELL_ORDER,
    CORRECTION_MATRICES,
    BellLabel,
    FamilyLabel,
    _check_pairing,
    bell_state,
    bell_tuple_decomposition,
    build_family,
)
from .tensor import (
    STATE_ATOL,
    ZERO_PROB_ATOL,
    DensityMatrix,
    PureState,
    _apply_to_slots_vector,
)

PROTOCOL_SIZES = (4, 6, 8)
EXACT_MODE_MAX = 6  # exact enumeration above this is refused; use sampled


class ProtocolError(Exception):
    """A protocol step was invalid: missing singlet, foreign qubit, bad schedule."""


@dataclass
class RandomTape:
    """Finite classical bit string consumed left to right."""

    bits: str
    cursor: int = 0

    def __post_init__(self):
        if set(self.bits) - {"0", "1"}:
            raise ValueError(f"tape must be a 0/1 string, got {self.bits!r}")

    def read(self, count: int) -> int:
        if self.cursor + count > len(self.bits):
            raise ValueError(f"tape exhausted: need {count} bits at cursor {self.cursor}")
        value = int(self.bits[self.cursor:self.cursor + count] or "0", 2)
        self.cursor += count
        return value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_int(value) -> int:
    if not _is_int(value):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _parse_int_rows(value, width: int) -> tuple[tuple[int, ...], ...]:
    if not isinstance(value, list) or not all(
            isinstance(row, list) and len(row) == width and all(map(_is_int, row))
            for row in value):
        raise ValueError(f"expected a list of {width}-integer lists, got {value!r}")
    return tuple(tuple(row) for row in value)


def _parse_tape(value) -> str:
    if not isinstance(value, str) or set(value) - {"0", "1"}:
        raise ValueError(f"expected a 0/1 string, got {value!r}")
    return value


def _parse_ownership(value) -> dict[int, int]:
    if not isinstance(value, dict) or not all(
            q.isdecimal() and _is_int(p) for q, p in value.items()):
        raise ValueError(f"expected a map from qubit id to party, got {value!r}")
    return {int(q): p for q, p in value.items()}


_HEADER_FIELDS = {
    "num_parties": _parse_int,
    "pairing": lambda value: _parse_int_rows(value, 2),
    "tape": _parse_tape,
    "initial_ownership": _parse_ownership,
    "singlets": lambda value: _parse_int_rows(value, 4),
}


@dataclass(frozen=True)
class ProtocolTranscript:
    """Complete record of one protocol execution."""

    num_parties: int
    pairing: tuple[tuple[int, int], ...]
    tape_bits: str
    initial_ownership: dict[int, int]          # qubit id -> party
    singlets: tuple[tuple[int, int, int, int], ...]  # (party_a, party_b, qubit_a, qubit_b)
    events: tuple[dict, ...]

    @property
    def transcript_id(self) -> str:
        payload = json.dumps(self._header() | {"events": list(self.events)},
                             sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def _header(self) -> dict:
        return {
            "record": "header",
            "num_parties": self.num_parties,
            "pairing": [list(p) for p in self.pairing],
            "tape": self.tape_bits,
            "initial_ownership": {str(q): p for q, p in sorted(self.initial_ownership.items())},
            "singlets": [list(s) for s in self.singlets],
        }

    def to_lines(self) -> list[str]:
        head = json.dumps(self._header(), sort_keys=True)
        return [head] + [json.dumps(ev, sort_keys=True) for ev in self.events]

    @classmethod
    def from_lines(cls, lines: list[str]) -> "ProtocolTranscript":
        """Parse a written transcript; malformed input raises ValueError naming the field."""
        rows = [json.loads(line) for line in lines if line.strip()]
        if not rows or not isinstance(rows[0], dict) or rows[0].get("record") != "header":
            raise ValueError("transcript must start with a header line")
        head = rows[0]
        fields = {}
        for name, parse in _HEADER_FIELDS.items():
            if name not in head:
                raise ValueError(f"transcript header has no {name!r} field")
            try:
                fields[name] = parse(head[name])
            except ValueError as exc:
                raise ValueError(f"transcript header field {name!r}: {exc}") from None
        return cls(
            num_parties=fields["num_parties"],
            pairing=fields["pairing"],
            tape_bits=fields["tape"],
            initial_ownership=fields["initial_ownership"],
            singlets=fields["singlets"],
            events=tuple(rows[1:]),
        )

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("\n".join(self.to_lines()) + "\n")

    @classmethod
    def read(cls, path) -> "ProtocolTranscript":
        with open(path) as fh:
            return cls.from_lines(fh.read().splitlines())


@dataclass
class _SingletRecord:
    party_a: int
    party_b: int
    qubit_a: int
    qubit_b: int
    consumed: bool = False


@dataclass
class NetworkState:
    """Mutable simulation state for one protocol branch."""

    num_parties: int
    pairing: tuple[tuple[int, int], ...]
    amplitudes: np.ndarray                  # joint state of the live qubits
    qubit_order: list[int]                  # qubit id per tensor slot
    ownership: dict[int, int]               # qubit id -> party
    singlets: list[_SingletRecord]
    tape: RandomTape
    record: bool = True
    events: list[dict] = field(default_factory=list)
    initial_ownership: dict[int, int] = field(default_factory=dict)
    next_qubit_id: int = 1

    def clone(self) -> "NetworkState":
        return NetworkState(
            num_parties=self.num_parties,
            pairing=self.pairing,
            amplitudes=self.amplitudes.copy(),
            qubit_order=list(self.qubit_order),
            ownership=dict(self.ownership),
            singlets=[replace(s) for s in self.singlets],
            tape=self.tape,
            record=self.record,
            events=list(self.events),
            initial_ownership=self.initial_ownership,
            next_qubit_id=self.next_qubit_id,
        )

    def log(self, event: dict) -> None:
        if self.record:
            self.events.append(event)

    def owner_of(self, qubit: int) -> int:
        try:
            return self.ownership[qubit]
        except KeyError:
            raise ProtocolError(f"qubit {qubit} is not live") from None

    def build_transcript(self) -> ProtocolTranscript:
        if not self.record:
            raise ProtocolError("this branch did not record events")
        return ProtocolTranscript(
            num_parties=self.num_parties,
            pairing=self.pairing,
            tape_bits=self.tape.bits,
            initial_ownership=dict(self.initial_ownership),
            singlets=tuple((s.party_a, s.party_b, s.qubit_a, s.qubit_b) for s in self.singlets),
            events=tuple(self.events),
        )


def default_pairing(two_n: int) -> tuple[tuple[int, int], ...]:
    return tuple((k, k + 1) for k in range(1, two_n, 2))


def init_network(two_n: int, pairing: tuple[tuple[int, int], ...] | None = None,
                 tape: RandomTape | None = None, record: bool = True) -> NetworkState:
    """Network of 2N parties holding one phi+ singlet per pair and nothing else."""
    if two_n not in PROTOCOL_SIZES:
        raise ValueError(f"two_n must be one of {PROTOCOL_SIZES}, got {two_n}")
    pairing = default_pairing(two_n) if pairing is None else tuple(tuple(p) for p in pairing)
    _check_pairing(pairing, two_n)
    phi = bell_state(BellLabel.PHI_PLUS).amplitudes
    amps = np.ones(1, dtype=complex)
    ownership: dict[int, int] = {}
    singlets: list[_SingletRecord] = []
    qid = 1
    for a, b in pairing:
        amps = np.kron(amps, phi)
        ownership[qid] = a
        ownership[qid + 1] = b
        singlets.append(_SingletRecord(a, b, qid, qid + 1))
        qid += 2
    return NetworkState(
        num_parties=two_n,
        pairing=pairing,
        amplitudes=amps,
        qubit_order=list(range(1, qid)),
        ownership=ownership,
        singlets=singlets,
        tape=tape if tape is not None else RandomTape(""),
        record=record,
        initial_ownership=dict(ownership),
        next_qubit_id=qid,
    )


def bell_generate(net: NetworkState, party: int, label: BellLabel) -> NetworkState:
    """Party locally creates a fresh two-qubit Bell state; both halves stay local."""
    if not 1 <= party <= net.num_parties:
        raise ProtocolError(f"unknown party {party}")
    a, b = net.next_qubit_id, net.next_qubit_id + 1
    net.next_qubit_id += 2
    net.amplitudes = np.kron(net.amplitudes, bell_state(label).amplitudes)
    net.qubit_order += [a, b]
    net.ownership[a] = party
    net.ownership[b] = party
    net.log({"kind": "bell-generated", "party": party, "qubits": [a, b], "label": label.value})
    return net


def teleport(net: NetworkState, sender: int, receiver: int, qubit: int
             ) -> list[tuple[float, NetworkState]]:
    """Teleport `qubit` from sender to receiver through their shared singlet.

    Returns the four Bell-measurement branches as (probability, network)
    pairs; each branch has consumed the singlet, retired the two measured
    qubits, sent the two outcome bits, and applied the receiver's Pauli
    correction, so the transported state is identical across branches.
    Branches below ZERO_PROB_ATOL are dropped (they cannot occur with a
    phi+ resource, which yields probability 1/4 each).
    """
    if net.owner_of(qubit) != sender:
        raise ProtocolError(f"qubit {qubit} is not held by party {sender}")
    idx = next((i for i, s in enumerate(net.singlets)
                if not s.consumed and {s.party_a, s.party_b} == {sender, receiver}), None)
    if idx is None:
        raise ProtocolError(f"no available singlet between parties {sender} and {receiver}")
    rec = net.singlets[idx]
    send_half = rec.qubit_a if rec.party_a == sender else rec.qubit_b
    recv_half = rec.qubit_b if rec.party_a == sender else rec.qubit_a

    n = len(net.qubit_order)
    slot_q = net.qubit_order.index(qubit)
    slot_h = net.qubit_order.index(send_half)
    t = net.amplitudes.reshape((2,) * n)
    branches: list[tuple[float, NetworkState]] = []
    for m, bl in enumerate(BELL_ORDER):
        bra = bell_state(bl).amplitudes.conj().reshape(2, 2)
        reduced = np.tensordot(bra, t, axes=([0, 1], [slot_q, slot_h]))
        prob = float(np.vdot(reduced, reduced).real)
        if prob < ZERO_PROB_ATOL:
            continue
        b = net.clone()
        b.amplitudes = (reduced / np.sqrt(prob)).reshape(-1)
        b.qubit_order = [q for q in b.qubit_order if q not in (qubit, send_half)]
        del b.ownership[qubit], b.ownership[send_half]
        b.singlets[idx].consumed = True
        outcome = format(m, "02b")
        correction = BELL_CORRECTIONS[bl]
        b.log({"kind": "local-measurement", "party": sender, "qubits": [qubit, send_half],
               "basis": "bell", "outcome": outcome, "probability": prob})
        b.log({"kind": "singlet-consumed", "pair": [rec.party_a, rec.party_b], "index": idx})
        b.log({"kind": "classical-message", "from": sender, "to": receiver, "bits": outcome})
        slot_r = b.qubit_order.index(recv_half)
        if correction != "I":
            b.amplitudes = _apply_to_slots_vector(
                b.amplitudes, len(b.qubit_order), CORRECTION_MATRICES[correction], [slot_r])
        b.log({"kind": "local-unitary", "party": receiver, "qubits": [recv_half],
               "name": correction})
        branches.append((prob, b))
    return branches


def _final_state(net: NetworkState) -> PureState:
    """Reorder the surviving qubits so slot k holds party k+1's qubit."""
    holdings: dict[int, int] = {}
    for q, p in net.ownership.items():
        if p in holdings:
            raise ProtocolError(f"party {p} holds more than one qubit at finalization")
        holdings[p] = q
    if sorted(holdings) != list(range(1, net.num_parties + 1)):
        raise ProtocolError("finalization requires exactly one qubit per party")
    src = [net.qubit_order.index(holdings[p]) for p in range(1, net.num_parties + 1)]
    n = net.num_parties
    return PureState(n, net.amplitudes.reshape((2,) * n).transpose(src).reshape(-1))


@dataclass(frozen=True)
class EnsembleResult:
    """Outcome of a full preparation: branch states, their mixture, singlet count."""

    branches: tuple[tuple[float, PureState], ...]
    mixed: DensityMatrix
    singlets_used: int


def bell_correlated_tuples(two_n: int, label: FamilyLabel,
                           pairing: tuple[tuple[int, int], ...]) -> list[tuple[BellLabel, ...]]:
    """The family's Bell-tuple support over the pairing, uniform by construction."""
    decomposition = bell_tuple_decomposition(build_family(two_n, label), pairing)
    expected = 2 ** (two_n - 2)
    if len(decomposition) != expected:
        raise RuntimeError(f"expected {expected} tuples, found {len(decomposition)}")
    for labels, weight in decomposition:
        if abs(weight - 1.0 / expected) > STATE_ATOL:
            raise RuntimeError(f"tuple {labels} has non-uniform weight {weight}")
    return [labels for labels, _ in decomposition]


def _run_exact(two_n: int, pairing, tuples, tape_bits: str, record: bool
               ) -> list[tuple[float, NetworkState]]:
    tape = RandomTape(tape_bits)
    net = init_network(two_n, pairing, tape=tape, record=record)
    chosen = tuples[tape.read(two_n - 2)]
    live: list[tuple[float, NetworkState]] = [(1.0, net)]
    for k, (leader, partner) in enumerate(pairing):
        grown: list[tuple[float, NetworkState]] = []
        for prob, branch in live:
            bell_generate(branch, leader, chosen[k])
            send_qubit = branch.qubit_order[-1]
            for p, out in teleport(branch, leader, partner, send_qubit):
                grown.append((prob * p, out))
        live = grown
    return live


def _run_sampled(two_n: int, pairing, tuples, tape_bits: str, record: bool,
                 rng: np.random.Generator) -> NetworkState:
    tape = RandomTape(tape_bits)
    net = init_network(two_n, pairing, tape=tape, record=record)
    chosen = tuples[tape.read(two_n - 2)]
    for k, (leader, partner) in enumerate(pairing):
        bell_generate(net, leader, chosen[k])
        send_qubit = net.qubit_order[-1]
        branches = teleport(net, leader, partner, send_qubit)
        probs = np.array([p for p, _ in branches])
        pick = rng.choice(len(branches), p=probs / probs.sum())
        net = branches[pick][1]
    return net


def _mix(branches: list[tuple[float, PureState]], two_n: int) -> DensityMatrix:
    probs = np.array([p for p, _ in branches])
    amps = np.array([s.amplitudes for _, s in branches])
    return DensityMatrix(two_n, np.einsum("b,bi,bj->ij", probs, amps, amps.conj()))


def prepare_bcabe(two_n: int, label: FamilyLabel, mode: str = "exact",
                  tape_or_seed: int = 0, samples: int = 10000,
                  pairing: tuple[tuple[int, int], ...] | None = None
                  ) -> tuple[EnsembleResult, ProtocolTranscript]:
    """Run the N-singlet preparation of the target family.

    Exact mode (two_n <= 6) enumerates all 2**(2N-2) tape values times 4**N
    measurement branches and returns the exact ensemble; the transcript is
    the canonical execution (all-zero tape, first outcome everywhere).
    Sampled mode draws `samples` independent runs from a generator seeded
    with tape_or_seed; the transcript is the first run's.
    """
    if two_n not in PROTOCOL_SIZES:
        raise ValueError(f"two_n must be one of {PROTOCOL_SIZES}, got {two_n}")
    pairing = default_pairing(two_n) if pairing is None else tuple(tuple(p) for p in pairing)
    _check_pairing(pairing, two_n)
    tuples = bell_correlated_tuples(two_n, label, pairing)
    nbits = two_n - 2

    collected: list[tuple[float, PureState]] = []
    transcript: ProtocolTranscript | None = None
    if mode == "exact":
        if two_n > EXACT_MODE_MAX:
            raise ValueError(
                f"exact mode is limited to two_n <= {EXACT_MODE_MAX}; use sampled at {two_n}")
        tape_weight = 1.0 / 2 ** nbits
        for idx in range(2 ** nbits):
            finished = _run_exact(two_n, pairing, tuples, format(idx, f"0{nbits}b"),
                                  record=idx == 0)
            for prob, branch in finished:
                collected.append((prob * tape_weight, _final_state(branch)))
            if idx == 0:
                transcript = finished[0][1].build_transcript()
    elif mode == "sampled":
        if samples < 1:
            raise ValueError(f"samples must be positive, got {samples}")
        rng = np.random.default_rng(tape_or_seed)
        weight = 1.0 / samples
        for s in range(samples):
            bits = "".join(str(b) for b in rng.integers(0, 2, nbits))
            net = _run_sampled(two_n, pairing, tuples, bits, s == 0, rng)
            collected.append((weight, _final_state(net)))
            if s == 0:
                transcript = net.build_transcript()
    else:
        raise ValueError(f"mode must be 'exact' or 'sampled', got {mode!r}")

    ensemble = EnsembleResult(
        branches=tuple(collected),
        mixed=_mix(collected, two_n),
        singlets_used=two_n // 2,
    )
    assert transcript is not None
    return ensemble, transcript


# --- transcript consumers ------------------------------------------------------

def locc_audit(transcript: ProtocolTranscript) -> list[str]:
    """Replay a transcript; return violations (empty list means it passes).

    Checks that every quantum event touches only qubits its party owns at
    that moment, that generated qubit ids are fresh, that measured qubits
    stay retired, and that no singlet is consumed twice.  Malformed events
    (not an object, wrongly typed fields) are reported as violations too.
    """
    violations: list[str] = []
    ownership = dict(transcript.initial_ownership)
    consumed = [False] * len(transcript.singlets)

    def check_party(p) -> bool:
        return _is_int(p) and 1 <= p <= transcript.num_parties

    for pos, ev in enumerate(transcript.events):
        where = f"event {pos}"
        if not isinstance(ev, dict):
            violations.append(f"{where}: not an event object: {ev!r}")
            continue
        kind = ev.get("kind")
        qubits = ev.get("qubits", [])
        if kind in ("bell-generated", "local-unitary", "local-measurement") and not (
                isinstance(qubits, list) and all(map(_is_int, qubits))):
            violations.append(f"{where}: qubits must be a list of qubit ids, got {qubits!r}")
            continue
        if kind == "bell-generated":
            if not check_party(ev.get("party")):
                violations.append(f"{where}: unknown party {ev.get('party')}")
                continue
            for q in qubits:
                if q in ownership:
                    violations.append(f"{where}: generated qubit {q} already exists")
                else:
                    ownership[q] = ev["party"]
        elif kind in ("local-unitary", "local-measurement"):
            party = ev.get("party")
            if not check_party(party):
                violations.append(f"{where}: unknown party {party}")
                continue
            for q in qubits:
                owner = ownership.get(q)
                if owner is None:
                    violations.append(f"{where}: {kind} on retired or unknown qubit {q}")
                elif owner != party:
                    violations.append(
                        f"{where}: nonlocal quantum operation, party {party} acted on "
                        f"qubit {q} owned by party {owner}")
            if kind == "local-measurement":
                for q in qubits:
                    ownership.pop(q, None)
        elif kind == "classical-message":
            src, dst = ev.get("from"), ev.get("to")
            if not check_party(src) or not check_party(dst) or src == dst:
                violations.append(f"{where}: bad message endpoints {src} -> {dst}")
        elif kind == "singlet-consumed":
            idx = ev.get("index")
            if not _is_int(idx) or not 0 <= idx < len(transcript.singlets):
                violations.append(f"{where}: unknown singlet index {idx}")
            elif consumed[idx]:
                violations.append(
                    f"{where}: singlet double-spend, pair {ev.get('pair')} index {idx}")
            else:
                consumed[idx] = True
                a, b, _, _ = transcript.singlets[idx]
                if _singlet_pair(ev) != tuple(sorted((a, b))):
                    violations.append(
                        f"{where}: consumed pair {ev.get('pair')} does not match registry ({a}, {b})")
        else:
            violations.append(f"{where}: unknown event kind {kind!r}")
    return violations


def _singlet_pair(ev: dict) -> tuple[int, int] | None:
    """The event's party pair in ascending order, or None if it is not two integers."""
    pair = ev.get("pair")
    if isinstance(pair, list) and len(pair) == 2 and all(map(_is_int, pair)):
        return tuple(sorted(pair))
    return None


def ebit_accounting(transcript: ProtocolTranscript) -> tuple[int, EdgeWeights]:
    """Total singlets consumed and the per-pair breakdown.

    Counts the singlet-consumed events whose pair is two distinct parties in
    range; any other such event is malformed, and locc_audit reports it.
    """
    weights: dict[tuple[int, int], float] = {}
    total = 0
    for ev in transcript.events:
        if not isinstance(ev, dict) or ev.get("kind") != "singlet-consumed":
            continue
        pair = _singlet_pair(ev)
        if pair is None or not 1 <= pair[0] < pair[1] <= transcript.num_parties:
            continue
        total += 1
        weights[pair] = weights.get(pair, 0.0) + 1.0
    return total, EdgeWeights(transcript.num_parties, weights)
