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

prepare_bcabe runs the protocol once, step by step, for the transcript: exact
mode keeps outcome 00 at every step, sampled mode the first run's pick.  Every
step's four corrected branches agree, so every branch of a tape ends in that
tape's Bell product; the run checks both facts and raises ProtocolError if
either fails.  The mixture is then the tapes' Bell products, each weighted by
its tape's share of the tapes (exact) or of the runs (sampled), summed in
integers over the products' 0/+-1 sign rows, so exactly in any order.  An exact
run's mixture, the family, is kept on its X; a sampled one is dense as a rule.
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
    BellLabel,
    FamilyLabel,
    _check_pairing,
    bell_correlated_tuples,
    bell_product_state,
    bell_state,
    ghz_basis,
)
from .tensor import STATE_ATOL, ZERO_PROB_ATOL, DensityMatrix

PROTOCOL_SIZES = (4, 6, 8)

# per outcome in BELL_ORDER: the bra as a (2, 2) tensor, and the receiver's BELL_CORRECTIONS
# fix as (X, Z) from the index bits: X flips the receiver's bit, Z negates its 1-half
_BELL_BRAS = ghz_basis(2).conj().reshape(4, 2, 2)
_FIXES = [(b.index >> 1, b.index & 1) for b in BELL_ORDER]


class ProtocolError(Exception):
    """A protocol step was invalid: missing singlet, foreign qubit, bad schedule."""


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


@dataclass(eq=False)
class NetworkState:
    """Mutable simulation state for one protocol branch."""

    num_parties: int
    pairing: tuple[tuple[int, int], ...]
    amplitudes: np.ndarray                  # live qubits' joint state
    qubit_order: list[int]                  # qubit id per tensor slot
    ownership: dict[int, int]               # qubit id -> party
    singlets: tuple[tuple[int, int, int, int], ...]  # (party_a, party_b, qubit_a, qubit_b)
    consumed: set[int] = field(default_factory=set)  # indices into singlets
    tape: str = ""                          # pre-shared bits that chose the Bell tuple
    events: list[dict] = field(default_factory=list)
    initial_ownership: dict[int, int] = field(default_factory=dict)
    next_qubit_id: int = 1

    def clone(self, amplitudes: np.ndarray, events: list[dict]) -> "NetworkState":
        """A copy holding amplitudes, which the caller hands over, with events appended.

        It shares only immutable fields and initial_ownership with self.
        """
        return replace(self, amplitudes=amplitudes, qubit_order=list(self.qubit_order),
                       ownership=dict(self.ownership), consumed=set(self.consumed),
                       events=self.events + events)

    def owner_of(self, qubit: int) -> int:
        try:
            return self.ownership[qubit]
        except KeyError:
            raise ProtocolError(f"qubit {qubit} is not live") from None

    def build_transcript(self) -> ProtocolTranscript:
        return ProtocolTranscript(
            num_parties=self.num_parties,
            pairing=self.pairing,
            tape_bits=self.tape,
            initial_ownership=dict(self.initial_ownership),
            singlets=self.singlets,
            events=tuple(self.events),
        )


def default_pairing(two_n: int) -> tuple[tuple[int, int], ...]:
    return tuple((k, k + 1) for k in range(1, two_n, 2))


def init_network(two_n: int, pairing: tuple[tuple[int, int], ...] | None = None) -> NetworkState:
    """Network of 2N parties holding one phi+ singlet per pair and nothing else."""
    if two_n not in PROTOCOL_SIZES:
        raise ValueError(f"two_n must be one of {PROTOCOL_SIZES}, got {two_n}")
    pairing = default_pairing(two_n) if pairing is None else tuple(tuple(p) for p in pairing)
    _check_pairing(pairing, two_n)
    phi = bell_state(BellLabel.PHI_PLUS).amplitudes
    amps = np.ones(1, dtype=complex)
    ownership: dict[int, int] = {}
    singlets = []
    qid = 1
    for a, b in pairing:
        amps = np.outer(amps, phi).reshape(-1)
        ownership[qid] = a
        ownership[qid + 1] = b
        singlets.append((a, b, qid, qid + 1))
        qid += 2
    return NetworkState(
        num_parties=two_n,
        pairing=pairing,
        amplitudes=amps,
        qubit_order=list(range(1, qid)),
        ownership=ownership,
        singlets=tuple(singlets),
        initial_ownership=dict(ownership),
        next_qubit_id=qid,
    )


def bell_generate(net: NetworkState, party: int, label: BellLabel) -> NetworkState:
    """Party locally creates a fresh two-qubit Bell state; both halves stay local."""
    if not 1 <= party <= net.num_parties:
        raise ProtocolError(f"unknown party {party}")
    qubits = [net.next_qubit_id, net.next_qubit_id + 1]
    net.next_qubit_id += 2
    net.qubit_order += qubits
    net.ownership.update(dict.fromkeys(qubits, party))
    net.events.append({"kind": "bell-generated", "party": party, "qubits": qubits,
                       "label": label.value})
    net.amplitudes = np.outer(net.amplitudes, bell_state(label).amplitudes).reshape(-1)
    return net


def _bell_measure(amps: np.ndarray, slot_q: int, slot_h: int, slot_r: int
                  ) -> list[tuple[float, np.ndarray]]:
    """Bell-measure slots slot_q, slot_h of the state amps: (probability, state) per outcome.

    Outcomes in BELL_ORDER; each state is normalized and corrected on slot_r
    (counted without the measured slots) by _FIXES; each is an array of its own.
    """
    t, out = amps.reshape((2,) * (amps.size.bit_length() - 1)), []
    ahead = (slice(None),) * slot_r  # the axes before the receiver's
    reverse, one = ahead + (slice(None, None, -1),), ahead + (1,)
    for bra, (flip, negate) in zip(_BELL_BRAS, _FIXES):
        reduced = np.tensordot(bra, t, axes=([0, 1], [slot_q, slot_h]))
        prob = float(np.vdot(reduced, reduced).real)
        fixed = reduced / np.sqrt(prob)
        if flip:
            fixed = fixed[reverse]  # a view of the fresh array
        if negate:
            fixed[one] = -fixed[one]
        out.append((prob, fixed.reshape(-1)))
    return out


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
    idx = next((i for i, (a, b, _, _) in enumerate(net.singlets)
                if i not in net.consumed and {a, b} == {sender, receiver}), None)
    if idx is None:
        raise ProtocolError(f"no available singlet between parties {sender} and {receiver}")
    party_a, party_b, qubit_a, qubit_b = net.singlets[idx]
    send_half, recv_half = (qubit_a, qubit_b) if party_a == sender else (qubit_b, qubit_a)
    gone = (qubit, send_half)
    # what every branch copies: the measured qubits retired and the singlet spent
    spent = replace(net, qubit_order=[q for q in net.qubit_order if q not in gone],
                    ownership={q: p for q, p in net.ownership.items() if q not in gone},
                    consumed=net.consumed | {idx})
    outcomes = _bell_measure(net.amplitudes, net.qubit_order.index(qubit),
                             net.qubit_order.index(send_half), spent.qubit_order.index(recv_half))
    branches = []
    for m, (prob, state) in enumerate(outcomes):
        if prob < ZERO_PROB_ATOL:
            continue
        outcome = format(m, "02b")
        events = [{"kind": "local-measurement", "party": sender, "qubits": [qubit, send_half],
                   "basis": "bell", "outcome": outcome, "probability": prob},
                  {"kind": "singlet-consumed", "pair": [party_a, party_b], "index": idx},
                  {"kind": "classical-message", "from": sender, "to": receiver, "bits": outcome},
                  {"kind": "local-unitary", "party": receiver, "qubits": [recv_half],
                   "name": BELL_CORRECTIONS[BELL_ORDER[m]]}]
        # one copy per branch, holding its own state, so no two share a list or an array
        branches.append((prob, spent.clone(state, events)))
    return branches


def _pick(probs: np.ndarray, draw: float) -> int:
    """The outcome a uniform draw chooses, the way Generator.choice(4, p=probs) does."""
    cdf = np.cumsum(probs / probs.sum())
    cdf /= cdf[-1]
    return int((cdf <= draw).sum())


def _final_state(net: NetworkState) -> np.ndarray:
    """net.amplitudes reordered so slot k holds party k+1's qubit."""
    if sorted(net.ownership.values()) != list(range(1, net.num_parties + 1)):
        raise ProtocolError("finalization requires exactly one qubit per party")
    src = [net.qubit_order.index(q) for q in sorted(net.ownership, key=net.ownership.get)]
    return net.amplitudes.reshape((2,) * net.num_parties).transpose(src).reshape(-1)


@dataclass(frozen=True)
class EnsembleResult:
    """Outcome of a full preparation: the tapes' mixture and the singlets consumed."""

    mixed: DensityMatrix
    singlets_used: int


def prepare_bcabe(two_n: int, label: FamilyLabel, mode: str = "exact",
                  seed: int = 0, samples: int = 10000,
                  pairing: tuple[tuple[int, int], ...] | None = None
                  ) -> tuple[EnsembleResult, ProtocolTranscript]:
    """Run the N-singlet preparation of the target family.

    Exact mode weighs each of the 2**(2N-2) tapes equally, at every size in
    PROTOCOL_SIZES; its transcript is the all-zero tape's run keeping
    outcome 00 at every step, and seed is ignored.  Sampled mode draws
    `samples` independent runs from a generator seeded with seed, each its
    tape bits and then one uniform per pair step, and weighs each tape by its
    share of the runs; its transcript is the first run's, keeping the
    outcome that run's uniforms pick.  The transcript's network generates
    and teleports pair by pair; every step's four branches must agree within
    STATE_ATOL and the run must end in its tape's Bell product, else
    ProtocolError.  So every branch of a tape ends in that product, and the
    mixture is sum_t w_t |v_t><v_t| over the tapes' Bell products v_t on the
    pairing, w_t = c_t / sum(c) for tape counts c: with v_t = s_t 2**(-N/2), s_t
    a 0/+-1 row, the integer sum_t c_t s_t s_t^T divided by sum(c) 2**N, built on
    its two diagonals when it is zero off the X, else from its matrix.
    singlets_used counts the singlets the run consumed.
    """
    net = init_network(two_n, pairing)  # checks the size and the pairing
    nbits = two_n - 2
    if mode == "exact":
        tapes, draws = np.arange(2 ** nbits), None
    elif mode == "sampled":
        if samples < 1:
            raise ValueError(f"samples must be positive, got {samples}")
        rng = np.random.default_rng(seed)
        bits, draws = np.empty((samples, nbits), dtype=np.int64), np.empty((samples, two_n // 2))
        for s in range(samples):
            bits[s], draws[s] = rng.integers(0, 2, nbits), rng.random(two_n // 2)
        tapes = bits @ (1 << np.arange(nbits)[::-1])
    else:
        raise ValueError(f"mode must be 'exact' or 'sampled', got {mode!r}")
    tuples = bell_correlated_tuples(two_n, label)
    net.tape = format(int(tapes[0]), f"0{nbits}b")
    for k, ((leader, partner), bell) in enumerate(zip(net.pairing, tuples[int(tapes[0])])):
        bell_generate(net, leader, bell)
        probs, branches = zip(*teleport(net, leader, partner, net.qubit_order[-1]))
        if len(branches) != 4 or any(np.abs(b.amplitudes - branches[0].amplitudes).max()
                                     > STATE_ATOL for b in branches):
            raise ProtocolError(f"the teleport branches of pair ({leader}, {partner}) differ")
        net = branches[0 if draws is None else _pick(np.array(probs), draws[0, k])]
    rows = bell_product_state(tuples, net.pairing, two_n)
    overlap = abs(np.vdot(rows[int(tapes[0])], _final_state(net)))
    if abs(overlap - 1.0) > STATE_ATOL:
        raise ProtocolError(f"the run ends at overlap {overlap} with tape {net.tape}'s product")
    counts, signs = np.bincount(tapes, minlength=len(tuples)), np.sign(rows.real)
    total = (signs.T * counts) @ signs
    k, scale = np.arange(len(total)), counts.sum() * 2.0 ** (two_n // 2)
    diagonal, anti = total[k, k], total[k, k[::-1]]
    if np.count_nonzero(total) == np.count_nonzero(diagonal) + np.count_nonzero(anti):
        mixed = DensityMatrix(two_n, x_parts=(diagonal / scale, anti / scale))
    else:
        mixed = DensityMatrix(two_n, total / scale)
    return EnsembleResult(mixed, len(net.consumed)), net.build_transcript()


# --- transcript consumers ------------------------------------------------------

_BITS = ("00", "01", "10", "11")
# kind -> (qubits it acts on, allowed values of its other fields), as the protocol writes them
_EVENT_SHAPES = {
    "bell-generated": (2, {"label": tuple(b.value for b in BELL_ORDER)}),
    "local-measurement": (2, {"basis": ("bell",), "outcome": _BITS}),
    "local-unitary": (1, {"name": tuple(BELL_CORRECTIONS.values())}),
    "classical-message": (0, {"bits": _BITS}),
}


def locc_audit(transcript: ProtocolTranscript) -> list[str]:
    """Replay a transcript; return violations (empty list means it passes).

    Checks that every quantum event touches only qubits its party owns at
    that moment, that generated qubit ids are fresh, that measured qubits
    stay retired, that no singlet is consumed twice, that a message carries
    its sender's last outcome and that a correction fixes the bits its party
    last received, once.  Malformed events (not an object, wrongly typed
    fields, a shape off _EVENT_SHAPES) are reported as violations too, one
    per event.
    """
    violations: list[str] = []
    ownership = dict(transcript.initial_ownership)
    ever_live = set(ownership)  # a retired id stays taken
    outcomes, fixes = {}, {}  # per party: last Bell outcome, the fix its last valid bits call for
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
        count, allowed = _EVENT_SHAPES.get(kind, (0, {})) if isinstance(kind, str) else (0, {})
        if count and not (isinstance(qubits, list) and all(map(_is_int, qubits))
                          and len(qubits) == count):
            violations.append(f"{where}: qubits must be a list of qubit ids, {count} for {kind}, "
                              f"got {qubits!r}")
            continue
        bad = next((key for key, values in allowed.items() if ev.get(key) not in values), None)
        if bad:
            violations.append(f"{where}: {kind} {bad} must be one of {allowed[bad]}, "
                              f"got {ev.get(bad)!r}")
            continue
        if kind == "bell-generated":
            if not check_party(ev.get("party")):
                violations.append(f"{where}: unknown party {ev.get('party')}")
                continue
            for q in qubits:
                if q in ever_live:
                    violations.append(f"{where}: generated qubit {q} is not fresh")
                else:
                    ownership[q] = ev["party"]
                    ever_live.add(q)
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
                outcomes[party] = ev["outcome"]
                for q in qubits:
                    ownership.pop(q, None)
            elif ev["name"] != fixes.pop(party, None):  # a fix is spent once applied
                violations.append(f"{where}: correction {ev['name']} fits no outcome received")
        elif kind == "classical-message":
            src, dst = ev.get("from"), ev.get("to")
            if not check_party(src) or not check_party(dst) or src == dst:
                violations.append(f"{where}: bad message endpoints {src} -> {dst}")
            elif ev["bits"] != outcomes.get(src):
                fixes[dst] = None  # misreported bits justify no correction
                violations.append(f"{where}: bits {ev['bits']} are not party {src}'s last outcome")
            else:
                fixes[dst] = BELL_CORRECTIONS[BELL_ORDER[int(ev["bits"], 2)]]
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
