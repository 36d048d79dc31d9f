"""Property tests: the transcript reader and consumers are total on arbitrary JSON."""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from bcabe.cuts import EdgeWeights
from bcabe.protocol import ProtocolTranscript, ebit_accounting, locc_audit, prepare_bcabe
from bcabe.states import FamilyLabel

FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None)

_, CANONICAL = prepare_bcabe(4, FamilyLabel.RHO_PLUS, mode="exact")
HEADER, *EVENT_LINES = CANONICAL.to_lines()

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)
KINDS = ("bell-generated", "local-measurement", "singlet-consumed", "classical-message",
         "local-unitary", "entanglement-swap")
FIELDS = ("party", "qubits", "pair", "index", "from", "to", "label", "name")
events = json_values | st.builds(
    lambda kind, fields: {"kind": kind} | fields,
    st.sampled_from(KINDS),
    st.dictionaries(st.sampled_from(FIELDS), json_values, max_size=4),
)


def assert_consumers_total(transcript: ProtocolTranscript) -> list[str]:
    violations = locc_audit(transcript)
    assert isinstance(violations, list) and all(isinstance(v, str) for v in violations)
    total, weights = ebit_accounting(transcript)
    assert isinstance(weights, EdgeWeights) and total == weights.total()
    return violations


@FUZZ
@given(st.lists(events, max_size=6), st.integers(0, len(CANONICAL.events)))
def test_consumers_total_on_arbitrary_events(extra, at):
    spliced = CANONICAL.events[:at] + tuple(extra) + CANONICAL.events[at:]
    doctored = ProtocolTranscript(
        CANONICAL.num_parties, CANONICAL.pairing, CANONICAL.tape_bits,
        CANONICAL.initial_ownership, CANONICAL.singlets, spliced)
    violations = assert_consumers_total(doctored)
    assert len(violations) >= sum(not isinstance(ev, dict) for ev in extra)


@FUZZ
@given(st.dictionaries(st.sampled_from(["num_parties", "pairing", "tape", "initial_ownership",
                                        "singlets", "record"]), json_values, max_size=3))
def test_reader_rejects_bad_headers_with_value_error(overrides):
    header = json.loads(HEADER) | overrides
    try:
        transcript = ProtocolTranscript.from_lines([json.dumps(header)] + EVENT_LINES)
    except ValueError:
        return
    assert_consumers_total(transcript)
