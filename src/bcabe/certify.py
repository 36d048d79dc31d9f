"""The cost certificate: the lower bound from `cuts`, met by the protocol from `protocol`."""

from __future__ import annotations

from dataclasses import dataclass

from .cuts import LP_ATOL, EdgeWeights, activation_distill, lp_lower_bound, npt_one_vs_rest_scan
from .protocol import default_pairing, ebit_accounting, locc_audit, prepare_bcabe
from .states import FamilyLabel, build_family, family_support_projector
from .tensor import STATE_ATOL, DensityMatrix


@dataclass(frozen=True)
class CostCertificate:
    two_n: int
    family: FamilyLabel
    lower_bound: float
    achieved: int
    exact: bool
    witness_weights: EdgeWeights
    protocol_transcript_id: str
    target: DensityMatrix  # the family state the cuts and activations were checked on


def cost_certificate(two_n: int, label: FamilyLabel, mode: str = "exact",
                     seed: int = 0, samples: int = 10000):
    """Certify that preparing the family costs exactly N ebits.

    Lower bound: every single-party cut is NPT, and activation across each
    pair of the protocol's pairing (one activation_distill pass over them)
    distills an ebit across both its parties' cuts, so
    each cut needs crossing weight 1; the covering LP, handed the scan's own
    cut list (the cuts proved NPT), has optimum N.  Achieved: on that pairing
    the protocol consumes N singlets (audited transcript).  The family state
    and the two diagonals of the four (2N-2)-qubit support projectors are
    built once, for every check, and the state is kept as
    certificate.target.  Returns (CostCertificate, EnsembleResult,
    ProtocolTranscript).
    """
    rho = build_family(two_n, label)
    supports = {f: family_support_projector(two_n - 2, f) for f in FamilyLabel}
    reports = npt_one_vs_rest_scan(rho)
    for report in reports:
        if report.classification != "NPT":
            raise RuntimeError(
                f"cut {report.cut.label()} is not NPT; its crossing weight 1 is unjustified")
    pairing = default_pairing(two_n)
    for (a, b), outcomes in activation_distill(rho, label, pairing, supports).items():
        for f, outcome in outcomes.items():
            if abs(outcome.probability - 0.25) > STATE_ATOL or abs(outcome.fidelity - 1.0) > STATE_ATOL:
                raise RuntimeError(
                    f"activation across pair ({a}, {b}) failed to distill a clean ebit: outcome "
                    f"{f.value} has probability {outcome.probability} (want 0.25) and fidelity "
                    f"{outcome.fidelity} (want 1), tolerance {STATE_ATOL}")

    lower, witness = lp_lower_bound(two_n, [r.cut for r in reports])
    ensemble, transcript = prepare_bcabe(two_n, label, mode, seed, samples, pairing)
    violations = locc_audit(transcript)
    if violations:
        raise RuntimeError(f"protocol transcript failed the LOCC audit: {violations}")
    achieved, _ = ebit_accounting(transcript)
    certificate = CostCertificate(
        two_n=two_n,
        family=label,
        lower_bound=float(lower),
        achieved=achieved,
        exact=abs(lower - achieved) < LP_ATOL,
        witness_weights=witness,
        protocol_transcript_id=transcript.transcript_id,
        target=rho,
    )
    return certificate, ensemble, transcript
