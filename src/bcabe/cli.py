"""Command-line interface: state export, invariant verification, cut reports, certificates.

Commands write JSON files.  A state file holds one density matrix as
row-major [re, im] pairs; JSON's shortest-round-trip float encoding makes the
write/read cycle lossless.  A report file has a "header" object (generation
timestamp, excluded from reproducibility comparisons) next to a deterministic
payload: command, parameters, results, and a checks list where every asserted
quantity carries its measured value and threshold.  verify builds the four
families once and hands them to every check, as certify's certificate does.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from functools import cache
from json.encoder import encode_basestring_ascii

import numpy as np

from .certify import cost_certificate
from .cuts import LP_ATOL, NPT_ATOL, analyze_cut, enumerate_cuts
from .protocol import PROTOCOL_SIZES, ProtocolError
from .states import (
    FamilyLabel,
    build_family,
    ghz_basis,
    pauli_connection_search,
    permutation_invariance_check,
    verify_recursion,
)
from .tensor import STATE_ATOL, DensityMatrix, x_parts_of, x_trace_distance

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_IO = 3
SAMPLED_DELTA = 1e-6  # chance that sampling noise alone fails a correct sampled certify


def _complex_pairs(flat: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in flat]


def write_state_file(path: str, rho: DensityMatrix) -> None:
    payload = {"qubits": rho.num_qubits, "kind": "density",
               "data": _complex_pairs(rho.entries.reshape(-1))}
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def _indented(obj, pad: str = "") -> str:
    """json.dumps(obj, sort_keys=True, indent=2) as it reads nested at indent pad.

    A list of flat rows (cut rows, checks) skips indent's slow pure-Python encoder: the C
    encoder writes it in one call, its item separator holding a row item's newline and indent.
    No encoded scalar holds a raw newline, so "}" separator "{" is only a seam between rows.
    """
    inner = pad + "  "
    if isinstance(obj, dict) and obj and all(isinstance(key, str) for key in obj):
        items = [f"{inner}{encode_basestring_ascii(key)}: {_indented(value, inner)}"
                 for key, value in sorted(obj.items())]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, list) and obj and all(type(row) is dict and row for row in obj) and {
            type(value) for row in obj for value in row.values()} <= {str, int, float, bool, type(None)}:
        sep = ",\n" + inner + "  "
        text = json.dumps(obj, sort_keys=True, separators=(sep, ": "))[2:-2]  # inside [{ }]
        text = text.replace("}" + sep + "{", f"\n{inner}}},\n{inner}{{{sep[1:]}")
        return f"[\n{inner}{{{sep[1:]}{text}\n{inner}}}\n{pad}]"
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + pad)


def _write_report(path: str | None, payload: dict) -> None:
    report = {"header": {"generated_at": datetime.now(timezone.utc).isoformat()}, **payload}
    text = _indented(report) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _check(name: str, measured: float, threshold: float) -> dict:
    return {"check": name, "measured": float(measured), "threshold": float(threshold),
            "comparison": "<", "passed": bool(measured < threshold)}


def _family(value: str) -> FamilyLabel:
    try:
        return FamilyLabel(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"family must be one of {[f.value for f in FamilyLabel]}, got {value!r}")


def _at_least(minimum: int):
    """argparse type: an integer no smaller than minimum (argparse reports non-integers)."""
    def integer(value: str) -> int:
        if int(value) < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {value!r}")
        return int(value)
    return integer


def _positive_float(value: str) -> float:
    """argparse type: a finite float above zero (argparse reports non-numbers)."""
    if not 0 < float(value) < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {value!r}")
    return float(value)


def _smolin_reference() -> tuple[np.ndarray, np.ndarray]:
    """Four-qubit family's two diagonals as an equal mixture of doubled Bell pairs."""
    pairs = [build_family(2, f).x_parts for f in FamilyLabel]  # the Bell projectors
    return tuple(sum(np.kron(pair[part], pair[part]) for pair in pairs) / 4 for part in (0, 1))


def cmd_state(args) -> int:
    rho = build_family(args.size, args.family)
    try:
        write_state_file(args.out, rho)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {args.family.value} at {args.size} qubits to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    # every check reads these four states; only the recursion builds more (the lower size)
    families = {label: build_family(args.size, label) for label in FamilyLabel}
    checks = []

    worst = max(check.distance for check in verify_recursion(families))
    checks.append(_check("recursion-max-distance", worst, STATE_ATOL))

    vectors = ghz_basis(args.size)
    gram_residual = float(np.abs(vectors.conj() @ vectors.T - np.eye(len(vectors))).max())
    checks.append(_check("ghz-basis-gram-residual", gram_residual, STATE_ATOL))

    connections = {}
    missing = 0
    for a in FamilyLabel:
        for b in FamilyLabel:
            if a is b:
                continue
            found = pauli_connection_search(families[a], families[b])
            if found is None:
                missing += 1
            else:
                connections[f"{a.value}->{b.value}"] = {"qubit": found[0], "pauli": found[1]}
    checks.append(_check("pauli-connections-missing", float(missing), 0.5))

    for label in FamilyLabel:
        drift = permutation_invariance_check(families[label])
        checks.append(_check(f"permutation-invariance-{label.value}", drift, STATE_ATOL))

    results = {"pauli_connections": connections}
    if args.size == 4:
        equivalence = x_trace_distance(x_parts_of(families[FamilyLabel.RHO_PLUS]), _smolin_reference())
        checks.append(_check("doubled-bell-mixture-distance", equivalence, STATE_ATOL))

    passed = all(c["passed"] for c in checks)
    _write_report(args.out, {
        "command": "verify",
        "parameters": {"size": args.size, "tolerance": STATE_ATOL},
        "results": results,
        "checks": checks,
        "passed": passed,
    })
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_cuts(args) -> int:
    rho = build_family(args.size, args.family)
    # the class asserted for each |side_a|, by the smaller side: NPT at 1 party, PPT at 2
    asserted = {size: {1: "NPT", 2: "PPT"}.get(min(size, args.size - size))
                for size in range(1, args.size)}
    rows = []
    failures = 0
    for report in analyze_cut(rho, enumerate_cuts(args.size)):
        cut = report.cut
        expected = asserted[len(cut.side_a)]
        ok = expected is None or report.classification == expected
        failures += 0 if ok else 1
        rows.append({
            "cut": cut.label(),
            "min_pt_eigenvalue": report.min_eigenvalue,
            "negativity": report.negativity,
            "classification": report.classification,
            "asserted": expected,
            "passed": ok,
        })
    _write_report(args.out, {
        "command": "cuts",
        "parameters": {"size": args.size, "family": args.family.value,
                       "npt_threshold": -NPT_ATOL},
        "results": {"cuts": rows},
        "checks": [_check("cut-assertion-failures", float(failures), 0.5)],
        "passed": failures == 0,
    })
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def sampled_threshold(two_n: int, samples: int) -> float:
    """The distance a correct sampled run exceeds with probability at most SAMPLED_DELTA.

    The runs' tape shares p^ over K = 2**(2N-2) equally likely tapes obey
    P(||p^ - p||_1 >= e) <= (2**K - 2) exp(-M e**2 / 2) (Weissman et al., HP
    Labs 2003), and the tapes' Bell products are orthonormal, so the prepared
    state lies at trace distance ||p^ - p||_1 / 2 from the family.
    """
    k = 2 ** (two_n - 2)
    log_types = k * math.log(2.0) + math.log1p(-2.0 ** (1 - k))  # ln(2**K - 2)
    return 0.5 * math.sqrt(2.0 / samples * (log_types + math.log(1.0 / SAMPLED_DELTA)))


def cmd_certify(args) -> int:
    given = [f"--{name}" for name in ("seed", "samples", "tolerance") if getattr(args, name) is not None]
    if given and args.mode == "exact":
        args.usage_error(f"{', '.join(given)}: only with --mode sampled")
    seed, samples = args.seed or 0, args.samples or 10000  # the defaults, also in exact payloads
    derived = sampled_threshold(args.size, samples)
    if args.mode == "sampled" and args.tolerance is None and derived >= 1:
        fewest = samples  # a trace distance never exceeds 1, so such a check cannot fail
        while sampled_threshold(args.size, fewest) >= 1:
            fewest += 1
        args.usage_error(f"--samples {samples}: the derived threshold {derived:.4g} at size "
                         f"{args.size} is at least 1, so the distance check cannot fail; give "
                         f"at least {fewest} runs or a --tolerance")
    try:
        certificate, ensemble, transcript = cost_certificate(
            args.size, args.family, mode=args.mode, seed=seed, samples=samples)
    except (RuntimeError, ProtocolError) as exc:  # a failed step: cut, activation, LP, run, audit
        print(f"certify failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    state_tol = STATE_ATOL if args.mode == "exact" else args.tolerance or derived
    checks = [
        _check("lower-bound-equals-achieved",
               abs(certificate.lower_bound - certificate.achieved), LP_ATOL),
        _check("prepared-state-distance", certificate.prepared_state_distance, state_tol),
    ]
    transcript_path = None
    if args.out is not None:
        transcript_path = args.out + ".transcript"
        try:
            transcript.write(transcript_path)
        except OSError as exc:
            print(f"cannot write {transcript_path}: {exc}", file=sys.stderr)
            return EXIT_IO
    passed = all(c["passed"] for c in checks)
    _write_report(args.out, {
        "command": "certify",
        "parameters": {"size": args.size, "family": args.family.value, "mode": args.mode,
                       "seed": seed, "samples": samples},
        "results": {
            "lower_bound": certificate.lower_bound,
            "achieved": certificate.achieved,
            "exact": certificate.exact,
            "witness_weights": {f"{i},{j}": w
                                for (i, j), w in sorted(certificate.witness_weights.weights.items())},
            "transcript_id": certificate.protocol_transcript_id,
            "transcript_path": transcript_path,
            "prepared_state_distance": certificate.prepared_state_distance,
            "singlets_used": ensemble.singlets_used,
        },
        "checks": checks,
        "passed": passed,
    })
    return EXIT_OK if passed else EXIT_CHECK_FAILED


@cache  # built on the first call, then shared: parsing leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcabe",
        description="Construct, verify, and certify the 2N-qubit activable bound entangled families.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, family=True, out_required=False):
        p.add_argument("--size", type=int, choices=PROTOCOL_SIZES, required=True,
                       help="total qubit count 2N")
        if family:
            p.add_argument("--family", type=_family, default=FamilyLabel.RHO_PLUS,
                           help="rho+, rho-, sigma+ or sigma- (default rho+)")
        if out_required:
            p.add_argument("--out", required=True, help="output file path")
        else:
            p.add_argument("--out", default=None,
                           help="report file path (default: print to stdout)")

    p_state = sub.add_parser("state", help="write a family density matrix to a state file")
    common(p_state, out_required=True)
    p_state.set_defaults(func=cmd_state)

    p_verify = sub.add_parser("verify", help="run the structural invariant suite")
    common(p_verify, family=False)
    p_verify.set_defaults(func=cmd_verify)

    p_cuts = sub.add_parser("cuts", help="classify every bipartite cut of a family state")
    common(p_cuts)
    p_cuts.set_defaults(func=cmd_cuts)

    p_cert = sub.add_parser("certify", help="certify the N-ebit preparation cost")
    common(p_cert)
    p_cert.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    p_cert.add_argument("--seed", type=_at_least(0),
                        help="sampled-mode seed (default 0)")
    p_cert.add_argument("--samples", type=_at_least(1),
                        help="sampled-mode run count (default 10000)")
    p_cert.add_argument("--tolerance", type=_positive_float,
                        help="sampled-mode distance threshold (default: derived from --size "
                             "and --samples)")
    p_cert.set_defaults(func=cmd_certify, usage_error=p_cert.error)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
