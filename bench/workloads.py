"""The benchmark's workloads as CLI argument lists, and the checks on each op's output.

An op is one `bcabe.cli.main(argv)` call that writes its report with `--out`.
A workload is an endless stream of whole cycles; the seed only orders the
families and sizes inside each cycle and derives the `--seed` values passed
to the CLI.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from math import comb

FAMILIES = ("rho+", "rho-", "sigma+", "sigma-")
SAMPLED_SAMPLES = 10000       # the README's command; see README.md on lowering it
WARMUP_SAMPLES = 1000
LP_ATOL = 1e-9                # the certificate's own LP tolerance
NPT_EIGENVALUE_ATOL = 1e-12

# layers each workload must reach in the traced run
EXPECTED_LAYERS = {
    "verify": ("tensor", "states", "cli"),
    "cuts": ("tensor", "states", "cuts", "cli"),
    "certify-exact": ("tensor", "states", "cuts", "simplex", "protocol", "cli"),
    "certify-sampled": ("tensor", "states", "cuts", "simplex", "protocol", "cli"),
}
WORKLOADS = tuple(EXPECTED_LAYERS)


def cycle(workload: str, rng: random.Random) -> list[list[str]]:
    """One whole cycle of the workload's ops.

    In `verify` the larger size makes up two thirds of the ops, so the median
    op always falls on it whatever the number of whole cycles run.
    `certify-exact` runs one size only: mixed with the ten-times cheaper
    size 4, the median op sat at the lower quartile of the size-6 ops, which
    spreads twice as much from run to run as their middle.
    """
    families = rng.sample(FAMILIES, len(FAMILIES))
    if workload == "verify":
        return [["verify", "--size", str(s)] for s in rng.sample((8, 6, 8), 3)]
    if workload == "cuts":
        return [["cuts", "--size", "8", "--family", f] for f in families]
    if workload == "certify-exact":
        return [["certify", "--size", "6", "--family", f] for f in families]
    if workload == "certify-sampled":
        return [["certify", "--size", "8", "--family", families[0], "--mode", "sampled",
                 "--samples", str(SAMPLED_SAMPLES), "--seed", str(rng.randrange(2 ** 31))]]
    raise ValueError(f"unknown workload {workload!r}")


def size_of(argv: list[str]) -> int:
    return int(argv[argv.index("--size") + 1])


def warmup_op(workload: str, ops: list[list[str]]) -> list[str]:
    """The untimed warm-up: the cycle's first op of the largest size.

    A full sampled op takes about 30 s, so its warm-up runs the same code on
    a tenth of the samples, with the distance tolerance opened because fewer
    samples cannot meet the default one.
    """
    first = max(ops, key=size_of)
    if workload != "certify-sampled":
        return first
    argv = list(first)
    argv[argv.index("--samples") + 1] = str(WARMUP_SAMPLES)
    return argv + ["--tolerance", "1"]


def payload_sha256(report: dict) -> str:
    """sha256 of the report without its non-deterministic header."""
    payload = {k: v for k, v in report.items() if k != "header"}
    return hashlib.sha256(json.dumps(payload, sort_keys=True, indent=2).encode()).hexdigest()


def check_op(argv: list[str], exit_code, out_path: str) -> tuple[list[str], str | None]:
    """Check one op from outside; return (problems, payload digest)."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    try:
        with open(out_path) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return problems + [f"unreadable report: {exc}"], None
    if report.get("passed") is not True:
        problems.append("report says not passed")
    size = size_of(argv)
    check = {"verify": _check_verify, "cuts": _check_cuts, "certify": _check_certify}[argv[0]]
    problems += check(report, size, out_path)
    return problems, payload_sha256(report)


def _check_verify(report: dict, size: int, out_path: str) -> list[str]:
    checks = report.get("checks", [])
    expected = 8 if size == 4 else 7
    problems = [] if len(checks) == expected else [f"{len(checks)} checks, expected {expected}"]
    return problems + [f"check {c.get('check')} failed" for c in checks if c.get("passed") is not True]


_CUT_LABEL = re.compile(r"^\{([\d,]+)\}\|\{([\d,]+)\}$")


def _check_cuts(report: dict, size: int, out_path: str) -> list[str]:
    rows = report.get("results", {}).get("cuts", [])
    problems = []
    if len(rows) != 2 ** (size - 1) - 1:
        problems.append(f"{len(rows)} cuts, expected {2 ** (size - 1) - 1}")
    npt_floor = -(2.0 ** -(size - 1))   # -2^-(2N-1)
    layers = {1: 0, 2: 0}
    for row in rows:
        match = _CUT_LABEL.match(row.get("cut", ""))
        if match is None:
            problems.append(f"bad cut label {row.get('cut')!r}")
            continue
        small = min(len(side.split(",")) for side in match.groups())
        if small == 1:
            layers[1] += 1
            if row["classification"] != "NPT" or \
                    abs(row["min_pt_eigenvalue"] - npt_floor) > NPT_EIGENVALUE_ATOL:
                problems.append(f"cut {row['cut']}: {row['classification']}, min eigenvalue "
                                f"{row['min_pt_eigenvalue']!r} != {npt_floor!r}")
        elif small == 2:
            layers[2] += 1
            if row["classification"] != "PPT":
                problems.append(f"cut {row['cut']} is {row['classification']}, expected PPT")
    if layers != {1: size, 2: comb(size, 2)}:
        problems.append(f"cut layers {layers}, expected 1: {size}, 2: {comb(size, 2)}")
    return problems


def _check_certify(report: dict, size: int, out_path: str) -> list[str]:
    from bcabe import ProtocolTranscript, ebit_accounting, locc_audit  # after BLAS pinning

    results = report.get("results", {})
    n = size // 2
    problems = []
    if abs(results.get("lower_bound", -1) - n) > LP_ATOL:
        problems.append(f"lower bound {results.get('lower_bound')!r}, expected {n}")
    if results.get("achieved") != n:
        problems.append(f"achieved {results.get('achieved')!r}, expected {n}")
    if results.get("singlets_used") != n:
        problems.append(f"singlets used {results.get('singlets_used')!r}, expected {n}")
    try:
        transcript = ProtocolTranscript.read(out_path + ".transcript")
    except (OSError, ValueError, KeyError) as exc:
        return problems + [f"unreadable transcript: {exc}"]
    violations = locc_audit(transcript)
    if violations:
        problems.append(f"transcript audit: {violations[:3]}")
    ebits, _ = ebit_accounting(transcript)
    if ebits != n:
        problems.append(f"transcript accounts {ebits} ebits, expected {n}")
    return problems
