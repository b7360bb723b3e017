"""Correctness oracle for the benchmark, kept apart from the program.

Expected values come from closed forms and the paper's properties, never
from `qsschain.harness.exact_detection` or from stored earlier output:

* collusion: detection 0, secret recovery 1, decoy errors 0, exact 0;
* attack none: detection 0, decoy errors 0;
* intercept-resend on the last hop: each decoy and each pair sampled by
  the improved check catches the eavesdropper independently with
  probability 1/4, so detection is 1 - (3/4)^(d + s) with s = 0 for the
  original check and s = ceil(f*m) for the improved one.

Monte Carlo rates must lie within Z_LIMIT standard errors of the closed
form. Z_LIMIT is wide because repeated runs check thousands of rows and
the binomial tails near p = 1 are heavier than normal; the tests bound
the resulting false-alarm rate from the binomial distribution itself.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

Z_LIMIT = 8
PER_DECOY_ERROR = Fraction(1, 4)
EXACT_TOLERANCE = 1e-12


def sampled_pairs(check: str, m: int, fraction: float) -> int:
    """Pairs consumed by the parity check: ceil(f*m) when improved, else 0."""
    return math.ceil(fraction * m) if check == "improved" else 0


def ir_detection(check: str, d: int, m: int, fraction: float) -> Fraction:
    """Exact intercept-resend detection probability on one attacked hop."""
    return 1 - (1 - PER_DECOY_ERROR) ** (d + sampled_pairs(check, m, fraction))


def within_se(observed: float, expected: Fraction, samples: int, z: float = Z_LIMIT) -> bool:
    """True if a Bernoulli rate over `samples` draws is within z SE of `expected`."""
    p = float(expected)
    if p in (0.0, 1.0):
        return observed == p
    return abs(observed - p) <= z * math.sqrt(p * (1.0 - p) / samples)


@dataclass
class Verdict:
    """Outcome of checking one invocation's output."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def _number(cell: str):
    return None if cell == "" else float(cell)


def read_reports(path: Path, command: str) -> list[dict]:
    """Parse a JSON report or a sweep CSV into report dicts, independently."""
    if command != "sweep":
        return [json.loads(path.read_text(encoding="utf-8"))]
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    return [
        {
            "config": json.loads(row["config"]),
            "trials": int(row["trials"]),
            **{
                key: _number(row[key])
                for key in row
                if key not in ("config", "trials")
            },
        }
        for row in rows
    ]


def check_report(expected: dict, report: dict) -> tuple[list[str], bool]:
    """Problems found in one report, and whether its exact companion is wrong.

    A wrong `exact_detection` for intercept-resend is the program's known
    fault (it ignores the parity check); the caller counts that report as a
    failed operation instead of an incorrect one.
    """
    attack, check, d = expected["attack"], expected["check"], expected["d"]
    tag = f"{attack}/{check} d={d} seed={expected['seed']}"
    problems = []
    if report.get("config") != expected:
        problems.append(f"{tag}: config echo {report.get('config')} != {expected}")
    if report.get("trials") != expected["trials"]:
        problems.append(f"{tag}: trials {report.get('trials')} != {expected['trials']}")
    detection = report.get("detection_rate")
    per_decoy = report.get("per_decoy_error_rate")
    exact_wrong = False
    if attack == "collusion":
        wanted = {
            "detection_rate": 0.0,
            "secret_recovery_rate": 1.0,
            "per_decoy_error_rate": 0.0,
            "exact_detection": 0.0,
        }
        for key, value in wanted.items():
            if report.get(key) != value:
                problems.append(f"{tag}: {key} = {report.get(key)}, expected exactly {value}")
    elif attack == "none":
        for key in ("detection_rate", "per_decoy_error_rate"):
            if report.get(key) != 0.0:
                problems.append(f"{tag}: {key} = {report.get(key)}, expected exactly 0")
    else:
        closed = ir_detection(check, d, expected["m"], expected["check_fraction"])
        if not isinstance(detection, float) or not within_se(detection, closed, expected["trials"]):
            problems.append(
                f"{tag}: detection_rate {detection} not within {Z_LIMIT} SE of {float(closed):.6f}"
            )
        if d >= 1 and (
            not isinstance(per_decoy, float)
            or not within_se(per_decoy, PER_DECOY_ERROR, expected["trials"] * d)
        ):
            problems.append(f"{tag}: per_decoy_error_rate {per_decoy} not near 1/4")
        exact = report.get("exact_detection")
        exact_wrong = not isinstance(exact, float) or abs(exact - float(closed)) > EXACT_TOLERANCE
    return problems, exact_wrong


def check_invocation(invocation, out_path: Path, returncode: int) -> Verdict:
    """Check every report an invocation wrote; one operation per report."""
    attempted = invocation.reports
    if returncode != 0:
        return Verdict(attempted, attempted, [f"{invocation.command} exited with {returncode}"])
    try:
        reports = read_reports(out_path, invocation.command)
    except (OSError, ValueError, KeyError) as err:
        return Verdict(attempted, attempted, [f"unreadable output {out_path.name}: {err}"])
    expected = invocation.expected_configs()
    if len(reports) != len(expected):
        return Verdict(
            attempted, attempted, [f"{out_path.name}: {len(reports)} reports, expected {attempted}"]
        )
    verdict = Verdict(attempted)
    for config, report in zip(expected, reports):
        problems, exact_wrong = check_report(config, report)
        verdict.problems += problems
        verdict.failed += int(exact_wrong)
    return verdict


def key_total(transcript, position: int) -> tuple[int, int]:
    """XOR of all participants' keys (u, v) at one pair position."""
    u = v = 0
    for participant in transcript.participant_keys:
        key = participant.keys[position - 1]
        u ^= key.u
        v ^= key.v
    return u, v


def key_xor_secret(transcript) -> list[int]:
    """Secret bits the chain should carry at the payload positions."""
    return [bit for position in transcript.payload_positions for bit in key_total(transcript, position)]


def _parity_mismatch(transcript, entry) -> bool:
    u, v = key_total(transcript, entry.position)
    prepared = transcript.prepared[entry.position - 1]
    parity = prepared.x ^ u if entry.basis.name == "Z" else prepared.y ^ v
    return (entry.x_outcome ^ entry.y_outcome) != parity


def check_transcript(transcript) -> list[str]:
    """Recompute a sampled transcript's verdict and secret from its raw fields."""
    config = transcript.config
    tag = f"transcript {config.attack}/{config.check} seed={config.seed}"
    problems = []
    improved = transcript.improved_check
    flagged = any(c.error_count > 0 for c in transcript.decoy_checks) or (
        improved is not None and any(_parity_mismatch(transcript, e) for e in improved.entries)
    )
    if transcript.detected != flagged:
        problems.append(f"{tag}: detected={transcript.detected}, recomputed {flagged}")
    if config.attack == "intercept_resend":
        quiet = [c.hop for c in transcript.decoy_checks if c.hop != config.n and c.error_count]
        if quiet:
            problems.append(f"{tag}: decoy errors on unattacked hops {quiet}")
        return problems
    secret = key_xor_secret(transcript)
    if transcript.detected:
        problems.append(f"{tag}: detected, but no check can fire")
    if transcript.extracted_secret != secret:
        problems.append(f"{tag}: extracted secret differs from the XOR of all keys")
    if config.attack == "collusion" and transcript.attacker_secret != secret:
        problems.append(f"{tag}: colluders' secret differs from the XOR of all keys")
    return problems
