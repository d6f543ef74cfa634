"""Verification report record shared by the verify module and serialization."""

from __future__ import annotations

from dataclasses import dataclass, field

VERIFIED = "Verified"
FAILED = "Failed"
SKIPPED = "Skipped"


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one identity check.

    ``details`` rows are (check description, expected, actual); the status
    is Verified exactly when the identity ran, gave at least one row, and
    every row agrees; a run that gives no row is Skipped.
    """

    identity_id: str
    parameters: dict
    status: str
    details: tuple[tuple[str, int, int], ...]
    elapsed_ms: float
    reason: str | None = field(default=None)
