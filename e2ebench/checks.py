"""Answer checking: every operation the benchmark times is counted, and
every wrong answer is a failed operation.

References are built by the benchmark outside the timed regions, from
the generator's arrays: an in-memory ``DistinctCountAggregator`` fed the
same batches (the bit-identity oracle for store, cluster and replica
state) and the generator's exact distinct counts (the accuracy oracle).
"""

from __future__ import annotations

import sys

#: Largest relative error an estimate may show against the exact
#: distinct count. ExaLogLog(t=2, d=20, p=10) has a relative standard
#: error near 1.1% (memory-variance product 3.67 over 1024 x 28 bits);
#: 0.15 is over ten of those, so a correct sketch never trips it while
#: a broken fold or merge does.
ESTIMATE_RELATIVE_BOUND = 0.15

#: Absolute slack for tiny groups, whose token-mode estimates are exact
#: to within rounding.
ESTIMATE_ABSOLUTE_SLACK = 2.0


class Checker:
    """Counts attempted operations and records failed ones."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: "list[str]" = []

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)
            print(f"check failed: {message}", file=sys.stderr)

    def expect(self, condition: bool, message: str) -> bool:
        if not condition:
            self.fail(message)
        return bool(condition)

    def same_bytes(self, got: bytes, want: bytes, what: str) -> bool:
        """Byte equality of two serialized states."""
        if got == want:
            return True
        first = next(
            (i for i, (a, b) in enumerate(zip(got, want)) if a != b),
            min(len(got), len(want)),
        )
        self.fail(
            f"{what}: {len(got)} bytes vs reference {len(want)}, "
            f"first difference at byte {first}"
        )
        return False

    def same_rows(self, got, want, what: str) -> bool:
        """Equality of query rows (keys and estimates, exact floats)."""
        got, want = list(got), list(want)
        return self.expect(
            got == want, f"{what}: rows {got[:3]}... differ from reference {want[:3]}..."
        )

    def estimates_near(self, estimates: "dict[str, float]", exact: "dict[str, int]", what: str) -> bool:
        """Every estimate within the stated bound of the exact count."""
        if set(estimates) != set(exact):
            return self.expect(
                False,
                f"{what}: {len(estimates)} groups estimated, {len(exact)} exist",
            )
        worst = None
        for key, truth in exact.items():
            error = abs(estimates[key] - truth)
            if error > max(ESTIMATE_RELATIVE_BOUND * truth, ESTIMATE_ABSOLUTE_SLACK):
                worst = (key, estimates[key], truth)
                break
        return self.expect(
            worst is None, f"{what}: estimate {worst} outside the stated bound"
        )

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def error_rate(self) -> float:
        return min(self.failed, self.attempted) / max(self.attempted, 1)
