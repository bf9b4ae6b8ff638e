"""Pass/fail reports with concrete counterexample witnesses."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    witness: tuple = None  # labels reproducing the failure; None when passed

    def __str__(self):
        if self.passed:
            return f"{self.name}: pass"
        return f"{self.name}: FAIL witness={self.witness}"


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple

    def __post_init__(self):
        object.__setattr__(self, "checks", tuple(self.checks))

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def failed(self) -> list:
        return [c for c in self.checks if not c.passed]

    def lines(self) -> list:
        return [str(c) for c in self.checks]

    def __str__(self):
        verdict = "PASS" if self.overall else "FAIL"
        return "\n".join(self.lines() + [f"overall: {verdict}"])


def passed(name: str) -> Check:
    return Check(name, True)


def failed(name: str, witness) -> Check:
    return Check(name, False, tuple(witness))


def verdict(name: str, bad: np.ndarray, elements) -> Check:
    """Pass when no cell of the boolean array bad is set, else fail at the first one.

    np.argwhere scans in row-major order, so the witness is the first
    violating tuple in element order.
    """
    if not bad.any():
        return passed(name)
    return failed(name, tuple(elements[i] for i in np.argwhere(bad)[0]))
