"""Shared record types for L-polynomial data."""

from __future__ import annotations

from dataclasses import dataclass


class SkippedPrime(Exception):
    """Raised when a construction has no good L-polynomial at this prime."""


class DegenerateFiber(SkippedPrime):
    """Dwork pencil fiber is singular mod p (z = 0, 1 or infinity mod p)."""


class ConsistencyError(ArithmeticError):
    """An internal invariant (Weil bound, integrality) failed: a real bug."""


@dataclass(frozen=True)
class LPoly:
    """Coefficient data of the degree-4 Euler factor
    p^6 T^4 + c1 p^3 T^3 + c2 p T^2 + c1 T + 1 at a good prime p, c2 None on a
    c1-only row.  The one statement of the Weil windows, for every computed,
    cached and tabulated row: the normalized factor is the characteristic
    polynomial of a USp(4) matrix, so c1/p^(3/2) is in [-4, 4], c2/p^2 in [-2, 6]."""

    p: int
    c1: int
    c2: int | None = None

    def __post_init__(self):
        if self.c1 * self.c1 > 16 * self.p**3:
            raise ConsistencyError(f"|c1|={abs(self.c1)} breaks the Weil bound at p={self.p}")
        if self.c2 is not None and not (-2 * self.p**2 <= self.c2 <= 6 * self.p**2):
            raise ConsistencyError(f"c2={self.c2} out of range at p={self.p}")
