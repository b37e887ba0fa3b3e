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
    polynomial of a USp(4) matrix, so a1 = c1/p^(3/2) is in [-4, 4], and on a full
    row the roots x = t + 1/t of x^2 + a1 x + c2/p^2 - 2 are real and in [-2, 2]: the
    discriminant c1^2 - 4p c2 + 8p^3, 2p^2 + c2 and (2p^2 + c2)^2 - 4p c1^2 are >= 0."""

    p: int
    c1: int
    c2: int | None = None

    def __post_init__(self):
        p, c1, c2 = self.p, self.c1, self.c2
        if c1 * c1 > 16 * p**3:
            raise ConsistencyError(f"|c1|={abs(c1)} breaks the Weil bound at p={p}")
        if c2 is not None and not (c1 * c1 - 4 * p * c2 + 8 * p**3 >= 0
                                   and 2 * p * p + c2 >= 0
                                   and (2 * p * p + c2) ** 2 >= 4 * p * c1 * c1):
            raise ConsistencyError(f"(c1, c2)=({c1}, {c2}) is outside the USp(4) region at p={p}")
