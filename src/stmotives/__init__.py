"""Sato-Tate moment statistics for rank-4 weight-3 self-dual motives.

Modules:
  records           L-polynomial rows and the skip and consistency errors
  ntkernel          primes, Gaussian/Eisenstein arithmetic, residue symbols
  padic_hypergeom   p-adic gamma, hypergeometric traces, Dwork L-polynomials
  laurent           exact Laurent polynomials over Z[zeta_24] and torus expectations
  stgroups          the 26-group catalog and its exact moment engine
  cmforms           newform coefficients (Hecke characters, curves, files)
  motives           the five L-polynomial constructions
  stats             moment statistics, classification, table emission
  cli               command-line entry point
"""

from .records import ConsistencyError, DegenerateFiber, LPoly, SkippedPrime

__all__ = [
    "ConsistencyError",
    "DegenerateFiber",
    "LPoly",
    "SkippedPrime",
]
