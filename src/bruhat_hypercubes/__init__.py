"""Exact computations on Bruhat intervals of the symmetric group:
Kazhdan-Lusztig R-, P- and R-tilde-polynomials, reflection orders,
strong hypercube decompositions, and the H-tilde polynomial."""

__version__ = "0.1.0"
