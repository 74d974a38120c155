"""Exact pivot kernels, pure Python (see ``pybackend``)."""

from .pybackend import bareiss_rank, rref, simplex_phase1

__all__ = ["rref", "bareiss_rank", "simplex_phase1"]
