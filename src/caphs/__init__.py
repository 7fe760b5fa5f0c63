"""Capacitated d-hitting set: exact solver, 4/3-approximation, reductions."""

__version__ = "0.1.0"
