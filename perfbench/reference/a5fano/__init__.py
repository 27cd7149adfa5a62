"""Exact verification toolkit for two icosahedral-symmetry Fano threefolds."""

__version__ = "0.1.0"
