"""Exact simulation and verification of circle gathering with limited visibility."""

from . import analysis, angles, configuration, errors, oracle, protocol, render, sim

__version__ = "0.1.0"
