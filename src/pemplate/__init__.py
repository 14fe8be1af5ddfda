"""Finite-element simulation and network design for piezo-electro-mechanical
plates: coupled bending/electric fields on one triangular mesh, modal
reduction, Runge-Kutta time evolution, and synthesis of the optimal net
inductance and resistance for purely electrical vibration damping."""

__version__ = "0.1.0"
