"""Phaseless far-field scattering synthesis and reference-based reconstruction.

The package covers the forward side (grids, transforms, outgoing-wave
solver, reduced measurement geometry), intensity-only data synthesis with
known reference scatterers, and the explicit reconstruction that recovers
the target's transform from those intensities.

The package root exports nothing: import each name from its module, for
example ``from phaseless.reconstruct import reconstruct``.  Importing one
module loads only what that module needs.
"""

__version__ = "0.1.0"
