"""ymspec: gauged lattice calculus, symbol transforms, anti-normal Fock
quantization, and bosonic block spectra of the Yang-Mills energy-mass
functional at finite truncation."""

__version__ = "0.1.0"
