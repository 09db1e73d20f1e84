"""Bounded-sparsity autoencoder codec for dense sensor arrays.

A gateway turns each frame of N correlated sensor readings into a sparse
code with at most K nonzero entries, compresses the code into M linear
measurements, and ships M+1 numbers to a base station that recovers the
original frame.  Subpackages:

- ``data``       dataset I/O, synthetic generation, frame sphering
- ``core``       the shrinking sparse autoencoder itself
- ``trainer``    offline cross-validated training (L-BFGS)
- ``cs``         Gaussian measurement and LASSO recovery
- ``baselines``  DCT / DFT / PCA reference sparsifiers
"""

__version__ = "0.1.0"
