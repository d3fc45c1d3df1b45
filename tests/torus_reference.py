"""Full-spectrum torus operator (test support).

frkit.solver.make_torus_operator acts on the rfftn half spectrum of a real
field on Z_N^2. This is the complex operator on all N^2 unitary coefficients:
forward is ifftn times N sampled at the grid points, adjoint is fftn of the
zero-embedded values over N, and its dense matrix is built entry by
entry from the phases. The test suite keeps it as the reference that the
half-spectrum operator and its solves are checked against, and as a complex
operator for the solver's complex-data tests.
"""

import numpy as np

from frkit.sampling import SampleSet
from frkit.solver import MeasurementOperator


def dense_torus_matrix(sample: SampleSet) -> np.ndarray:
    """A[j, m] = exp(2 pi i x_j . m / N) / N over the sample points x_j of Z_N^2."""
    side = sample.side
    shape = (side, side)
    coords = np.stack(np.unravel_index(sample.flat, shape), axis=1)  # (k, 2)
    freqs = np.stack(np.unravel_index(np.arange(side * side), shape), axis=1)  # (N^2, 2)
    phase = (coords @ freqs.T) % side
    return np.exp(2j * np.pi * phase / side) / side


def full_torus_operator(sample: SampleSet) -> MeasurementOperator:
    """Restriction of the unitary synthesis map to the sample, on the full spectrum."""
    side, flat = sample.side, sample.flat
    shape = (side, side)
    scale = float(side)

    def forward(a: np.ndarray) -> np.ndarray:
        fld = np.fft.ifftn(a.reshape(shape)) * scale
        return fld.ravel()[flat]

    def adjoint(y: np.ndarray) -> np.ndarray:
        emb = np.zeros(side * side, dtype=np.complex128)
        emb[flat] = y
        return (np.fft.fftn(emb.reshape(shape)) / scale).ravel()

    return MeasurementOperator(
        forward, adjoint, shape=(len(sample), side * side), norm_bound=1.0,
        dense=lambda: dense_torus_matrix(sample),
    )
