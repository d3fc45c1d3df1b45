"""Full-spectrum torus operator (test support).

frkit.solver.make_torus_operator acts on the rfftn half spectrum of a real
field. This is the complex operator on all N^d unitary coefficients: forward
is ifftn times N^(d/2) sampled at the grid points, adjoint is fftn of the
zero-embedded values over N^(d/2), and its dense matrix is built entry by
entry from the phases. The test suite keeps it as the reference that the
half-spectrum operator and its solves are checked against, and as a complex
operator for the solver's complex-data tests.
"""

import numpy as np

from frkit.sampling import SampleSet
from frkit.solver import MeasurementOperator


def dense_torus_matrix(sample: SampleSet) -> np.ndarray:
    """A[j, m] = exp(2 pi i x_j . m / N) / N^(d/2) over the sample points x_j."""
    side, dims = sample.side, sample.dims
    shape = (side,) * dims
    coords = np.stack(np.unravel_index(sample.flat, shape), axis=1)  # (k, d)
    freqs = np.stack(np.unravel_index(np.arange(side**dims), shape), axis=1)  # (N^d, d)
    phase = (coords @ freqs.T) % side
    return np.exp(2j * np.pi * phase / side) / side ** (dims / 2.0)


def full_torus_operator(sample: SampleSet) -> MeasurementOperator:
    """Restriction of the unitary synthesis map to the sample, on the full spectrum."""
    side, dims = sample.side, sample.dims
    total = side**dims
    shape = (side,) * dims
    scale = side ** (dims / 2.0)
    flat = sample.flat

    def forward(a: np.ndarray) -> np.ndarray:
        fld = np.fft.ifftn(a.reshape(shape)) * scale
        return fld.ravel()[flat]

    def adjoint(y: np.ndarray) -> np.ndarray:
        emb = np.zeros(total, dtype=np.complex128)
        emb[flat] = y
        return (np.fft.fftn(emb.reshape(shape)) / scale).ravel()

    return MeasurementOperator(
        forward, adjoint, shape=(len(sample), total), norm_bound=1.0,
        dense=lambda: dense_torus_matrix(sample),
    )
