"""Beamsplitter action on a displaced number state.

A lossless splitter with reflection R and transmission T sends |n, alpha>
into an (n+1)-term superposition of product displaced number states on the
two output arms; each term keeps a compact analytic label.  A two-mode
number-basis expansion provides the matching joint amplitudes for checks
and reports.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fock, states


@dataclass(frozen=True)
class BeamsplitterSpec:
    """Complex reflection/transmission pair of a lossless beamsplitter."""

    R: complex
    T: complex

    def __post_init__(self):
        object.__setattr__(self, "R", complex(self.R))
        object.__setattr__(self, "T", complex(self.T))


DEFAULT_SPLITTER = BeamsplitterSpec(R=1j / math.sqrt(2.0), T=1.0 / math.sqrt(2.0))


def validate(spec):
    """Check unitarity: |R|^2 + |T|^2 = 1 and R T* + T R* = 0, both to 1e-12."""
    r_norm = abs(abs(spec.R) ** 2 + abs(spec.T) ** 2 - 1.0)
    r_cross = abs(spec.R * spec.T.conjugate() + spec.T * spec.R.conjugate())
    if r_norm > 1e-12 or r_cross > 1e-12:
        raise ValueError(
            "not a unitary beamsplitter: "
            f"| |R|^2+|T|^2 - 1 | = {r_norm:.3e}, |RT* + TR*| = {r_cross:.3e}"
        )
    return spec


@dataclass(frozen=True)
class OutputTerm:
    """One branch of the split state: amplitude times |m, R a> |n-m, T a>."""

    m: int
    amplitude: complex
    arm3: states.GcsLabel
    arm4: states.GcsLabel


def split_gcs(n, alpha, spec, omega=1.0):
    """The n+1 output terms of |n, alpha> through a validated splitter.

    Term m carries amplitude binom(n, m)^{1/2} R^m T^{n-m} on the product
    |m, R alpha>_3 |n-m, T alpha>_4; the squared amplitudes are the binomial
    weights of |R|^2, |T|^2 and sum to 1.
    """
    validate(spec)
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    alpha = complex(alpha)
    terms = []
    for m in range(n + 1):
        amp = math.sqrt(math.comb(n, m)) * spec.R**m * spec.T ** (n - m)
        terms.append(
            OutputTerm(
                m=m,
                amplitude=amp,
                arm3=states.GcsLabel(m, spec.R * alpha, omega),
                arm4=states.GcsLabel(n - m, spec.T * alpha, omega),
            )
        )
    return terms


def two_mode_oracle(n, alpha, spec, dim):
    """Joint number-basis amplitudes c[j, k] of the two output arms.

    Term m of split_gcs is amp_m |m, R alpha>|n - m, T alpha>, so the joint
    matrix is sum_m amp_m c3[m] (x) c4[n - m], one product of the arm
    matrices: c3 and c4 hold the expansions of levels 0..n up to level
    dim - 1 at R alpha and at T alpha, each from one
    states.number_expansion_levels call.  Raises TruncationError when any
    arm row captures less than 1 - 1e-10 of its mass (dim not tail-safe for
    |alpha|).  Total norm of the result is 1 to 1e-10.
    """
    amp = np.array([term.amplitude for term in split_gcs(n, alpha, spec)])
    c3 = states.number_expansion_levels(n, spec.R * alpha, dim - 1)
    c4 = states.number_expansion_levels(n, spec.T * alpha, dim - 1)
    return (c3 * amp[:, None]).T @ c4[::-1]


def arm_marginals(joint):
    """Photon-number marginals (arm3, arm4) of a joint amplitude matrix."""
    weights = np.abs(np.asarray(joint)) ** 2
    return weights.sum(axis=1), weights.sum(axis=0)


def marginal_mean(probs):
    probs = np.asarray(probs)
    return float(np.sum(np.arange(probs.shape[0]) * probs))
