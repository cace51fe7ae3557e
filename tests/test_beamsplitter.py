"""Splitting displaced number states across a lossless two-port."""

import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gcslib import beamsplitter as bs
from gcslib import fock, states

import oracles


def test_default_splitter_is_unitary():
    bs.validate(bs.DEFAULT_SPLITTER)
    bs.validate(bs.BeamsplitterSpec(R=1.0, T=0.0))
    bs.validate(bs.BeamsplitterSpec(R=0.6j, T=0.8))


def test_validate_rejects_non_unitary():
    # equal real R and T violate the phase condition RT* + TR* = 0
    with pytest.raises(ValueError, match="RT"):
        bs.validate(bs.BeamsplitterSpec(R=1.0 / math.sqrt(2.0), T=1.0 / math.sqrt(2.0)))
    with pytest.raises(ValueError, match="R"):
        bs.validate(bs.BeamsplitterSpec(R=1.0, T=1.0j))


def test_split_ground_state_single_term():
    terms = bs.split_gcs(0, 2.0, bs.DEFAULT_SPLITTER)
    assert len(terms) == 1
    (term,) = terms
    assert term.m == 0
    assert_allclose(term.amplitude, 1.0)
    assert term.arm3.alpha == bs.DEFAULT_SPLITTER.R * 2.0
    assert term.arm4.alpha == bs.DEFAULT_SPLITTER.T * 2.0
    assert term.arm3.n == 0 and term.arm4.n == 0


def test_split_level_one_term_by_term():
    spec = bs.DEFAULT_SPLITTER
    alpha = 1.5
    lo, hi = bs.split_gcs(1, alpha, spec)
    assert (lo.m, hi.m) == (0, 1)
    assert_allclose(lo.amplitude, spec.T)
    assert (lo.arm3.n, lo.arm4.n) == (0, 1)
    assert lo.arm3.alpha == spec.R * alpha and lo.arm4.alpha == spec.T * alpha
    assert_allclose(hi.amplitude, spec.R)
    assert (hi.arm3.n, hi.arm4.n) == (1, 0)


def test_split_photon_pair_balanced():
    terms = bs.split_gcs(2, 0.0, bs.DEFAULT_SPLITTER)
    amps = [t.amplitude for t in terms]
    assert_allclose(amps, [0.5, 1j / math.sqrt(2.0), -0.5], atol=1e-15)
    weights = [abs(a) ** 2 for a in amps]
    assert_allclose(weights, [0.25, 0.5, 0.25], atol=1e-15)


@pytest.mark.parametrize(
    "spec",
    [
        bs.DEFAULT_SPLITTER,
        bs.BeamsplitterSpec(R=0.6j, T=0.8),
        bs.BeamsplitterSpec(R=0.8 * cmath.exp(1j), T=0.6 * cmath.exp(1j + 0.5j * math.pi)),
    ],
)
def test_split_weights_sum_to_one(spec):
    for n in (0, 1, 4, 10):
        terms = bs.split_gcs(n, 1.3 - 0.4j, spec)
        total = sum(abs(t.amplitude) ** 2 for t in terms)
        assert_allclose(total, 1.0, atol=1e-12)


def test_split_rejects_bad_level():
    with pytest.raises(ValueError):
        bs.split_gcs(-1, 1.0, bs.DEFAULT_SPLITTER)


def test_joint_expansion_normalized():
    joint = bs.two_mode_oracle(2, 1.0, bs.DEFAULT_SPLITTER, 30)
    assert_allclose(np.linalg.norm(joint), 1.0, atol=1e-10)


def _direct_joint(n, alpha, spec, dim):
    # independent route: build the two-mode seed by splitting |n> exactly,
    # then displace each arm with dense matrix exponentials
    seed = np.zeros((dim, dim), dtype=complex)
    for m in range(n + 1):
        seed[m, n - m] = math.sqrt(math.comb(n, m)) * spec.R**m * spec.T ** (n - m)
    d3 = oracles.displacement_dense(spec.R * alpha, dim)
    d4 = oracles.displacement_dense(spec.T * alpha, dim)
    return d3 @ seed @ d4.T


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("alpha", [0.8, 2.0, 1.2 * cmath.exp(0.9j)])
def test_joint_expansion_vs_displaced_seed(n, alpha):
    spec = bs.DEFAULT_SPLITTER
    joint = bs.two_mode_oracle(n, alpha, spec, 40)
    direct = _direct_joint(n, alpha, spec, 40)
    assert np.max(np.abs(joint - direct)) < 1e-9


def test_joint_ground_state_factorizes():
    spec = bs.BeamsplitterSpec(R=0.6j, T=0.8)
    joint = bs.two_mode_oracle(0, 1.0, spec, 25)
    c3 = states.number_expansion(0, spec.R * 1.0, 24)
    c4 = states.number_expansion(0, spec.T * 1.0, 24)
    assert np.max(np.abs(joint - np.outer(c3, c4))) < 1e-12


def test_full_reflection_passthrough():
    spec = bs.BeamsplitterSpec(R=1.0, T=0.0)
    joint = bs.two_mode_oracle(2, 1.1, spec, 30)
    c3 = states.number_expansion(2, 1.1, 29)
    # arm 4 stays in vacuum
    assert np.max(np.abs(joint[:, 0] - c3)) < 1e-12
    assert np.max(np.abs(joint[:, 1:])) < 1e-12


@pytest.mark.parametrize("n,alpha", [(0, 1.0), (1, 1.5), (3, 0.7 - 0.2j)])
def test_arm_marginal_means(n, alpha):
    spec = bs.DEFAULT_SPLITTER
    joint = bs.two_mode_oracle(n, alpha, spec, 36)
    p3, p4 = bs.arm_marginals(joint)
    mean3 = abs(spec.R * alpha) ** 2 + n * abs(spec.R) ** 2
    mean4 = abs(spec.T * alpha) ** 2 + n * abs(spec.T) ** 2
    assert_allclose(bs.marginal_mean(p3), mean3, atol=1e-9)
    assert_allclose(bs.marginal_mean(p4), mean4, atol=1e-9)


def test_split_output_is_entangled_for_excited_input():
    # more than one non-negligible singular value means no product form
    joint = bs.two_mode_oracle(1, 1.0, bs.DEFAULT_SPLITTER, 30)
    svals = np.linalg.svd(joint, compute_uv=False)
    assert svals[1] > 0.1
    joint0 = bs.two_mode_oracle(0, 1.0, bs.DEFAULT_SPLITTER, 30)
    svals0 = np.linalg.svd(joint0, compute_uv=False)
    assert svals0[1] < 1e-10


def _oracle_sweep():
    # n <= 30, |alpha| <= 6, |R|^2 in [1/4, 3/4] with R and T of any phase
    # (unitarity fixes arg T = arg R +- pi/2), alpha = 0, and the edges
    rng = np.random.default_rng(1101)
    cases = []
    for _ in range(30):
        n = int(rng.integers(0, 31))
        alpha = cmath.rect(rng.uniform(0.0, 6.0), rng.uniform(-math.pi, math.pi))
        r2, arg_r = rng.uniform(0.25, 0.75), rng.uniform(-math.pi, math.pi)
        arg_t = arg_r + rng.choice([-0.5, 0.5]) * math.pi
        cases.append((n, alpha, bs.BeamsplitterSpec(
            cmath.rect(math.sqrt(r2), arg_r), cmath.rect(math.sqrt(1.0 - r2), arg_t))))
    spec = bs.BeamsplitterSpec(0.6j, 0.8)
    return cases + [(3, 0.0, spec), (30, 0.0, bs.DEFAULT_SPLITTER), (0, 6.0, spec),
                    (30, 6.0 * cmath.exp(2.0j), spec), (20, 4.0, spec)]


def test_arm_matrices_match_the_per_term_oracle():
    # the old loop (one number_expansion per arm per term) as the reference,
    # at the truncation gcs beamsplit picks
    for n, alpha, spec in _oracle_sweep():
        dim = fock.start_dim(max(abs(spec.R), abs(spec.T)) * abs(alpha), n)
        joint = bs.two_mode_oracle(n, alpha, spec, dim)
        ref = oracles.two_mode_oracle_per_term(n, alpha, spec, dim)
        assert np.max(np.abs(joint - ref)) <= 1e-15, (n, alpha, spec)


def test_two_mode_oracle_builds_one_table_per_arm(monkeypatch):
    calls = {"laguerre_table": 0, "number_expansion": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(states, name, counted(name, getattr(states, name)))
    bs.two_mode_oracle(12, 2.0 + 1.0j, bs.BeamsplitterSpec(0.6j, 0.8), 60)
    assert calls == {"laguerre_table": 2, "number_expansion": 0}


def test_two_mode_oracle_guards_every_arm_row():
    # at |T alpha| = 2.04 and dim 30 only the top row of arm 4 (level 3)
    # misses more than 1e-10 of its mass (1.4e-10); the per-term loop raised
    # there too
    spec = bs.BeamsplitterSpec(math.sqrt(0.1) * 1j, math.sqrt(0.9))
    with pytest.raises(fock.TruncationError, match="for n=3, "):
        bs.two_mode_oracle(3, 2.15, spec, 30)
    with pytest.raises(fock.TruncationError):
        oracles.two_mode_oracle_per_term(3, 2.15, spec, 30)
    bs.two_mode_oracle(3, 2.1, spec, 30)
