"""Hot numeric kernels: three-term recurrences vectorized in NumPy.

Each recurrence step is one array operation over every point (or every
upper index, or every point of a cache-sized block) at once, so the Python
loop runs over the degree only.
"""

import math

import numpy as np

# Points per block of the Hermite recurrence: the x slice, the output slice
# and two work buffers (4 x 64 KiB of float64) stay resident in L2.
_BLOCK = 8192
# Seed exponents below this get a per-point binary shift so exp() of the
# seed stays a normal float; exp(-680) is about 5e-296.
_SEED_FLOOR = -680.0
# Cap on that shift, so a = -inf (infinite y or omega) seeds a plain zero.
_MAX_SHIFT = 1 << 20
_LN2 = math.log(2.0)
# A shifted value whose binary exponent passes _RESCALE_EXP is brought back
# below 1, its exponent moved into the shift; rescaling runs before a step
# that could lift some value past 2^_LEVEL_MAX.
_RESCALE_EXP = 500
_LEVEL_MAX = 1000.0


def hermite_functions(n, omega, y):
    """Normalized oscillator eigenfunction phi_n(y) for scalar or any-shape y.

    Three-term recurrence on the normalized functions, phi_{k+1} =
    sqrt(2 omega/(k+1)) y phi_k - sqrt(k/(k+1)) phi_{k-1}, seeded with
    (omega/pi)^{1/4} exp(a), a = -omega y^2/2.  The flattened input runs
    through the whole recurrence in blocks of _BLOCK points, each step
    written in place into preallocated buffers, and the last step lands in
    the output array, so nothing is copied.

    Where a < _SEED_FLOOR the seed would underflow before the recurrence
    grows it (from n ~ 750 at omega = 1), so such points carry a binary
    exponent S: the seed is exp(a + S ln 2) and the result is scaled back
    by 2^-S.  A scaled value can outgrow the float range (beyond the turning
    point, or for n above ~1400 inside it), so whenever a bound on the
    block's growth allows that, every scaled value past 2^_RESCALE_EXP is
    divided by its power of two and S takes the exponent; a true phi_n
    below the float range then comes out 0.0.  Points with S = 0 take
    exactly the unscaled arithmetic.  Raises ValueError, naming n and the
    first such y, when a value is not finite: a NaN y or an infinite y with
    n >= 1.
    """
    arr = np.asarray(y, dtype=np.float64)
    x = arr.reshape(-1)
    out = np.empty_like(x)
    size = min(x.size, _BLOCK)
    q, t = np.empty(size), np.empty(size)
    steps = [(math.sqrt(2.0 * omega / (k + 1.0)), math.sqrt(k / (k + 1.0))) for k in range(n)]
    for i in range(0, x.size, _BLOCK):
        xb, res = x[i:i + _BLOCK], out[i:i + _BLOCK]
        _hermite_block(omega, steps, xb, res, q[:xb.size], t[:xb.size])
        finite = np.isfinite(res)
        if not finite.all():
            bad = float(xb[finite.argmin()])
            raise ValueError(f"phi_{n}(y) is not finite at y = {bad!r} (omega = {omega!r})")
    res = out.reshape(arr.shape)
    return float(res) if arr.ndim == 0 else res


def _hermite_block(omega, steps, x, res, q, t):
    """Run the recurrence of hermite_functions over one block x into res.

    q and t are work buffers of x's size.
    """
    # n - 1 steps, each writing where phi_{k-1} was: for even n the last
    # lands where the seed was, so the seed goes to res
    p0, p1 = (res, q) if len(steps) % 2 == 0 else (q, res)
    np.multiply(-0.5 * omega, x, out=p0)
    p0 *= x
    a_min = p0.min()
    if not a_min < _SEED_FLOOR:  # a NaN lands here too, and its point raises
        _recurrence(omega, steps, x, p0, p1, t, None, ())
        return
    shift = np.ceil((_SEED_FLOOR - p0) / _LN2)
    shift = np.where(p0 < _SEED_FLOOR, np.minimum(shift, _MAX_SHIFT), 0.0)
    p0 += shift * _LN2
    with np.errstate(invalid="ignore"):  # inf * 0 at an infinite y, which raises
        _recurrence(omega, steps, x, p0, p1, t, shift, _rescale_steps(omega, steps, float(a_min)))
    np.ldexp(res, -shift.astype(np.int64), out=res)


def _recurrence(omega, steps, x, p0, p1, t, shift, rescale_at):
    """Seed p0 with exp of the exponents it holds, then take the steps.

    Each step is the arithmetic (c_k x) phi_k - s_k phi_{k-1} done in place;
    before step k in rescale_at, _rescale moves exponents into shift.
    """
    np.exp(p0, out=p0)
    p0 *= (omega / np.pi) ** 0.25
    if steps:
        np.multiply(steps[0][0], x, out=p1)
        p1 *= p0
    for k in range(1, len(steps)):
        c, s = steps[k]
        if k in rescale_at:
            _rescale(p0, p1, shift)
        np.multiply(c, x, out=t)
        t *= p1
        p0 *= s
        np.subtract(t, p0, out=p0)
        p0, p1 = p1, p0


def _rescale_steps(omega, steps, a_min):
    """The steps k before which a block with shifted seeds is rescaled.

    level bounds log2 max(|phi_{k-1}|, |phi_k|) over the block, with
    max|y| taken from the least seed exponent a_min: the seeds are at most
    (omega/pi)^(1/4), phi_1 at most c_0 max|y| times that, and step k
    multiplies the bound by at most c_k max|y| + s_k.  A step that could
    take it past _LEVEL_MAX is rescaled first, after which it is
    _RESCALE_EXP.
    """
    at = set()
    if not steps:
        return at
    y_max = math.sqrt(-2.0 * a_min / omega)
    level = max(0.0, 0.25 * math.log2(omega / math.pi)) + max(0.0, math.log2(steps[0][0] * y_max))
    for k in range(1, len(steps)):
        c, s = steps[k]
        grow = max(0.0, math.log2(c * y_max + s))
        if level + grow > _LEVEL_MAX:
            at.add(k)
            level = _RESCALE_EXP
        level += grow
    return at


def _rescale(p0, p1, shift):
    """Divide p0 and p1 by 2^e at points where max(|p0|, |p1|) has binary
    exponent e > _RESCALE_EXP, and take e off the shift there.

    Only shifted values grow this large, and a power of two scales exactly.
    """
    _, e = np.frexp(np.maximum(np.abs(p0), np.abs(p1)))
    e[e <= _RESCALE_EXP] = 0
    np.ldexp(p0, -e, out=p0)
    np.ldexp(p1, -e, out=p1)
    shift -= e


def laguerre_table(s, d, z):
    """Generalized Laguerre L_s^{d_i}(z): fixed degree s over an array d of upper indices."""
    d = np.asarray(d, dtype=np.float64).reshape(-1)
    L0 = np.ones_like(d)
    if s == 0:
        return L0
    L1 = 1.0 + d - z
    for j in range(1, s):
        L0, L1 = L1, ((2.0 * j + 1.0 + d - z) * L1 - (j + d) * L0) / (j + 1.0)
    return L1


def laguerre_diagonal(n, z):
    """L_k^{n-k}(z) for k = 0..n-1: the anti-diagonal degree + index = n.

    One laguerre_table recurrence runs over the indices d = n - k at once,
    entry k is read off when the degree reaches k, and the arrays then drop
    it, so finished entries neither cost steps nor overflow.  Each entry
    takes the same arithmetic as laguerre_table(k, [n - k], z), so the two
    agree bit for bit.
    """
    d = np.arange(n, 0, -1, dtype=np.float64)
    out = np.ones_like(d)
    if n < 2:
        return out
    d = d[1:]
    L0, L1 = np.ones_like(d), 1.0 + d - z
    out[1] = L1[0]
    for j in range(1, n - 1):
        d = d[1:]
        L0, L1 = L1[1:], ((2.0 * j + 1.0 + d - z) * L1[1:] - (j + d) * L0[1:]) / (j + 1.0)
        out[j + 1] = L1[0]
    return out
