"""Distortion-gap and distortion-ratio bounds between tradeoff corners.

The quantities compared: D1 is the distortion of the rate-matched point on
the classical rate-distortion curve, (D3, C3) the minimum-classification-loss
point at the same rate with reconstruction deviation sigma_xhat3, and D_b the
minimum-classification-loss corner reachable by re-decoding the fixed
encoder.  The bounds are pure arithmetic on those numbers:

    gap:    D3 - D_b >= var_x + sigma_xhat3^2
                        - 2*sigma_xhat3*sqrt(var_x - D1) - 2*D1
    ratio:  D3 / D_b >= (var_x + sigma_xhat3^2
                        - 2*sigma_xhat3*sqrt(var_x - D1)) / (2*D1)
    sandwich:  D_b <= D3 <= 2*D1
    upper-left corner:
        gap_ub   = var_x - (var_x + sigma_xhat3^2 - D3)^2 / (4*sigma_xhat3^2)
                   - D3/2
        ratio_ub = (var_x - (...)^2/(4*sigma_xhat3^2)) / (D3/2)

The Gaussian harness instantiates every symbol from the scalar closed forms:
D1 = D3 = var_x*e^{-2R} and sigma_xhat3 = sigma_x*sqrt(1 - e^{-2R}).  The
minimum loss reachable at finite rate is c_threshold(R) (the global floor
needs unbounded rate), so C3 is mapped to c_threshold(R); the bounds above do
not depend on C3.  D_b is the MSE at the minimum-MSE gain gamma* = Cov(X, Z):
every nonzero linear decode of Z has the same least loss c_threshold(R) (see
``universal_gaussian``), so gamma* is also least in D at that loss.
Convergence caveat: with sigma_xhat3 = sigma_x the gap bound approaches 0
only at rate O(sqrt(var_x - D1)) as D1 -> var_x, so e.g. at D1 = 0.999*var_x
its value is still about -0.061*var_x.
"""

from __future__ import annotations

import math

from .errors import Frozen, ParameterError, check_finite, check_nonneg, checked_index
from .errors import checked_square
from .gaussian_model import GaussianPairSource, GaussianReconstruction, mse_of_reconstruction
from .gaussian_tradeoff import c_threshold
from .universal_gaussian import encoder_for_rate, mmse_gain


class Theorem5Instance(Frozen):
    """The numbers the corner bounds consume; nothing is re-derived here."""

    def __init__(
        self, var_x: float, sigma_xhat3: float, d1: float, d3: float, d_b: float | None = None
    ):
        fields = dict(var_x=var_x, sigma_xhat3=sigma_xhat3, d1=d1, d3=d3, d_b=d_b)
        for name, value in fields.items():
            if value is not None:
                check_finite(name, value)
                check_nonneg(name, value)
        if var_x == 0.0 or d1 > var_x:
            raise ParameterError(f"need var_x > 0 and d1 in [0, var_x], got {var_x}, {d1}")
        self.__dict__.update(fields)


def _lower_bound_numerator(inst: Theorem5Instance) -> float:
    """var_x + sigma_xhat3^2 - 2*sigma_xhat3*sqrt(var_x - D1), shared by both
    lower bounds, which assume var_x + sigma_xhat3^2 - D3 >= 0."""
    if inst.var_x + inst.sigma_xhat3**2 - inst.d3 < 0.0:
        raise ParameterError("lower bounds assume var_x + sigma_xhat3^2 - d3 >= 0")
    return (
        inst.var_x
        + inst.sigma_xhat3**2
        - 2.0 * inst.sigma_xhat3 * math.sqrt(inst.var_x - inst.d1)
    )


def gap_lower_bound(inst: Theorem5Instance) -> float:
    """Lower bound on D3 - D_b; may be negative (vacuous) away from the corners."""
    return _lower_bound_numerator(inst) - 2.0 * inst.d1


def ratio_lower_bound(inst: Theorem5Instance) -> float:
    """Lower bound on D3 / D_b; +inf at d1 = 0 (division guard)."""
    numerator = _lower_bound_numerator(inst)
    if inst.d1 == 0.0:
        return math.inf
    return numerator / (2.0 * inst.d1)


def _d_tol(inst: Theorem5Instance) -> float:
    """Tolerance of the sandwich and gap verdicts: the rounding in a distortion
    grows with var_x.  (The ratio verdict's 1e-12 is dimensionless.)"""
    return 1e-12 * inst.var_x


def sandwich_check(inst: Theorem5Instance) -> bool:
    """D_b <= D3 <= 2*D1 within a tolerance of 1e-12*var_x."""
    if inst.d_b is None:
        raise ParameterError("the sandwich check needs d_b")
    tol = _d_tol(inst)
    return bool(inst.d_b <= inst.d3 + tol and inst.d3 <= 2.0 * inst.d1 + tol)


def upper_left_bounds(inst: Theorem5Instance) -> tuple[float, float]:
    """(gap_ub, ratio_ub) bounding the minimum-distortion corner displacement.

    ratio_ub is +inf at d3 = 0.
    """
    if inst.sigma_xhat3 == 0.0:
        raise ParameterError("upper-left bounds need sigma_xhat3 > 0")
    core = inst.var_x - (inst.var_x + inst.sigma_xhat3**2 - inst.d3) ** 2 / (
        4.0 * inst.sigma_xhat3**2
    )
    gap_ub = core - inst.d3 / 2.0
    ratio_ub = math.inf if inst.d3 == 0.0 else core / (inst.d3 / 2.0)
    return gap_ub, ratio_ub


def _seed_state(seed: int) -> list[int]:
    """numpy's ``SeedSequence(seed).generate_state(4, np.uint64)`` for an int
    seed >= 0: the seed's 32-bit words, little-endian, hashed into a 4-word
    pool and drawn out as eight words, paired into four little-endian uint64s."""
    m32 = 0xFFFFFFFF
    entropy = [seed >> k & m32 for k in range(0, max(seed.bit_length(), 1), 32)]
    h = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal h
        value ^= h
        h = h * 0x931E8875 & m32
        value = value * h & m32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & m32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[4:]:
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    h, words = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ h
        h = h * 0x58F38DED & m32
        value = value * h & m32
        words.append(value ^ value >> 16)
    return [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]


def _uniform_draws(seed: int, n: int, low: float, high: float) -> list[float]:
    """``np.random.default_rng(seed).uniform(low, high, n).tolist()`` bit for bit.

    PCG64 (O'Neill, HMC-CS-2014-0905) seeded from ``_seed_state``: a 128-bit
    LCG whose XSL-RR output gives 64 bits per draw, of which the top 53 make
    the double.  NumPy keeps both algorithms fixed (NEP 19), so exact integer
    arithmetic reproduces its stream without importing it.
    """
    m64, m128 = (1 << 64) - 1, (1 << 128) - 1
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    s_hi, s_lo, i_hi, i_lo = _seed_state(seed)
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & m128
    state = ((inc + (s_hi << 64 | s_lo)) * mult + inc) & m128  # state 0, step, add seed, step
    span, draws = high - low, []
    for _ in range(n):
        state = (state * mult + inc) & m128
        x, rot = (state >> 64 ^ state) & m64, state >> 122
        x = (x >> rot | x << (64 - rot)) & m64
        draws.append(low + span * ((x >> 11) * 2.0**-53))
    return draws


class HarnessRecord(Frozen):
    """One fully evaluated Gaussian instance with every bound and check."""

    def __init__(
        self,
        rate: float,
        instance: Theorem5Instance,
        c3: float,
        gap_lb: float,
        ratio_lb: float,
        gap_holds: bool,
        ratio_holds: bool,
        sandwich_holds: bool,
        gap_ub: float | None,
        ratio_ub: float | None,
        degenerate: bool,
    ):
        self.__dict__.update(
            rate=rate, instance=instance, c3=c3, gap_lb=gap_lb, ratio_lb=ratio_lb,
            gap_holds=gap_holds, ratio_holds=ratio_holds, sandwich_holds=sandwich_holds,
            gap_ub=gap_ub, ratio_ub=ratio_ub, degenerate=degenerate,
        )


def theorem5_gaussian_harness(
    src: GaussianPairSource,
    rate: float | None = None,
    seed: int = 0,
    n: int = 1,
) -> list[HarnessRecord]:
    """Evaluate every corner bound on rate-indexed Gaussian instances.

    With ``rate`` given, all ``n`` instances use it; otherwise rates are drawn
    uniformly from (0.01, 2.5) under ``seed``, as numpy's ``default_rng(seed)``
    draws them.  Per instance: D1 = D3 = var_x*e^{-2R}, sigma_xhat3 =
    sigma_x*sqrt(1-e^{-2R}) from the rate-R minimum-MSE decoder, C3 =
    c_threshold(R), and D_b the MSE at gamma* = Cov(X, Z), the least
    distortion at the least loss, which every nonzero gain reaches.  Rate 0 is
    flagged degenerate.  ``n`` must be an integer >= 1 and the seed one >= 0
    (numpy integers too; a bool is refused).
    """
    n = checked_index("n", n, 1)
    seed = checked_index("seed", seed, 0)
    if rate is not None:
        check_nonneg("rate", rate)
    rates = [float(rate)] * n if rate is not None else _uniform_draws(seed, n, 0.01, 2.5)
    records = []
    for r in rates:
        rep = encoder_for_rate(src, r)
        d1 = d3 = src.var_x * math.exp(-2.0 * r)
        gain = mmse_gain(rep)
        sigma3 = abs(gain)  # sigma_x * sqrt(1 - e^{-2R}), var_z = 1
        c3 = c_threshold(src, r)
        # The decode's statistics, formed here: a LinearDecoder refuses a gain
        # whose square underflows, and D_b needs no more than these numbers.
        rec = GaussianReconstruction(src.mu_x, checked_square("gamma", gain), gain * rep.cov_xz)
        d_b = mse_of_reconstruction(src, rec)
        inst = Theorem5Instance(src.var_x, sigma3, d1, d3, d_b)
        gap_lb = gap_lower_bound(inst)
        ratio_lb = ratio_lower_bound(inst)
        gap_holds = bool((d3 - d_b) >= gap_lb - _d_tol(inst))
        ratio_holds = bool(d_b <= 0.0 or (d3 / d_b) >= ratio_lb - 1e-12)
        degenerate = r == 0.0 or sigma3 == 0.0
        if degenerate:
            gap_ub = ratio_ub = None
        else:
            gap_ub, ratio_ub = upper_left_bounds(inst)
        records.append(
            HarnessRecord(
                rate=r,
                instance=inst,
                c3=c3,
                gap_lb=gap_lb,
                ratio_lb=ratio_lb,
                gap_holds=gap_holds,
                ratio_holds=ratio_holds,
                sandwich_holds=sandwich_check(inst),
                gap_ub=gap_ub,
                ratio_ub=ratio_ub,
                degenerate=degenerate,
            )
        )
    return records
