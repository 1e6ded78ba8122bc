"""Stochastic behavioral model of MTJ bit-cell and cell-pair sense currents.

Currents are in microamps, temperatures in degrees Celsius. A cell stores one
bit as its free-layer orientation: the parallel (low resistance, high sense
current) state encodes logic 1, the anti-parallel state logic 0. Two-cell
senses see the summed bit-line current, which takes one of three levels
depending on how many of the two cells are parallel. A model holds the two
ladders, ``single_levels`` (AP, P) and ``pair_levels`` (AP,AP, AP,P, P,P),
each indexed by the number of parallel cells and named as in the config.

Heat moves a sense up its level ladder: :func:`column_law` states that rule
once, and the pair sampler, the column kernel and the exceedance oracle of
:mod:`spincim.analytic` all read it. A per-row disturbance tuple has one
entry per sensed row, and every law parameter is finite, else ValueError.

All sampling is driven by an explicitly passed numpy Generator; there is no
module-level random state. Monte Carlo callers derive one independent stream
per trial with :func:`trial_rng`, so a result depends only on the seed.
Trial ``i``'s stream is bit for bit
``np.random.default_rng((seed, i))``; its seed words are derived for 1024
trials at a time in one vectorised pass instead of one hash per trial, and
the block's per-trial seed objects are built once with them and cached. A
Monte Carlo report sets up its pair sense once with :func:`pair_sampler`, so
a trial only draws from its own stream: collapse uniforms from raw stream
words, ``Generator.random()`` bit for bit, and noise ``sigma *
standard_normal()``, numpy's own ``normal(0, sigma)`` arithmetic. Every
other sense, scalar or not, is a column sense under a law that
:func:`column_law` resolves (:func:`sample_columns` on each call, an array
once per attack), in two steps: :func:`column_draws` takes the draws of
several senses in one pass, exactly as they would one after another, and
the pure :func:`apply_laws` maps bits, a law and its draws to currents.
An array takes a block of senses' draws in one :func:`column_draws` call
and maps each law at every operand-bit pattern at once, so its senses
decode from integer masks (:mod:`spincim.array`).
"""
from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from typing import Mapping, Union

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .errors import InvalidShift, NonConvergence

AMBIENT_TEMP_C = 20.0

# Shipped calibration: sigma inverts the natural-condition failure rate of the
# upper pair margin (Q(1.25/sigma) = 0.005); the collapse parameters are the
# least-squares fit of the closed-form failure rates to the heated targets.
# calibrate() with default targets reproduces these to well within 1%.
DEFAULT_SIGMA = 0.485281
DEFAULT_COLLAPSE_A = -9.09752
DEFAULT_COLLAPSE_B = 0.0733226


class MtjState(Enum):
    """Free-layer orientation of one cell; P encodes logic 1, AP logic 0."""

    AP = "AP"
    P = "P"

    @classmethod
    def from_bit(cls, bit: int) -> "MtjState":
        return cls.P if bit else cls.AP

    @property
    def bit(self) -> int:
        return 1 if self is MtjState.P else 0


PairState = tuple[MtjState, MtjState]

PAIR_NAMES = ("AP,AP", "AP,P", "P,P")
# the state names of each level ladder, in order of the number of P cells
LADDERS = {"single_levels": tuple(state.value for state in MtjState), "pair_levels": PAIR_NAMES}


def parse_pair(name: str) -> PairState:
    """Parse a pair name like ``"AP,P"`` into a state tuple."""
    parts = [p.strip() for p in name.split(",")]
    if len(parts) != 2:
        raise ValueError(f"not a pair name: {name!r}")
    return MtjState(parts[0]), MtjState(parts[1])


@dataclass(frozen=True)
class CurrentLevelModel:
    """Nominal sense-current levels and shared Gaussian sense noise.

    Two ladders, indexed by the number of parallel cells: ``single_levels``
    (AP, P) and ``pair_levels`` (AP,AP, AP,P, P,P), each finite and strictly
    increasing, else ValueError. Pair levels are not sums of single levels:
    the measured pair margins (3.2 and 2.5 uA by default) are smaller than
    linear current summation would give.
    """

    single_levels: tuple[float, float] = (10.0, 15.5)
    pair_levels: tuple[float, float, float] = (17.0, 20.2, 22.7)
    sigma: float = DEFAULT_SIGMA
    ambient_temp: float = AMBIENT_TEMP_C

    def __post_init__(self):
        for name, names in LADDERS.items():
            ladder = tuple(getattr(self, name))  # a tuple keeps the model hashable
            object.__setattr__(self, name, ladder)
            if not (len(ladder) == len(names) and all(map(math.isfinite, ladder))
                    and all(lo < hi for lo, hi in zip(ladder, ladder[1:]))):
                raise ValueError(f"{name} must be {len(names)} finite, strictly "
                                 f"increasing levels, got {ladder}")
        if not (0 <= self.sigma < math.inf and math.isfinite(self.ambient_temp)):
            raise ValueError("sigma must be finite and >= 0, ambient_temp finite")

    def margins(self) -> dict[str, float]:
        """Read margin and the two pair margins, in uA: each ladder's steps."""
        steps = [round(hi - lo, 9) for ladder in (self.single_levels, self.pair_levels)
                 for lo, hi in zip(ladder, ladder[1:])]
        return dict(zip(("read", "pair_lower", "pair_upper"), steps))


@dataclass(frozen=True)
class MeanShift:
    """Heating model that raises each pair level by a fixed amount.

    The shifts apply to the three pair levels in ladder order and must satisfy
    0 < alpha < beta < gamma, else InvalidShift. Single-cell senses are
    unaffected. The same type carries a mitigation's estimate of the shifts.
    """

    alpha: float
    beta: float
    gamma: float
    zone_temp: float = AMBIENT_TEMP_C

    def __post_init__(self):
        if not all(map(math.isfinite, (*self.shifts, self.zone_temp))):
            raise InvalidShift(f"mean shift parameters must be finite, got {self}")
        if not 0 < self.alpha < self.beta < self.gamma:
            raise InvalidShift("shifts must satisfy 0 < alpha < beta < gamma, got "
                               f"{self.shifts}")

    @property
    def shifts(self) -> tuple[float, float, float]:
        return (self.alpha, self.beta, self.gamma)


@dataclass(frozen=True)
class Collapse:
    """Thermally activated collapse of heated anti-parallel cells.

    Each AP cell in the heated zone independently reads at the next level up
    with probability rho(dT) = exp(min(0, a + b*dT)), where dT is the zone
    temperature above ambient (floored at zero). Parallel cells are stable
    under heat and never collapse. A non-finite parameter raises ValueError.
    """

    a: float = DEFAULT_COLLAPSE_A
    b: float = DEFAULT_COLLAPSE_B
    zone_temp: float = AMBIENT_TEMP_C

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.b, self.zone_temp))):
            raise ValueError(f"collapse parameters must be finite, got {self}")

    def rho(self, ambient_temp: float) -> float:
        dt = max(0.0, self.zone_temp - ambient_temp)
        # clamp the exponent, not the result: rho saturates at 1 for any dT
        return math.exp(min(0.0, self.a + self.b * dt))


Disturbance = Union[MeanShift, Collapse, None]
CellDisturbances = Union[Disturbance, tuple[Disturbance, Disturbance]]


def heated(disturbance: MeanShift | Collapse, zone_temp: float, model: CurrentLevelModel):
    """``disturbance`` moved to ``zone_temp``: the one rule that turns a zone
    temperature into a heated disturbance. A zone below the model's ambient
    is a ValueError; :meth:`Collapse.rho` still floors dT at zero."""
    if zone_temp < model.ambient_temp:
        raise ValueError("zone temperature cannot be below ambient")
    return replace(disturbance, zone_temp=zone_temp)


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
STREAM_BLOCK = 1024
# Generator.random() on PCG64 is a raw 64-bit word's top 53 bits times 2**-53
_U53 = 2.0 ** -53


def _uint32_words(n: int) -> list[int]:
    """``n``'s little-endian 32-bit words, as SeedSequence splits an int."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hasher(init: int, mult: int):
    """numpy's ``hashmix`` over uint32 columns; the multiplier advances per call.

    The constant chain does not depend on the data, so it runs as masked
    Python ints beside the columns and never overflows a numpy scalar.
    """
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> XSHIFT)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(MIX_MULT_L) - y * np.uint32(MIX_MULT_R)
    return result ^ (result >> XSHIFT)


def _stream_words(seed: int, block: int) -> np.ndarray:
    """PCG64 seed words of ``SeedSequence((seed, i))`` for the trials of a block.

    Row ``j`` is ``generate_state(4, np.uint64)`` for ``i = 1024*block + j``.
    Each entropy word is one uint32 column over the block: the seed's words
    and the index's high words are the same in every row, and so is the
    index's word count, since blocks are aligned and 1024 divides 2**32.
    The result is read-only, because every seed object of the block shares it.
    """
    if seed < 0 or block < 0:
        raise ValueError("stream seed and index must be non-negative")
    lo = block * STREAM_BLOCK
    low = lo & _MASK32
    entropy = [np.full(STREAM_BLOCK, w, np.uint32) for w in _uint32_words(seed)]
    entropy.append(np.arange(low, low + STREAM_BLOCK, dtype=np.uint32))
    entropy += [np.full(STREAM_BLOCK, w, np.uint32) for w in _uint32_words(lo)[1:]]

    # mix_entropy
    hashmix = _hasher(INIT_A, MULT_A)
    zero = np.zeros(STREAM_BLOCK, np.uint32)
    pool = [hashmix(entropy[k] if k < len(entropy) else zero) for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))

    # generate_state(4, np.uint64): eight uint32 words cycling over the pool
    final = _hasher(INIT_B, MULT_B)
    state = np.stack([final(pool[k % _POOL_SIZE]) for k in range(8)], axis=1)
    words = state.astype("<u4").view("<u8").astype(np.uint64)
    words.flags.writeable = False
    return words


class _Words(ISeedSequence):
    """A seed sequence that hands PCG64 its precomputed state words."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


@functools.lru_cache(maxsize=16)
def _stream_seeds(seed: int, block: int) -> tuple[_Words, ...]:
    """One seed object per trial of a block, over the rows of :func:`_stream_words`.

    PCG64 only reads a seed object's words, so every stream of a trial shares one.
    """
    return tuple(map(_Words, _stream_words(seed, block)))


def trial_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent per-trial stream derived from (master seed, trial index).

    The stream is bit for bit ``np.random.default_rng((master_seed, index))``
    for any seed and index >= 0; its seed object comes from the cached block
    of :func:`_stream_seeds` that holds ``index``, built once per block.
    """
    block, row = divmod(index, STREAM_BLOCK)
    return Generator(PCG64(_stream_seeds(master_seed, block)[row]))


def _require_rng(rng):
    if rng is None:
        raise ValueError("a random generator is required for stochastic sampling")


def _per_row(disturbance: CellDisturbances, rows: int) -> tuple[Disturbance, ...]:
    """One disturbance per row; a tuple needs one entry per row and no MeanShift."""
    if not isinstance(disturbance, tuple):
        return (disturbance,) * rows
    if len(disturbance) != rows:
        raise ValueError(f"{len(disturbance)} per-row disturbances for {rows} rows")
    if any(isinstance(d, MeanShift) for d in disturbance):
        raise ValueError("mean shift is a pair-level disturbance, not per-cell")
    return disturbance


def column_law(rows: int, model: CurrentLevelModel, disturbance: CellDisturbances = None):
    """``(levels, collapses)``: what a sense of ``rows`` rows reads, whatever its cells hold.

    ``levels`` is the level table: the single levels for one row, the pair
    ladder for two, plus a bare MeanShift's shift of each pair level.
    ``collapses`` holds ``(row, rho)`` for each row under Collapse.
    """
    if rows not in (1, 2):
        raise ValueError(f"a sense reads one cell or two, not {rows}")
    per_row = _per_row(disturbance, rows)
    levels = model.single_levels if rows == 1 else model.pair_levels
    if rows == 2 and isinstance(disturbance, MeanShift):
        levels = tuple(level + shift for level, shift in zip(levels, disturbance.shifts))
    return levels, tuple([(row, d.rho(model.ambient_temp))
                          for row, d in enumerate(per_row) if isinstance(d, Collapse)])


def column_draws(laws, width: int, sigma: float, rng: np.random.Generator | None = None):
    """``(uniforms, normals)``: the draws of one sense per law over ``width``
    columns. ``uniforms`` holds, per law, one ``random(width)`` per Collapse
    row; ``normals``, one row per sense, or None when sigma is 0. The senses
    draw in order, but the normals of senses that no uniform separates come
    from one ``normal(0, sigma, k * width)`` call, which a Generator fills
    with the numbers of ``k`` back-to-back calls.
    """
    uniforms, chunks = [()] * len(laws), []
    first = 0  # the first sense whose normals are not drawn yet
    for k, (_, collapses) in enumerate(laws):
        if collapses:
            _require_rng(rng)
            if sigma > 0 and k > first:
                chunks.append(rng.normal(0.0, sigma, (k - first) * width))
            first = k
            uniforms[k] = [rng.random(width) for _ in collapses]
    if sigma == 0:
        return uniforms, None
    _require_rng(rng)
    noise = rng.normal(0.0, sigma, (len(laws) - first) * width)
    if chunks:
        noise = np.concatenate([*chunks, noise])
    return uniforms, noise.reshape(len(laws), width)


def apply_laws(bits, law, uniforms, normals) -> np.ndarray:
    """The currents, in uA, of one sense of ``bits`` (a 0/1 integer array per
    row) under ``law``, a :func:`column_law` with its levels as a float array,
    given its :func:`column_draws` uniforms and normals (None: no noise). An
    AP cell whose uniform fell below its row's rho reads one level up. Pure:
    every array broadcasts over leading axes, so one call maps several words.
    """
    table, collapses = law
    idx = bits[0] + bits[1] if len(bits) == 2 else bits[0]
    for (row, rho), u in zip(collapses, uniforms):
        # true where the cell is AP and its uniform fell below rho
        idx = idx + ((u < rho) > bits[row])
    currents = table[idx]
    return currents if normals is None else currents + normals


def sample_columns(
    bits,
    model: CurrentLevelModel,
    disturbance: CellDisturbances = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Sample one sense current per column, in uA, as an ndarray.

    ``bits`` holds one 0/1 vector per activated row, all of one width: one
    row senses single cells against the single levels, two rows sense summed
    pairs against the pair ladder. A column's level index is its number of
    parallel cells. ``disturbance`` applies to every row, or is a tuple with
    one entry per row (see :func:`_per_row`); any other row count or mix of
    widths raises ValueError.

    Draw order: for each row whose disturbance is Collapse, one uniform per
    column (an AP cell collapses one level up when its uniform is below
    rho); then one normal per column when sigma > 0. The number of draws
    never depends on the stored bits. A pair-level MeanShift, passed bare,
    adds ``shifts[index]``; it has no effect on single-cell senses, and in a
    per-row tuple it raises ValueError. This is :func:`apply_laws` of the
    :func:`column_draws` of one sense.
    """
    rows = len(bits)
    if rows not in (1, 2) or len(bits[0]) != len(bits[-1]):
        widths = [len(b) for b in bits]
        raise ValueError(f"a sense activates one row or two of one width, not {widths}")
    levels, collapses = column_law(rows, model, disturbance)
    bits = [np.asarray(row, dtype=np.intp) for row in bits]
    law = (np.array(levels, float), collapses)
    (uniforms,), normals = column_draws([law], len(bits[0]), model.sigma, rng)
    return apply_laws(bits, law, uniforms, None if normals is None else normals[0])


def _sample_cells(states, model, disturbance, rng, size):
    """A column sense of ``states``: a float, or ``size`` samples as an ndarray."""
    bits = [np.full(1 if size is None else size, state.bit) for state in states]
    out = sample_columns(bits, model, disturbance, rng)
    return float(out[0]) if size is None else out


def sample_single_current(
    state: MtjState,
    model: CurrentLevelModel,
    disturbance: Disturbance = None,
    rng: np.random.Generator | None = None,
    size: int | None = None,
):
    """Sample the sense current of one cell, in uA.

    Under a Collapse disturbance an AP cell is replaced by the P level with
    probability rho before noise is added; P cells never collapse. A mean
    shift has no effect on single-cell senses. Returns a float, or with
    ``size`` set an ndarray of independent samples; both are a one-row
    column sense (:func:`sample_columns`).
    """
    return _sample_cells((state,), model, disturbance, rng, size)


def sample_pair_current(
    states: PairState,
    model: CurrentLevelModel,
    disturbance: CellDisturbances = None,
    rng: np.random.Generator | None = None,
    size: int | None = None,
):
    """Sample the summed sense current of a cell pair, in uA.

    (AP, P) and (P, AP) share one level. Under Collapse, each AP cell
    collapses independently with probability rho, one step up the ladder
    each; a pair-level MeanShift adds its shift to the nominal level; noise
    is added once at the sense node. ``disturbance`` may also be per cell.
    Returns a float, or with ``size`` set an ndarray of independent samples;
    both are a two-row column sense (:func:`sample_columns`).
    """
    return _sample_cells(states, model, disturbance, rng, size)


def pair_sampler(
    states: PairState,
    model: CurrentLevelModel,
    disturbance: CellDisturbances = None,
    ref: float | None = None,
):
    """``draw(rng) -> float``: one summed sense current of a cell pair, in uA.

    The Monte Carlo driver's per-trial draw; with ``ref`` set, ``draw``
    returns whether that current is above ``ref`` instead. The pair's
    :func:`column_law` and sigma are read once, here, and ``draw`` is one
    flat closure for the pair's count of collapsible AP cells (0, 1 or 2).
    It takes one uniform per such cell (each collapse promotes the pair one
    step up the ladder) as a raw 64-bit stream word ``w`` mapped to
    ``(w >> 11) * 2**-53``, which is ``Generator.random()`` bit for bit:
    the integer is below 2**53 and the scaling is exact. When sigma > 0 it
    then adds one normal at the sense node, ``sigma * standard_normal()``,
    bit for bit numpy's ``normal(0.0, sigma)``.
    """
    levels, collapses = column_law(len(states), model, disturbance)
    idx = sum([state is MtjState.P for state in states])
    rhos = [rho for row, rho in collapses if states[row] is MtjState.AP]
    sigma = model.sigma
    noisy = sigma > 0

    if not rhos:
        level = levels[idx]
        if not noisy:  # nothing to draw
            value = level if ref is None else level > ref
            return lambda rng=None: value

        def draw(rng=None):
            if rng is None:
                _require_rng(rng)
            value = level + sigma * rng.standard_normal()
            return value if ref is None else value > ref

    elif len(rhos) == 1:
        (rho,) = rhos

        def draw(rng=None):
            if rng is None:
                _require_rng(rng)
            value = levels[idx + ((rng.bit_generator.random_raw() >> 11) * _U53 < rho)]
            if noisy:
                value += sigma * rng.standard_normal()
            return value if ref is None else value > ref

    else:
        rho0, rho1 = rhos

        def draw(rng=None):
            if rng is None:
                _require_rng(rng)
            raw = rng.bit_generator.random_raw
            value = levels[idx + ((raw() >> 11) * _U53 < rho0) + ((raw() >> 11) * _U53 < rho1)]
            if noisy:
                value += sigma * rng.standard_normal()
            return value if ref is None else value > ref

    return draw


@dataclass(frozen=True)
class FailureRateTargets:
    """Target AND-decode failure rates used to calibrate noise and collapse.

    ``natural`` is the ambient rate of sensing a one-parallel pair above the
    AND reference; the heated maps give that rate and the zero-parallel rate
    at elevated zone temperatures. Zero entries mean below Monte Carlo
    resolution, not exact zero.
    """

    natural: float = 0.005
    heated_ap_p: Mapping[float, float] = field(
        default_factory=lambda: {50.0: 0.006, 100.0: 0.044}
    )
    heated_ap_ap: Mapping[float, float] = field(
        default_factory=lambda: {50.0: 0.0, 100.0: 0.003}
    )


@dataclass(frozen=True)
class CalibrationResult:
    sigma: float
    a: float
    b: float
    residuals: dict[str, float]
    fitted_rates: dict[str, float]

    as_dict = asdict


def _levenberg_marquardt(residuals, x0) -> np.ndarray:
    """Levenberg-Marquardt least squares (Marquardt, SIAM J. Appl. Math.
    1963) from ``x0``, with central-difference derivatives.

    Each parameter's damping is its squared Jacobian column, floored at
    machine epsilon, so a parameter no residual reads cannot make the solve
    singular. Stops when no damped step lowers the cost or a step lowers it
    by under 1e-12 of itself; a non-finite residual, or 100 accepted
    steps, raise NonConvergence.
    """
    def evaluate(x):
        r = np.asarray(residuals(x), dtype=float)
        if not np.isfinite(r).all():
            raise NonConvergence(f"non-finite fit residuals at {x.tolist()}")
        return r

    x = np.array(x0, dtype=float)
    r = evaluate(x)
    lam = 1e-3
    for _ in range(100):
        # step ~ eps**(1/3): the central difference's truncation and rounding balance
        dx = 6e-6 * np.maximum(1.0, np.abs(x))
        jac = np.column_stack(
            [(evaluate(x + h) - evaluate(x - h)) / (2.0 * d) for h, d in zip(np.diag(dx), dx)]
        )
        jtj, grad = jac.T @ jac, jac.T @ r
        damping = np.diag(np.maximum(np.diag(jtj), np.finfo(float).eps))
        while True:
            step = np.linalg.solve(jtj + lam * damping, -grad)
            trial = evaluate(x + step)
            if trial @ trial < r @ r:
                break
            lam *= 10.0
            if lam > 1e10:
                return x
        converged = r @ r - trial @ trial <= 1e-12 * (r @ r)
        x, r, lam = x + step, trial, lam / 10.0
        if converged:
            return x
    raise NonConvergence("fit did not converge in 100 steps")


def calibrate(
    targets: FailureRateTargets | None = None,
    model: CurrentLevelModel | None = None,
    max_residual: float = 0.005,
) -> CalibrationResult:
    """Fit (sigma, a, b) to the target failure rates.

    sigma inverts the natural-condition rate over the upper pair half-margin;
    (a, b) minimise the squared error of the closed-form failure rates against
    the heated targets. Raises NonConvergence for degenerate targets or when
    any fitted residual exceeds ``max_residual``.
    """
    from statistics import NormalDist

    from .analytic import normal_tail, pair_exceed

    targets = targets or FailureRateTargets()
    model = model or CurrentLevelModel(sigma=1.0)
    if not 0 < targets.natural < 0.5:
        raise NonConvergence(
            "degenerate targets: natural failure rate must lie in (0, 0.5)"
        )
    _, ap_p, p_p = model.pair_levels
    half = (p_p - ap_p) / 2.0
    sigma = half / NormalDist().inv_cdf(1.0 - targets.natural)
    ref = ap_p + half
    fitted_model = replace(model, sigma=sigma)

    q_natural = normal_tail(half / sigma)
    solved = {}
    for temp, rate in targets.heated_ap_p.items():
        rho = (rate - q_natural) / (1.0 - q_natural)
        if not math.isfinite(rho):
            raise NonConvergence(f"non-finite heated rate {rate} at {temp} C")
        if rho <= 0:
            raise NonConvergence(
                f"heated rate {rate} at {temp} C does not exceed the natural rate"
            )
        solved[temp] = rho
    temps = sorted(solved)
    # dT floored at zero, as in Collapse.rho: b reads only a spread of dT
    dts = [max(0.0, t - model.ambient_temp) for t in temps]
    if len(set(dts)) < 2:
        raise NonConvergence(
            "cannot fit b: the heated AP,P targets span fewer than two distinct "
            f"temperatures once floored at ambient_temp {model.ambient_temp:g} C"
        )
    b0 = (math.log(solved[temps[-1]]) - math.log(solved[temps[0]])) / (
        dts[-1] - dts[0]
    )
    a0 = math.log(solved[temps[0]]) - b0 * dts[0]

    rows = [("AP,P", t, r) for t, r in sorted(targets.heated_ap_p.items())]
    rows += [("AP,AP", t, r) for t, r in sorted(targets.heated_ap_ap.items())]

    def residuals(params):
        a, b = params
        return [
            pair_exceed(fitted_model, parse_pair(name), ref, Collapse(a, b, zone_temp=temp))
            - rate
            for name, temp, rate in rows
        ]

    a, b = (float(v) for v in _levenberg_marquardt(residuals, [a0, b0]))
    resid = {}
    fitted = {}
    for (name, temp, rate), r in zip(rows, residuals((a, b))):
        key = f"{name}@{temp:g}C"
        resid[key] = r
        fitted[key] = rate + r
    if max(abs(r) for r in resid.values()) > max_residual:
        raise NonConvergence(
            f"fit residual exceeds bound {max_residual}: {resid}"
        )
    return CalibrationResult(sigma=sigma, a=a, b=b, residuals=resid, fitted_rates=fitted)
