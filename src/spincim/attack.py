"""Thermal fault-injection experiments against in-memory authentication.

The authentication check computes (u_t XNOR u_d) AND (p_t XNOR p_d) with
in-array senses, reducing each XNOR word to a single match bit through a
fault-free controller-side all-ones check. The attack variant alone picks the
heated CimAND senses: XnorLevel heats the AND inside both XNORs, GateLevel
the outer AND. A heated sense reads like CimOR, either probabilistically
(collapse model at a zone temperature) or forced with probability one. The
trial and its closed-form oracle (a 2x2 XNOR table) read the same sense laws.

Monte Carlo trials run serially, each on its own random stream derived from
(seed, trial index), so a failure count depends only on the seed. An
authentication runs on the caller's array, under its model and sense and on
its generator; a Monte Carlo run reuses one array for every trial, since
each trial rewrites every row it senses before sensing it, and no draw
depends on stored words. A trial takes the draws of its five senses in one
:func:`~spincim.device.column_draws` call, in the senses' own order.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import asdict, dataclass
from enum import Enum
from itertools import repeat
from typing import Callable

import numpy as np

from . import analytic
from .array import (
    ArrayGeometry,
    CimArray,
    CimOp,
    RowAddress,
    SenseConfig,
    SenseDisturbance,
    attacked_law,
    pack,
    unpack,
)
from .device import (
    AMBIENT_TEMP_C,
    Collapse,
    CurrentLevelModel,
    Disturbance,
    PairState,
    apply_laws,
    column_draws,
    heated,
    pair_sampler,
    parse_pair,
    trial_rng,
)
from .errors import MappingViolation, OutOfBounds


class AttackVariant(Enum):
    NONE = "None"
    GATE_LEVEL = "GateLevel"
    XNOR_LEVEL = "XnorLevel"


@dataclass(frozen=True)
class AttackScenario:
    """Which CimAND senses are attacked, and how hard.

    GateLevel flips the outer AND of the two match bits; XnorLevel flips the
    AND senses inside both XNOR expansions. ``force_flip`` decodes attacked
    AND senses against the OR reference (probability-one flip) independent of
    any thermal calibration.
    """

    variant: AttackVariant = AttackVariant.NONE
    zone_temp: float = AMBIENT_TEMP_C
    force_flip: bool = False
    collapse: Collapse | None = None


@dataclass(frozen=True)
class AuthDb:
    """The one stored credential: a username and a password word of ``width`` bits."""

    username: int
    password: int
    width: int = 16

    def __post_init__(self):
        mask = (1 << self.width) - 1
        if not (0 <= self.username <= mask and 0 <= self.password <= mask):
            raise ValueError(f"credential wider than {self.width} bits")


@dataclass(frozen=True)
class CredentialPolicy:
    """Per-trial typed credentials: correct, uniform random, or fixed words."""

    user: str = "correct"
    password: str = "random"
    fixed_user: int | None = None
    fixed_password: int | None = None

    def __post_init__(self):
        for mode, fixed in ((self.user, self.fixed_user), (self.password, self.fixed_password)):
            if mode not in ("correct", "random", "fixed"):
                raise ValueError(f"unknown credential mode {mode!r}")
            if mode == "fixed" and fixed is None:
                raise ValueError("fixed credential mode needs a fixed word")

    def _draw_one(self, mode: str, stored: int, fixed: int | None, width, rng) -> int:
        if mode == "random":
            return int(rng.integers(0, 1 << width, dtype=np.uint64))
        return stored if mode == "correct" else fixed

    def draw(self, db: AuthDb, rng) -> tuple[int, int]:
        u = self._draw_one(self.user, db.username, self.fixed_user, db.width, rng)
        p = self._draw_one(self.password, db.password, self.fixed_password, db.width, rng)
        return u, p


@dataclass(frozen=True)
class McReport:
    """Monte Carlo outcome with its closed-form oracle attached."""

    trials: int
    failures: int
    rate: float
    wilson_95_ci: tuple[float, float]
    analytic_rate: float
    seed: int

    as_dict = asdict


def make_report(failures: int, trials: int, analytic_rate: float, seed: int) -> McReport:
    return McReport(
        trials=trials,
        failures=failures,
        rate=failures / trials,
        wilson_95_ci=analytic.wilson_interval(failures, trials),
        analytic_rate=analytic_rate,
        seed=seed,
    )


def run_trials(
    trials: int, seed: int, trial_fn: Callable[[np.random.Generator], bool]
) -> int:
    """Count successes of trial_fn, run serially on trial i's stream (seed, i).

    Every trial makes one :func:`trial_rng` call and one ``trial_fn`` call,
    both mapped in C with no Python frame of the driver's own in between.
    A pair trial (:func:`~spincim.device.pair_sampler`) takes its collapse
    uniforms as raw 64-bit stream words ``w`` mapped to ``(w >> 11) *
    2**-53``, ``Generator.random()`` bit for bit, and its normal from
    ``standard_normal()``.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    return int(sum(map(trial_fn, map(trial_rng, repeat(seed, trials), range(trials)))))


def exceedance_mc(
    pair: PairState,
    disturbance: Disturbance,
    ref: float,
    trials: int,
    seed: int,
    model: CurrentLevelModel,
    below: bool = False,
) -> McReport:
    """Empirical P(pair sample > ref) (or <= ref) with its analytic oracle.

    The pair sense and its comparison with ``ref`` are set up once per
    report; each trial only draws from its own stream. A finite draw not above
    ``ref`` is at or below it, so ``below`` counts the complement.
    """
    above = run_trials(trials, seed, pair_sampler(pair, model, disturbance, ref))
    p = analytic.pair_exceed(model, pair, ref, disturbance)
    if below:
        return make_report(trials - above, trials, 1.0 - p, seed)
    return make_report(above, trials, p, seed)


def mc_failure_rate(
    pair: str,
    temperature: float,
    trials: int,
    seed: int,
    model: CurrentLevelModel | None = None,
    sense: SenseConfig | None = None,
    collapse: Collapse | None = None,
) -> McReport:
    """Rate of sensing the pair named ``pair`` (such as ``"AP,P"``) above the
    AND reference at a zone temperature."""
    model = model or CurrentLevelModel()
    sense = sense or SenseConfig()
    disturbance = heated(collapse or Collapse(), temperature, model)
    return exceedance_mc(parse_pair(pair), disturbance, sense.i_ref_and, trials, seed, model)


# -- authentication protocol -------------------------------------------------

_ROWS = {
    "u_db": RowAddress(0, 0),
    "p_db": RowAddress(0, 1),
    "u_typed": RowAddress(0, 2),
    "p_typed": RowAddress(0, 3),
    "scratch": (RowAddress(0, 4), RowAddress(0, 5)),
    "match_u": RowAddress(0, 6),
    "match_p": RowAddress(0, 7),
}


_ZONES = {  # the rows whose CimAND senses each variant heats
    AttackVariant.XNOR_LEVEL:
        frozenset(_ROWS[k] for k in ("u_db", "p_db", "u_typed", "p_typed")),
    AttackVariant.GATE_LEVEL: frozenset((_ROWS["match_u"], _ROWS["match_p"])),
}


@functools.lru_cache(maxsize=64)
def _auth_laws(scenario: AttackScenario, model: CurrentLevelModel):
    """The AND and NOR senses of either XNOR and the outer AND sense, each as
    ``(law, decode_op)``: its law and the op it decodes as."""
    # a cold zone raises, whatever the variant
    heat = heated(scenario.collapse or Collapse(), scenario.zone_temp, model)
    attack = None
    if scenario.variant is not AttackVariant.NONE:
        attack = SenseDisturbance(
            disturbance=None if scenario.force_flip else heat,
            rows=_ZONES[scenario.variant],
            ops=frozenset({CimOp.CIM_AND}),
            force_flip=scenario.force_flip,
        )

    def law(op, *keys):
        targeted = tuple([attack is not None and attack.row_targeted(_ROWS[k]) for k in keys])
        return attacked_law(attack, model, op, targeted)

    # the u pair's laws serve both XNORs: a zone holds both pairs' rows or neither
    return (law(CimOp.CIM_AND, "u_typed", "u_db"), law(CimOp.CIM_NOR, "u_typed", "u_db"),
            law(CimOp.CIM_AND, "match_u", "match_p"))


def run_auth(
    db: AuthDb, u_typed: int, p_typed: int, scenario: AttackScenario, array: CimArray
) -> bool:
    """Run one authentication on ``array``: accept iff both credential words match.

    Each XNOR word reduces to a match bit controller-side; the two match bits
    are written back and combined by one in-array AND sense. The array
    supplies the model, sense, generator and recorder (None records
    nothing); the scenario alone picks the attacked CimAND senses. An array
    with an ``attack`` of its own, or a scenario with a cold zone, is refused
    before any write, with ValueError. Returns the decision; the events go
    to ``array.recorder``. One pass writes, records and draws as two
    ``cim_xnor``, the match writes and ``cim_two_row(CIM_AND)`` would.
    """
    if array.geometry.cols_per_row != db.width:
        raise MappingViolation("array word width must equal the credential width")
    if array.attack is not None:
        raise ValueError("run_auth takes its attack from the scenario, not the array")
    (and_law, and_op), (nor_law, nor_op), (outer_law, outer_op) = _auth_laws(scenario, array.model)
    rows, width = _ROWS, db.width
    words = [operator.index(w) for w in (db.username, db.password, u_typed, p_typed)]
    for key, word in zip(("u_db", "p_db", "u_typed", "p_typed"), words):
        array.write_word(rows[key], word)

    # the five senses in stream order: u-AND, u-NOR, p-AND, p-NOR, outer AND
    laws = (and_law, nor_law) * 2 + (outer_law,)
    uniforms, normals = column_draws(laws, width, array.model.sigma, array.rng)
    # the typed row, then the stored row, of both XNORs: the u word and the p
    # word side by side as one double-width word, unpacked as (2, width)
    bits = [unpack(u | p << width, 2 * width).reshape(2, width) for u, p in (words[2:], words[:2])]
    xnor_bits = []
    for k, (law, op) in enumerate(((and_law, and_op), (nor_law, nor_op))):
        # sense k of the u XNOR and sense k + 2 of the p XNOR, mapped as one
        u = [np.array(pair) for pair in zip(uniforms[k], uniforms[k + 2])]
        z = None if normals is None else normals[k:k + 3:2]
        xnor_bits.append(array.sense.decode(op, apply_laws(bits, law, u, z)))
    and_bits, nor_bits = xnor_bits
    if array.recorder is not None:
        for op in (CimOp.CIM_AND, CimOp.CIM_NOR) * 2:
            array.record_cim(op)
    # the scratch rows end with the p XNOR's partial words, packed side by side
    partials = pack((and_bits[1], nor_bits[1]))
    array.write_word(rows["scratch"][0], partials & array.geometry.word_mask, record=False)
    array.write_word(rows["scratch"][1], partials >> width, record=False)
    match = [int(all(xnor)) for xnor in (and_bits | nor_bits).tolist()]
    array.write_word(rows["match_u"], match[0])
    array.write_word(rows["match_p"], match[1])
    # the decision reads column 0 of the outer AND, where the match bits are
    outer = apply_laws(match, outer_law, [u[0] for u in uniforms[4]],
                       None if normals is None else normals[4, 0])
    array.record_cim(CimOp.CIM_AND)
    return bool(array.sense.decode(outer_op, outer))


# -- closed-form composition ---------------------------------------------------

def auth_accept_probability(
    db: AuthDb,
    policy: CredentialPolicy,
    scenario: AttackScenario,
    model: CurrentLevelModel | None = None,
    sense: SenseConfig | None = None,
) -> float:
    """Closed-form acceptance probability of run_auth under a policy.

    Columns are independent (independent senses, independent typed bits), so
    each word-match probability is a product over columns of one 2x2 table,
    P(XNOR column reads 1) per typed and stored bit, and acceptance sums the
    outer-sense probability over the four match-bit combinations.
    """
    model = model or CurrentLevelModel()
    sense = sense or SenseConfig()
    (and_law, and_op), (nor_law, nor_op), (outer_law, outer_op) = _auth_laws(scenario, model)

    def above(law, op, bits) -> float:
        """P(current > the finite bound of ``op``'s one-sided window): AND and
        OR read 1 above it, NOR reads 0."""
        return analytic.law_exceed(law, bits, min(sense.window(op), key=abs), model.sigma)

    # XNOR = AND or NOR: the column reads 0 only when AND reads 0 and NOR reads 0
    xnor_one = {
        (t, d): 1.0 - (1.0 - above(and_law, and_op, (t, d))) * above(nor_law, nor_op, (t, d))
        for t in (0, 1) for d in (0, 1)
    }

    def word_match(mode: str, fixed: int | None, word: int) -> float:
        typed = word if mode == "correct" else fixed
        if mode == "fixed" and not 0 <= typed < 1 << db.width:
            raise OutOfBounds(f"word 0x{typed:X} does not fit in {db.width} columns")
        prob = 1.0
        for col in range(db.width):
            d = (word >> col) & 1
            p1 = 0.5 if mode == "random" else (typed >> col) & 1
            prob *= p1 * xnor_one[1, d] + (1.0 - p1) * xnor_one[0, d]
        return prob

    p_mu = word_match(policy.user, policy.fixed_user, db.username)
    p_mp = word_match(policy.password, policy.fixed_password, db.password)
    total = 0.0
    for mu in (0, 1):
        for mp in (0, 1):
            weight = (p_mu if mu else 1.0 - p_mu) * (p_mp if mp else 1.0 - p_mp)
            total += weight * above(outer_law, outer_op, (mu, mp))
    return total


def attack_success_rate(
    db: AuthDb,
    policy: CredentialPolicy,
    scenario: AttackScenario,
    trials: int,
    seed: int,
    model: CurrentLevelModel | None = None,
    sense: SenseConfig | None = None,
) -> McReport:
    """Empirical acceptance rate under a credential policy, with oracle.

    Every trial runs on one unrecorded array, which senses on the trial's
    stream after the typed words are drawn from it.
    """
    array = CimArray(ArrayGeometry(cols_per_row=db.width), model, sense)

    def one(rng) -> bool:
        array.rng = rng
        u_t, p_t = policy.draw(db, rng)
        return run_auth(db, u_t, p_t, scenario, array)

    successes = run_trials(trials, seed, one)
    oracle = auth_accept_probability(db, policy, scenario, model, sense)
    return make_report(successes, trials, oracle, seed)
