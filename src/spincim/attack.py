"""Thermal fault-injection experiments against in-memory authentication.

The authentication check computes (u_t XNOR u_d) AND (p_t XNOR p_d) with
in-array senses, reducing each XNOR word to a single match bit through a
fault-free controller-side all-ones check. Attack scenarios heat targeted
rows so that targeted CimAND senses read like CimOR, either probabilistically
(collapse model at a zone temperature) or forced with probability one.

Monte Carlo trials derive one random stream per (seed, trial index), so
failure counts are reproducible under any thread count.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
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
)
from .cost import ExecutionTrace
from .device import (
    Collapse,
    CurrentLevelModel,
    Disturbance,
    MtjState,
    PairState,
    parse_pair,
    sample_pair_current,
    trial_rng,
)
from .errors import MappingViolation


class AttackVariant(Enum):
    NONE = "None"
    GATE_LEVEL = "GateLevel"
    XNOR_LEVEL = "XnorLevel"


@dataclass(frozen=True)
class AttackScenario:
    """Which CimAND senses are attacked, and how hard.

    GateLevel flips the outer AND of the two match bits; XnorLevel flips the
    AND senses inside both XNOR expansions. ``force_flip`` decodes targeted
    AND senses against the OR reference (probability-one flip) independent of
    any thermal calibration.
    """

    variant: AttackVariant = AttackVariant.NONE
    zone_temp: float = 20.0
    force_flip: bool = False
    targeted_rows: frozenset[RowAddress] | None = None
    collapse: Collapse | None = None

    def collapse_at_zone(self) -> Collapse:
        base = self.collapse or Collapse()
        return Collapse(a=base.a, b=base.b, zone_temp=self.zone_temp)


@dataclass(frozen=True)
class AuthEntry:
    username: int
    password: int


@dataclass(frozen=True)
class AuthDb:
    entries: tuple[AuthEntry, ...]
    width: int = 16

    def __post_init__(self):
        mask = (1 << self.width) - 1
        for e in self.entries:
            if not (0 <= e.username <= mask and 0 <= e.password <= mask):
                raise ValueError(f"credential wider than {self.width} bits")


@dataclass(frozen=True)
class CredentialPolicy:
    """Per-trial typed credentials: correct, uniform random, or fixed words."""

    user: str = "correct"
    password: str = "random"
    fixed_user: int | None = None
    fixed_password: int | None = None

    def _draw_one(self, mode: str, stored: int, fixed: int | None, width, rng) -> int:
        if mode == "correct":
            return stored
        if mode == "random":
            return int(rng.integers(0, 1 << width))
        if mode == "fixed":
            if fixed is None:
                raise ValueError("fixed credential mode needs a fixed word")
            return fixed
        raise ValueError(f"unknown credential mode {mode!r}")

    def draw(self, entry: AuthEntry, width: int, rng) -> tuple[int, int]:
        u = self._draw_one(self.user, entry.username, self.fixed_user, width, rng)
        p = self._draw_one(self.password, entry.password, self.fixed_password, width, rng)
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

    def as_dict(self) -> dict:
        return {
            "trials": self.trials,
            "failures": self.failures,
            "rate": self.rate,
            "wilson_95_ci": list(self.wilson_95_ci),
            "analytic_rate": self.analytic_rate,
            "seed": self.seed,
        }


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
    trials: int,
    seed: int,
    trial_fn: Callable[[int, np.random.Generator], bool],
    threads: int = 1,
) -> int:
    """Count successes of trial_fn over independent per-trial streams.

    The outcome of trial i depends only on (seed, i), so the count is
    identical for any thread count.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    outcomes = np.zeros(trials, dtype=bool)

    def fill(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            outcomes[i] = trial_fn(i, trial_rng(seed, i))

    workers = min(threads, trials)  # no thread without a trial to run
    if workers <= 1:
        fill(0, trials)
    else:
        chunk = (trials + workers - 1) // workers
        bounds = [(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda span: fill(*span), bounds))
    return int(outcomes.sum())


def exceedance_mc(
    pair: PairState,
    disturbance: Disturbance,
    ref: float,
    trials: int,
    seed: int,
    model: CurrentLevelModel,
    below: bool = False,
    threads: int = 1,
) -> McReport:
    """Empirical P(pair sample > ref) (or <= ref) with its analytic oracle."""
    def one(_i: int, rng) -> bool:
        sample = sample_pair_current(pair, model, disturbance, rng)
        return (sample <= ref) if below else (sample > ref)

    failures = run_trials(trials, seed, one, threads)
    p = analytic.pair_exceed(model, pair, ref, disturbance)
    return make_report(failures, trials, (1.0 - p) if below else p, seed)


def mc_failure_rate(
    pair,
    temperature: float,
    trials: int,
    seed: int,
    model: CurrentLevelModel | None = None,
    sense: SenseConfig | None = None,
    collapse: Collapse | None = None,
    threads: int = 1,
) -> McReport:
    """Rate of sensing a pair above the AND reference at a zone temperature."""
    model = model or CurrentLevelModel()
    sense = sense or SenseConfig()
    if isinstance(pair, str):
        pair = parse_pair(pair)
    if temperature < model.ambient_temp:
        raise ValueError("zone temperature cannot be below ambient")
    base = collapse or Collapse()
    disturbance = Collapse(a=base.a, b=base.b, zone_temp=temperature)
    return exceedance_mc(
        pair, disturbance, sense.i_ref_and, trials, seed, model, threads=threads
    )


# -- authentication protocol -------------------------------------------------

_ROW_U_DB, _ROW_P_DB, _ROW_U_TYPED, _ROW_P_TYPED = 0, 1, 2, 3
_ROW_SCRATCH = (4, 5)
_ROW_MATCH_U, _ROW_MATCH_P = 6, 7


def _auth_rows(bank: int = 0) -> dict[str, RowAddress]:
    return {
        "u_db": RowAddress(bank, _ROW_U_DB),
        "p_db": RowAddress(bank, _ROW_P_DB),
        "u_typed": RowAddress(bank, _ROW_U_TYPED),
        "p_typed": RowAddress(bank, _ROW_P_TYPED),
        "scratch": (RowAddress(bank, _ROW_SCRATCH[0]), RowAddress(bank, _ROW_SCRATCH[1])),
        "match_u": RowAddress(bank, _ROW_MATCH_U),
        "match_p": RowAddress(bank, _ROW_MATCH_P),
    }


def _scenario_attack(
    scenario: AttackScenario, rows: dict[str, RowAddress], model: CurrentLevelModel
) -> SenseDisturbance | None:
    if scenario.variant is AttackVariant.NONE:
        return None
    if scenario.zone_temp < model.ambient_temp:
        raise ValueError("zone temperature cannot be below ambient")
    if scenario.targeted_rows is not None:
        zone = scenario.targeted_rows
    elif scenario.variant is AttackVariant.XNOR_LEVEL:
        zone = frozenset(
            {rows["u_db"], rows["p_db"], rows["u_typed"], rows["p_typed"]}
        )
    else:
        zone = frozenset({rows["match_u"], rows["match_p"]})
    disturbance = None if scenario.force_flip else scenario.collapse_at_zone()
    return SenseDisturbance(
        disturbance=disturbance,
        rows=zone,
        ops=frozenset({CimOp.CIM_AND}),
        force_flip=scenario.force_flip,
    )


def run_auth(
    db: AuthDb,
    u_typed: int,
    p_typed: int,
    scenario: AttackScenario | None = None,
    entry: int = 0,
    model: CurrentLevelModel | None = None,
    sense: SenseConfig | None = None,
    rng: np.random.Generator | None = None,
    array: CimArray | None = None,
    recorder: ExecutionTrace | None = None,
) -> tuple[bool, ExecutionTrace]:
    """Run one authentication: accept iff both credential words match.

    Each XNOR word reduces to a match bit controller-side; the two match bits
    are written back and combined by one in-array AND sense. Scenario
    disturbance applies only to CimAND senses on its targeted rows.
    """
    scenario = scenario or AttackScenario()
    model = model or CurrentLevelModel()
    sense = sense or SenseConfig()
    trace = recorder if recorder is not None else ExecutionTrace()
    stored = db.entries[entry]
    if array is None:
        geometry = ArrayGeometry(cols_per_row=db.width)
        array = CimArray(geometry, model, sense, rng=rng, recorder=trace)
    else:
        if array.geometry.cols_per_row != db.width:
            raise MappingViolation(
                "array word width must equal the credential width"
            )
        array.recorder = trace
        if rng is not None:
            array.rng = rng
    rows = _auth_rows()
    mask = array.geometry.word_mask

    array.write_word(rows["u_db"], stored.username)
    array.write_word(rows["p_db"], stored.password)
    array.write_word(rows["u_typed"], u_typed)
    array.write_word(rows["p_typed"], p_typed)

    array.attack = _scenario_attack(scenario, rows, model)
    try:
        xnor_u = array.cim_xnor(rows["u_typed"], rows["u_db"], rows["scratch"])
        xnor_p = array.cim_xnor(rows["p_typed"], rows["p_db"], rows["scratch"])
        array.write_word(rows["match_u"], 1 if xnor_u == mask else 0)
        array.write_word(rows["match_p"], 1 if xnor_p == mask else 0)
        decision = array.cim_two_row(CimOp.CIM_AND, rows["match_u"], rows["match_p"])
    finally:
        array.attack = None
    return bool(decision & 1), trace


# -- closed-form composition ---------------------------------------------------

def _pair_for_bits(t: int, d: int) -> PairState:
    return (MtjState.from_bit(t), MtjState.from_bit(d))


def _xnor_bit_one_prob(
    t: int,
    d: int,
    model: CurrentLevelModel,
    sense: SenseConfig,
    scenario: AttackScenario,
) -> float:
    """P(one XNOR column reads 1) for typed bit t against stored bit d."""
    pair = _pair_for_bits(t, d)
    attacked = scenario.variant is AttackVariant.XNOR_LEVEL
    if attacked and scenario.force_flip:
        p_and = analytic.pair_exceed(model, pair, sense.i_ref_or, None)
    else:
        dist = scenario.collapse_at_zone() if attacked else None
        p_and = analytic.pair_exceed(model, pair, sense.i_ref_and, dist)
    p_or = analytic.pair_exceed(model, pair, sense.i_ref_or, None)
    return 1.0 - (1.0 - p_and) * p_or


def _typed_bit_one_prob(mode: str, stored_bit: int, fixed_bit: int | None) -> float:
    if mode == "correct":
        return float(stored_bit)
    if mode == "random":
        return 0.5
    return float(fixed_bit)


def _word_match_prob(
    mode: str,
    fixed: int | None,
    stored: int,
    width: int,
    model: CurrentLevelModel,
    sense: SenseConfig,
    scenario: AttackScenario,
) -> float:
    prob = 1.0
    for col in range(width):
        d = (stored >> col) & 1
        fixed_bit = None if fixed is None else (fixed >> col) & 1
        p1 = _typed_bit_one_prob(mode, d, fixed_bit)
        p_col = p1 * _xnor_bit_one_prob(1, d, model, sense, scenario)
        p_col += (1.0 - p1) * _xnor_bit_one_prob(0, d, model, sense, scenario)
        prob *= p_col
    return prob


def _outer_accept_prob(
    match_u: int,
    match_p: int,
    model: CurrentLevelModel,
    sense: SenseConfig,
    scenario: AttackScenario,
) -> float:
    pair = _pair_for_bits(match_u, match_p)
    if scenario.variant is AttackVariant.GATE_LEVEL:
        if scenario.force_flip:
            return analytic.pair_exceed(model, pair, sense.i_ref_or, None)
        return analytic.pair_exceed(
            model, pair, sense.i_ref_and, scenario.collapse_at_zone()
        )
    return analytic.pair_exceed(model, pair, sense.i_ref_and, None)


def auth_accept_probability(
    db: AuthDb,
    policy: CredentialPolicy,
    scenario: AttackScenario,
    entry: int = 0,
    model: CurrentLevelModel | None = None,
    sense: SenseConfig | None = None,
) -> float:
    """Closed-form acceptance probability of run_auth under a policy.

    Columns are independent (independent senses, independent typed bits), so
    each word-match probability is a product over columns, and acceptance
    sums the outer-sense probability over the four match-bit combinations.
    """
    model = model or CurrentLevelModel()
    sense = sense or SenseConfig()
    stored = db.entries[entry]
    p_mu = _word_match_prob(
        policy.user, policy.fixed_user, stored.username, db.width,
        model, sense, scenario,
    )
    p_mp = _word_match_prob(
        policy.password, policy.fixed_password, stored.password, db.width,
        model, sense, scenario,
    )
    total = 0.0
    for mu in (0, 1):
        for mp in (0, 1):
            weight = (p_mu if mu else 1.0 - p_mu) * (p_mp if mp else 1.0 - p_mp)
            total += weight * _outer_accept_prob(mu, mp, model, sense, scenario)
    return total


def attack_success_rate(
    db: AuthDb,
    policy: CredentialPolicy,
    scenario: AttackScenario,
    trials: int,
    seed: int,
    entry: int = 0,
    model: CurrentLevelModel | None = None,
    sense: SenseConfig | None = None,
    threads: int = 1,
) -> McReport:
    """Empirical acceptance rate under a credential policy, with oracle."""
    model = model or CurrentLevelModel()
    sense = sense or SenseConfig()

    def one(_i: int, rng) -> bool:
        u_t, p_t = policy.draw(db.entries[entry], db.width, rng)
        accept, _ = run_auth(
            db, u_t, p_t, scenario, entry=entry, model=model, sense=sense, rng=rng
        )
        return accept

    successes = run_trials(trials, seed, one, threads)
    oracle = auth_accept_probability(db, policy, scenario, entry, model, sense)
    return make_report(successes, trials, oracle, seed)
