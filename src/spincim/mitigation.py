"""Disturbance-aware sense references: adapt and evaluate.

Given an estimate of how much heating raises each pair level, the references
move to the midpoints of the shifted adjacent levels. An estimate is a
:class:`~spincim.device.MeanShift`, so it is ordered 0 < alpha < beta < gamma
by construction. Estimates are supplied externally (perfect-knowledge or
noisy-sensor values); no estimator is modelled.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

from . import analytic
from .array import SenseConfig
from .attack import McReport, exceedance_mc
from .device import CurrentLevelModel, Disturbance, MeanShift, parse_pair
from .errors import InvalidShift


def adapt_references(
    base: SenseConfig, shift: MeanShift, model: CurrentLevelModel
) -> SenseConfig:
    """Move the OR and AND references to the shifted-level midpoints.

    The read reference is unchanged. Raises InvalidShift if the adapted
    references do not sit strictly between the shifted adjacent levels.
    """
    ap_ap, ap_p, p_p = model.pair_levels
    new_or = (ap_ap + ap_p + shift.alpha + shift.beta) / 2.0
    new_and = (ap_p + p_p + shift.beta + shift.gamma) / 2.0
    if not (ap_ap + shift.alpha) < new_or < (ap_p + shift.beta):
        raise InvalidShift("adapted OR reference leaves the shifted lower gap")
    if not (ap_p + shift.beta) < new_and < (p_p + shift.gamma):
        raise InvalidShift("adapted AND reference leaves the shifted upper gap")
    try:
        return SenseConfig(
            i_ref_read=base.i_ref_read, i_ref_or=new_or, i_ref_and=new_and
        )
    except ValueError as exc:
        raise InvalidShift(str(exc)) from exc


@dataclass(frozen=True)
class MitigationReport:
    pair: str
    ref_before: float
    ref_after: float
    natural_rate: float
    before: McReport
    after: McReport

    as_dict = asdict


def evaluate_mitigation(
    disturbance: Disturbance,
    base: SenseConfig,
    adapted: SenseConfig,
    trials: int,
    seed: int,
    pair: str = "AP,P",
    model: CurrentLevelModel | None = None,
    below: bool = False,
) -> MitigationReport:
    """Failure rates against the base and adapted AND references.

    Both runs reuse the same per-trial streams, so a reference move acts on
    identical samples and the before/after comparison is paired. ``below``
    measures the opposite decode error (sensing at or under the reference).
    """
    model = model or CurrentLevelModel()
    pair_states = parse_pair(pair)
    before = exceedance_mc(
        pair_states, disturbance, base.i_ref_and, trials, seed, model, below=below
    )
    after = exceedance_mc(
        pair_states, disturbance, adapted.i_ref_and, trials, seed, model, below=below
    )
    natural = analytic.pair_exceed(model, pair_states, base.i_ref_and, None)
    if below:
        natural = 1.0 - natural
    return MitigationReport(
        pair=pair,
        ref_before=base.i_ref_and,
        ref_after=adapted.i_ref_and,
        natural_rate=natural,
        before=before,
        after=after,
    )
