"""One digest pins every value the sense oracles and the pair sampler give.

The grid covers five models (default, zero noise, integer levels with and
without noise, a warmer ambient), every cell and ordered pair, bare and
per-row disturbances and the three references plus a level boundary.
``pair_exceed`` of each cell and each pair and 30 ``pair_sampler`` draws per
case are hashed through their ``repr``, so a refactor of the sense setup that
moves any value by one bit, or turns an int level into a float, changes the
digest.
"""
import hashlib
import math

from spincim.analytic import pair_exceed
from spincim.device import (
    Collapse,
    CurrentLevelModel,
    MeanShift,
    MtjState,
    pair_sampler,
    trial_rng,
)

MODELS = [
    CurrentLevelModel(),
    CurrentLevelModel(sigma=0.0),
    CurrentLevelModel(single_levels=(10, 16), pair_levels=(17, 20, 23), sigma=0.3),
    CurrentLevelModel(single_levels=(10, 16), pair_levels=(17, 20, 23), sigma=0.0),
    CurrentLevelModel(pair_levels=(16.5, 19.8, 22.7), sigma=0.7, ambient_temp=35.0),
]
BARE = [
    None,
    Collapse(zone_temp=20.0),
    Collapse(zone_temp=50.0),
    Collapse(zone_temp=100.0),
    Collapse(zone_temp=20000.0),
    Collapse(a=math.log(0.5), b=0.0, zone_temp=100.0),
    MeanShift(0.15, 0.2, 0.25),
    MeanShift(0.5, 1.0, 1.5, zone_temp=100.0),
]
PER_ROW = [
    (Collapse(zone_temp=100.0), None),
    (None, Collapse(zone_temp=100.0)),
    (Collapse(zone_temp=100.0), Collapse(a=math.log(0.5), b=0.0)),
    (None, None),
]
REFS = [12.75, 18.6, 21.45, 20.2]
CELLS = [MtjState.AP, MtjState.P]
PAIRS = [(s, t) for s in CELLS for t in CELLS]

DIGEST = "5d50615129b4c216d9da83467eab833e3aa1db43efc5bd8e1eb4f6ed3c14f83d"


def sense_values() -> list:
    values = []
    for model in MODELS:
        for state in CELLS:
            for d in BARE:
                values += [pair_exceed(model, (state,), ref, d) for ref in REFS]
        for index, (pair, d) in enumerate((p, d) for p in PAIRS for d in BARE + PER_ROW):
            values += [pair_exceed(model, pair, ref, d) for ref in REFS]
            draw, rng = pair_sampler(pair, model, d), trial_rng(2024, index)
            values += [draw(rng) for _ in range(30)]
    return values


def test_sense_values_match_the_pinned_digest():
    text = repr(sense_values())
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST
