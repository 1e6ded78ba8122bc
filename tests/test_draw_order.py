"""Draw-order contract of a column sense, and array reuse in the auth Monte Carlo.

The contract (``array`` and ``device.sample_columns`` docstrings): for each
activated row whose disturbance is Collapse, first operand first, one uniform
per column; then one normal per column when sigma > 0. Nothing else is drawn,
and the number of draws never depends on the stored words.
"""
import itertools
import math

import numpy as np
import pytest

from spincim.analytic import binomial_stderr, law_exceed
from spincim.array import ArrayGeometry, CimArray, CimOp, RowAddress, SenseDisturbance, unpack
from spincim.attack import (
    AttackScenario,
    AttackVariant,
    AuthDb,
    CredentialPolicy,
    attack_success_rate,
    run_auth,
    run_trials,
)
from spincim.cost import ExecutionTrace
from spincim.device import (
    Collapse,
    CurrentLevelModel,
    MeanShift,
    apply_laws,
    column_draws,
    sample_columns,
    trial_rng,
)

from _oracles import composed_auth, trace_events
from conftest import MASTER_SEED, auth_array

A, B, DEST = RowAddress(0, 0), RowAddress(0, 1), RowAddress(0, 2)
HALF = Collapse(a=math.log(0.5), b=0.0, zone_temp=100.0)  # rho = 1/2
SHIFT = MeanShift(0.5, 1.0, 1.5)
WIDTH = 16


class LoggedRng:
    """A Generator that logs each ``random``/``normal`` call with its size."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.calls: list[tuple[str, int]] = []

    def random(self, size=None):
        self.calls.append(("random", size))
        return self.rng.random(size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        self.calls.append(("normal", size))
        return self.rng.normal(loc, scale, size)


def expected_calls(per_row, sigma: float, n: int = WIDTH) -> list[tuple[str, int]]:
    calls = [("random", n) for d in per_row if isinstance(d, Collapse)]
    return calls + ([("normal", n)] if sigma > 0 else [])


def reference(bits, model, disturbance, rng) -> list[float]:
    """The documented order, drawn up front and applied column by column."""
    rows, n = len(bits), len(bits[0])
    per_row = disturbance if isinstance(disturbance, tuple) else (disturbance,) * rows
    uniforms = [rng.random(n) if isinstance(d, Collapse) else None for d in per_row]
    noise = rng.normal(0.0, model.sigma, n) if model.sigma > 0 else np.zeros(n)
    levels = model.single_levels if rows == 1 else model.pair_levels
    out = []
    for col in range(n):
        idx = sum(int(row[col]) for row in bits)
        for row, d, u in zip(bits, per_row, uniforms):
            if u is not None and not row[col] and u[col] < d.rho(model.ambient_temp):
                idx += 1
        level = levels[idx]
        if rows == 2 and isinstance(disturbance, MeanShift):
            level += disturbance.shifts[idx]
        out.append(level + noise[col])
    return out


_BITS = {
    # one row: AP and P columns; two rows: every pair state, AP cells in both
    1: (np.tile([0, 1], WIDTH // 2),),
    2: (np.tile([0, 0, 1, 1], WIDTH // 4), np.tile([0, 1, 0, 1], WIDTH // 4)),
}
_DISTURBANCES = {
    1: [None, HALF, (HALF,), (None,), SHIFT],
    2: [None, HALF, (HALF, None), (None, HALF), (HALF, Collapse(zone_temp=100.0)), SHIFT],
}
_CASES = [(rows, d) for rows in (1, 2) for d in _DISTURBANCES[rows]]


@pytest.mark.parametrize("sigma", [0.0, 0.485281])
@pytest.mark.parametrize("rows,disturbance", _CASES, ids=repr)
def test_sample_columns_draws_in_the_documented_order(rows, disturbance, sigma):
    model = CurrentLevelModel(sigma=sigma)
    bits = _BITS[rows]
    per_row = disturbance if isinstance(disturbance, tuple) else (disturbance,) * rows
    for index in range(4):
        logged = LoggedRng(trial_rng(MASTER_SEED, index))
        twin = trial_rng(MASTER_SEED, index)
        got = sample_columns(bits, model, disturbance, logged)
        want = reference(bits, model, disturbance, twin)
        assert logged.calls == expected_calls(per_row, sigma)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert logged.rng.bit_generator.state == twin.bit_generator.state


def _attacked_array(sigma: float, attack: SenseDisturbance | None):
    rng = LoggedRng(trial_rng(MASTER_SEED, 11))
    arr = CimArray(model=CurrentLevelModel(sigma=sigma), rng=rng)
    arr.write_word(A, 0x3C5A)
    arr.write_word(B, 0x0FF0)
    arr.attack = attack
    return arr, rng


_ATTACKS = {
    "none": None,
    "collapse everywhere": SenseDisturbance(disturbance=HALF),
    "collapse on the first operand": SenseDisturbance(disturbance=HALF, rows=frozenset({A})),
    "collapse on the second operand": SenseDisturbance(disturbance=HALF, rows=frozenset({B})),
    "collapse on AND only": SenseDisturbance(disturbance=HALF, ops=frozenset({CimOp.CIM_AND})),
    "mean shift everywhere": SenseDisturbance(disturbance=SHIFT),
    "forced flip": SenseDisturbance(rows=frozenset({A, B}), force_flip=True),
}


@pytest.mark.parametrize("sigma", [0.0, 0.485281])
@pytest.mark.parametrize("name", list(_ATTACKS))
def test_array_senses_draw_in_the_documented_order(name, sigma):
    attack = _ATTACKS[name]
    senses = [
        ("read", lambda arr: arr.read_word(A), CimOp.READ, (A,)),
        ("not", lambda arr: arr.cim_not(B), CimOp.CIM_NOT, (B,)),
        ("and", lambda arr: arr.cim_two_row(CimOp.CIM_AND, A, B), CimOp.CIM_AND, (A, B)),
        ("xor", lambda arr: arr.cim_two_row(CimOp.CIM_XOR, B, A), CimOp.CIM_XOR, (B, A)),
        ("add", lambda arr: arr.cim_add(A, B, DEST), CimOp.CIM_ADD, (A, B)),
    ]
    for label, sense, op, addrs in senses:
        arr, rng = _attacked_array(sigma, attack)
        sense(arr)
        matched = attack is not None and attack.matches_op(op)
        per_row = [
            attack.disturbance if matched and attack.row_targeted(a) else None
            for a in addrs
        ]
        assert rng.calls == expected_calls(per_row, sigma), label


def test_stored_words_do_not_change_the_draws():
    calls = []
    for a, b in [(0x0000, 0x0000), (0xFFFF, 0xFFFF), (0x1234, 0xFEDC)]:
        arr, rng = _attacked_array(0.485281, _ATTACKS["collapse everywhere"])
        arr.write_word(A, a)
        arr.write_word(B, b)
        arr.cim_two_row(CimOp.CIM_AND, A, B)
        calls.append((rng.calls, rng.rng.bit_generator.state))
    assert calls[0] == calls[1] == calls[2]


@pytest.mark.parametrize("scenario", [
    AttackScenario(AttackVariant.XNOR_LEVEL, zone_temp=140.0),
    AttackScenario(AttackVariant.GATE_LEVEL, zone_temp=130.0),
    AttackScenario(AttackVariant.GATE_LEVEL, force_flip=True),
], ids=lambda s: f"{s.variant.value}-{s.zone_temp:g}C-forced{s.force_flip}")
def test_reused_arrays_count_as_fresh_ones(scenario):
    db = AuthDb(0xBEEF, 0x1234)
    policy = CredentialPolicy(user="correct", password="random")
    trials = 150

    def fresh(rng) -> bool:
        u_t, p_t = policy.draw(db, rng)
        return run_auth(db, u_t, p_t, scenario, auth_array(rng=rng))

    report = attack_success_rate(db, policy, scenario, trials, MASTER_SEED)
    assert report.failures == run_trials(trials, MASTER_SEED, fresh)


@pytest.mark.parametrize("n", [1, 7, 16, 64])
def test_generator_fills_a_long_call_as_back_to_back_short_ones(n):
    """The numpy property an XNOR's merged draw rests on: from equal states,
    ``random(2n)`` and ``normal(0, sigma, 2n)`` give the numbers of two
    back-to-back calls of ``n`` and leave the same state."""
    for draw in (lambda g, size: g.random(size), lambda g, size: g.normal(0.0, 0.485281, size)):
        merged, split = trial_rng(MASTER_SEED, n), trial_rng(MASTER_SEED, n)
        one = draw(merged, 2 * n)
        two = np.concatenate([draw(split, n), draw(split, n)])
        assert one.tobytes() == two.tobytes()
        assert merged.bit_generator.state == split.bit_generator.state


SCRATCH = (RowAddress(0, 3), RowAddress(0, 4))


@pytest.mark.parametrize("sigma", [0.0, 0.485281])
@pytest.mark.parametrize("name", list(_ATTACKS))
def test_xnor_draws_as_its_and_sense_then_its_nor_sense(name, sigma):
    arr, rng = _attacked_array(sigma, _ATTACKS[name])
    twin, twin_rng = _attacked_array(sigma, _ATTACKS[name])
    for _ in range(4):
        word = arr.cim_xnor(A, B, SCRATCH)
        and_word = twin.cim_two_row(CimOp.CIM_AND, A, B)
        nor_word = twin.cim_two_row(CimOp.CIM_NOR, A, B)
        assert word == and_word | nor_word
        assert [arr.snapshot()[s.bank][s.row] for s in SCRATCH] == [and_word, nor_word]
        assert rng.rng.bit_generator.state == twin_rng.rng.bit_generator.state


@pytest.mark.parametrize("sigma", [0.0, 0.485281])
@pytest.mark.parametrize("name", list(_ATTACKS))
def test_an_unplanned_xnor_senses_as_a_planned_and_nor_block(name, sigma):
    """Unplanned, an XNOR's AND and NOR senses are blocks of one, two
    ``column_draws`` calls; planned, one block and one call. Both leave the
    same generator state, trace, scratch words and result."""
    arr, rng = _attacked_array(sigma, _ATTACKS[name])
    planned, planned_rng = _attacked_array(sigma, _ATTACKS[name])
    arr.recorder, planned.recorder = ExecutionTrace(), ExecutionTrace()
    for _ in range(4):
        planned.plan([(CimOp.CIM_AND, (A, B)), (CimOp.CIM_NOR, (A, B))])
        assert arr.cim_xnor(A, B, SCRATCH) == planned.cim_xnor(A, B, SCRATCH)
        assert arr.snapshot() == planned.snapshot()
        assert rng.rng.bit_generator.state == planned_rng.rng.bit_generator.state
    assert trace_events(arr.recorder) == trace_events(planned.recorder)
    assert arr.recorder.start_ns == planned.recorder.start_ns


_PARTLY_SHIFTED_NOR = SenseDisturbance(disturbance=SHIFT, rows=frozenset({A}),
                                       ops=frozenset({CimOp.CIM_NOR}))
_SHIFT_REFUSED = "^a mean shift heats a pair sense only with both operand rows in the heated zone$"


@pytest.mark.parametrize("sigma,attack,generator,message", [
    (0.0, _PARTLY_SHIFTED_NOR, True, _SHIFT_REFUSED),
    (0.485281, _PARTLY_SHIFTED_NOR, True, _SHIFT_REFUSED),
    (0.0, SenseDisturbance(disturbance=HALF, ops=frozenset({CimOp.CIM_NOR})), False,
     "^a random generator is required for stochastic sampling$"),
], ids=["mean-shift-0", "mean-shift-noisy", "no-generator"])
def test_a_refused_xnor_neither_draws_nor_records(sigma, attack, generator, message):
    """An XNOR whose NOR sense is refused raises before its AND sense draws,
    records or writes: a partly heated mean shift, or a NOR collapse on an
    array without a generator, whose zero-noise AND needs no draw."""
    arr, rng = _attacked_array(sigma, attack)
    arr.rng = rng if generator else None
    arr.recorder = ExecutionTrace()
    stored, state = arr.snapshot(), rng.rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        arr.cim_xnor(A, B, SCRATCH)
    assert rng.calls == [] and rng.rng.bit_generator.state == state
    assert len(arr.recorder) == 0 and arr.snapshot() == stored


def test_a_new_attack_or_model_never_reads_a_stale_law():
    """One array whose attack and model change between senses decodes and
    draws as a fresh array per sense on the same stream."""
    # rho = exp(-0.02 dT): 0.2 over the default 20 C ambient, 0.82 over 90 C
    other = SenseDisturbance(disturbance=Collapse(a=0.0, b=-0.02, zone_temp=100.0))
    # the model changes under the attack that ends and starts a cycle
    steps = [other, _ATTACKS["forced flip"], None, _ATTACKS["mean shift everywhere"],
             _ATTACKS["collapse everywhere"], other]
    models = [CurrentLevelModel(), CurrentLevelModel(sigma=0.2, ambient_temp=90.0)]
    senses = [lambda arr: arr.cim_two_row(CimOp.CIM_AND, A, B),
              lambda arr: arr.cim_xnor(A, B, SCRATCH),
              lambda arr: arr.read_word(A)]
    reused = CimArray(rng=trial_rng(MASTER_SEED, 5))
    fresh_rng = trial_rng(MASTER_SEED, 5)
    for model in models:
        reused.model = model
        for attack in steps:
            for sense in senses:
                fresh = CimArray(model=model, rng=fresh_rng)
                for arr in (reused, fresh):
                    arr.write_word(A, 0x3C5A)
                    arr.write_word(B, 0x0FF0)
                    arr.attack = attack
                assert sense(reused) == sense(fresh)
                assert reused.rng.bit_generator.state == fresh_rng.bit_generator.state


_ACTIVATIONS = [  # every sense kind, and the two senses of an XNOR drawn in one call
    ((CimOp.READ,), (A,)),
    ((CimOp.CIM_NOT,), (B,)),
    ((CimOp.CIM_AND,), (A, B)),
    ((CimOp.CIM_XOR,), (B, A)),
    ((CimOp.CIM_ADD,), (A, B)),
    ((CimOp.CIM_AND, CimOp.CIM_NOR), (A, B)),
]


@pytest.mark.parametrize("sigma", [0.0, 0.485281])
@pytest.mark.parametrize("name", list(_ATTACKS))
def test_apply_laws_maps_plain_copies_of_the_draws_of_column_draws(name, sigma):
    """The kernel split in two: ``column_draws`` takes the draws, and
    ``apply_laws``, handed plain copies of them and no generator, gives the
    currents that it gives of the draws themselves on a twin stream."""
    arr, _ = _attacked_array(sigma, _ATTACKS[name])
    stored = arr.snapshot()[0]
    for ops, addrs in _ACTIVATIONS:
        laws = [arr.law(op, addrs)[0] for op in ops]
        bits = [unpack(stored[a.row], WIDTH) for a in addrs]
        rng, twin = trial_rng(MASTER_SEED, 3), trial_rng(MASTER_SEED, 3)
        uniforms, normals = column_draws(laws, WIDTH, sigma, rng)
        assert (normals is None) == (sigma == 0)
        uniforms = [[u.copy() for u in per_law] for per_law in uniforms]
        noise = [None] * len(laws) if normals is None else list(normals.copy())
        got = [apply_laws(bits, law, u, z) for law, u, z in zip(laws, uniforms, noise)]
        twin_uniforms, twin_normals = column_draws(laws, WIDTH, sigma, twin)
        want = [apply_laws(bits, law, u, None if twin_normals is None else twin_normals[k])
                for k, (law, u) in enumerate(zip(laws, twin_uniforms))]
        assert [c.tobytes() for c in got] == [c.tobytes() for c in want], ops
        assert rng.bit_generator.state == twin.bit_generator.state


_AUTH_SCENARIOS = [
    *(AttackScenario(variant, zone_temp=temp)
      for variant in (AttackVariant.XNOR_LEVEL, AttackVariant.GATE_LEVEL) for temp in (100.0, 140.0)),
    AttackScenario(AttackVariant.XNOR_LEVEL, force_flip=True),
    AttackScenario(AttackVariant.GATE_LEVEL, force_flip=True),
    AttackScenario(),
]


@pytest.mark.parametrize("sigma", [0.0, 0.485281])
@pytest.mark.parametrize("scenario", _AUTH_SCENARIOS,
                         ids=lambda s: f"{s.variant.value}-{s.zone_temp:g}C-forced{s.force_flip}")
def test_one_authentication_pass_senses_as_the_five_public_senses(scenario, sigma):
    """``run_auth`` on a reused array decides, stores and draws as a twin
    array running the five public senses on a twin stream."""
    model = CurrentLevelModel(sigma=sigma)
    db = AuthDb(0xBEEF, 0x1234)
    reused = CimArray(ArrayGeometry(cols_per_row=db.width), model)
    twin = CimArray(ArrayGeometry(cols_per_row=db.width), model)
    words = np.random.default_rng(MASTER_SEED)
    for i in range(12):
        u, p = [(db.username, db.password), (0, 0),
                tuple(int(w) for w in words.integers(0, 1 << db.width, 2))][i % 3]
        rng = trial_rng(MASTER_SEED, i)
        twin.rng = trial_rng(MASTER_SEED, i)
        reused.rng = rng
        got = run_auth(db, u, p, scenario, reused)
        assert got == composed_auth(db, u, p, scenario, model, twin)
        assert reused.snapshot() == twin.snapshot()
        assert rng.bit_generator.state == twin.rng.bit_generator.state


@pytest.mark.parametrize("scenario", [
    AttackScenario(), AttackScenario(AttackVariant.GATE_LEVEL, force_flip=True),
], ids=lambda s: s.variant.value)
def test_an_authentication_draws_its_noise_in_one_call(scenario):
    """With no collapse, no uniform separates the five senses of a trial, so
    their normals come from one call."""
    model = CurrentLevelModel()
    db = AuthDb(0xBEEF, 0x1234)
    array = CimArray(ArrayGeometry(cols_per_row=db.width), model)
    logged = LoggedRng(trial_rng(MASTER_SEED, 0))
    array.rng = logged
    run_auth(db, 0xBEEF, 0x0F0F, scenario, array)
    assert logged.calls == [("normal", 5 * db.width)]


_ONE_SIDED = [  # each op whose window has one finite bound, over each activation
    *((op, addrs) for op in (CimOp.READ, CimOp.CIM_NOT) for addrs in ((A,), (B,))),
    *((op, addrs) for op in (CimOp.CIM_AND, CimOp.CIM_OR, CimOp.CIM_NAND, CimOp.CIM_NOR)
      for addrs in ((A, B), (B, A))),
]


@pytest.mark.parametrize("sigma", [0.0, 0.485281])
@pytest.mark.parametrize("name", list(_ATTACKS))
def test_law_exceed_reads_the_array_law_as_the_kernel_draws_it(name, sigma):
    """``analytic.law_exceed`` of each law the array resolves, partly heated
    ones included, matches the rate at which ``column_draws`` and
    ``apply_laws`` sense above the finite bound of its decode window, over
    200 000 columns for each bit of each row, within 4 binomial sigma."""
    arr, _ = _attacked_array(sigma, _ATTACKS[name])
    n = 200_000
    for k, (op, addrs) in enumerate(_ONE_SIDED):
        law, decode_op = arr.law(op, addrs)
        ref = min(arr.sense.window(decode_op), key=abs)
        uniforms, normals = column_draws([law], n, sigma, trial_rng(MASTER_SEED, 100 + k))
        noise = None if normals is None else normals[0]
        for bits in itertools.product((0, 1), repeat=len(addrs)):
            currents = apply_laws([np.full(n, bit) for bit in bits], law, uniforms[0], noise)
            rate, p = float(np.mean(currents > ref)), law_exceed(law, bits, ref, sigma)
            assert abs(rate - p) <= 4 * binomial_stderr(p, n), (op, addrs, bits)
