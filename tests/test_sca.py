import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincim import cli
from spincim.config import load_config
from spincim.cost import (
    Channel,
    CostMode,
    CostTable,
    ExecutionTrace,
    OpClass,
    OpCost,
    cost_of,
    word_write_cost,
)
from spincim.device import trial_rng
from spincim.errors import MalformedTrace, MissingClass
from spincim.sca import (
    ENHANCED_CLASSES,
    PREDICT_BLOCK,
    STANDARD_CLASSES,
    CentroidClassifier,
    Dataset,
    _normals,
    composite_window,
    confusion_matrix,
    hamming_weight_attack,
    obscuring_experiment,
    score_attackers,
    streamed_train,
    synthesize_dataset,
    train,
)

import _oracles
from _oracles import binomial_3sigma, nearest_centroid_accuracy_by_integration, q
from conftest import MASTER_SEED

TABLE = CostTable()
PER_BIT = CostTable(mode=CostMode.PER_BIT_WRITES)
DEFAULT_SCA = load_config()["sca"]


def centroid_pairs(classifier):
    """Every class pair, in order, with its centroids' Euclidean distance."""
    names, cent = classifier.classes, classifier.centroids
    return [
        (names[i], names[j], float(np.linalg.norm(cent[i] - cent[j])))
        for i in range(len(names)) for j in range(i + 1, len(names))
    ]


def zero_noise_dataset(classes, enhanced, per_class=3):
    rng = trial_rng(MASTER_SEED, 50)
    return synthesize_dataset(classes, TABLE, enhanced, per_class, 0.0, 0.0, rng)


class TestTrain:
    def test_zero_noise_centroids_equal_table_rows(self):
        classifier = train(zero_noise_dataset(ENHANCED_CLASSES, True), ENHANCED_CLASSES)
        for name, centroid in zip(classifier.classes, classifier.centroids):
            cost = cost_of(OpClass(name), TABLE, enhanced=True)
            assert tuple(centroid) == (cost.delay_ns, cost.energy_fj)

    def test_single_observation_is_the_centroid(self):
        data = Dataset([[1.0, 2.0], [3.0, 4.0]], [0, 1], ("a", "b"))
        classifier = train(data)
        assert tuple(classifier.centroids[0]) == (1.0, 2.0)
        assert tuple(classifier.centroids[1]) == (3.0, 4.0)

    def test_missing_class_rejected(self):
        data = zero_noise_dataset(STANDARD_CLASSES, False)
        with pytest.raises(MissingClass):
            train(data, classes=STANDARD_CLASSES + ("CimADD",))

    def test_duplicate_feature_classes_flagged_ill_separated(self):
        # Read1 and CimNOT sit 0.49 apart: flagged under a 1 uA-scale radius
        classifier = train(zero_noise_dataset(ENHANCED_CLASSES, True), ENHANCED_CLASSES)
        close = [pair for pair in centroid_pairs(classifier) if pair[2] < 1.0]
        names = {frozenset(pair[:2]) for pair in close}
        assert frozenset({"Read1", "CimNOT"}) in names
        d = min(pair[2] for pair in centroid_pairs(classifier))
        assert d == pytest.approx(math.hypot(0.02, 0.0), abs=0.2)


class TestConfusion:
    def test_zero_noise_standard_identity(self):
        data = zero_noise_dataset(STANDARD_CLASSES, False)
        classifier = train(data, STANDARD_CLASSES)
        matrix, accuracy = confusion_matrix(classifier, data)
        assert accuracy == 1.0
        assert np.array_equal(matrix, np.eye(len(STANDARD_CLASSES)))

    def test_zero_noise_enhanced_identity_but_tighter_spacing(self):
        data = zero_noise_dataset(ENHANCED_CLASSES, True)
        classifier = train(data, ENHANCED_CLASSES)
        _, accuracy = confusion_matrix(classifier, data)
        assert accuracy == 1.0
        d11 = min(pair[2] for pair in centroid_pairs(classifier))
        std = train(zero_noise_dataset(STANDARD_CLASSES, False), STANDARD_CLASSES)
        d4 = min(pair[2] for pair in centroid_pairs(std))
        assert d11 < d4
        # Read1 against CimNOT is one of the near-collisions
        read1 = classifier.centroids[classifier.classes.index("Read1")]
        cimnot = classifier.centroids[classifier.classes.index("CimNOT")]
        assert np.linalg.norm(read1 - cimnot) == pytest.approx(math.hypot(0.03, 0.49))

    def test_unknown_test_label_rejected(self):
        classifier = train(zero_noise_dataset(STANDARD_CLASSES, False), STANDARD_CLASSES)
        bad = Dataset(np.zeros((1, 2)), [0], ("Nonsense",))
        with pytest.raises(ValueError):
            confusion_matrix(classifier, bad)

    def test_row_stochastic(self):
        rng = trial_rng(MASTER_SEED, 51)
        data = synthesize_dataset(STANDARD_CLASSES, TABLE, False, 200, 0.05, 5.0, rng)
        classifier = train(data, STANDARD_CLASSES)
        matrix, _ = confusion_matrix(classifier, data)
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_eleven_class_accuracy_below_four_class(self):
        sig_d, sig_e, n = 0.05, 1.0, 4000
        accs = {}
        for tag, classes, enhanced in (
            ("std", STANDARD_CLASSES, False),
            ("enh", ENHANCED_CLASSES, True),
        ):
            rng = trial_rng(MASTER_SEED, 52)
            tr = synthesize_dataset(classes, TABLE, enhanced, n, sig_d, sig_e, rng)
            te = synthesize_dataset(classes, TABLE, enhanced, n, sig_d, sig_e, rng)
            _, accs[tag] = confusion_matrix(train(tr, classes), te)
        assert accs["enh"] < accs["std"]

    def test_accuracy_tracks_bayes_integration_oracle(self):
        # numeric 2D Gaussian integration over nearest-centroid cells
        sig_d, sig_e, n = 0.05, 1.0, 10_000
        for classes, enhanced in ((STANDARD_CLASSES, False), (ENHANCED_CLASSES, True)):
            rng = trial_rng(MASTER_SEED, 53)
            tr = synthesize_dataset(classes, TABLE, enhanced, n, sig_d, sig_e, rng)
            te = synthesize_dataset(classes, TABLE, enhanced, n, sig_d, sig_e, rng)
            _, accuracy = confusion_matrix(train(tr, classes), te)
            centroids = np.array(
                [
                    (cost_of(OpClass(c), TABLE, enhanced).delay_ns,
                     cost_of(OpClass(c), TABLE, enhanced).energy_fj)
                    for c in classes
                ]
            )
            oracle = nearest_centroid_accuracy_by_integration(
                centroids, sig_d, sig_e, grid=601
            )
            assert accuracy == pytest.approx(oracle, abs=0.015)

    def test_scale_consistency(self):
        rng = trial_rng(MASTER_SEED, 54)
        data = synthesize_dataset(STANDARD_CLASSES, TABLE, False, 500, 0.05, 2.0, rng)
        queries = rng.normal([2.0, 100.0], [1.0, 60.0], (400, 2))
        base = train(data, STANDARD_CLASSES).predict(queries)
        for factor in (0.01, 3.7, 250.0):
            scaled = Dataset(data.features * factor, data.codes, data.classes)
            pred = train(scaled, STANDARD_CLASSES).predict(queries * factor)
            assert np.array_equal(base, pred)


class TestIntegerCodes:
    def test_confusion_matches_per_observation_count(self):
        rng = trial_rng(MASTER_SEED, 55)
        data = synthesize_dataset(ENHANCED_CLASSES, TABLE, True, 300, 0.05, 2.0, rng)
        classifier = train(data, ENHANCED_CLASSES)
        # shuffled and interleaved test labels, with CimADD never tested
        names = [data.classes[k] for k in data.codes]
        kept = [i for i in rng.permutation(len(data)) if names[i] != "CimADD"]
        classes = tuple(dict.fromkeys(names[i] for i in kept))
        test_set = Dataset(data.features[kept], [classes.index(names[i]) for i in kept], classes)
        assert test_set.classes != data.classes
        matrix, accuracy = confusion_matrix(classifier, test_set)

        pred = classifier.predict(test_set.features)
        counts = np.zeros((len(ENHANCED_CLASSES),) * 2)
        for code, p in zip(test_set.codes, pred):
            counts[classifier.classes.index(test_set.classes[code]), p] += 1.0
        sums = counts.sum(axis=1, keepdims=True)
        expected = np.where(sums > 0, counts / np.where(sums > 0, sums, 1.0), 0.0)
        assert np.array_equal(matrix, expected)
        assert accuracy == np.trace(counts) / len(test_set)
        absent = classifier.classes.index("CimADD")
        assert not matrix[absent].any()

    def test_predict_bit_identical_to_broadcast_distance(self):
        rng = trial_rng(MASTER_SEED, 56)
        data = synthesize_dataset(ENHANCED_CLASSES, TABLE, True, 200, 0.05, 5.0, rng)
        classifier = train(data, ENHANCED_CLASSES)
        cent, sig = classifier.centroids, classifier.sigma
        # points on the bisector of every centroid pair, where the rounding of
        # the distance arithmetic decides the argmin
        i, j = np.triu_indices(len(cent), 1)
        across = ((cent[j] - cent[i]) / sig)[:, ::-1] * [1.0, -1.0] * sig
        steps = np.linspace(-3.0, 3.0, 41)[None, :, None]
        ties = ((cent[i] + cent[j]) / 2)[:, None, :] + steps * across[:, None, :]
        queries = np.vstack([data.features, cent, ties.reshape(-1, 2)])
        diff = (queries[:, None, :] - cent[None, :, :]) / sig
        reference = np.argmin((diff**2).sum(axis=2), axis=1)
        assert np.array_equal(classifier.predict(queries), reference)

    @pytest.mark.parametrize("codes", [
        [0.7, 1.2], [0.0, 1.0], [True, False], ["Read1", "Write1"], np.array([0, 1], dtype=object),
    ])
    def test_codes_that_are_not_integers_refused(self, codes):
        features = np.array([[0.6, 8.6], [4.4, 233.0]])
        with pytest.raises(ValueError, match="must be integers"):
            Dataset(features, codes, ("Read1", "Write1"))

    def test_features_are_copied_and_the_callers_array_stays_writable(self):
        features = np.zeros((2, 2))
        data = Dataset(features, [0, 1], ("a", "b"))
        features[0, 0] = 1.0
        assert features.flags.writeable and data.features[0, 0] == 0.0
        assert not data.features.flags.writeable and not data.codes.flags.writeable

    @pytest.mark.parametrize("codes", [[1, 0], np.array([1, 0], dtype=np.uint8)])
    def test_integer_codes_kept(self, codes):
        data = Dataset(np.arange(4.0).reshape(2, 2), codes, ("a", "b"))
        assert data.codes.dtype == np.intp and data.codes.tolist() == [1, 0]
        assert len(data) == 2 and data.classes == ("a", "b")
        assert len(Dataset(np.zeros((0, 2)), [], ("a",))) == 0

    @pytest.mark.parametrize("codes", [[0, 2], [-1, 0], [0]])
    def test_codes_must_index_the_classes(self, codes):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), codes, ("a", "b"))

    def test_training_label_outside_the_classes_rejected(self):
        data = zero_noise_dataset(STANDARD_CLASSES, False)
        with pytest.raises(ValueError, match="Write0"):
            train(data, classes=("Read1", "Read0", "Write1"))


def _assert_trains_like_oracle(data, classes=None):
    classifier = train(data, classes)
    names, centroids, sigma = _oracles.train(data.features, data.codes, data.classes, classes)
    assert classifier.classes == names
    assert np.array_equal(classifier.centroids, centroids)
    assert np.array_equal(classifier.sigma, sigma)
    return classifier


class TestAgainstFrozenKernels:
    """In-place synthesis, sort-based train and row-block predict, bit for bit
    against the whole-array versions they replaced."""

    @pytest.mark.parametrize("classes,enhanced", [
        (STANDARD_CLASSES, False), (ENHANCED_CLASSES, True), (("CimADD",), True),
    ])
    @pytest.mark.parametrize("per_class", [0, 1, 7, 3000])
    @pytest.mark.parametrize("sigmas", [(0.05, 2.0), (0.0, 0.0), (0.3, 0.0)])
    def test_synthesize_dataset(self, classes, enhanced, per_class, sigmas):
        data = synthesize_dataset(
            classes, TABLE, enhanced, per_class, *sigmas, trial_rng(MASTER_SEED, 60)
        )
        feats, codes = _oracles.synthesize_dataset(
            classes, TABLE, enhanced, per_class, *sigmas, trial_rng(MASTER_SEED, 60)
        )
        assert np.array_equal(data.features, feats)
        assert np.array_equal(data.codes, codes)
        assert data.classes == tuple(classes)

    def test_train_on_shuffled_and_interleaved_codes(self):
        rng = trial_rng(MASTER_SEED, 61)
        data = synthesize_dataset(ENHANCED_CLASSES, TABLE, True, 2000, 0.05, 2.0, rng)
        shuffled = rng.permutation(len(data))
        _assert_trains_like_oracle(Dataset(data.features[shuffled], data.codes[shuffled],
                                           data.classes), ENHANCED_CLASSES)
        # codes cycle through the classes, listed out of sorted order
        interleaved = Dataset(data.features, np.arange(len(data)) % 5, ("e", "c", "a", "d", "b"))
        _assert_trains_like_oracle(interleaved)
        _assert_trains_like_oracle(interleaved, ("a", "b", "c", "d", "e", "e"))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=5),
        constant_class=st.booleans(),
        flat_column=st.sampled_from([None, 0, 1]),
        flat_value=st.sampled_from([0.0, -2.5, 7e5]),
        shuffle=st.booleans(),
        scale=st.sampled_from([1e-7, 1.0, 3e4]),
        named=st.booleans(),
    )
    def test_train_matches_oracle(self, seed, sizes, constant_class, flat_column, flat_value,
                                  shuffle, scale, named):
        rng = np.random.default_rng(seed)
        codes = np.repeat(np.arange(len(sizes)), sizes)
        feats = rng.normal([3.0, 40.0], [0.1 * scale, 2.0 * scale], (len(codes), 2))
        feats += rng.normal(0.0, scale, (len(sizes), 2))[codes]
        if constant_class:   # every row of class 0 identical: the exact-centroid branch
            feats[codes == 0] = feats[0]
        if flat_column is not None:   # no spread at all: the sigma floor's |max| branch
            feats[:, flat_column] = flat_value
        if shuffle:   # otherwise each class is one run of rows, as a draw gives them
            perm = rng.permutation(len(codes))
            feats, codes = feats[perm], codes[perm]
        names = ("d", "b", "e", "a", "c")[:len(sizes)]
        data = Dataset(feats, codes, names)
        _assert_trains_like_oracle(data, sorted(names) if named else None)

    def test_train_with_identical_rows_and_a_one_row_class(self):
        rng = np.random.default_rng(62)
        feats = rng.normal([3.0, 40.0], [0.1, 2.0], (900, 2))
        codes = np.arange(900) % 3
        feats[codes == 0] = [0.1, 0.7]         # every row of class 0 identical
        feats[codes == 1, 0] = 1.0 / 3.0       # one identical column in class 1
        codes[5] = 3                           # class 3 has one row
        data = Dataset(feats, codes, ("p", "q", "r", "s"))
        classifier = _assert_trains_like_oracle(data)
        assert tuple(classifier.centroids[0]) == (0.1, 0.7)
        assert classifier.centroids[1, 0] == 1.0 / 3.0
        assert tuple(classifier.centroids[3]) == tuple(feats[5])

    @pytest.mark.parametrize("rows", [
        0, 1, PREDICT_BLOCK - 1, PREDICT_BLOCK, PREDICT_BLOCK + 1, 3 * PREDICT_BLOCK + 17,
    ])
    def test_predict_over_block_edges(self, rows):
        rng = trial_rng(MASTER_SEED, 63)
        data = synthesize_dataset(ENHANCED_CLASSES, TABLE, True, 400, 0.05, 2.0, rng)
        classifier = train(data, ENHANCED_CLASSES)
        queries = synthesize_dataset(
            ENHANCED_CLASSES, TABLE, True, rows // len(ENHANCED_CLASSES) + 1, 0.05, 2.0, rng
        ).features[:rows]
        pred = classifier.predict(queries)
        assert pred.dtype == np.intp and pred.shape == (rows,)
        assert np.array_equal(
            pred, _oracles.predict(classifier.centroids, classifier.sigma, queries)
        )

    def test_predict_one_observation_and_ties(self):
        classifier = CentroidClassifier(
            ("a", "b", "c"), np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]]), np.array([0.5, 2.0])
        )
        for point in ([1.0, 1.0], [0.5, 0.5], [0.0, 0.0], [7.0, -3.0]):
            pred = classifier.predict(np.array(point))
            assert np.array_equal(
                pred, _oracles.predict(classifier.centroids, classifier.sigma, point)
            )
        assert classifier.predict(np.array([1.0, 1.0])).tolist() == [1]

    def test_predict_exact_ties_go_to_the_lowest_index(self):
        # classes 0 and 2 share a centroid, and at duration 1.0 class 1's
        # distance equals theirs bit for bit; class 3 wins near energy 5
        classifier = CentroidClassifier(
            ("a", "b", "c", "d"), np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 0.0], [1.0, 5.0]]),
            np.array([0.5, 2.0]),
        )
        energy = np.linspace(-4.0, 9.0, 2 * PREDICT_BLOCK + 17)
        queries = np.column_stack([np.ones_like(energy), energy])
        queries[::5, 0] = 1.5   # class 1 alone is nearest on these rows, away from class 3
        pred = classifier.predict(queries)
        assert np.array_equal(
            pred, _oracles.predict(classifier.centroids, classifier.sigma, queries)
        )
        assert set(pred.tolist()) == {0, 1, 3}

    def test_predict_with_one_class(self):
        classifier = CentroidClassifier(("a",), np.array([[1.0, 2.0]]), np.array([0.5, 2.0]))
        queries = np.random.default_rng(64).normal(0.0, 1e3, (PREDICT_BLOCK + 3, 2))
        assert not classifier.predict(queries).any()
        assert np.array_equal(
            classifier.predict(queries),
            _oracles.predict(classifier.centroids, classifier.sigma, queries),
        )

    @pytest.mark.parametrize("centroids,sigma", [
        ([[0.0, math.nan]], [1.0, 1.0]), ([[0.0, 0.0]], [0.0, 1.0]),
        ([[0.0, 0.0]], [1.0, math.inf]), ([[math.inf, 0.0]], [1.0, 1.0]),
    ])
    def test_distances_that_could_be_nan_refused(self, centroids, sigma):
        with pytest.raises(ValueError, match="sigma finite and positive"):
            CentroidClassifier(("a",), np.array(centroids), np.array(sigma))


class TestStreamedScoring:
    """The sweep's driver, which draws one stream for all its attackers and
    scores it block by block, against ``confusion_matrix(train(tr), te)`` of
    each attacker's own two ``synthesize_dataset`` draws."""

    @staticmethod
    def _whole_sets(classes, enhanced, per_class, sigmas, rng):
        draw = (classes, TABLE, enhanced, per_class, *sigmas)
        classifier = train(synthesize_dataset(*draw, rng), classes)
        return confusion_matrix(classifier, synthesize_dataset(*draw, rng))

    @pytest.mark.parametrize("classes,enhanced", [
        (STANDARD_CLASSES, False), (ENHANCED_CLASSES, True),
    ])
    @pytest.mark.parametrize("per_class", [
        1, 7, PREDICT_BLOCK - 1, PREDICT_BLOCK, PREDICT_BLOCK + 1, 2 * PREDICT_BLOCK + 17,
    ])
    @pytest.mark.parametrize("sigmas", [(0.0, 0.0), (0.05, 0.0), (0.05, 0.5), (0.05, 5.0)])
    def test_one_attacker_equals_whole_sets(self, classes, enhanced, per_class, sigmas):
        rng = trial_rng(MASTER_SEED, 70)
        matrix, accuracy = self._whole_sets(classes, enhanced, per_class, sigmas, rng)
        streamed_rng = trial_rng(MASTER_SEED, 70)
        [[(s_matrix, s_accuracy)]] = score_attackers(
            [(classes, TABLE, enhanced)], per_class, sigmas[0], [sigmas[1]], streamed_rng
        )
        assert s_accuracy.hex() == accuracy.hex()
        assert np.array_equal(s_matrix, matrix)
        # the same normals were drawn, and no more
        assert streamed_rng.bit_generator.state == rng.bit_generator.state
        if sigmas == (0.0, 0.0):
            assert s_accuracy == 1.0

    @pytest.mark.parametrize("per_class", [1, PREDICT_BLOCK + 1, 3000])
    def test_each_attacker_equals_its_own_run(self, per_class):
        attackers = [(STANDARD_CLASSES, TABLE, False), (ENHANCED_CLASSES, TABLE, True),
                     (("CimADD", "Write0"), TABLE, True)]
        sig_d = DEFAULT_SCA["sigma_duration"]
        for idx, sig_e in enumerate(DEFAULT_SCA["sweep_sigma_energy"]):
            [shared] = score_attackers(attackers, per_class, sig_d, [sig_e],
                                       trial_rng(MASTER_SEED, 1000 + idx))
            for attacker, (matrix, accuracy) in zip(attackers, shared):
                [[(alone, alone_accuracy)]] = score_attackers(
                    [attacker], per_class, sig_d, [sig_e], trial_rng(MASTER_SEED, 1000 + idx))
                whole, whole_accuracy = self._whole_sets(
                    attacker[0], attacker[2], per_class, (sig_d, sig_e),
                    trial_rng(MASTER_SEED, 1000 + idx))
                assert accuracy.hex() == alone_accuracy.hex() == whole_accuracy.hex()
                assert np.array_equal(matrix, alone) and np.array_equal(matrix, whole)

    @pytest.mark.parametrize("per_class", [1, PREDICT_BLOCK + 1])
    def test_each_level_equals_its_own_one_level_call(self, per_class):
        # common random numbers: a level scales the sweep's one stream as it would alone
        attackers = [(STANDARD_CLASSES, TABLE, False), (ENHANCED_CLASSES, TABLE, True)]
        sig_d, sweep = DEFAULT_SCA["sigma_duration"], DEFAULT_SCA["sweep_sigma_energy"]
        assert len(sweep) == 4
        levels = score_attackers(attackers, per_class, sig_d, sweep, trial_rng(MASTER_SEED, 75))
        assert len(levels) == len(sweep)
        for sig_e, level in zip(sweep, levels):
            [alone] = score_attackers(attackers, per_class, sig_d, [sig_e],
                                      trial_rng(MASTER_SEED, 75))
            assert [accuracy.hex() for _, accuracy in level] == [
                accuracy.hex() for _, accuracy in alone]
            assert all(np.array_equal(m, a) for (m, _), (a, _) in zip(level, alone))

    def test_a_repeated_level_gives_identical_rows(self, tmp_path, capsys):
        config = tmp_path / "twice.json"
        config.write_text('{"sca": {"samples_per_class": 300, "sweep_sigma_energy": [1.0, 1.0]}}')
        assert cli.main(["sca", "--config", str(config), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        first, second = json.loads((tmp_path / "sca.json").read_text())["report"]["rows"]
        assert first == second and first["sigma_energy"] == 1.0

    def test_an_empty_sweep_reports_no_rows(self, tmp_path, capsys):
        config = tmp_path / "empty.json"
        config.write_text('{"sca": {"sweep_sigma_energy": []}}')
        assert cli.main(["sca", "--config", str(config), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert json.loads((tmp_path / "sca.json").read_text())["report"]["rows"] == []

    def test_an_overflowing_level_refuses_the_whole_sweep(self, tmp_path, capsys):
        # the levels share one stream, so the loud level fails before any row is written
        config, out = tmp_path / "loud.json", tmp_path / "out"
        config.write_text('{"sca": {"sweep_sigma_energy": [0.5, 1e308]}}')
        assert cli.main(["sca", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "experiment error: features must be finite; sigmas 0.05, 1e+308 overflow\n")
        assert not out.exists() or not any(out.iterdir())

    def test_default_sweep_draws_the_longest_stream_once(self, monkeypatch, tmp_path, capsys):
        streams = []

        class Counting:
            def __init__(self, rng):
                self.rng, self.rows = rng, 0

            def standard_normal(self, size):
                self.rows += size[0]
                return self.rng.standard_normal(size)

        default_rng = np.random.default_rng

        def counting_rng(seed):
            streams.append(Counting(default_rng(seed)))
            return streams[-1]

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        assert cli.main(["sca", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        # one stream of 2 x 11 x n rows a report, which every noise level scales
        # and of which the 4-class attacker reads the first 2 x 4 x n: not one
        # stream per level or per attacker
        n = DEFAULT_SCA["samples_per_class"]
        assert [stream.rows for stream in streams] == [2 * len(ENHANCED_CLASSES) * n]

    @pytest.mark.parametrize("per_class", [
        1, PREDICT_BLOCK - 1, PREDICT_BLOCK, PREDICT_BLOCK + 1, 10_000,
    ])
    @pytest.mark.parametrize("sigmas", [(0.05, 2.0), (0.0, 0.0), (0.0, 1e308), (1e308, 0.5)])
    def test_normals_are_the_row_stream_as_contiguous_columns(self, sigmas, per_class):
        rng, twin = trial_rng(MASTER_SEED, 74), trial_rng(MASTER_SEED, 74)
        units = []
        for segment, unit in _normals(2, per_class, rng):
            # one class held: every segment reuses one contiguous (2, n) buffer
            assert unit.shape == (2, per_class) and unit.flags.c_contiguous
            assert all(unit is held for _, held in units)
            units.append((segment, unit))
            # each class is one (n, 2) draw of the stream, transposed
            want = twin.standard_normal((per_class, 2))
            assert unit.tobytes() == np.ascontiguousarray(want.T).tobytes()
            with np.errstate(over="ignore"):   # the product each noise level takes of it
                got = np.multiply(unit, np.reshape(sigmas, (2, 1)))
                want = (want * sigmas).T
            assert got.tobytes() == want.tobytes()   # bit for bit, signed zeros and infinities too
        assert [segment for segment, _ in units] == [0, 1]
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_no_attackers_draw_nothing(self):
        rng = trial_rng(MASTER_SEED, 73)
        state = rng.bit_generator.state
        assert score_attackers([], 50, 0.05, [1.0], rng) == [[]]
        assert score_attackers([(STANDARD_CLASSES, TABLE, False)], 50, 0.05, [], rng) == []
        assert rng.bit_generator.state == state

    def test_overflowing_sigma_refused(self):
        for call in (
            lambda rng: synthesize_dataset(STANDARD_CLASSES, TABLE, False, 50, 0.05, 1e308, rng),
            lambda rng: score_attackers(
                [(STANDARD_CLASSES, TABLE, False)], 50, 1e308, [1.0], rng),
        ):
            with pytest.raises(ValueError, match="features must be finite"):
                call(trial_rng(MASTER_SEED, 71))

    def test_overflowing_pooled_deviation_refused(self):
        data = synthesize_dataset(
            STANDARD_CLASSES, TABLE, False, 50, 0.05, 1e160, trial_rng(MASTER_SEED, 72)
        )
        with pytest.raises(ValueError, match="pooled deviation is not finite"):
            train(data, STANDARD_CLASSES)


class TestStreamedTraining:
    """The sweep's attacker, fitted class by class as it is drawn, against
    ``train`` of the whole training set."""

    @pytest.mark.parametrize("classes,enhanced", [
        (STANDARD_CLASSES, False), (ENHANCED_CLASSES, True), (("CimADD",), True),
    ])
    @pytest.mark.parametrize("per_class", [
        1, 7, PREDICT_BLOCK - 1, PREDICT_BLOCK, PREDICT_BLOCK + 1, 3 * PREDICT_BLOCK + 17,
    ])
    # (0.0, 0.0) and (0.3, 0.0) reach the identical-rows means and the sigma floor
    @pytest.mark.parametrize("sigmas", [(0.05, 2.0), (0.0, 0.0), (0.3, 0.0)])
    def test_streamed_equals_train_of_the_whole_set(self, classes, enhanced, per_class, sigmas):
        draw = (classes, TABLE, enhanced, per_class, *sigmas)
        rng, streamed_rng = trial_rng(MASTER_SEED, 80), trial_rng(MASTER_SEED, 80)
        whole = train(synthesize_dataset(*draw, rng))
        streamed = streamed_train(*draw, streamed_rng)
        assert streamed.classes == whole.classes
        assert np.array_equal(streamed.centroids, whole.centroids)
        assert np.array_equal(streamed.sigma, whole.sigma)
        # the same normals were drawn, and no more
        assert streamed_rng.bit_generator.state == rng.bit_generator.state

    def test_zero_samples_refused_as_train_refuses_them(self):
        draw = (STANDARD_CLASSES, TABLE, False, 0, 0.05, 2.0)
        with pytest.raises(MissingClass):
            train(synthesize_dataset(*draw, trial_rng(MASTER_SEED, 81)))
        with pytest.raises(MissingClass):
            streamed_train(*draw, trial_rng(MASTER_SEED, 81))

    @pytest.mark.parametrize("sigma,message", [
        (1e160, "pooled deviation is not finite"),   # finite rows, overflowing squares
        (1e308, "features must be finite"),          # overflowing rows
    ])
    def test_overflowing_sigma_refused_without_a_warning(self, sigma, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                streamed_train(STANDARD_CLASSES, TABLE, False, 50, 0.05, sigma,
                               trial_rng(MASTER_SEED, 82))

    def test_class_named_twice_refused(self):
        # train would pool both runs of Read1, which a class-at-a-time fit cannot hold
        with pytest.raises(ValueError, match="named twice"):
            streamed_train(("Read1", "Write1", "Read1"), TABLE, False, 5, 0.05, 2.0,
                           trial_rng(MASTER_SEED, 83))


class TestPredictInput:
    CLASSIFIER = CentroidClassifier(
        ("a", "b"), np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([1.0, 1.0])
    )

    def test_empty_rows_give_an_empty_result(self):
        pred = self.CLASSIFIER.predict(np.zeros((0, 2)))
        assert pred.dtype == np.intp and pred.shape == (0,)

    @pytest.mark.parametrize("features", [
        [], [[]], np.zeros((3, 3)), np.zeros((2, 2, 2)), np.zeros(3), 1.0,
    ])
    def test_other_shapes_refused(self, features):
        with pytest.raises(ValueError, match="must be \\(N, 2\\) rows, got shape"):
            self.CLASSIFIER.predict(features)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rows_refused(self, bad):
        with pytest.raises(ValueError, match="features must be finite; row 1 is not"):
            self.CLASSIFIER.predict([[0.0, 0.0], [bad, 1.0], [2.0, 2.0]])
        with pytest.raises(ValueError, match="row 0"):
            self.CLASSIFIER.predict([1.0, bad])


class TestHammingWeight:
    def _write_trace(self, word, width=16, noise=0.0, rng=None):
        trace = ExecutionTrace()
        kind, cost = word_write_cost(word, width, PER_BIT, enhanced=False)
        if noise:
            cost = OpCost(cost.delay_ns, max(cost.energy_fj + rng.normal(0, noise), 0.0))
        trace.record(kind, cost, Channel.BUS)
        return trace

    def test_exact_at_zero_noise(self):
        assert hamming_weight_attack(self._write_trace(0xF0F0), 16) == 8
        assert hamming_weight_attack(self._write_trace(0x0000), 16) == 0
        assert hamming_weight_attack(self._write_trace(0xFFFF), 16) == 16
        rng = np.random.default_rng(31)
        for _ in range(100):
            word = int(rng.integers(0, 1 << 16))
            got = hamming_weight_attack(self._write_trace(word), 16)
            assert got == bin(word).count("1")

    def test_malformed_traces(self):
        empty = ExecutionTrace()
        with pytest.raises(MalformedTrace):
            hamming_weight_attack(empty, 16)
        double = ExecutionTrace()
        for _ in range(2):
            kind, cost = word_write_cost(0xF0F0, 16, PER_BIT, False)
            double.record(kind, cost, Channel.BUS)
        with pytest.raises(MalformedTrace):
            hamming_weight_attack(double, 16)
        with pytest.raises(MalformedTrace):
            hamming_weight_attack("not a trace", 16)

    @pytest.mark.parametrize("word", [0x0000, 0xF0F0, 0xFFFF])
    @pytest.mark.parametrize("enhanced", [False, True])
    def test_a_write_charged_as_one_row_refused(self, word, enhanced):
        # a PerWord write costs its majority row whatever its weight: on the
        # standard rows 0, 8 and 16 ones would all read as weight 0
        trace = ExecutionTrace()
        trace.record(*word_write_cost(word, 16, TABLE, enhanced), Channel.BUS)
        with pytest.raises(MalformedTrace, match="^a word write charged as one whole-word "
                                                 "row hides its weight$"):
            hamming_weight_attack(trace, 16, enhanced=enhanced)

    @pytest.mark.parametrize("bit", [0, 1])
    def test_a_one_column_write_is_its_own_row(self, bit):
        trace = ExecutionTrace()
        trace.record(*word_write_cost(bit, 1, TABLE, enhanced=False), Channel.BUS)
        assert hamming_weight_attack(trace, 1) == bit

    @pytest.mark.parametrize("make", [
        lambda write: None,
        lambda write: write.event_rows,
        lambda write: write.rows[write.event_rows[0]],
        lambda write: np.full(10, write.total_energy() / 10),
        lambda write: SimpleNamespace(sample_rate=1000.0, power=np.ones(10)),
    ], ids=["none", "event-list", "one-event", "samples", "sampled-power"])
    def test_anything_but_an_execution_trace_refused(self, make):
        # only an ExecutionTrace is read, whatever the object carries
        trace = make(self._write_trace(0xF0F0))
        name = type(trace).__name__
        with pytest.raises(MalformedTrace, match=f"^unsupported trace type {name}$"):
            hamming_weight_attack(trace, 16)

    def test_the_write_is_found_among_other_events(self):
        trace = ExecutionTrace()
        trace.record(OpClass.READ1, OpCost(0.6, 8.611), Channel.BUS)
        kind, cost = word_write_cost(0xF0F0, 16, PER_BIT, enhanced=False)
        trace.record(kind, cost, Channel.BUS)
        trace.record(OpClass.CIM_AND, OpCost(0.55, 22.3), Channel.IN_MEMORY)
        assert hamming_weight_attack(trace, 16) == 8

    def test_exact_with_the_enhanced_write_costs(self):
        rng = np.random.default_rng(32)
        for word in [0x0000, 0xFFFF, *rng.integers(0, 1 << 16, 100).tolist()]:
            trace = ExecutionTrace()
            kind, cost = word_write_cost(word, 16, PER_BIT, enhanced=True)
            trace.record(kind, cost, Channel.BUS)
            got = hamming_weight_attack(trace, 16, PER_BIT, enhanced=True)
            assert got == bin(word).count("1")

    def test_estimate_clamped(self):
        trace = ExecutionTrace()
        trace.record(OpClass.WRITE1, OpCost(4.4, 1e6), Channel.BUS)
        assert hamming_weight_attack(trace, 16) == 16
        trace2 = ExecutionTrace()
        trace2.record(OpClass.WRITE0, OpCost(3.3, 0.0), Channel.BUS)
        assert hamming_weight_attack(trace2, 16) == 0

    def test_equal_write_energies_rejected(self):
        default = CostTable()
        write0 = cost_of(OpClass.WRITE0, default, enhanced=False)
        flat = CostTable(standard={**default.standard, OpClass.WRITE1: write0})
        with pytest.raises(ValueError, match="Write1 and Write0 energies are equal"):
            hamming_weight_attack(self._write_trace(0xF0F0), 16, flat)

    def test_recovery_degrades_with_noise(self):
        # rounding survives iff |noise| < half the per-bit energy gap;
        # oracle: 1 - 2 Q(20.95 / sigma)
        gap = 233.3 - 191.4
        trials = 10_000
        rates = {}
        for idx, sigma in enumerate((10.0, 20.0, 40.0)):
            rng = trial_rng(MASTER_SEED, 60 + idx)
            hits = 0
            for _ in range(trials):
                trace = self._write_trace(0xF0F0, noise=sigma, rng=rng)
                hits += hamming_weight_attack(trace, 16) == 8
            rate = hits / trials
            oracle = 1.0 - 2.0 * q(gap / 2.0 / sigma)
            assert abs(rate - oracle) <= binomial_3sigma(oracle, trials)
            rates[sigma] = rate
        assert rates[10.0] > rates[20.0] > rates[40.0]


class TestObscuring:
    def test_composite_sits_nearer_write1_than_the_write_gap(self):
        comp = np.asarray(composite_window(TABLE))
        assert comp == pytest.approx([3.83, 229.02])
        w1 = np.array([4.4, 233.3])
        w0 = np.array([3.3, 191.4])
        d_comp = np.linalg.norm(comp - w1)
        assert 0.0 < d_comp < np.linalg.norm(w1 - w0)

    def test_experiment_reports_confusion_with_ci(self):
        results = obscuring_experiment(
            [(0.01, 0.1), (0.5, 10.0)], samples=4000, seed=MASTER_SEED
        )
        low_noise, high_noise = results
        # the composite window always lands in the Write1 cell: even at
        # near-zero noise the attacker consistently misreads it
        assert low_noise.rate == 1.0
        assert high_noise.rate > 0.0
        lo, hi = high_noise.wilson_95_ci
        assert lo <= high_noise.rate <= hi

    def test_high_noise_rate_matches_integration_oracle(self):
        sig_d, sig_e = 0.5, 10.0
        results = obscuring_experiment([(sig_d, sig_e)], samples=10_000, seed=MASTER_SEED)
        rate = results[0].rate
        # numeric oracle: Gaussian mass around the composite falling in the
        # Write1 nearest-centroid cell under the noise metric
        centroids = np.array(
            [
                (cost_of(OpClass(c), TABLE, False).delay_ns,
                 cost_of(OpClass(c), TABLE, False).energy_fj)
                for c in STANDARD_CLASSES
            ]
        )
        sig = np.array([sig_d, sig_e])
        comp = np.asarray(composite_window(TABLE))
        axis = np.linspace(-8, 8, 801)
        step = axis[1] - axis[0]
        dx, dy = np.meshgrid(axis, axis, indexing="ij")
        density = np.exp(-0.5 * (dx**2 + dy**2)) / (2 * np.pi) * step * step
        px = comp[0] + dx * sig[0]
        py = comp[1] + dy * sig[1]
        d2 = ((px[..., None] - centroids[None, None, :, 0]) / sig[0]) ** 2 + (
            (py[..., None] - centroids[None, None, :, 1]) / sig[1]
        ) ** 2
        w1 = list(STANDARD_CLASSES).index("Write1")
        oracle = float((density * (d2.argmin(axis=2) == w1)).sum())
        assert rate == pytest.approx(oracle, abs=0.02)
