import math

import numpy as np
import pytest

from spincim import (
    Channel,
    CostMode,
    CostTable,
    ExecutionTrace,
    MalformedTrace,
    MissingClass,
    OpClass,
    PowerTrace,
    cost_of,
    hamming_weight_attack,
    synthesize_power_trace,
    trial_rng,
    word_write_cost,
)
from spincim.sca import (
    ENHANCED_CLASSES,
    PREDICT_BLOCK,
    STANDARD_CLASSES,
    CentroidClassifier,
    Dataset,
    LabeledObservation,
    composite_window,
    confusion_matrix,
    obscuring_experiment,
    synthesize_dataset,
    train,
)

import _oracles
from _oracles import binomial_3sigma, nearest_centroid_accuracy_by_integration, q
from conftest import MASTER_SEED

TABLE = CostTable()
PER_BIT = CostTable(mode=CostMode.PER_BIT_WRITES)


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
        data = Dataset.from_observations(
            [LabeledObservation(1.0, 2.0, "a"), LabeledObservation(3.0, 4.0, "b")]
        )
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
        close = classifier.ill_separated_pairs(1.0)
        names = {frozenset(pair[:2]) for pair in close}
        assert frozenset({"Read1", "CimNOT"}) in names
        d, _ = classifier.min_centroid_distance()
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
        d11, _ = classifier.min_centroid_distance()
        std = train(zero_noise_dataset(STANDARD_CLASSES, False), STANDARD_CLASSES)
        d4, _ = std.min_centroid_distance()
        assert d11 < d4
        # Read1 against CimNOT is one of the near-collisions
        read1 = classifier.centroids[classifier.classes.index("Read1")]
        cimnot = classifier.centroids[classifier.classes.index("CimNOT")]
        assert np.linalg.norm(read1 - cimnot) == pytest.approx(math.hypot(0.03, 0.49))

    def test_unknown_test_label_rejected(self):
        classifier = train(zero_noise_dataset(STANDARD_CLASSES, False), STANDARD_CLASSES)
        bad = Dataset(np.zeros((1, 2)), ["Nonsense"])
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

    def test_dataset_csv_export(self, tmp_path):
        data = Dataset.from_observations(
            [LabeledObservation(0.6, 8.611, "Read1"),
             LabeledObservation(3.3, 191.4, "Write0")]
        )
        path = tmp_path / "observations.csv"
        data.to_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "duration_ns,energy_fJ,label"
        assert lines[1].endswith("Read1") and len(lines) == 3

    def test_scale_consistency(self):
        rng = trial_rng(MASTER_SEED, 54)
        data = synthesize_dataset(STANDARD_CLASSES, TABLE, False, 500, 0.05, 2.0, rng)
        queries = rng.normal([2.0, 100.0], [1.0, 60.0], (400, 2))
        base = train(data, STANDARD_CLASSES).predict(queries)
        for factor in (0.01, 3.7, 250.0):
            scaled = Dataset(data.features * factor, data.labels)
            pred = train(scaled, STANDARD_CLASSES).predict(queries * factor)
            assert np.array_equal(base, pred)


class TestIntegerCodes:
    def test_confusion_matches_per_observation_count(self):
        rng = trial_rng(MASTER_SEED, 55)
        data = synthesize_dataset(ENHANCED_CLASSES, TABLE, True, 300, 0.05, 2.0, rng)
        classifier = train(data, ENHANCED_CLASSES)
        # shuffled and interleaved test labels, with CimADD never tested
        names = data.labels
        kept = [i for i in rng.permutation(len(data)) if names[i] != "CimADD"]
        test_set = Dataset(data.features[kept], [names[i] for i in kept])
        assert test_set.classes != data.classes
        matrix, accuracy = confusion_matrix(classifier, test_set)

        pred = classifier.predict(test_set.features)
        counts = np.zeros((len(ENHANCED_CLASSES),) * 2)
        for label, p in zip(test_set.labels, pred):
            counts[classifier.classes.index(label), p] += 1.0
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

    def test_labels_round_trip(self):
        labels = ["b", "a", "b", "c", "a"]
        data = Dataset(np.arange(10.0).reshape(5, 2), labels)
        assert data.labels == tuple(labels)
        assert len(data) == 5
        assert data.classes == ("b", "a", "c")
        assert data.codes.tolist() == [0, 1, 0, 2, 1]
        coded = Dataset(data.features, data.codes, data.classes)
        assert coded.labels == data.labels and len(coded) == len(data)
        assert len(Dataset(np.zeros((0, 2)), [])) == 0

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


class TestHammingWeight:
    def _write_trace(self, word, width=16, noise=0.0, rng=None):
        trace = ExecutionTrace()
        kind, ones, zeros, cost = word_write_cost(word, width, PER_BIT, enhanced=False)
        if noise:
            from spincim import OpCost

            cost = OpCost(cost.delay_ns, max(cost.energy_fj + rng.normal(0, noise), 0.0))
        trace.record(kind, cost, Channel.BUS, ones, zeros)
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

    def test_power_trace_route(self):
        trace = self._write_trace(0xF0F0)
        power = synthesize_power_trace(trace, sample_rate=2000.0)
        assert hamming_weight_attack(power, 16) == 8

    def test_malformed_traces(self):
        empty = ExecutionTrace()
        with pytest.raises(MalformedTrace):
            hamming_weight_attack(empty, 16)
        double = ExecutionTrace()
        for _ in range(2):
            kind, ones, zeros, cost = word_write_cost(0xF0F0, 16, PER_BIT, False)
            double.record(kind, cost, Channel.BUS, ones, zeros)
        with pytest.raises(MalformedTrace):
            hamming_weight_attack(double, 16)
        with pytest.raises(MalformedTrace):
            hamming_weight_attack("not a trace", 16)

    def test_estimate_clamped(self):
        trace = ExecutionTrace()
        from spincim import OpCost

        trace.record(OpClass.WRITE1, OpCost(4.4, 1e6), Channel.BUS, 16, 0)
        assert hamming_weight_attack(trace, 16) == 16
        trace2 = ExecutionTrace()
        trace2.record(OpClass.WRITE0, OpCost(3.3, 0.0), Channel.BUS, 0, 16)
        assert hamming_weight_attack(trace2, 16) == 0

    def test_equal_write_energies_rejected(self):
        default = CostTable()
        write0 = cost_of(OpClass.WRITE0, default, enhanced=False)
        flat = CostTable(standard={**default.standard, OpClass.WRITE1: write0})
        with pytest.raises(ValueError, match="Write1 and Write0 energies are equal"):
            hamming_weight_attack(PowerTrace(1.0, np.ones(10)), 16, flat)

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
