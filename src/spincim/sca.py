"""Side-channel attacker model over (duration, energy) observations.

The attacker is a Gaussian nearest-centroid classifier with a shared diagonal
covariance: the weakest standard attacker, enough to quantify how much the
enlarged operation set and composite op+write windows degrade classification,
and to run the Hamming-weight write attack.

Observations are drawn class by class, ``PREDICT_BLOCK`` rows at a time. The
sweep fits on one class's rows at a time and scores block by block, so its
memory grows with one class, not with a training set or the class count.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from . import analytic
from .cost import (
    STANDARD_COSTS,
    CostTable,
    ExecutionTrace,
    OpClass,
    PowerTrace,
    cost_of,
    single_word_write_event,
    write_csv,
)
from .device import trial_rng
from .errors import MalformedTrace, MissingClass

STANDARD_CLASSES = tuple(kind.value for kind in STANDARD_COSTS)
ENHANCED_CLASSES = tuple(op.value for op in OpClass)

# relative floor keeps zero-variance training sets classifiable and preserves
# scale consistency (the floor tracks the data scale)
_SIGMA_FLOOR_REL = 1e-9
PREDICT_BLOCK = 4096  # rows per drawn or scored block: (block, C) distances stay cache-sized


@dataclass(frozen=True)
class LabeledObservation:
    duration_ns: float
    energy_fj: float
    label: str


class Dataset:
    """Immutable (N, 2) feature matrix (duration, energy) with class labels.

    ``labels`` are names, or integer codes into ``classes`` when that is given.
    """

    def __init__(self, features: np.ndarray, labels, classes: Sequence[str] | None = None):
        if classes is None:
            classes = tuple(dict.fromkeys(labels))
            labels = [classes.index(label) for label in labels]
        features = np.asarray(features, dtype=float)
        codes = np.asarray(labels, dtype=np.intp)
        if features.ndim != 2 or features.shape[1] != 2:
            raise ValueError("features must be an (N, 2) array")
        if codes.shape != (len(features),):
            raise ValueError("labels and features must have equal length")
        if codes.size and not 0 <= codes.min() <= codes.max() < len(classes):
            raise ValueError("label codes must index the class names")
        if not np.isfinite(features).all():
            raise ValueError("features must be finite")
        self.features, self.codes, self.classes = features, codes, tuple(classes)
        self.features.setflags(write=False)
        self.codes.setflags(write=False)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.classes[k] for k in self.codes.tolist())

    @classmethod
    def from_observations(cls, observations: Iterable[LabeledObservation]) -> "Dataset":
        obs = list(observations)
        feats = np.array([[o.duration_ns, o.energy_fj] for o in obs], dtype=float)
        return cls(feats.reshape(-1, 2), [o.label for o in obs])

    def __len__(self) -> int:
        return len(self.codes)

    def to_csv(self, target) -> None:
        write_csv(target, ["duration_ns", "energy_fJ", "label"], (
            [repr(float(d)), repr(float(e)), label]
            for (d, e), label in zip(self.features, self.labels)
        ))


def class_centroid(name: str, table: CostTable, enhanced: bool) -> tuple[float, float]:
    cost = cost_of(OpClass(name), table, enhanced)
    return (cost.delay_ns, cost.energy_fj)


def _observations(classes, table, enhanced, samples_per_class, sigma_duration, sigma_energy, rng):
    """``synthesize_dataset``'s rows as (class index, at most PREDICT_BLOCK rows):
    scaled standard normals plus the class centre, the bits of ``centre +
    rng.normal(0, sigma)`` whatever the block; ValueError for a non-finite row."""
    for code, name in enumerate(classes):
        centre = class_centroid(name, table, enhanced)
        for lo in range(0, samples_per_class, PREDICT_BLOCK):
            rows = rng.standard_normal((min(PREDICT_BLOCK, samples_per_class - lo), 2))
            with np.errstate(over="ignore"):
                rows *= (sigma_duration, sigma_energy)
                rows += centre
            if not np.isfinite(rows).all():
                raise ValueError(f"features must be finite; sigmas {sigma_duration!r}, "
                                 f"{sigma_energy!r} overflow")
            yield code, rows


def synthesize_dataset(
    classes: Sequence[str], table: CostTable, enhanced: bool, samples_per_class: int,
    sigma_duration: float, sigma_energy: float, rng: np.random.Generator,
) -> Dataset:
    """Noisy observations around the cost-table centroids, class by class."""
    feats, filled = np.empty((len(classes) * samples_per_class, 2)), 0
    for _, rows in _observations(classes, table, enhanced, samples_per_class,
                                 sigma_duration, sigma_energy, rng):
        feats[filled:filled + len(rows)] = rows
        filled += len(rows)
    return Dataset(feats, np.repeat(np.arange(len(classes)), samples_per_class), classes)


@dataclass
class CentroidClassifier:
    classes: tuple[str, ...]
    centroids: np.ndarray          # (C, 2) per-class feature means
    sigma: np.ndarray              # (2,) shared diagonal deviations

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Index of the nearest centroid under the shared diagonal metric.

        Takes (N, 2) rows or one (2,) observation; ValueError for any other
        shape or a non-finite row. Runs in blocks of ``PREDICT_BLOCK`` rows.
        """
        features = np.asarray(features, dtype=float)
        features = features[None] if features.shape == (2,) else features
        if features.ndim != 2 or features.shape[1] != 2:
            raise ValueError(f"features must be (N, 2) rows, got shape {features.shape}")
        finite = np.isfinite(features).all(axis=1)
        if not finite.all():
            raise ValueError(f"features must be finite; row {int(finite.argmin())} is not")
        out = np.empty(len(features), dtype=np.intp)
        for lo in range(0, len(features), PREDICT_BLOCK):
            self._nearest(features[lo:lo + PREDICT_BLOCK], out[lo:lo + PREDICT_BLOCK])
        return out

    def _nearest(self, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``predict`` of one checked block: two (rows, C) temporaries."""
        (c_d, c_e), (s_d, s_e) = self.centroids.T, self.sigma
        dist = ((rows[:, :1] - c_d) / s_d) ** 2 + ((rows[:, 1:] - c_e) / s_e) ** 2
        return dist.argmin(axis=1, out=out)


def _codes_in(names: Sequence[str], codes: np.ndarray, classes: Sequence[str]) -> np.ndarray:
    """Each code into ``names`` as an index into ``classes``; ValueError if none."""
    index = {c: k for k, c in enumerate(classes)}
    remap = np.array([index.get(c, -1) for c in names], dtype=np.intp)
    mapped = remap[codes]
    if (mapped < 0).any():
        unknown = names[codes[mapped.argmin()]]
        raise ValueError(f"label {unknown!r} is not one of the classes {list(classes)}")
    return mapped


class _PooledFit:
    """Class means and the pooled diagonal deviation, fitted one class of (2, n)
    column-major rows at a time. Sums add rows in order (``np.add.accumulate``)
    like numpy's axis-0 sum of a C-contiguous (n, 2) array, which the reports'
    bytes depend on; identical rows average to themselves exactly."""

    def __init__(self, n_classes: int):
        self.centroids, self.sum_sq = np.empty((n_classes, 2)), np.zeros(2)
        self.lo, self.hi = np.full(2, np.inf), np.full(2, -np.inf)

    def centre(self, k: int, cols: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            mean = np.add.accumulate(cols, axis=1)[:, -1] / cols.shape[1]
        self.centroids[k] = np.where((cols == cols[:, :1]).all(1), cols[:, 0], mean)
        return self.centroids[k][:, None]

    def pool(self, cols: np.ndarray, centres: np.ndarray) -> None:
        """Add the squared residuals from (2, 1) or per-row (2, n) centres, in order."""
        terms = np.hstack((self.sum_sq[:, None], cols))
        with np.errstate(over="ignore"):
            np.square(np.subtract(terms[:, 1:], centres, out=terms[:, 1:]), out=terms[:, 1:])
            self.sum_sq = np.add.accumulate(terms, axis=1, out=terms)[:, -1].copy()
        self.lo, self.hi = np.minimum(self.lo, cols.min(1)), np.maximum(self.hi, cols.max(1))

    def classifier(self, classes: list[str], n_rows: int) -> CentroidClassifier:
        var = self.sum_sq / max(n_rows - len(classes), 1)
        with np.errstate(over="ignore"):
            spread = self.hi - self.lo
        # no spread: every row equals the first, so |lo| is its magnitude
        floor = np.where(spread > 0, spread, np.maximum(np.abs(self.lo), 1.0))
        sigma = np.maximum(np.sqrt(var), _SIGMA_FLOOR_REL * floor)
        if not np.isfinite(sigma).all():
            raise ValueError(f"the pooled deviation is not finite: {sigma.tolist()}")
        return CentroidClassifier(tuple(classes), self.centroids, sigma)


def train(dataset: Dataset, classes: Sequence[str] | None = None) -> CentroidClassifier:
    """Fit per-class means and the pooled diagonal deviation: run by run when
    each class is one run of rows, as ``streamed_train`` fits a draw, else over
    a stable sort, pooling residuals in row order. Raises MissingClass for an
    expected class without rows, ValueError for a row of no expected class or a
    non-finite deviation."""
    expected = sorted(set(dataset.classes if classes is None else classes))
    target = _codes_in(dataset.classes, dataset.codes, expected)
    counts = np.bincount(target, minlength=len(expected))
    missing = [c for c, n in zip(expected, counts) if not n]
    if missing or not expected:
        raise MissingClass(f"no observations for classes: {missing or expected}")
    starts = (np.flatnonzero(target[1:] != target[:-1]) + 1).tolist()
    cols, fit = np.ascontiguousarray(dataset.features.T), _PooledFit(len(expected))
    if len(starts) == len(expected) - 1:   # one run per class: grouped as they stand
        for lo, hi in zip([0, *starts], [*starts, len(target)]):
            fit.pool(cols[:, lo:hi], fit.centre(target[lo], cols[:, lo:hi]))
    else:
        grouped = cols.take(np.argsort(target, kind="stable"), axis=1)
        for k, hi in enumerate(counts.cumsum().tolist()):
            fit.centre(k, grouped[:, hi - counts[k]:hi])
        fit.pool(cols, fit.centroids[target].T)
    return fit.classifier(expected, len(target))


def streamed_train(*draw) -> CentroidClassifier:
    """``train(synthesize_dataset(*draw))``, fitted as drawn: one class's rows
    are held at a time. ValueError for a class named twice."""
    classes, per_class = draw[0], draw[3]
    expected = sorted(set(classes))
    if len(expected) < len(classes):
        raise ValueError(f"a class is named twice in {list(classes)}")
    if not per_class or not expected:
        raise MissingClass(f"no observations for classes: {expected}")
    fit, buffer, filled = _PooledFit(len(expected)), np.empty((2, per_class)), 0
    for code, rows in _observations(*draw):
        buffer[:, filled:filled + len(rows)] = rows.T
        filled = (filled + len(rows)) % per_class
        if not filled:
            fit.pool(buffer, fit.centre(expected.index(classes[code]), buffer))
    return fit.classifier(expected, per_class * len(classes))


def _confusion(classifier: CentroidClassifier, blocks) -> tuple[np.ndarray, float]:
    """Confusion matrix and accuracy over checked (true codes, rows) blocks."""
    n_classes, total = len(classifier.classes), 0
    counts = np.zeros(n_classes**2, dtype=np.intp)
    for truth, rows in blocks:
        counts += np.bincount(truth * n_classes + classifier._nearest(rows),
                              minlength=n_classes**2)
        total += len(rows)
    matrix = counts.reshape(n_classes, n_classes).astype(float)
    row_sums = matrix.sum(axis=1, keepdims=True)
    accuracy = float(np.trace(matrix) / max(total, 1))
    matrix = np.divide(matrix, row_sums, out=np.zeros_like(matrix), where=row_sums > 0)
    return matrix, accuracy


def confusion_matrix(
    classifier: CentroidClassifier, test_set: Dataset
) -> tuple[np.ndarray, float]:
    """Row-stochastic confusion matrix over true classes, plus accuracy."""
    truth = _codes_in(test_set.classes, test_set.codes, classifier.classes)
    feats = test_set.features
    blocks = ((truth[lo:lo + PREDICT_BLOCK], feats[lo:lo + PREDICT_BLOCK])
              for lo in range(0, len(test_set), PREDICT_BLOCK))
    return _confusion(classifier, blocks)


def streamed_confusion_matrix(classifier: CentroidClassifier, *draw) -> tuple[np.ndarray, float]:
    """``confusion_matrix`` of ``synthesize_dataset(*draw)``, drawn and scored
    block by block, so the test set is never held whole."""
    truth = _codes_in(draw[0], np.arange(len(draw[0])), classifier.classes)
    return _confusion(classifier, ((truth[code], rows) for code, rows in _observations(*draw)))


def hamming_weight_attack(trace: ExecutionTrace | PowerTrace, width: int,
                          table: CostTable | None = None, enhanced: bool = False) -> int:
    """Recover the count of 1 bits in a written word from its energy.

    The trace must hold exactly one word write recorded in bit-resolved
    accounting mode; a power trace is integrated in full instead. Raises
    ValueError when the table's Write1 and Write0 energies are equal.
    """
    table = table or CostTable()
    if isinstance(trace, ExecutionTrace):
        energy = single_word_write_event(trace).energy_fj
    elif isinstance(trace, PowerTrace):
        energy = trace.integrate()
    else:
        raise MalformedTrace(f"unsupported trace type {type(trace).__name__}")
    e1 = cost_of(OpClass.WRITE1, table, enhanced).energy_fj
    e0 = cost_of(OpClass.WRITE0, table, enhanced).energy_fj
    if e1 == e0:
        raise ValueError(
            "the Hamming weight cannot be seen when the Write1 and Write0 energies are equal"
        )
    estimate = math.floor((energy - width * e0) / (e1 - e0) + 0.5)
    return min(max(estimate, 0), width)


def composite_window(table: CostTable | None = None) -> tuple[float, float]:
    """Feature point of an in-memory add fused with a following Write 0."""
    table = table or CostTable()
    add = cost_of(OpClass.CIM_ADD, table, enhanced=True)
    w0 = cost_of(OpClass.WRITE0, table, enhanced=True)
    return (add.delay_ns + w0.delay_ns, add.energy_fj + w0.energy_fj)


@dataclass(frozen=True)
class ObscuringResult:
    sigma_duration: float
    sigma_energy: float
    samples: int
    labeled_write1: int
    rate: float
    wilson_95_ci: tuple[float, float]

    as_dict = asdict


def obscuring_experiment(noise_levels: Sequence[tuple[float, float]], samples: int, seed: int,
                         table: CostTable | None = None) -> list[ObscuringResult]:
    """Rate at which a {Cim op + Write 0} window is read as a Write 1.

    For each (sigma_duration, sigma_energy) level, trains the standard
    four-class attacker on noisy observations and classifies equally noisy
    composite windows.
    """
    table = table or CostTable()
    composite = np.asarray(composite_window(table))
    results = []
    for level_idx, (sig_d, sig_e) in enumerate(noise_levels):
        rng = trial_rng(seed, level_idx)
        classifier = streamed_train(STANDARD_CLASSES, table, False, samples, sig_d, sig_e, rng)
        windows = composite + rng.normal(0.0, [sig_d, sig_e], (samples, 2))
        hits = int((classifier.predict(windows) == classifier.classes.index("Write1")).sum())
        results.append(ObscuringResult(
            sigma_duration=sig_d, sigma_energy=sig_e, samples=samples, labeled_write1=hits,
            rate=hits / samples, wilson_95_ci=analytic.wilson_interval(hits, samples)))
    return results
