"""Side-channel attacker model over (duration, energy) observations.

The attacker is a Gaussian nearest-centroid classifier with a shared diagonal
covariance: the weakest standard attacker, enough to quantify how much the
enlarged operation set and composite op+write windows degrade classification,
and to run the Hamming-weight write attack.
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
PREDICT_BLOCK = 4096  # rows per predict block: (block, C) distances stay cache-sized


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


def synthesize_dataset(
    classes: Sequence[str],
    table: CostTable,
    enhanced: bool,
    samples_per_class: int,
    sigma_duration: float,
    sigma_energy: float,
    rng: np.random.Generator,
) -> Dataset:
    """Noisy observations around the cost-table centroids, class by class.

    Built in place: scaled standard normals plus each class centre, the bits
    of ``centre + rng.normal(0, sigma)``, which draws the same normals.
    """
    centres = np.array([class_centroid(name, table, enhanced) for name in classes])
    codes = np.repeat(np.arange(len(classes)), samples_per_class)
    feats = rng.standard_normal((len(codes), 2))
    feats *= (sigma_duration, sigma_energy)
    blocks = feats.reshape(len(classes), samples_per_class, 2)
    blocks += centres.reshape(-1, 1, 2)
    return Dataset(feats, codes, classes)


@dataclass
class CentroidClassifier:
    classes: tuple[str, ...]
    centroids: np.ndarray          # (C, 2) per-class feature means
    sigma: np.ndarray              # (2,) shared diagonal deviations

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Index of the nearest centroid under the shared diagonal metric.

        Runs in blocks of ``PREDICT_BLOCK`` rows: two (block, C) temporaries at most.
        """
        features = np.atleast_2d(np.asarray(features, dtype=float))
        (c_d, c_e), (s_d, s_e) = self.centroids.T, self.sigma
        out = np.empty(len(features), dtype=np.intp)
        for lo in range(0, len(features), PREDICT_BLOCK):
            rows = features[lo:lo + PREDICT_BLOCK]
            dist = ((rows[:, :1] - c_d) / s_d) ** 2 + ((rows[:, 1:] - c_e) / s_e) ** 2
            dist.argmin(axis=1, out=out[lo:lo + PREDICT_BLOCK])
        return out

    def predict_labels(self, features: np.ndarray) -> list[str]:
        return [self.classes[i] for i in self.predict(features)]

    def _pairs(self) -> list[tuple[str, str, float]]:
        """Every class pair, in order, with its centroids' Euclidean distance."""
        return [
            (a, b, float(np.linalg.norm(self.centroids[i] - self.centroids[j])))
            for i, a in enumerate(self.classes)
            for j, b in enumerate(self.classes[i + 1:], start=i + 1)
        ]

    def min_centroid_distance(self) -> tuple[float, tuple[str, str]]:
        """Smallest pairwise Euclidean distance between class centroids."""
        a, b, d = min(self._pairs(), key=lambda p: p[2],
                      default=(self.classes[0], self.classes[0], math.inf))
        return d, (a, b)

    def ill_separated_pairs(self, min_distance: float) -> list[tuple[str, str, float]]:
        """Class pairs whose centroids sit closer than ``min_distance``."""
        return [p for p in self._pairs() if p[2] < min_distance]


def _codes_in(dataset: Dataset, classes: Sequence[str]) -> np.ndarray:
    """Each observation's index into ``classes``; ValueError if one has none."""
    index = {c: k for k, c in enumerate(classes)}
    remap = np.array([index.get(c, -1) for c in dataset.classes], dtype=np.intp)
    codes = remap[dataset.codes]
    if (codes < 0).any():
        unknown = dataset.classes[dataset.codes[codes.argmin()]]
        raise ValueError(f"label {unknown!r} is not one of the classes {list(classes)}")
    return codes


def train(
    dataset: Dataset, classes: Sequence[str] | None = None
) -> CentroidClassifier:
    """Fit per-class means and the pooled diagonal deviation.

    Column by column, one stable sort groups each class's rows in their order.
    Sums add rows in order (``np.add.accumulate``) like numpy's axis-0 sum of a
    C-contiguous (n, 2) array; the reports' bytes depend on it (a 1-D ``sum``
    adds pairwise). Identical rows average to themselves exactly. Raises
    MissingClass for an expected class without rows, ValueError for a row
    of no expected class.
    """
    expected = sorted(set(dataset.classes if classes is None else classes))
    target = _codes_in(dataset, expected)
    counts = np.bincount(target, minlength=len(expected))
    missing = [c for c, n in zip(expected, counts) if not n]
    if missing or not expected:
        raise MissingClass(f"no observations for classes: {missing or expected}")
    order = np.argsort(target, kind="stable")
    bounds = list(zip((counts.cumsum() - counts).tolist(), counts.cumsum().tolist()))
    cols = np.asfortranarray(dataset.features)
    centroids, var = np.empty((len(expected), 2)), np.empty(2)
    for j, col in enumerate(cols.T):
        grouped = col.take(order)
        for k, (lo, hi) in enumerate(bounds):
            sub = grouped[lo:hi]
            same = sub[-1] == sub[0] and (sub == sub[0]).all()
            centroids[k, j] = sub[0] if same else np.add.accumulate(sub)[-1] / (hi - lo)
        resid = col - centroids[:, j].take(target)
        var[j] = np.add.accumulate(resid * resid)[-1]
    var /= max(len(dataset) - len(expected), 1)
    spread = cols.max(axis=0) - cols.min(axis=0)
    floor = _SIGMA_FLOOR_REL * np.where(
        spread > 0, spread, np.maximum(np.abs(cols).max(axis=0), 1.0)
    )
    sigma = np.maximum(np.sqrt(var), floor)
    return CentroidClassifier(tuple(expected), centroids, sigma)


def confusion_matrix(
    classifier: CentroidClassifier, test_set: Dataset
) -> tuple[np.ndarray, float]:
    """Row-stochastic confusion matrix over true classes, plus accuracy."""
    truth = _codes_in(test_set, classifier.classes)
    pred = classifier.predict(test_set.features)
    n_classes = len(classifier.classes)
    counts = np.bincount(truth * n_classes + pred, minlength=n_classes**2)
    matrix = counts.reshape(n_classes, n_classes).astype(float)
    row_sums = matrix.sum(axis=1, keepdims=True)
    accuracy = float(np.trace(matrix) / max(len(test_set), 1))
    matrix = np.divide(matrix, row_sums, out=np.zeros_like(matrix), where=row_sums > 0)
    return matrix, accuracy


def hamming_weight_attack(
    trace: ExecutionTrace | PowerTrace,
    width: int,
    table: CostTable | None = None,
    enhanced: bool = False,
) -> int:
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


def obscuring_experiment(
    noise_levels: Sequence[tuple[float, float]],
    samples: int,
    seed: int,
    table: CostTable | None = None,
) -> list[ObscuringResult]:
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
        train_set = synthesize_dataset(
            STANDARD_CLASSES, table, False, samples, sig_d, sig_e, rng
        )
        classifier = train(train_set, STANDARD_CLASSES)
        windows = composite + rng.normal(0.0, [sig_d, sig_e], (samples, 2))
        pred = classifier.predict(windows)
        write1 = classifier.classes.index("Write1")
        hits = int((pred == write1).sum())
        results.append(
            ObscuringResult(
                sigma_duration=sig_d,
                sigma_energy=sig_e,
                samples=samples,
                labeled_write1=hits,
                rate=hits / samples,
                wilson_95_ci=analytic.wilson_interval(hits, samples),
            )
        )
    return results
