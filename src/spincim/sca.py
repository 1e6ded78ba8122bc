"""Side-channel attacker model over (duration, energy) observations.

The attacker is a Gaussian nearest-centroid classifier with a shared diagonal
covariance: the weakest standard attacker, enough to quantify how much the
enlarged operation set and composite op+write windows degrade classification,
and to run the Hamming-weight write attack.

Observations are drawn class by class, ``PREDICT_BLOCK`` rows at a time, as (rows, 2)
normals copied into a (2, n) class of unit normals, then scaled: fits, class-major distances
and ``predict`` read contiguous columns. A sweep's levels and attackers read one stream
(common random numbers) a class at a time: memory grows with neither levels nor classes.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import analytic
from .cost import (
    STANDARD_COSTS,
    CostTable,
    ExecutionTrace,
    OpClass,
    cost_of,
    single_word_write_event,
)
from .errors import MalformedTrace, MissingClass

STANDARD_CLASSES = tuple(kind.value for kind in STANDARD_COSTS)
ENHANCED_CLASSES = tuple(op.value for op in OpClass)

# relative floor keeps zero-variance training sets classifiable and preserves
# scale consistency (the floor tracks the data scale)
_SIGMA_FLOOR_REL = 1e-9
PREDICT_BLOCK = 4096  # rows per drawn or scored block: (C, block) distances stay cache-sized


class Dataset:
    """Immutable copies of an (N, 2) feature matrix (duration, energy) and of one
    integer code into ``classes`` per row; ValueError for codes of any other dtype."""

    def __init__(self, features: np.ndarray, codes, classes: Sequence[str]):
        features, codes = np.array(features, dtype=float), np.asarray(codes)
        if codes.size and codes.dtype.kind not in "iu":
            raise ValueError(f"label codes must be integers, not {codes.dtype}")
        if features.ndim != 2 or features.shape[1] != 2:
            raise ValueError("features must be an (N, 2) array")
        if codes.shape != (len(features),):
            raise ValueError("labels and features must have equal length")
        if codes.size and not 0 <= codes.min() <= codes.max() < len(classes):
            raise ValueError("label codes must index the class names")
        if not np.isfinite(features).all():
            raise ValueError("features must be finite")
        self.features, self.codes, self.classes = features, codes.astype(np.intp), tuple(classes)
        self.features.setflags(write=False)
        self.codes.setflags(write=False)

    def __len__(self) -> int:
        return len(self.codes)


def class_centroid(name: str, table: CostTable, enhanced: bool) -> tuple[float, float]:
    cost = cost_of(OpClass(name), table, enhanced)
    return (cost.delay_ns, cost.energy_fj)


def _normals(segments, per_class, rng):
    """(segment, unit) over ``segments`` runs of ``per_class`` (rows, 2) standard normals, in
    PREDICT_BLOCK-row draws (a one-call transient raises peak RSS) into one reused contiguous
    (2, per_class) ``unit``. A stream's first rows do not depend on how many segments it has."""
    unit = np.empty((2, per_class))
    for segment in range(segments):
        for lo in range(0, per_class, PREDICT_BLOCK):
            hi = min(lo + PREDICT_BLOCK, per_class)
            unit[:, lo:hi] = rng.standard_normal((hi - lo, 2)).T
        yield segment, unit


def _observed(unit, centre, sigmas, out) -> np.ndarray:
    """``centre + sigmas * unit`` into ``out``, the bits of ``centre + rng.normal(0,
    sigma)``; ValueError for a non-finite observation."""
    with np.errstate(over="ignore"):
        cols = np.add(np.multiply(unit, np.reshape(sigmas, (2, 1)), out=out), centre, out=out)
    if not np.isfinite(cols).all():
        raise ValueError("features must be finite; sigmas {!r}, {!r} overflow".format(*sigmas))
    return cols


def synthesize_dataset(
    classes: Sequence[str], table: CostTable, enhanced: bool, samples_per_class: int,
    sigma_duration: float, sigma_energy: float, rng: np.random.Generator,
) -> Dataset:
    """Noisy observations around the cost-table centroids, class by class."""
    sigmas = (sigma_duration, sigma_energy)
    centres = np.array([class_centroid(c, table, enhanced) for c in classes])[..., None]
    feats = np.empty((len(classes), samples_per_class, 2))
    for code, unit in _normals(len(classes), samples_per_class, rng):
        _observed(unit, centres[code], sigmas, out=feats[code].T)
    return Dataset(feats.reshape(-1, 2), np.arange(len(classes)).repeat(samples_per_class), classes)


@dataclass
class CentroidClassifier:
    classes: tuple[str, ...]
    centroids: np.ndarray          # (C, 2) per-class feature means
    sigma: np.ndarray              # (2,) shared diagonal deviations

    def __post_init__(self):  # then no distance is NaN, and every row has a least one
        if not (np.isfinite(self.centroids).all() and np.isfinite(self.sigma).all()
                and (self.sigma > 0).all()):
            raise ValueError("centroids must be finite and sigma finite and positive")

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
        block = min(len(features), PREDICT_BLOCK)
        return self._nearest(features.T, np.empty((2, len(self.classes), block)))

    def _nearest(self, cols: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """``predict`` of checked (2, N) columns, PREDICT_BLOCK at a time, class-major in
        ``scratch[:, :C]``: the subtract, divide, square and add of the row-major distances,
        bit for bit, then the least distance and the lowest class index at it."""
        out, n_classes = np.empty(cols.shape[1], dtype=np.intp), len(self.centroids)
        (c_d, c_e), (s_d, s_e) = self.centroids.T[..., None], self.sigma
        # class k ranks C - k where its distance is least: the top rank is the lowest index
        ranks = np.arange(n_classes, 0, -1, dtype=np.min_scalar_type(n_classes))[:, None]
        for lo in range(0, cols.shape[1], PREDICT_BLOCK):
            block = cols[:, lo:lo + PREDICT_BLOCK]
            dist, work = scratch[:, :n_classes, :block.shape[1]]
            np.square(np.divide(np.subtract(block[0], c_d, out=dist), s_d, out=dist), out=dist)
            np.square(np.divide(np.subtract(block[1], c_e, out=work), s_e, out=work), out=work)
            least = np.minimum.reduce(np.add(dist, work, out=dist), axis=0, out=work[0])
            top = np.multiply(dist == least, ranks).max(axis=0)
            np.subtract(n_classes, top, out=out[lo:lo + PREDICT_BLOCK], dtype=np.intp)
        return out


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
    """Fit per-class means over a stable sort of the rows by class, and the
    pooled diagonal deviation from residuals added in row order. Raises
    MissingClass for an expected class without rows, ValueError for a row of no
    expected class or a non-finite deviation."""
    expected = sorted(set(dataset.classes if classes is None else classes))
    target = _codes_in(dataset.classes, dataset.codes, expected)
    counts = np.bincount(target, minlength=len(expected))
    missing = [c for c, n in zip(expected, counts) if not n]
    if missing or not expected:
        raise MissingClass(f"no observations for classes: {missing or expected}")
    cols, fit = np.ascontiguousarray(dataset.features.T), _PooledFit(len(expected))
    grouped = cols.take(np.argsort(target, kind="stable"), axis=1)
    for k, hi in enumerate(counts.cumsum().tolist()):
        fit.centre(k, grouped[:, hi - counts[k]:hi])
    fit.pool(cols, fit.centroids[target].T)
    return fit.classifier(expected, len(target))


def _rates(counts: np.ndarray, n_classes: int) -> tuple[np.ndarray, float]:
    """Row-stochastic confusion matrix and accuracy of (true, predicted) counts."""
    matrix = counts.reshape(n_classes, n_classes).astype(float)
    row_sums = matrix.sum(axis=1, keepdims=True)
    accuracy = float(np.trace(matrix) / max(counts.sum(), 1))
    return np.divide(matrix, row_sums, out=np.zeros_like(matrix), where=row_sums > 0), accuracy


class _Attacker:
    """One attacker at one noise level over a ``_normals`` stream of 2 C segments: it
    observes each segment's class in a shared (2, n) buffer, fits on the first C one
    class at a time, then counts its confusion over the next C."""

    def __init__(self, classes, table, enhanced, per_class: int, sigmas):
        self.expected = sorted(set(classes))
        if len(self.expected) < len(classes):
            raise ValueError(f"a class is named twice in {list(classes)}")
        if not per_class or not classes:
            raise MissingClass(f"no observations for classes: {self.expected}")
        self.centres = np.array([class_centroid(c, table, enhanced) for c in classes])[..., None]
        self.codes = [self.expected.index(name) for name in classes]
        self.sigmas, self.counts = sigmas, np.zeros((len(classes),) * 2, dtype=np.intp)
        self.fit, self.classifier = _PooledFit(len(classes)), None   # once the last class is fitted

    def feed(self, segment: int, unit: np.ndarray, cols: np.ndarray, scratch) -> None:
        n_classes = len(self.codes)
        if segment >= 2 * n_classes:   # past this attacker's stream
            return
        code = segment % n_classes
        cols, k = _observed(unit, self.centres[code], self.sigmas, out=cols), self.codes[code]
        if segment >= n_classes:
            nearest = self.classifier._nearest(cols, scratch)
            self.counts[k] += np.bincount(nearest, minlength=n_classes)
            return
        self.fit.pool(cols, self.fit.centre(k, cols))
        if code == n_classes - 1:   # after the last class, classify
            self.classifier = self.fit.classifier(self.expected, cols.shape[1] * n_classes)


def streamed_train(*draw) -> CentroidClassifier:
    """``train(synthesize_dataset(*draw))``, fitted as drawn: one class's rows
    are held at a time. ValueError for a class named twice."""
    classes, table, enhanced, per_class, *sigmas, rng = draw
    attacker = _Attacker(classes, table, enhanced, per_class, sigmas)
    for segment, unit in _normals(len(classes), per_class, rng):
        attacker.feed(segment, unit, unit, None)   # the only reader: observe in place
    return attacker.classifier


def score_attackers(attackers, samples_per_class: int, sigma_duration: float,
                    sweep_sigma_energy: Sequence[float], rng: np.random.Generator) -> list:
    """Per level of ``sweep_sigma_energy``, ``confusion_matrix(train(tr), te)`` of each
    ``(classes, table, enhanced)`` attacker, where ``tr`` and ``te`` are its two
    ``synthesize_dataset`` draws from ``rng``. Neither set is held, and the levels share
    their normals (common random numbers): the longest train-then-test stream of unit
    normals is drawn once, a class at a time, each attacker reads its own prefix of it
    and each level scales it, bit for bit as a one-level call on the same stream would.
    One observed class and one distance scratch serve every attacker in turn."""
    levels = [[_Attacker(*attacker, samples_per_class, (sigma_duration, sig_e))
               for attacker in attackers] for sig_e in sweep_sigma_energy]
    states = [state for level in levels for state in level]
    longest = max((2 * len(state.codes) for state in states), default=0)
    cols = np.empty((2, samples_per_class))
    scratch = np.empty((2, longest // 2, min(samples_per_class, PREDICT_BLOCK)))
    for segment, unit in _normals(longest, samples_per_class, rng):
        for state in states:
            state.feed(segment, unit, cols, scratch)
    return [[_rates(state.counts, len(state.codes)) for state in level] for level in levels]


def confusion_matrix(
    classifier: CentroidClassifier, test_set: Dataset
) -> tuple[np.ndarray, float]:
    """Row-stochastic confusion matrix over true classes, plus accuracy."""
    truth = _codes_in(test_set.classes, test_set.codes, classifier.classes)
    n_classes = len(classifier.classes)
    counts = np.bincount(truth * n_classes + classifier.predict(test_set.features),
                         minlength=n_classes**2)
    return _rates(counts, n_classes)


def hamming_weight_attack(trace: ExecutionTrace, width: int,
                          table: CostTable | None = None, enhanced: bool = False) -> int:
    """Recover the count of 1 bits in a written word from its energy.

    The trace must hold exactly one word write recorded in bit-resolved
    accounting mode, not as one whole-word Write1 or Write0 row of ``table``
    (one column excepted); anything else raises MalformedTrace. Raises
    ValueError when the table's Write1 and Write0 energies are equal.
    """
    table = table or CostTable()
    if not isinstance(trace, ExecutionTrace):
        raise MalformedTrace(f"unsupported trace type {type(trace).__name__}")
    write = single_word_write_event(trace)
    rows = [cost_of(kind, table, enhanced) for kind in (OpClass.WRITE1, OpClass.WRITE0)]
    if width > 1 and write in rows:
        raise MalformedTrace("a word write charged as one whole-word row hides its weight")
    e1, e0 = (row.energy_fj for row in rows)
    if e1 == e0:
        raise ValueError(
            "the Hamming weight cannot be seen when the Write1 and Write0 energies are equal"
        )
    estimate = math.floor((write.energy_fj - width * e0) / (e1 - e0) + 0.5)
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
        rng = np.random.default_rng((seed, level_idx))
        classifier = streamed_train(STANDARD_CLASSES, table, False, samples, sig_d, sig_e, rng)
        windows = composite + rng.normal(0.0, [sig_d, sig_e], (samples, 2))
        hits = int((classifier.predict(windows) == classifier.classes.index("Write1")).sum())
        results.append(ObscuringResult(
            sigma_duration=sig_d, sigma_energy=sig_e, samples=samples, labeled_write1=hits,
            rate=hits / samples, wilson_95_ci=analytic.wilson_interval(hits, samples)))
    return results
