"""Dataset ingestion: CSV tables, train/test splitting, synthetic data, edge lists, line files."""

from __future__ import annotations

import csv
import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, TextIO

import numpy as np

from .exceptions import ConfigError, ParseError

logger = logging.getLogger(__name__)

#: cell contents treated as a missing value
MISSING_TOKENS = ("", "?", "NA", "nan")
#: the most float64 values one numpy array can hold: numpy bounds an array's size in bytes by intp max
MAX_FLOAT64S = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


@contextmanager
def _utf8_text(path: str, **kwargs) -> Iterator[TextIO]:
    """``open(path, encoding="utf-8-sig")``; a byte that is not UTF-8 is a :class:`ParseError` naming its line.

    A leading byte-order mark is read as nothing. The text is read as it always is; only when decoding
    fails is the file read again as bytes, to find the line, numbered as the text read numbers it
    (bytes.splitlines ends a line where it does; the mark's three bytes are valid UTF-8).
    """
    with open(path, encoding="utf-8-sig", **kwargs) as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            with open(path, "rb") as raw:
                data = raw.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as err:
                line_no = len((data[:err.start] + b"x").splitlines())  # the lines up to the bad byte's own
                raise ParseError(f"{path}: line {line_no}: byte {data[err.start]:#04x} is not UTF-8 text") from None
            raise  # the file changed between the two reads


def content_lines(path: str) -> Iterator[tuple[int, str]]:
    """Yield (line number, stripped text) of each UTF-8 line that is not blank and not a '#' comment."""
    with _utf8_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if text and not text.startswith("#"):
                yield line_no, text


@dataclass
class TabularDataset:
    """Feature matrix with binary labels; normalization statistics once split."""

    X: np.ndarray  # (n, d) float64
    y: np.ndarray  # (n,) int labels in {0, 1}
    feature_names: list[str]
    feature_means: np.ndarray | None = None  # set when normalized, train statistics
    feature_stds: np.ndarray | None = None
    dropped_rows: int = 0

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def denormalized(self) -> np.ndarray:
        """Recover the raw feature values from normalized ones."""
        if self.feature_means is None or self.feature_stds is None:
            raise ValueError("dataset is not normalized")
        return self.X * self.feature_stds + self.feature_means


def load_csv(
    path: str,
    label_column: str,
    positive_label: str,
    drop_columns: tuple[str, ...] = (),
) -> TabularDataset:
    """Load a headered CSV of numeric features plus one label column.

    Labels equal to ``positive_label`` (string comparison on the raw cell)
    map to 1, everything else to 0. Rows containing a missing value
    (empty, '?', 'NA', 'nan') are dropped and counted in ``dropped_rows``.
    Any other feature cell that is not a finite number, and a byte that is
    not UTF-8, is a :class:`ParseError`.
    """
    with _utf8_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [c.strip() for c in next(reader)]
        except StopIteration:
            raise ParseError(f"{path}: empty file, expected a header row") from None
        if label_column not in header:
            raise ParseError(f"{path}: label column {label_column!r} not in header {header}")
        label_idx = header.index(label_column)
        skip = {label_idx} | {header.index(c) for c in drop_columns if c in header}
        feature_idx = [i for i in range(len(header)) if i not in skip]
        feature_names = [header[i] for i in feature_idx]

        checked = feature_idx + [label_idx]  # a missing token in any of these drops the row
        rows: list[list[float]] = []
        labels: list[int] = []
        dropped = 0
        for row_no, row in enumerate(reader, start=2):
            cells = [c.strip() for c in row]
            if not any(cells):
                continue
            if len(cells) != len(header):
                raise ParseError(f"{path}: row {row_no}: expected {len(header)} cells, got {len(cells)}")
            if any(cells[i] in MISSING_TOKENS for i in checked):
                dropped += 1
                continue
            rows.append(_features(path, row_no, header, cells, feature_idx))
            labels.append(1 if cells[label_idx] == positive_label else 0)

    if dropped:
        logger.info("dropped %d rows with missing values from %s", dropped, path)
    if not rows:
        logger.warning("%s contains no data rows", path)
    X = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(feature_names))
    return TabularDataset(X=X, y=np.asarray(labels, dtype=int), feature_names=feature_names, dropped_rows=dropped)


def _features(path: str, row_no: int, header: list[str], cells: list[str], columns: list[int]) -> list[float]:
    """The numbers in one row's feature cells; a cell that is not a finite number is a ParseError
    that names its row and column ('nan' never gets here: it is a missing token)."""
    try:
        values = [float(cells[i]) for i in columns]
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    for i in columns:  # find the first bad cell, to name it
        where = f"{path}: row {row_no}, column {header[i]!r}"
        try:
            value = float(cells[i])
        except ValueError:
            raise ParseError(f"{where}: non-numeric cell {cells[i]!r}") from None
        if not math.isfinite(value):
            raise ParseError(f"{where}: non-finite cell {cells[i]!r}")


def train_test_split(
    dataset: TabularDataset, test_fraction: float, seed: int
) -> tuple[TabularDataset, TabularDataset]:
    """Random split with ceil(n * test_fraction) test rows, deterministic per seed.

    A split that leaves no training row is refused. Feature normalization
    statistics (mean, population std) are computed on the training rows and
    applied to both splits; constant columns fall back to std = 1.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n_test = math.ceil(dataset.n * test_fraction)
    if dataset.n - n_test < 1:
        raise ValueError(f"{dataset.n} data row(s) leave no training row at test_fraction {test_fraction}")
    perm = np.random.default_rng(seed).permutation(dataset.n)
    test_idx, train_idx = perm[:n_test], perm[n_test:]

    means = dataset.X[train_idx].mean(axis=0)
    stds = dataset.X[train_idx].std(axis=0)
    stds = np.where(stds == 0.0, 1.0, stds)

    def subset(idx: np.ndarray) -> TabularDataset:
        return TabularDataset(
            X=(dataset.X[idx] - means) / stds,
            y=dataset.y[idx].copy(),
            feature_names=list(dataset.feature_names),
            feature_means=means.copy(),
            feature_stds=stds.copy(),
        )

    return subset(train_idx), subset(test_idx)


def generate_toy_data(d_z: int, theta_true: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw latents z_i ~ N(theta_true, 1) and observations x_i ~ N(z_i, 1).

    Returns (x, z); deterministic per seed. Bad parameters raise one ConfigError.
    """
    problems = []
    if not 1 <= d_z <= MAX_FLOAT64S:
        problems.append(f"toy_dim (d_z) must be >= 1 and at most {MAX_FLOAT64S}, got {d_z}")
    if not math.isfinite(theta_true):
        problems.append(f"theta_true must be finite, got {theta_true}")
    if problems:
        raise ConfigError(problems)
    rng = np.random.default_rng(seed)
    z = theta_true + rng.standard_normal(d_z)
    x = z + rng.standard_normal(d_z)
    return x, z


@dataclass
class AdjacencyNetwork:
    """Undirected simple graph as a deduplicated set of node-index pairs."""

    n: int
    edges: set[tuple[int, int]]  # (i, j) with i < j
    node_labels: list[str] = field(default_factory=list)
    dropped_self_loops: int = 0

    def to_adjacency(self) -> np.ndarray:
        """Dense symmetric 0/1 matrix with empty diagonal."""
        Y = np.zeros((self.n, self.n))
        for i, j in self.edges:
            Y[i, j] = Y[j, i] = 1.0
        return Y

    def degrees(self) -> np.ndarray:
        return self.to_adjacency().sum(axis=1).astype(int)


def load_edgelist(path: str, labels_path: str | None = None) -> AdjacencyNetwork:
    """Read 'u v' lines (whitespace- or comma-separated) into a network.

    Node names are arbitrary tokens, mapped to indices in sorted-name order.
    Duplicate edges are merged; self-loops are dropped with a warning and
    counted. Blank lines and lines starting with '#' are skipped; a file that
    yields no edge between distinct nodes is a :class:`ParseError`. An optional
    labels file of 'name display-label' lines overrides display labels.
    """
    pairs: list[tuple[str, str]] = []
    for line_no, text in content_lines(path):
        tokens = text.replace(",", " ").split()
        if len(tokens) != 2:
            raise ParseError(f"{path}: line {line_no}: expected two node tokens, got {tokens!r}")
        pairs.append((tokens[0], tokens[1]))

    names = sorted({name for pair in pairs for name in pair})
    index = {name: i for i, name in enumerate(names)}
    edges: set[tuple[int, int]] = set()
    self_loops = 0
    for u, v in pairs:
        if u == v:
            self_loops += 1
            continue
        i, j = index[u], index[v]
        edges.add((min(i, j), max(i, j)))
    if self_loops:
        logger.warning("dropped %d self-loop(s) while reading %s", self_loops, path)
    if not edges:
        raise ParseError(f"{path}: no edge between two distinct nodes ({self_loops} self-loop(s) dropped)")

    labels = list(names)
    if labels_path is not None:
        mapping: dict[str, str] = {}
        for line_no, text in content_lines(labels_path):
            tokens = text.split(None, 1)
            if len(tokens) != 2:
                raise ParseError(f"{labels_path}: line {line_no}: expected 'name label', got {text!r}")
            mapping[tokens[0]] = tokens[1]
        labels = [mapping.get(name, name) for name in names]

    return AdjacencyNetwork(
        n=len(names), edges=edges, node_labels=labels, dropped_self_loops=self_loops
    )
