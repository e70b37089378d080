"""Dataset ingestion: LIBSVM text format and seeded synthetic generators.

The parser accepts `label idx:val idx:val ...` lines with 1-based feature
indices, tolerates blank lines and `#` comments, and reports malformed input,
including a nan or inf label or value, with its line number. Binary labels
are normalized to -1/+1 at load; label sets with more than two values are
kept as-is for the multitask construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .operators import as_csr, integer, optional, require

__all__ = ["DatasetHandle", "ParseError", "read_libsvm", "write_libsvm", "synth_dataset"]


class ParseError(ValueError):
    def __init__(self, path, line_number, message):
        self.path = str(path)
        self.line_number = line_number
        super().__init__(f"{path}:{line_number}: {message}")


@dataclass(eq=False)
class DatasetHandle:
    matrix: sp.csr_matrix
    labels: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def p(self) -> int:
        return self.matrix.shape[1]

    @property
    def nnz(self) -> int:
        return int(self.matrix.nnz)


def _normalize_labels(labels: np.ndarray) -> np.ndarray:
    values = np.unique(labels)
    if values.size > 2:
        return labels  # multiclass, mapped one-vs-all by the multitask model
    if set(values.tolist()) <= {-1.0, 1.0}:
        return labels
    if values.size == 1:
        return labels
    lo, hi = values
    return np.where(labels == hi, 1.0, -1.0)


def read_libsvm(path, num_features=None) -> DatasetHandle:
    """Parse a LIBSVM text file into a CSR matrix plus labels.

    Feature count defaults to the largest index seen; pass num_features to
    widen it (it may not be smaller, and it must be an integer). An empty
    file is an error.
    """
    require("num_features", num_features, optional(integer(0)))
    labels = []
    indptr = [0]
    indices = []
    values = []
    max_index = 0
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError:
                raise ParseError(path, lineno, f"bad label field {parts[0]!r}")
            if not math.isfinite(label):
                raise ParseError(path, lineno, f"label {parts[0]!r} is not finite")
            labels.append(label)
            prev = 0
            for token in parts[1:]:
                idx_str, _, val_str = token.partition(":")
                try:
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError:
                    raise ParseError(path, lineno, f"bad feature token {token!r}")
                if not math.isfinite(val):
                    raise ParseError(path, lineno, f"feature value in {token!r} is not finite")
                if idx < 1:
                    raise ParseError(path, lineno, f"feature index {idx} is not 1-based")
                if idx <= prev:
                    raise ParseError(
                        path, lineno,
                        f"feature indices must be strictly increasing, saw {idx} after {prev}",
                    )
                prev = idx
                indices.append(idx - 1)
                values.append(val)
                max_index = max(max_index, idx)
            indptr.append(len(indices))
    if not labels:
        raise ParseError(path, 0, "dataset is empty")
    p = max_index if num_features is None else num_features
    if p < max_index:
        raise ValueError(f"num_features={p} is below the largest index seen ({max_index})")
    matrix = sp.csr_matrix(
        (np.asarray(values, dtype=np.float64),
         np.asarray(indices, dtype=np.int64),
         np.asarray(indptr, dtype=np.int64)),
        shape=(len(labels), p),
    )
    matrix.sort_indices()
    return DatasetHandle(matrix, _normalize_labels(np.asarray(labels, dtype=np.float64)))


def write_libsvm(handle: DatasetHandle, path) -> None:
    """Write in LIBSVM text form with 1-based indices; roundtrip-exact values."""
    m = handle.matrix
    with open(path, "w") as fh:
        for i in range(handle.n):
            lo, hi = m.indptr[i], m.indptr[i + 1]
            feats = " ".join(
                f"{j + 1}:{v:.17g}" for j, v in zip(m.indices[lo:hi], m.data[lo:hi])
            )
            label = f"{handle.labels[i]:.17g}"
            fh.write(f"{label} {feats}\n" if feats else f"{label}\n")


def synth_dataset(seed, n, p, sparsity=0.5, model="logistic", noise=0.1):
    """Seeded synthetic problem with a piecewise-constant sparse ground truth.

    The truth vector is built from max(1, p // 10) contiguous segments, cut
    at random, whose values are zero with probability `sparsity` (0 means
    every segment is drawn, so the truth is dense). Features are standard
    Gaussian; labels follow the generative model of the chosen loss. n and p
    must be integers >= 1. Returns (handle, {"x_true": truth vector}).
    """
    require("n", n, integer(1))
    require("p", p, integer(1))
    if not (0.0 <= sparsity <= 1.0):
        raise ValueError("sparsity must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    n_pieces = max(1, p // 10)
    if n_pieces > 1:
        cuts = np.sort(rng.choice(np.arange(1, p), size=n_pieces - 1, replace=False))
        bounds = np.concatenate([[0], cuts, [p]])
    else:
        bounds = np.array([0, p])
    x_true = np.zeros(p)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if rng.random() >= sparsity:
            x_true[lo:hi] = rng.normal(0.0, 1.0)

    features = rng.standard_normal((n, p))
    scores = features @ x_true
    if model == "logistic":
        labels = np.where(rng.random(n) < expit(scores), 1.0, -1.0)
    elif model == "least-squares":
        labels = scores + noise * rng.standard_normal(n)
    else:
        raise ValueError(f"unknown generative model {model!r}")

    return DatasetHandle(as_csr(features), labels), {"x_true": x_true}
