"""Base classes and registries for the algorithm library.

The paper wraps "approximately 75 different algorithms, primarily classifiers,
clustering algorithms and association rules" behind three service families.
Each algorithm here subclasses :class:`Classifier`, :class:`Clusterer` or
:class:`AssociationLearner`; a module-level registry maps public names to
classes so the services can implement ``getClassifiers`` / ``getOptions`` by
introspection alone.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping, Type

import numpy as np

from repro.data.dataset import Dataset
from repro.data.instance import Instance
from repro.errors import DataError, NotFittedError, OptionError
from repro.ml.options import OptionSpec, resolve_options


class _Configurable:
    """Shared option plumbing: subclasses declare ``OPTIONS``."""

    OPTIONS: tuple[OptionSpec, ...] = ()

    def __init__(self, **options: Any):
        self.options = resolve_options(self.OPTIONS, options)

    def opt(self, name: str) -> Any:
        """Value of option *name* (validated, default-filled)."""
        try:
            return self.options[name]
        except KeyError:
            raise OptionError(
                f"{type(self).__name__} has no option {name!r}") from None

    @classmethod
    def describe_options(cls) -> list[dict[str, Any]]:
        """The ``getOptions`` payload for this algorithm."""
        return [spec.describe() for spec in cls.OPTIONS]


def _row_indices(indices: Iterable[int]) -> np.ndarray:
    """*indices* as an ``intp`` array for one numpy gather: no copy for
    an integer array, one C-level conversion for a list."""
    if not isinstance(indices, (np.ndarray, list, tuple, range)):
        indices = list(indices)
    return np.asarray(indices, dtype=np.intp)


class Classifier(_Configurable):
    """A supervised learner over a dataset with a nominal class attribute.

    Lifecycle: construct with options → :meth:`fit` → :meth:`distribution` /
    :meth:`predict_instance` / :meth:`predict`.  ``to_text()`` renders the
    model the way the paper's services return "a textual output specifying
    the classification decision tree".
    """

    def __init__(self, **options: Any):
        super().__init__(**options)
        self._header: Dataset | None = None

    # -- to be provided by subclasses ---------------------------------------
    def _fit(self, dataset: Dataset) -> None:
        raise NotImplementedError

    def _distribution(self, instance: Instance) -> np.ndarray:
        raise NotImplementedError

    def model_text(self) -> str:
        """Subclass hook: human-readable model body."""
        return f"{type(self).__name__} (no textual form)"

    # -- template methods ------------------------------------------------------
    def fit(self, dataset: Dataset) -> "Classifier":
        """Train on *dataset* (must have a nominal class attribute)."""
        if not dataset.has_class:
            raise DataError("training data has no class attribute set")
        if not dataset.class_attribute.is_nominal:
            raise DataError("this library's classifiers need a nominal class")
        if dataset.num_instances == 0:
            raise DataError("cannot train on an empty dataset")
        self._header = dataset.copy_header()
        self._fit(dataset)
        return self

    @property
    def header(self) -> Dataset:
        """Schema the model was trained against."""
        if self._header is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted")
        return self._header

    @property
    def is_fitted(self) -> bool:
        return self._header is not None

    def distribution(self, instance: Instance) -> np.ndarray:
        """Per-class probability vector for *instance*."""
        if self._header is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted")
        dist = np.asarray(self._distribution(instance), dtype=float)
        total = dist.sum()
        if not math.isfinite(total) or total <= 0:
            # degenerate model output: fall back to uniform
            return np.full(self.header.num_classes,
                           1.0 / self.header.num_classes)
        return dist / total

    def distribution_many(self, dataset: Dataset,
                          indices: Iterable[int] | None = None
                          ) -> np.ndarray:
        """Per-class probability matrix for many rows of *dataset*.

        Scores the rows named by *indices* (all rows when ``None``) and
        returns a ``(n_rows, n_classes)`` row-stochastic matrix in input
        order.  Models that provide a ``_distribution_many(matrix)``
        hook (a single numpy pass over a ``(n, m)`` value matrix with
        NaN as missing) are vectorized; the rest fall back to a per-row
        :meth:`_distribution` loop.  Row normalization matches
        :meth:`distribution` exactly, uniform fallback included.
        """
        if self._header is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted")
        n_classes = self.header.num_classes
        hook = getattr(self, "_distribution_many", None)
        if hook is not None:
            # the columnar store hands the full matrix out zero-copy;
            # an index selection is one numpy gather, never a row loop
            matrix = dataset.to_matrix()
            if indices is not None:
                matrix = matrix[_row_indices(indices)]
            if matrix.shape[0] == 0:
                return np.empty((0, n_classes))
            raw = np.asarray(hook(matrix), dtype=float)
        else:
            if indices is None:
                instances = list(dataset)
            else:
                instances = [dataset[int(i)] for i in indices]
            if not instances:
                return np.empty((0, n_classes))
            raw = np.vstack([np.asarray(self._distribution(inst),
                                        dtype=float)
                             for inst in instances])
        totals = raw.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = raw / totals
        degenerate = ~np.isfinite(totals[:, 0]) | (totals[:, 0] <= 0)
        out[degenerate] = 1.0 / n_classes
        return out

    def predict_instance(self, instance: Instance) -> int:
        """Predicted class index for *instance*."""
        return int(np.argmax(self.distribution(instance)))

    def predict_label(self, instance: Instance) -> str:
        """Predicted class label for *instance*."""
        return self.header.class_attribute.values[
            self.predict_instance(instance)]

    def predict(self, dataset: Dataset) -> list[int]:
        """Predicted class indices for every row of *dataset*."""
        return [self.predict_instance(inst) for inst in dataset]

    def predict_many(self, dataset: Dataset,
                     indices: Iterable[int] | None = None) -> list[int]:
        """Predicted class indices for many rows, vectorized where the
        model allows (see :meth:`distribution_many`)."""
        dists = self.distribution_many(dataset, indices)
        return [int(i) for i in np.argmax(dists, axis=1)]

    def to_text(self) -> str:
        """Full textual model report (service ``classify`` output)."""
        if self._header is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted")
        head = (f"=== {type(self).__name__} model ===\n"
                f"Relation: {self.header.relation}\n"
                f"Class:    {self.header.class_attribute.name}\n")
        return head + "\n" + self.model_text() + "\n"


class IncrementalClassifier(Classifier):
    """A classifier that can also learn instance-by-instance (streaming)."""

    def begin(self, header: Dataset) -> None:
        """Initialise from a schema-only dataset before streaming updates."""
        if not header.has_class or not header.class_attribute.is_nominal:
            raise DataError("streaming header needs a nominal class")
        self._header = header.copy_header()
        self._begin()

    def _begin(self) -> None:
        raise NotImplementedError

    def update(self, instance: Instance) -> None:
        """Absorb one labelled instance."""
        if self._header is None:
            raise NotFittedError("call begin() or fit() before update()")
        self._update(instance)

    def _update(self, instance: Instance) -> None:
        raise NotImplementedError

    def _fit(self, dataset: Dataset) -> None:
        self._begin()
        for inst in dataset:
            self._update(inst)


class Clusterer(_Configurable):
    """An unsupervised learner assigning instances to clusters."""

    def __init__(self, **options: Any):
        super().__init__(**options)
        self._header: Dataset | None = None

    def _fit(self, dataset: Dataset) -> None:
        raise NotImplementedError

    def _cluster(self, instance: Instance) -> int:
        raise NotImplementedError

    @property
    def n_clusters(self) -> int:
        raise NotImplementedError

    def fit(self, dataset: Dataset) -> "Clusterer":
        """Fit the model to *dataset*; returns ``self``."""
        if dataset.num_instances == 0:
            raise DataError("cannot cluster an empty dataset")
        self._header = dataset.copy_header()
        self._fit(dataset)
        return self

    @property
    def header(self) -> Dataset:
        if self._header is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted")
        return self._header

    def cluster_instance(self, instance: Instance) -> int:
        """Cluster index assigned to *instance*."""
        if self._header is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted")
        return int(self._cluster(instance))

    def assign(self, dataset: Dataset) -> list[int]:
        """Cluster index per row of *dataset*."""
        return self.assign_many(dataset)

    def assign_many(self, dataset: Dataset,
                    indices: Iterable[int] | None = None) -> list[int]:
        """Cluster index for many rows of *dataset* in input order.

        Mirrors :meth:`Classifier.distribution_many`: clusterers that
        provide a ``_cluster_many(matrix)`` hook (one numpy pass over a
        ``(n, m)`` value matrix) run vectorised against the dataset's
        zero-copy column block; the rest fall back to the per-row
        :meth:`_cluster` loop.
        """
        if self._header is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted")
        hook = getattr(self, "_cluster_many", None)
        if hook is not None:
            matrix = dataset.to_matrix()
            if indices is not None:
                matrix = matrix[_row_indices(indices)]
            if matrix.shape[0] == 0:
                return []
            return [int(c) for c in np.asarray(hook(matrix))]
        if indices is None:
            instances = list(dataset)
        else:
            instances = [dataset[int(i)] for i in indices]
        return [self.cluster_instance(inst) for inst in instances]

    def model_text(self) -> str:
        """Human-readable model body."""
        return f"{type(self).__name__} (no textual form)"

    def to_text(self) -> str:
        """Full textual report of the fitted model."""
        if self._header is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted")
        head = (f"=== {type(self).__name__} clustering ===\n"
                f"Relation: {self.header.relation}\n"
                f"Clusters: {self.n_clusters}\n")
        return head + "\n" + self.model_text() + "\n"


class AssociationLearner(_Configurable):
    """A learner producing association rules from nominal data."""

    def fit(self, dataset: Dataset) -> "AssociationLearner":
        """Fit the model to *dataset*; returns ``self``."""
        raise NotImplementedError

    def rules_text(self) -> str:
        """Human-readable listing of the mined rules."""
        raise NotImplementedError


# --------------------------------------------------------------------------
# registries (back the services' getClassifiers-style operations)
# --------------------------------------------------------------------------

class Registry:
    """Name → class registry with tag metadata."""

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: dict[str, tuple[type, tuple[str, ...]]] = {}

    def register(self, name: str, *tags: str):
        """Class decorator registering under *name* with search *tags*."""
        def deco(cls: type) -> type:
            if name in self._entries:
                raise OptionError(
                    f"{self.kind} {name!r} registered twice")
            self._entries[name] = (cls, tags)
            cls.REGISTERED_NAME = name  # type: ignore[attr-defined]
            return cls
        return deco

    def names(self) -> list[str]:
        """Sorted registered names."""
        return sorted(self._entries)

    def get(self, name: str) -> type:
        """Look up an entry by name."""
        try:
            return self._entries[name][0]
        except KeyError:
            raise OptionError(
                f"unknown {self.kind} {name!r}; "
                f"known: {self.names()}") from None

    def tags(self, name: str) -> tuple[str, ...]:
        """Search tags of a registered entry."""
        self.get(name)
        return self._entries[name][1]

    def create(self, name: str, options: Mapping[str, Any] | None = None):
        """Instantiate algorithm *name* with *options*."""
        return self.get(name)(**dict(options or {}))

    def items(self) -> Iterable[tuple[str, Type]]:
        """Iterate ``(name, class)`` pairs."""
        return ((n, c) for n, (c, _) in sorted(self._entries.items()))

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries


CLASSIFIERS = Registry("classifier")
CLUSTERERS = Registry("clusterer")
ASSOCIATORS = Registry("associator")
