"""Symbolic knowledge codebooks.

A codebook stores one hypervector per discrete value of an attribute (a
"factor" in the paper's terminology, e.g. object type, size, color, number,
position).  The set of codebooks for a task is a :class:`CodebookSet`;
binding one codevector from each factor produces the entangled product
vector that describes a concrete object.  The combinatorially large table of
all such products is the :class:`ProductCodebook` — the structure whose
tens-to-hundreds-of-megabyte footprint motivates the paper's factorization
strategy (Sec. III-C, Fig. 8).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from repro.errors import CodebookError, DimensionMismatchError
from repro.vsa.spaces import VSASpace

__all__ = ["Codebook", "CodebookSet", "ProductCodebook"]

#: default storage width used for footprint accounting (FP32)
DEFAULT_ELEMENT_BYTES = 4


class Codebook:
    """A named table of codevectors, one per symbolic value.

    Parameters
    ----------
    name:
        Attribute name, e.g. ``"color"``.
    labels:
        Symbolic values in a fixed order, e.g. ``["red", "blue"]``.
    space:
        The hypervector space the codevectors live in.
    vectors:
        Optional pre-built ``(len(labels), dim)`` matrix.  If omitted, random
        quasi-orthogonal codevectors are drawn from ``space``.
    """

    def __init__(
        self,
        name: str,
        labels: Sequence[str],
        space: VSASpace,
        vectors: np.ndarray | None = None,
    ) -> None:
        labels = list(labels)
        if not labels:
            raise CodebookError(f"codebook '{name}' needs at least one label")
        if len(set(labels)) != len(labels):
            raise CodebookError(f"codebook '{name}' has duplicate labels")
        self.name = name
        self.labels = labels
        self.space = space
        if vectors is None:
            vectors = space.random_vectors(len(labels))
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.shape != (len(labels), space.dim):
            raise DimensionMismatchError(
                f"codebook '{name}' vectors must have shape "
                f"({len(labels)}, {space.dim}), got {vectors.shape}"
            )
        self.vectors = vectors
        self._index = {label: i for i, label in enumerate(labels)}

    # -- basic container behaviour ------------------------------------------
    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    @property
    def dim(self) -> int:
        """Hypervector dimensionality."""
        return self.space.dim

    def index_of(self, label: str) -> int:
        """Return the row index of ``label``."""
        try:
            return self._index[label]
        except KeyError as exc:
            raise CodebookError(
                f"label '{label}' not in codebook '{self.name}'"
            ) from exc

    def vector(self, label_or_index: str | int) -> np.ndarray:
        """Return the codevector for a label or integer index."""
        if isinstance(label_or_index, str):
            idx = self.index_of(label_or_index)
        else:
            idx = int(label_or_index)
            if not 0 <= idx < len(self.labels):
                raise CodebookError(
                    f"index {idx} out of range for codebook '{self.name}'"
                )
        return self.vectors[idx]

    # -- search ---------------------------------------------------------------
    def similarities(self, query: np.ndarray) -> np.ndarray:
        """Similarity of ``query`` against every codevector."""
        return self.space.similarity_matrix(query[np.newaxis, :], self.vectors)[0]

    def cleanup(self, query: np.ndarray) -> tuple[str, float]:
        """Return the best-matching label and its similarity."""
        sims = self.similarities(query)
        best = int(np.argmax(sims))
        return self.labels[best], float(sims[best])

    # -- footprint --------------------------------------------------------------
    def nbytes(self, element_bytes: int = DEFAULT_ELEMENT_BYTES) -> int:
        """Storage footprint of the codebook matrix in bytes."""
        return len(self.labels) * self.dim * element_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Codebook(name={self.name!r}, size={len(self)}, dim={self.dim})"


class CodebookSet:
    """An ordered collection of factor codebooks sharing one space."""

    def __init__(self, codebooks: Sequence[Codebook]) -> None:
        if not codebooks:
            raise CodebookError("a CodebookSet needs at least one codebook")
        dims = {cb.dim for cb in codebooks}
        if len(dims) != 1:
            raise DimensionMismatchError(
                f"codebooks have inconsistent dimensions: {sorted(dims)}"
            )
        names = [cb.name for cb in codebooks]
        if len(set(names)) != len(names):
            raise CodebookError("codebooks must have unique names")
        self.codebooks = list(codebooks)
        self.space = codebooks[0].space
        self._by_name = {cb.name: cb for cb in codebooks}

    @classmethod
    def from_factors(
        cls, factors: Mapping[str, Sequence[str]], space: VSASpace
    ) -> "CodebookSet":
        """Build a set of random codebooks from ``{factor: labels}``."""
        return cls([Codebook(name, labels, space) for name, labels in factors.items()])

    # -- container behaviour ---------------------------------------------------
    def __len__(self) -> int:
        return len(self.codebooks)

    def __iter__(self):
        return iter(self.codebooks)

    def __getitem__(self, name_or_index: str | int) -> Codebook:
        if isinstance(name_or_index, str):
            try:
                return self._by_name[name_or_index]
            except KeyError as exc:
                raise CodebookError(f"no codebook named '{name_or_index}'") from exc
        return self.codebooks[name_or_index]

    @property
    def factor_names(self) -> list[str]:
        """Factor names in order."""
        return [cb.name for cb in self.codebooks]

    @property
    def factor_sizes(self) -> list[int]:
        """Number of codevectors per factor."""
        return [len(cb) for cb in self.codebooks]

    @property
    def dim(self) -> int:
        """Hypervector dimensionality."""
        return self.space.dim

    @property
    def num_combinations(self) -> int:
        """Size of the combinatorial product space ``M_1 * ... * M_F``."""
        total = 1
        for cb in self.codebooks:
            total *= len(cb)
        return total

    # -- encoding ----------------------------------------------------------------
    def bind_combination(self, assignment: Mapping[str, str] | Sequence[str]) -> np.ndarray:
        """Bind one codevector per factor into a product hypervector.

        ``assignment`` is either a mapping ``{factor: label}`` covering every
        factor or a sequence of labels in factor order.
        """
        labels = self._normalize_assignment(assignment)
        vectors = [cb.vector(label) for cb, label in zip(self.codebooks, labels)]
        return self.space.bind_all(np.stack(vectors))

    def _normalize_assignment(
        self, assignment: Mapping[str, str] | Sequence[str]
    ) -> list[str]:
        if isinstance(assignment, Mapping):
            missing = [name for name in self.factor_names if name not in assignment]
            if missing:
                raise CodebookError(f"assignment missing factors: {missing}")
            return [assignment[name] for name in self.factor_names]
        labels = list(assignment)
        if len(labels) != len(self.codebooks):
            raise CodebookError(
                f"assignment has {len(labels)} labels for {len(self.codebooks)} factors"
            )
        return labels

    # -- footprint -----------------------------------------------------------------
    def nbytes(self, element_bytes: int = DEFAULT_ELEMENT_BYTES) -> int:
        """Total storage of the per-factor codebooks (the factorized form)."""
        return sum(cb.nbytes(element_bytes) for cb in self.codebooks)

    def product_nbytes(self, element_bytes: int = DEFAULT_ELEMENT_BYTES) -> int:
        """Storage the exhaustive product codebook would require."""
        return self.num_combinations * self.dim * element_bytes


@dataclass(frozen=True)
class _ProductEntry:
    """One row of a materialised product codebook."""

    labels: tuple[str, ...]
    index: int


class ProductCodebook:
    """The exhaustively materialised combination codebook.

    This is the baseline the paper's factorizer replaces.  Materialising it
    is only feasible for small factor spaces, so construction is guarded by
    ``max_combinations``; the footprint accounting in
    :meth:`CodebookSet.product_nbytes` covers the large cases analytically.
    """

    def __init__(self, codebook_set: CodebookSet, max_combinations: int = 200_000) -> None:
        total = codebook_set.num_combinations
        if total > max_combinations:
            raise CodebookError(
                f"refusing to materialise {total} combinations "
                f"(limit {max_combinations}); use the factorizer instead"
            )
        self.codebook_set = codebook_set
        self.space = codebook_set.space
        label_lists = [cb.labels for cb in codebook_set.codebooks]
        self.entries: list[_ProductEntry] = []
        vectors = np.empty((total, codebook_set.dim))
        for idx, combo in enumerate(iter_product(*label_lists)):
            vectors[idx] = codebook_set.bind_combination(list(combo))
            self.entries.append(_ProductEntry(labels=tuple(combo), index=idx))
        self.vectors = vectors

    def __len__(self) -> int:
        return len(self.entries)

    def lookup(self, query: np.ndarray) -> tuple[tuple[str, ...], float]:
        """Exhaustively search for the best-matching combination."""
        sims = self.space.similarity_matrix(query[np.newaxis, :], self.vectors)[0]
        best = int(np.argmax(sims))
        return self.entries[best].labels, float(sims[best])

    def nbytes(self, element_bytes: int = DEFAULT_ELEMENT_BYTES) -> int:
        """Storage footprint of the materialised product table."""
        return len(self.entries) * self.codebook_set.dim * element_bytes
