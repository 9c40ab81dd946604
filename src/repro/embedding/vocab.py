"""Vocabularies over path-context components and identifier normalisation."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.embedding.ast_paths import PathContext
from repro.frontend import ast


@dataclass
class Vocabulary:
    """A string-to-index mapping with an UNK entry at index 0."""

    token_to_index: Dict[str, int] = field(default_factory=dict)
    index_to_token: List[str] = field(default_factory=lambda: ["<UNK>"])

    def __post_init__(self) -> None:
        if not self.token_to_index:
            self.token_to_index = {"<UNK>": 0}

    def __len__(self) -> int:
        return len(self.index_to_token)

    def add(self, token: str) -> int:
        index = self.token_to_index.get(token)
        if index is None:
            index = len(self.index_to_token)
            self.token_to_index[token] = index
            self.index_to_token.append(token)
        return index

    def lookup(self, token: str) -> int:
        """Index of ``token`` (0, the UNK index, when unknown)."""
        return self.token_to_index.get(token, 0)

    @staticmethod
    def from_counts(counts: Counter, max_size: Optional[int] = None,
                    min_count: int = 1) -> "Vocabulary":
        vocabulary = Vocabulary()
        most_common = counts.most_common(max_size)
        for token, count in most_common:
            if count >= min_count:
                vocabulary.add(token)
        return vocabulary


def normalize_identifiers(node: ast.Node) -> Dict[str, str]:
    """Map identifiers in a loop subtree to role-based canonical names.

    The dataset generator creates many variants of the same loop that differ
    only in variable names; §3.2 of the paper notes renaming was needed so
    that names do not bias the embedding.  Arrays (anything subscripted)
    become ``arr0, arr1, ...``; everything else becomes ``var0, var1, ...``,
    both numbered in first-appearance order.
    """
    arrays: List[str] = []
    scalars: List[str] = []
    for child in node.walk():
        if isinstance(child, ast.ArraySubscript):
            root = child.root_array()
            if root is not None and root.name not in arrays:
                arrays.append(root.name)
    for child in node.walk():
        if isinstance(child, ast.Identifier):
            if child.name not in arrays and child.name not in scalars:
                scalars.append(child.name)
        elif isinstance(child, ast.VarDecl):
            if child.name not in arrays and child.name not in scalars:
                scalars.append(child.name)
    mapping: Dict[str, str] = {}
    for index, name in enumerate(arrays):
        mapping[name] = f"arr{index}"
    for index, name in enumerate(scalars):
        mapping[name] = f"var{index}"
    return mapping


def build_vocabularies(
    context_sets: Sequence[Sequence[PathContext]],
    max_tokens: Optional[int] = 5000,
    max_paths: Optional[int] = 20000,
) -> Tuple[Vocabulary, Vocabulary]:
    """Build (token vocabulary, path vocabulary) from a corpus of loops."""
    token_counts: Counter = Counter()
    path_counts: Counter = Counter()
    for contexts in context_sets:
        for context in contexts:
            token_counts[context.start_token] += 1
            token_counts[context.end_token] += 1
            path_counts[context.path] += 1
    tokens = Vocabulary.from_counts(token_counts, max_tokens)
    paths = Vocabulary.from_counts(path_counts, max_paths)
    return tokens, paths
