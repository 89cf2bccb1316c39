"""Query results produced by the executors.

Every executor — online or two-step, shared or not — emits one
:class:`QueryResult` per query, window instance, and group that produced at
least one relevant event.  A :class:`ResultSet` collects them and offers the
lookups and equivalence checks the test suite relies on when cross-validating
executors against each other and against the brute-force oracle.
:class:`CanonicalResults` keeps a result set's canonical listing — the one
checkpoints and state hashes carry — sorted and encoded across exports.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from typing import Hashable, Iterable, Iterator, Mapping

from ..events.windows import WindowInstance
from ..utils.canonical import canonical_json

__all__ = ["QueryResult", "ResultSet", "CanonicalResults", "results_from_rows"]

#: Key identifying one result: (query name, window instance, group key).
ResultKey = tuple[str, WindowInstance, tuple]


@dataclass(frozen=True)
class QueryResult:
    """One aggregation result (RETURN value per query, group, and window)."""

    query_name: str
    window: WindowInstance
    group: tuple
    value: object

    @property
    def key(self) -> ResultKey:
        """The result's identity: ``(query name, window instance, group key)``."""
        return (self.query_name, self.window, self.group)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        group = "" if not self.group else f" group={self.group}"
        return f"{self.query_name}@{self.window}{group}: {self.value}"


class ResultSet:
    """A collection of query results indexed by (query, window, group)."""

    def __init__(self, results: Iterable[QueryResult] = ()) -> None:
        self._by_key: dict[ResultKey, QueryResult] = {}
        #: How many :meth:`add` calls replaced an earlier result; a replaced
        #: result keeps its insertion position, so listings built from the
        #: insertion order (:class:`CanonicalResults`) watch this count.
        self.replacements = 0
        for result in results:
            self.add(result)

    def add(self, result: QueryResult) -> None:
        """Insert ``result``, replacing any earlier result with the same key."""
        key = result.key
        if key in self._by_key:
            self.replacements += 1
        self._by_key[key] = result

    def __iter__(self) -> Iterator[QueryResult]:
        return iter(self._by_key.values())

    def __len__(self) -> int:
        return len(self._by_key)

    def __contains__(self, key: ResultKey) -> bool:
        return key in self._by_key

    def get(self, query_name: str, window: WindowInstance, group: tuple = ()) -> QueryResult | None:
        """The result at ``(query_name, window, group)``, or ``None``."""
        return self._by_key.get((query_name, window, group))

    def value(self, query_name: str, window: WindowInstance, group: tuple = (), default=0):
        """The result value, or ``default`` when no result was produced."""
        result = self._by_key.get((query_name, window, group))
        return default if result is None else result.value

    def for_query(self, query_name: str) -> list[QueryResult]:
        """All results of one query, in insertion order."""
        return [r for r in self._by_key.values() if r.query_name == query_name]

    def for_window(self, window: WindowInstance) -> list[QueryResult]:
        """All results of one window instance, in insertion order."""
        return [r for r in self._by_key.values() if r.window == window]

    def query_names(self) -> tuple[str, ...]:
        """The distinct query names with at least one result, sorted."""
        return tuple(sorted({r.query_name for r in self._by_key.values()}))

    def as_dict(self) -> Mapping[ResultKey, object]:
        """A plain ``{key: value}`` mapping (convenient for comparisons)."""
        return {key: result.value for key, result in self._by_key.items()}

    def nonzero(self) -> "ResultSet":
        """Results whose value is neither ``None`` nor zero."""
        return ResultSet(r for r in self._by_key.values() if r.value not in (0, 0.0, None))

    def matches(self, other: "ResultSet", tolerance: float = 1e-9) -> bool:
        """Semantic equality: zero/absent results are interchangeable.

        Executors differ in whether they emit explicit zero-valued results for
        scopes that saw events but no match; this comparison treats a missing
        result and a zero (or ``None``) result as equal, and compares numeric
        values up to ``tolerance``.
        """
        keys = set(self._by_key) | set(other._by_key)
        for key in keys:
            mine = self._by_key.get(key)
            theirs = other._by_key.get(key)
            mine_value = None if mine is None else mine.value
            theirs_value = None if theirs is None else theirs.value
            if not _values_equivalent(mine_value, theirs_value, tolerance):
                return False
        return True

    def differences(self, other: "ResultSet", tolerance: float = 1e-9) -> list[tuple]:
        """Keys at which :meth:`matches` would fail, with both values (debugging)."""
        keys = set(self._by_key) | set(other._by_key)
        mismatches = []
        for key in sorted(keys, key=repr):
            mine = self._by_key.get(key)
            theirs = other._by_key.get(key)
            mine_value = None if mine is None else mine.value
            theirs_value = None if theirs is None else theirs.value
            if not _values_equivalent(mine_value, theirs_value, tolerance):
                mismatches.append((key, mine_value, theirs_value))
        return mismatches

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultSet({len(self._by_key)} results)"


def _row(result: QueryResult) -> list:
    """One result as its JSON-safe listing row."""
    return [result.query_name, [result.window.start, result.window.end], list(result.group), result.value]


def _encode_row(result: QueryResult) -> str:
    """The canonical JSON text of one listing row."""
    return canonical_json(_row(result))


def results_from_rows(rows: list) -> ResultSet:
    """Rebuild a :class:`ResultSet` from a listing (:meth:`CanonicalResults.rows`)."""
    results = ResultSet()
    for name, (start, end), group, value in rows:
        results.add(QueryResult(name, WindowInstance(start, end), tuple(group), value))
    return results


class CanonicalResults:
    """A result set's canonical listing, each result encoded once.

    Session exports list results sorted by ``repr(key)`` (group tuples may
    mix value types), so the listing is independent of insertion order and
    a resumed run exports the same bytes as a full one.  Re-sorting and
    re-encoding the whole history at every export made a checkpoint cost
    O(results); this cache keeps the sorted order and each row's canonical
    JSON text across exports instead:

    * results added since the last export are keyed, encoded and merged
      into the sorted order (old rows before new ones on equal keys, as a
      stable sort of the insertion order would place them);
    * a replaced result (:attr:`ResultSet.replacements` moved) or a
      different :class:`ResultSet` (a session restore installs a new one)
      starts the listing over.

    Results are read in :class:`ResultSet` insertion order, which a
    replacement does not change, so "added since the last export" is the
    tail past the count already listed.
    """

    __slots__ = ("_source", "_replacements", "_keys", "_texts", "_results", "_text")

    def __init__(self) -> None:
        self._source: "ResultSet | None" = None
        self._replacements = 0
        #: Parallel lists in listing order: sort key, row text, result.
        self._keys: list[str] = []
        self._texts: list[str] = []
        self._results: list[QueryResult] = []
        #: The joined listing text, until the listing next changes.
        self._text: "str | None" = None

    def rows(self, results: ResultSet) -> list:
        """The listing of ``results`` as JSON-safe rows (``export_state``)."""
        self._sync(results)
        return [_row(result) for result in self._results]

    def text(self, results: ResultSet) -> str:
        """``canonical_json(self.rows(results))``, from the cached row texts."""
        self._sync(results)
        if self._text is None:
            self._text = "[" + ",".join(self._texts) + "]"
        return self._text

    def _sync(self, results: ResultSet) -> None:
        """Bring the listing up to date with ``results``."""
        if results is not self._source or results.replacements != self._replacements:
            self._source = results
            self._replacements = results.replacements
            self._keys, self._texts, self._results = [], [], []
            self._text = None
        listed = len(self._keys)
        if len(results) == listed:
            return
        fresh = sorted(
            ((repr(result.key), _encode_row(result), result) for result in islice(results, listed, None)),
            key=lambda entry: entry[0],
        )
        old_keys, old_texts, old_results = self._keys, self._texts, self._results
        keys: list[str] = []
        texts: list[str] = []
        merged: list[QueryResult] = []
        start = 0
        for key, text, result in fresh:
            at = bisect_right(old_keys, key, start)
            keys += old_keys[start:at]
            texts += old_texts[start:at]
            merged += old_results[start:at]
            keys.append(key)
            texts.append(text)
            merged.append(result)
            start = at
        keys += old_keys[start:]
        texts += old_texts[start:]
        merged += old_results[start:]
        self._keys, self._texts, self._results = keys, texts, merged
        self._text = None


def _values_equivalent(a, b, tolerance: float) -> bool:
    def normalise(value):
        if value is None:
            return 0.0
        return value

    a, b = normalise(a), normalise(b)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(float(a) - float(b)) <= tolerance
    return a == b
