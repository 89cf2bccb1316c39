"""The aggregate column families against independent reference models.

Each aggregate kind is stored in exactly one column family: ``_CountColumns``
(COUNT(*) cohort columns), ``_StateColumns`` (every other kind),
``PaneCountMatrix`` and ``PaneStateMatrix``.  Their batch updates are fused
forms of per-event semantics (``summarise_batch`` + ``extend_many``, integer
arithmetic for COUNT(*)), so each is checked here against a slower model that
follows the definition directly:

1. ``summarise_batch``/``extend_many`` against per-event ``extend``.
2. The COUNT(*) fast paths against the general ``AggregateState`` families.
3. ``_StateColumns`` against a per-event cohort model.
4. Pane folds against brute-force sequence enumeration.
5. Export/restore mid-run, through JSON, leaves every later observable equal.

Attribute values are small integers (as floats) so every sum is exact and
the models may add in any order.
"""

from __future__ import annotations

import itertools
import json
import random

import pytest

from repro.events import Event
from repro.executor.panes import PaneCountMatrix, PaneStateMatrix, make_pane_matrix
from repro.executor.prefix_agg import _CountColumns, _StateColumns, positions_by_type
from repro.queries import AggregateSpec, Pattern
from repro.queries.aggregates import AggregateState

#: Every aggregate kind, built over target type ``B`` where it takes one.
SPECS = {
    "count_star": AggregateSpec.count_star(),
    "count": AggregateSpec.count("B"),
    "sum": AggregateSpec.sum("B", "value"),
    "min": AggregateSpec.min("B", "value"),
    "max": AggregateSpec.max("B", "value"),
    "avg": AggregateSpec.avg("B", "value"),
}
STATE_KINDS = [kind for kind in SPECS if kind != "count_star"]


def _event(rng: random.Random, event_type: str, timestamp: int, event_id: int) -> Event:
    attrs = {}
    if rng.random() < 0.8:  # some targeted events lack the attribute
        attrs["value"] = float(rng.randint(-9, 9))
    return Event(event_type, timestamp, attrs, event_id)


def _batch(rng: random.Random, event_type: str, size: int) -> list[Event]:
    return [_event(rng, event_type, 0, i) for i in range(size)]


def _per_event_addition(base: AggregateState, events, spec: AggregateSpec) -> AggregateState:
    """``merge(base.extend(e1), ..., base.extend(ek))`` — the definition."""
    addition = AggregateState.zero()
    for event in events:
        addition = addition.merge(base.extend(event, spec))
    return addition


def _random_base(rng: random.Random) -> AggregateState:
    if rng.random() < 0.15:
        return AggregateState.zero()
    minimum = float(rng.randint(-9, 9)) if rng.random() < 0.7 else None
    maximum = None if minimum is None else minimum + rng.randint(0, 5)
    return AggregateState(
        count=rng.randint(1, 6),
        target_count=rng.randint(0, 6),
        total=float(rng.randint(-40, 40)),
        minimum=minimum,
        maximum=maximum,
    )


def _random_groups(rng: random.Random, cohorts: int) -> list[list[int]]:
    ids = list(range(cohorts))
    rng.shuffle(ids)
    cut = rng.randint(1, cohorts)
    return [sorted(ids[:cut])] + [[i] for i in sorted(ids[cut:])]


def _tuples(deltas):
    return None if deltas is None else [(cohort, s.as_tuple()) for cohort, s in deltas]


# -- batch summaries ----------------------------------------------------------------


@pytest.mark.parametrize("kind", list(SPECS))
def test_summarise_batch_equals_per_event_extension(kind):
    """The fused batch update is the merge of the per-event extensions."""
    spec = SPECS[kind]
    rng = random.Random(17)
    for _ in range(200):
        base = _random_base(rng)
        events = _batch(rng, rng.choice("ABB"), rng.randint(1, 6))
        fused = base.extend_many(*spec.summarise_batch(events))
        assert fused.as_tuple() == _per_event_addition(base, events, spec).as_tuple()


# -- cohort columns -----------------------------------------------------------------


def test_count_columns_match_state_columns_fuzz():
    """The COUNT(*) integer columns equal the general state columns op by op."""
    rng = random.Random(42)
    length = 4
    fast, general = _CountColumns(length), _StateColumns(length)
    for _ in range(300):
        op = rng.random()
        if op < 0.3 or not general.columns[0]:
            initial = AggregateState(count=rng.randint(1, 9))
            fast.append_cohort(initial)
            general.append_cohort(initial)
        elif op < 0.85:
            position = rng.randint(1, length - 1)
            summary = (rng.randint(1, 5), 0, 0.0, None, None)
            collect = rng.random() < 0.4
            got, expected = (
                fast.extend_commit(position, summary, collect),
                general.extend_commit(position, summary, collect),
            )
            assert got[1] == expected[1]
            assert _tuples(got[0]) == _tuples(expected[0])
        else:
            groups = _random_groups(rng, len(general.columns[0]))
            fast.merge_cohorts(groups)
            general.merge_cohorts(groups)
        for position in range(length):
            assert [s.as_tuple() for s in fast.column_states(position)] == [
                s.as_tuple() for s in general.column_states(position)
            ]
        assert fast.export_columns() == [
            [cell[0] for cell in column] for column in general.export_columns()
        ]
    fast.clear()
    general.clear()
    assert fast.export_columns() == [[] for _ in range(length)] == general.export_columns()


def test_count_columns_export_restore_midway():
    """A JSON round trip of the export resumes identically, big ints included."""
    rng = random.Random(8)
    length = 3
    live = _CountColumns(length)
    live.append_cohort(AggregateState(count=2**40))
    live.append_cohort(AggregateState(count=3))
    for step in range(60):
        if step % 20 == 10:
            restored = _CountColumns(length)
            restored.restore_columns(json.loads(json.dumps(live.export_columns())))
            assert restored.export_columns() == live.export_columns()
            live = restored
        summary = (rng.randint(1, 1000), 0, 0.0, None, None)
        live.extend_commit(rng.randint(1, length - 1), summary, rng.random() < 0.5)
    assert max(max(column) for column in live.export_columns()) > 2**63 - 1, (
        "the scenario never left the 64-bit range"
    )


class _CohortModel:
    """Per-event reference for ``_StateColumns``: one state per (position, cohort)."""

    def __init__(self, length: int, spec: AggregateSpec) -> None:
        self.spec = spec
        self.columns: list[list[AggregateState]] = [[] for _ in range(length)]

    def append_cohort(self, initial: AggregateState) -> None:
        self.columns[0].append(initial)
        for column in self.columns[1:]:
            column.append(AggregateState.zero())

    def extend(self, position: int, events) -> list[tuple[int, AggregateState]]:
        deltas = []
        for cohort, base in enumerate(self.columns[position - 1]):
            if base.count:
                addition = _per_event_addition(base, events, self.spec)
                self.columns[position][cohort] = self.columns[position][cohort].merge(addition)
                deltas.append((cohort, addition))
        return deltas

    def merge_cohorts(self, groups) -> None:
        for position, column in enumerate(self.columns):
            merged = []
            for group in groups:
                value = AggregateState.zero()
                for cohort in group:
                    value = value.merge(column[cohort])
                merged.append(value)
            self.columns[position] = merged

    def export(self) -> list:
        return [[state.as_tuple() for state in column] for column in self.columns]


@pytest.mark.parametrize("kind", STATE_KINDS)
def test_state_columns_match_per_event_model(kind):
    """Whole-column batch commits equal per-event extension of every cohort."""
    spec = SPECS[kind]
    rng = random.Random(1729)
    pattern = ("A", "B", "C", "B")
    columns, model = _StateColumns(len(pattern)), _CohortModel(len(pattern), spec)
    for _ in range(200):
        op = rng.random()
        if op < 0.25 or not model.columns[0]:
            events = _batch(rng, pattern[0], rng.randint(1, 3))
            initial = _per_event_addition(AggregateState.unit(), events, spec)
            columns.append_cohort(initial)
            model.append_cohort(initial)
        elif op < 0.85:
            position = rng.randint(1, len(pattern) - 1)
            events = _batch(rng, pattern[position], rng.randint(1, 4))
            deltas, touched = columns.extend_commit(position, spec.summarise_batch(events), True)
            expected = model.extend(position, events)
            assert _tuples(deltas) == _tuples(expected)
            assert touched == len(expected) * len(events)
        else:
            groups = _random_groups(rng, len(model.columns[0]))
            columns.merge_cohorts(groups)
            model.merge_cohorts(groups)
        assert columns.export_columns() == model.export()


def test_state_columns_export_restore_midway():
    """Restoring a JSON round trip of the export continues identically."""
    spec = SPECS["avg"]
    rng = random.Random(5)
    length = 3
    live, twin = _StateColumns(length), _StateColumns(length)
    for _ in range(4):
        initial = AggregateState.unit().extend_many(*spec.summarise_batch(_batch(rng, "B", 2)))
        live.append_cohort(initial)
        twin.append_cohort(initial)
    for step in range(40):
        if step == 20:
            payload = json.loads(json.dumps(live.export_columns()))
            live = _StateColumns(length)
            live.restore_columns(payload)
        position = rng.randint(1, length - 1)
        summary = spec.summarise_batch(_batch(rng, rng.choice("AB"), rng.randint(1, 3)))
        got, expected = live.extend_commit(position, summary, True), twin.extend_commit(
            position, summary, True
        )
        assert _tuples(got[0]) == _tuples(expected[0])
        assert live.export_columns() == twin.export_columns()


# -- pane matrices ------------------------------------------------------------------


def _random_pane(rng: random.Random, pattern: Pattern, start: int, width: int, next_id):
    """Events of one pane: a few same-timestamp batches of pattern types."""
    events = []
    for timestamp in range(start, start + width):
        for event_type in sorted(set(pattern)):
            for _ in range(rng.choice([0, 0, 1, 2])):
                events.append(_event(rng, event_type, timestamp, next(next_id)))
    return events


def _apply_pane(matrix, pattern: Pattern, events, spec: AggregateSpec) -> None:
    positions = positions_by_type(pattern)
    for _, batch in itertools.groupby(events, key=lambda event: event.timestamp):
        by_position: dict[int, list[Event]] = {}
        for event in batch:
            for position in positions[event.event_type]:
                by_position.setdefault(position, []).append(event)
        matrix.apply_batch(by_position, spec)


def _brute_force(pattern: Pattern, events, spec: AggregateSpec):
    """Every match: one event per position, strictly increasing timestamps."""
    matches = [
        combo
        for combo in itertools.combinations(events, len(pattern))
        if all(event.event_type == t for event, t in zip(combo, pattern))
        and all(a.timestamp < b.timestamp for a, b in zip(combo, combo[1:]))
    ]
    return spec.evaluate_sequences(matches)


def test_pane_count_matrix_matches_pane_state_matrix_fuzz():
    """The COUNT(*) pane matrix equals the general matrix cell by cell."""
    rng = random.Random(99)
    pattern, spec = Pattern(("A", "B", "C")), SPECS["count_star"]
    fast, general = PaneCountMatrix(pattern, spec), PaneStateMatrix(pattern, spec)
    fast_vector, general_vector = fast.new_vector(), general.new_vector()
    for step in range(200):
        by_position = {
            position: _batch(rng, event_type, rng.randint(1, 4))
            for position, event_type in enumerate(pattern)
            if rng.random() < 0.6
        }
        fast.apply_batch(by_position, spec)
        general.apply_batch(by_position, spec)
        assert fast.updates == general.updates
        assert fast.export_cells()["cells"] == [
            [cell[0] for cell in row] for row in general.export_cells()["cells"]
        ]
        if step % 25 == 24:
            fast.fold(fast_vector)
            general.fold(general_vector)
            assert fast_vector == [state.count for state in general_vector]
            assert fast.final_state(fast_vector).as_tuple() == (
                general.final_state(general_vector).as_tuple()
            )


@pytest.mark.parametrize("kind", list(SPECS))
def test_pane_fold_matches_brute_force(kind):
    """Folding pane matrices in order aggregates exactly the window's matches."""
    spec = SPECS[kind]
    rng = random.Random(2024)
    next_id = itertools.count()
    for pattern in (Pattern(("A", "B", "C")), Pattern(("B", "A", "B"))):
        for _ in range(15):
            vector, window_events = None, []
            for pane_index in range(rng.randint(1, 3)):
                events = _random_pane(rng, pattern, start=3 * pane_index, width=3, next_id=next_id)
                matrix = make_pane_matrix(pattern, spec)
                _apply_pane(matrix, pattern, events, spec)
                if vector is None:
                    vector = matrix.new_vector()
                matrix.fold(vector)
                window_events.extend(events)
            got = spec.finalize(matrix.final_state(vector))
            assert got == _brute_force(pattern, window_events, spec), (pattern, window_events)


@pytest.mark.parametrize("kind", ["count_star", "sum"])
def test_pane_matrix_export_restore_midway(kind):
    """A JSON round trip of the cells resumes the pane identically."""
    spec = SPECS[kind]
    rng = random.Random(3)
    pattern = Pattern(("A", "B", "C"))
    live, twin = make_pane_matrix(pattern, spec), make_pane_matrix(pattern, spec)
    events = _random_pane(rng, pattern, start=0, width=12, next_id=itertools.count())
    split = len(events) // 2
    while split and events[split - 1].timestamp == events[split].timestamp:
        split -= 1
    _apply_pane(live, pattern, events[:split], spec)
    restored = make_pane_matrix(pattern, spec)
    restored.restore_cells(json.loads(json.dumps(live.export_cells())))
    assert json.dumps(restored.export_cells()) == json.dumps(live.export_cells())
    _apply_pane(restored, pattern, events[split:], spec)
    _apply_pane(twin, pattern, events, spec)
    assert json.dumps(restored.export_cells()) == json.dumps(twin.export_cells())
    got, expected = restored.new_vector(), twin.new_vector()
    restored.fold(got)
    twin.fold(expected)
    assert restored.final_state(got).as_tuple() == twin.final_state(expected).as_tuple()
