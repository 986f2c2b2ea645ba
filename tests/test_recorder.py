"""Unit tests for the execution recorder."""

from repro.automata.actions import Action, action_set
from repro.sim.recorder import EventRecord, Recorder


def sample_recorder():
    recorder = Recorder()
    recorder.record(Action("A", (0,)), 1.0, "node0", 0.9, True)
    recorder.record(Action("B", (1,)), 2.0, "node1", 2.2, True)
    recorder.record(Action("HIDDEN", (0,)), 2.5, "node0", 2.4, False)
    recorder.record(Action("C", ()), 3.0, "chan", None, True)
    return recorder


class TestRecorder:
    def test_timed_schedule_includes_hidden(self):
        assert len(sample_recorder().timed_schedule()) == 4

    def test_timed_trace_excludes_hidden(self):
        trace = sample_recorder().timed_trace()
        assert [ev.action.name for ev in trace] == ["A", "B", "C"]

    def test_timed_trace_restriction(self):
        trace = sample_recorder().timed_trace(restrict_to=action_set("A"))
        assert [ev.action.name for ev in trace] == ["A"]

    def test_clock_stamps_fall_back_to_now(self):
        gamma = sample_recorder().clock_stamped_trace()
        stamps = {ev.action.name: ev.time for ev in gamma}
        assert stamps["A"] == 0.9
        assert stamps["C"] == 3.0  # clockless owner

    def test_clock_stamped_resorted(self):
        recorder = Recorder()
        recorder.record(Action("X", (0,)), 1.0, "n0", 2.0, True)
        recorder.record(Action("Y", (1,)), 1.5, "n1", 1.0, True)
        gamma = recorder.clock_stamped_trace()
        assert [ev.action.name for ev in gamma] == ["Y", "X"]
        raw = recorder.clock_stamped_trace(resort=False)
        assert [ev.action.name for ev in raw] == ["X", "Y"]

    def test_clock_stamped_visible_only_flag(self):
        full = sample_recorder().clock_stamped_trace(visible_only=False)
        assert len(full) == 4

    def test_count_and_filter(self):
        recorder = sample_recorder()
        assert recorder.count("A") == 1
        assert recorder.count("MISSING") == 0
        hidden = recorder.filter(lambda e: not e.visible)
        assert len(hidden) == 1 and hidden[0].action.name == "HIDDEN"

    def test_indices_sequential(self):
        recorder = sample_recorder()
        assert [e.index for e in recorder.events] == [0, 1, 2, 3]

    def test_reprs(self):
        recorder = sample_recorder()
        assert "4 events" in repr(recorder)
        assert "hidden" in repr(recorder.events[2])
        assert "clock=" in repr(recorder.events[0])


class TestEventRecord:
    def test_is_frozen(self):
        record = EventRecord(0, Action("A"), 0.0, "x", None, True)
        import pytest

        with pytest.raises(AttributeError):
            record.now = 5.0

    def test_fields_and_repr(self):
        record = EventRecord(3, Action("A", (1, "m")), 1.5, "n1", 2.25, False)
        assert record._fields == (
            "index", "action", "now", "owner", "clock", "visible"
        )
        assert (record.index, record.action, record.now, record.owner,
                record.clock, record.visible) == (
            3, Action("A", (1, "m")), 1.5, "n1", 2.25, False
        )
        assert repr(record) == "[3] A_1('m') @now=1.5, clock=2.25 by n1 (hidden)"
        assert repr(EventRecord(0, Action("B"), 0.0, "environment", None, True)) \
            == "[0] B() @now=0 by environment"

    def test_recorder_builds_event_records(self):
        recorder = Recorder()
        recorder.record(Action("A", (1,)), 1.0, "n", None, True)
        recorder.injection(2.0, Action("B", ()))
        first, second = recorder.events
        assert type(first) is EventRecord and type(second) is EventRecord
        assert first == EventRecord(0, Action("A", (1,)), 1.0, "n", None, True)
        assert second.owner == "environment" and second.index == 1
