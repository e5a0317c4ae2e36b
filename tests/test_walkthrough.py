"""The README walkthrough prints and writes the bytes the benchmark recorded
(``perfbench/walkthrough_digests.json``), so a change to them fails here,
not only in a benchmark run."""

from .conftest import PERFBENCH, load_perfbench


class _Spans:
    """A tracer that records nothing: the walkthrough only opens and
    closes one span per command."""

    def begin(self, name):
        return name

    def end(self, span):
        pass


def test_walkthrough_outputs_match_the_recorded_digests(monkeypatch,
                                                        tmp_path):
    workloads = load_perfbench(monkeypatch, "workloads")
    walkthrough = workloads.Walkthrough(PERFBENCH.parent / "src", tmp_path)
    out = walkthrough.body(0, 0, tracer=_Spans())
    assert walkthrough.check(0, out) == []
