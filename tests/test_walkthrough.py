"""The README walkthrough prints and writes the bytes the benchmark recorded
(``perfbench/walkthrough_digests.json``), so a change to them fails here,
not only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


class _Spans:
    """A tracer that records nothing: the walkthrough only opens and
    closes one span per command."""

    def begin(self, name):
        return name

    def end(self, span):
        pass


def test_walkthrough_outputs_match_the_recorded_digests(monkeypatch,
                                                        tmp_path):
    # loaded from its path without writing bytecode; its dataclasses look
    # their module up in sys.modules while they are built
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    walkthrough = workloads.Walkthrough(WORKLOADS.parents[1] / "src", tmp_path)
    out = walkthrough.body(0, 0, tracer=_Spans())
    assert walkthrough.check(0, out) == []
