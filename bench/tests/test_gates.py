"""A wrong answer anywhere makes the run fail."""

import dataclasses
import json

import repro.serving.shard as shard
from repro.serving.bordermap import Ownership
from repro.serving.compiled import CompiledBorderMap

from bench import run as bench_run


def _result(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_wrong_tier_answer_exits_nonzero(monkeypatch, capsys):
    original = shard.answer_from_wire

    def off_by_one(entry):
        answer = original(entry)
        if answer.op == "owner" and answer.value is not None:
            owner = answer.value
            return dataclasses.replace(answer, value=Ownership(
                asn=owner.asn + 1, source=owner.source, router=owner.router))
        return answer

    monkeypatch.setattr(shard, "answer_from_wire", off_by_one)
    code = bench_run.main(["--workload", "serve-uniform", "--smoke"])
    assert code == 1
    assert _result(capsys)["correct"] is False


def test_wrong_compiled_artifact_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(CompiledBorderMap, "neighbors",
                        lambda self, asn: None)
    code = bench_run.main(["--workload", "pipeline-large", "--smoke"])
    assert code == 1
    assert _result(capsys)["correct"] is False
