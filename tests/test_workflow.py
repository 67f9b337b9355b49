"""The CI workflow is valid YAML without duplicate keys, and each step does
one thing.

GitHub Actions rejects a workflow in which one mapping repeats a key, and a
loader that keeps the last value would drop the first step's check without
a word.  A step with both `uses` and `run`, or neither, is as invalid.
"""

from pathlib import Path

import pytest
import yaml

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"


class UniqueKeyLoader(yaml.SafeLoader):
    """`yaml.SafeLoader`, refusing a mapping that repeats a key."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _value in node.value:
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark, f"found duplicate key {key!r}", key_node.start_mark
                )
            seen.add(key)
        return super().construct_mapping(node, deep)


def load_workflow() -> dict:
    return yaml.load(WORKFLOW.read_text(), Loader=UniqueKeyLoader)


def test_loader_refuses_duplicate_keys():
    with pytest.raises(yaml.constructor.ConstructorError, match="duplicate key 'run'"):
        yaml.load("steps:\n  - name: a\n    run: x\n    run: y\n", Loader=UniqueKeyLoader)
    assert yaml.load("a: 1\nb: {a: 2}\n", Loader=UniqueKeyLoader) == {"a": 1, "b": {"a": 2}}


def test_workflow_has_both_jobs():
    jobs = load_workflow()["jobs"]
    assert {"tests", "answers"} <= set(jobs)
    for name in ("tests", "answers"):
        assert jobs[name]["steps"], name


def test_every_step_uses_or_runs_exactly_once():
    for job, spec in load_workflow()["jobs"].items():
        for i, step in enumerate(spec["steps"]):
            assert ("uses" in step) != ("run" in step), (job, i, step.get("name"))
