import pytest

import golden


def test_golden_outputs():
    expected = golden.stored()
    facts = golden.machine_facts()
    other = {k: (expected["machine"].get(k), v) for k, v in facts.items()
             if expected["machine"].get(k) != v}
    if other:
        pytest.skip("golden digests were made on another machine: " + ", ".join(
            f"{k} {was!r} there, {now!r} here" for k, (was, now) in sorted(other.items())))
    changed = golden.differing(expected["digests"], golden.build())
    assert not changed, f"golden outputs changed: {', '.join(changed)}"
