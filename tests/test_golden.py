"""The equivalence oracle: every pinned case gives its pinned bytes."""

import golden


def test_outputs_match_the_golden_table():
    pinned = golden.pinned()
    cases = golden.cases()
    assert sorted(pinned) == sorted(cases)
    changed = {name: (pinned[name], got) for name, argv in cases.items()
               if (got := golden.run_case(argv)) != pinned[name]}
    assert not changed, f"{len(changed)} of {len(cases)} cases changed: {changed}"
