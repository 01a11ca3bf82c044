"""Replace-by-unfolding verdicts and program surgery."""

import pytest

from chrkit.equivalence import rules_isomorphic
from chrkit.replace import check_replacement, deletion_hazards, replace_rule
from chrkit.syntax import annotate, parse_program
from chrkit.unfold import unfold_sites

from conftest import load, rule_named


def annotated(name):
    return annotate(load(name))


def parse_rule(text):
    return parse_program(text).rules[0]


def test_chain_is_safely_replaceable():
    p = annotated("chain")
    v = check_replacement(p, 0, "safe")
    assert v.ok
    assert v.sites == [(1, (1,))]
    assert v.hazards == [] and v.guard_mismatches == [] and v.reasons == []


def test_replace_splices_at_the_target_position():
    p = annotated("chain")
    p2, report = replace_rule(p, 0, "safe")
    assert [r.name for r in p2.rules] == ["r", "v"]
    assert report.replaced.name == "r"
    assert len(report.added) == 1
    assert rules_isomorphic(p2.rules[0], parse_rule("r @ p(X) <=> s(Z)#1, X=Z."))
    assert p2.rules[1] == p.rules[1]


def test_guard_change_blocks_both_criteria():
    p = annotated("mau")
    safe = check_replacement(p, 0, "safe")
    weak = check_replacement(p, 0, "weak")
    assert not safe.ok and not weak.ok
    assert safe.sites == [(1, (1,))]
    [mismatch] = safe.guard_mismatches
    assert mismatch.guard  # picked up the anticipated Z=a
    with pytest.raises(ValueError):
        replace_rule(p, 0, "weak")


def test_partial_head_hazards_on_two_headed_source():
    p = annotated("unicatesta")
    safe = check_replacement(p, 0, "safe")
    assert not safe.ok
    kinds = sorted((h.kind, h.positions) for h in safe.hazards)
    assert kinds == [("partial-head", (0,)), ("partial-head", (1,))]
    # the guard survives unchanged, so the weak criterion accepts
    assert check_replacement(p, 0, "weak").ok


def test_unify_only_hazard_on_instance_dependent_match():
    p = annotated("matching")
    safe = check_replacement(p, 0, "safe")
    assert not safe.ok
    [hazard] = safe.hazards
    assert hazard.kind == "unify-only"
    assert hazard.source_name == "r2"
    assert hazard.idents == (1,)
    assert check_replacement(p, 0, "weak").ok


def test_covered_sites_and_tokens_are_not_hazards():
    p = annotated("chain")
    assert deletion_hazards(p, 0, unfold_sites(p, 0)) == []
    # after unfolding, the recorded token keeps the same firing from
    # resurfacing as a hazard
    p2 = annotated("token_update")
    (site,) = unfold_sites(p2, 0)
    extended = type(p2)((site.rule,) + p2.rules[1:], annotated=True)
    assert not any(
        h.source_name == "r2" and h.idents == (1,)
        for h in deletion_hazards(extended, 0, unfold_sites(extended, 0))
    )


def test_no_unfold_site_blocks_safe_replacement():
    p = annotate(parse_program("r @ p <=> q.\nv @ w <=> s."))
    verdict = check_replacement(p, 0, "safe")
    assert not verdict.ok
    assert verdict.sites == []
    assert any("no unfold site" in reason for reason in verdict.reasons)


def test_force_mode_replaces_unconditionally():
    p = annotated("mau")
    p2, report = replace_rule(p, 0, "force")
    assert report.verdict is None
    assert [r.name for r in p2.rules] == ["r", "rp"]
    assert p2.rules[0].guard  # the unfolded version carries Y=a


def test_unknown_mode_is_rejected():
    p = annotated("chain")
    with pytest.raises(ValueError):
        check_replacement(p, 0, "loose")
    with pytest.raises(ValueError):
        replace_rule(p, 0, "loose")


def test_loop_rule_is_replaceable_under_both_criteria():
    p = annotated("solve_order_loop")
    i, _ = rule_named(p, "r1")
    assert check_replacement(p, i, "safe").ok
    assert check_replacement(p, i, "weak").ok
