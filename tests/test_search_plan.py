"""The exact check's plan kept per reading: ``states_equivalent_mod`` on
readings that keep their pools and search order, against the search that
planned every check from scratch, kept verbatim, plus a gate on the
variable collection the plan saves."""

from typing import Dict

from hypothesis import given, settings, strategies as st

from chrkit import equivalence
from chrkit.equivalence import _match_term
from chrkit.semantics import search
from chrkit.syntax import Token, parse_goal, parse_program
from chrkit.terms import Var, vars_of

from test_state_keys import fixed_st, near_misses, states, twins

# ------------------------------------------------------------- reference
# The search as it was before the plan moved into the reading: it builds
# the candidate pools of one side and the order of the other on every call.


def _search(items, cands, tokens_a, tokens_b, fixed=frozenset()) -> bool:
    """Is there one injective renaming of the variables, the identity on
    ``fixed``, and one injective map of the identifiers under which each
    item ``(key, term, ident, slack)`` equals a distinct candidate with
    its key, and ``tokens_a`` becomes ``tokens_b``?

    Depth first over an explicit stack, the items are mapped fewest
    candidates first, each followed by the store facts (items identified
    by a variable) on its variables; facts on fixed variables come first
    and the others last. A fact on a mapped or fixed variable has one
    candidate, the fact on the image. A token is checked as soon as its
    last identifier is mapped. An item commits to its first matching
    candidate when the match maps at most ``slack`` new variables, which
    occur in no other item: every candidate it could match interchanges
    with that one.
    """
    pools, by_ident = {}, {}
    for c in cands:
        pools.setdefault(c[0], []).append(c)
        by_ident[c[2]] = c
    if len(tokens_a) != len(tokens_b) or len(items) != len(by_ident):
        return False
    facts = {it[2]: it for it in items if isinstance(it[2], Var)}
    order = [facts.pop(v) for v in list(facts) if v in fixed]
    for it in sorted(items, key=lambda it: len(pools.get(it[0], ()))):
        if not isinstance(it[2], Var):
            order += [it] + [facts.pop(v) for v in vars_of(it[1]) if v in facts]
    items = order + list(facts.values())
    pos = {it[2]: k for k, it in enumerate(items) if not isinstance(it[2], Var)}
    due: Dict[int, list] = {}
    for t in tokens_a:
        due.setdefault(max((pos[i] for i in t.idents), default=0), []).append(t)
    if not items:
        return tokens_a == tokens_b

    def choices(k, rho):
        key, _, ident, _ = items[k]
        if isinstance(ident, Var) and (ident in fixed or ident in rho):
            hit = by_ident.get(rho.get(ident, ident))
            return iter((hit,) if hit else ())
        return iter(pools.get(key, ()))

    idmap, used = {}, set()
    # a frame per item being mapped: its index, the renaming before it and
    # its untried candidates; the candidate it holds is in idmap and used
    stack = [(0, {}, choices(0, {}))]
    while stack:
        k, rho, rest = stack[-1]
        _, term, ident, slack = items[k]
        if ident in idmap:
            used.discard(idmap.pop(ident))
        for _, term_b, ident_b, _ in rest:
            if ident_b in used:
                continue
            r2 = _match_term(term, term_b, rho, fixed)
            if r2 is None:
                continue
            idmap[ident] = ident_b
            if any(
                Token(t.rule_name, tuple(idmap[i] for i in t.idents)) not in tokens_b
                for t in due.get(k, ())
            ):
                del idmap[ident]
                continue
            if k + 1 == len(items):
                return True
            used.add(ident_b)
            if slack is not None and len(r2) <= len(rho) + slack:
                stack[-1] = (k, rho, iter(()))
            stack.append((k + 1, r2, choices(k + 1, r2)))
            break
        else:
            stack.pop()
    return False


# ------------------------------------------------------------ properties


@settings(deadline=None, max_examples=300)
@given(st.data(), states(), fixed_st)
def test_kept_readings_agree_with_the_search_planned_per_check(data, state, fixed):
    # one reading of the state meets readings of an unrelated state, a
    # near miss and a twin, in both directions, so its plan is used against
    # pools whose fingerprint differs from its own
    twin, _ = data.draw(twins(state, fixed))
    others = [data.draw(states()), data.draw(near_misses(twin)), twin]
    read_a = equivalence.state_fingerprint(state[0], state[2], state[3], fixed)
    for other in others:
        read_b = equivalence.state_fingerprint(other[0], other[2], other[3], fixed)
        if read_a.key is None or read_b.key is None:  # a failed state
            continue
        for (sa, ra), (sb, rb) in (((state, read_a), (other, read_b)),
                                   ((other, read_b), (state, read_a))):
            want = _search(ra.items, rb.items, ra.tokens, rb.tokens, ra.fixed)
            assert equivalence.states_equivalent_mod(
                sa[0], sa[2], sa[3], sb[0], sb[2], sb[3], fixed, ra, rb
            ) == want
            # readings made inside the call give the same answer
            assert equivalence.states_equivalent_mod(
                sa[0], sa[2], sa[3], sb[0], sb[2], sb[3], fixed
            ) == want
            if read_a.key == read_b.key:
                # equal fingerprints: each side's own pools order its items
                # as the other side's did
                assert ra.plan[0] == _plan_against(ra, rb)


def _plan_against(ra, rb) -> list:
    return equivalence._plan(ra.items, rb.pools[0], ra.tokens, ra.fixed)[0]


# ------------------------------------------------------------ work gate


def test_independent_atoms_collect_variables_once_per_reading(monkeypatch):
    # six interchangeable atoms: 2,188 exact checks, all hits. Planning
    # every check from scratch called vars_of 13,128 times inside them,
    # once per atom of the state looked up. Now each reading's items take
    # one vars_of, and the plan, built once per held state, one walk per atom
    walkers = {"vars_of": 0, "vars_in_order": 0}
    readings, held, inside = {}, {}, [False]  # id -> the reading, kept alive
    exact = search.states_equivalent_mod

    def counted_exact(*args):
        readings.update((id(r), r) for r in args[7:])
        held[id(args[8])] = args[8]
        inside[0] = True
        try:
            return exact(*args)
        finally:
            inside[0] = False

    def counting(name):
        walker = getattr(equivalence, name)

        def counted(obj):
            walkers[name] += inside[0]
            return walker(obj)

        return counted

    monkeypatch.setattr(search, "states_equivalent_mod", counted_exact)
    for name in walkers:
        monkeypatch.setattr(equivalence, name, counting(name))
    program = parse_program("r @ p(X) <=> q(X). v @ q(Y) <=> s(Y).")
    res = search.explore(program, parse_goal(", ".join(f"p(X{i})" for i in range(6))))
    assert res.expanded == 2917
    assert walkers["vars_of"] <= len(readings)
    assert walkers["vars_in_order"] <= 6 * len(held) <= 6 * 729
