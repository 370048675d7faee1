import functools
import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from bigmcg.endspace import (
    BUILTIN_NAMES,
    Cardinality,
    EndClass,
    EndClassTable,
    EndRef,
    EssentialResult,
    EssentialWitness,
    Genus,
    ShiftDescriptor,
    ShiftVerdict,
    accumulation_closure,
    classify_shift,
    compile_builtin,
    descriptor_from_json,
    has_essential_shift,
    report_to_json,
    result_to_json,
    table_from_json,
    table_to_json,
    validate_table,
    verdict_to_json,
)
from bigmcg import endspace
from bigmcg.acceptance import _TABLE_GOLDENS as EXPECTED_VERDICTS
from bigmcg.endspace import _CANTOR_NOTE, _components, _require_valid, _split

from strategies import end_class, tables, wide_table


def table_of(pieces, genus, classes):
    return EndClassTable(tuple(pieces), genus, tuple(classes))


def _side_partition(table, class_id, px, py):
    """(X, Y) from the two-sided split between px and py, in genus mode
    (`class_id` None) or for one class, or None; refuses invalid tables."""
    _require_valid(table)
    w = _split(table, class_id, px, py, _components(table, class_id, True))
    return None if w is None else (frozenset(w.side_x), frozenset(w.side_y))


def genus_side_partition(table, px, py):
    """Split the pieces so no nonplanar ends can cross between the sides:
    X is what the nonplanar trading graph connects to px, Y the rest, or
    None when py is reachable or either side carries no nonplanar ends."""
    return _side_partition(table, None, px, py)


def class_side_partition(table, class_id, px, py):
    """Split the pieces so the accumulation set of `class_id` cannot
    cross; only countable classes can separate, so finite and cantor
    classes give None."""
    return _side_partition(table, class_id, px, py)


def check_partition(table, part, px, py, eligible_ids, planar_ok):
    """Independent recheck of a returned side partition: anchors split,
    sides cover the pieces, no eligible class can trade ends across, and
    both sides actually hold eligible ends."""
    side_x, side_y = part
    assert px in side_x and py in side_y
    assert side_x | side_y == set(table.pieces)
    assert not (side_x & side_y)
    for c in table.classes:
        if not planar_ok and not c.nonplanar:
            continue
        if eligible_ids is not None and c.id not in eligible_ids:
            continue
        shared = set(c.pieces_at("present"))
        if c.card.kind == "cantor":
            shared = set(c.pieces_at("present", "maximal"))
        assert not (shared & side_x and shared & side_y), (c.id, part)
    for side in (side_x, side_y):
        hosts = [
            c
            for c in table.classes
            if (planar_ok or c.nonplanar)
            and (eligible_ids is None or c.id in eligible_ids)
            and any(p in side for p in c.pieces_at("present", "maximal"))
        ]
        assert hosts, (side, eligible_ids)


def check_witness(table, w):
    """`check_partition` on a witness or reason, with the eligible classes
    its mode implies: the nonplanar ones for genus, the class's
    accumulation closure for a class."""
    if w.mode == "genus":
        eligible_ids, planar_ok = None, False
    else:
        eligible_ids, planar_ok = accumulation_closure(table, w.class_id), True
    part = (frozenset(w.side_x), frozenset(w.side_y))
    check_partition(table, part, w.anchor_x, w.anchor_y, eligible_ids, planar_ok)


# ---------------------------------------------------------------------------
# accumulation closures


def test_closure_single_step():
    t = compile_builtin("shark_tank")
    assert accumulation_closure(t, "punctures") == frozenset({"limits"})
    assert accumulation_closure(t, "limits") == frozenset()


def test_closure_chained():
    t = compile_builtin("spider")
    assert accumulation_closure(t, "flies") == frozenset({"crawlers", "web"})
    assert accumulation_closure(t, "legs") == frozenset({"web"})


def test_closure_self_cycle():
    t = compile_builtin("cantor_tree")
    assert accumulation_closure(t, "cantor_ends") == frozenset({"cantor_ends"})


# ---------------------------------------------------------------------------
# validation


def test_builtins_validate():
    for name in BUILTIN_NAMES:
        report = validate_table(compile_builtin(name))
        assert report.ok, (name, report)


def test_two_maxima_in_one_piece():
    t = table_of(
        ["A"],
        Genus("zero"),
        [
            end_class("m1", Cardinality("countable"), False, {"A": "maximal"}),
            end_class("m2", Cardinality("countable"), False, {"A": "maximal"}),
        ],
    )
    assert "maximal-count" in {v.rule for v in validate_table(t).violations}


def test_piece_without_maximum():
    t = table_of(
        ["A", "B"],
        Genus("zero"),
        [end_class("m", Cardinality("countable"), False, {"A": "maximal"})],
    )
    assert "maximal-count" in {v.rule for v in validate_table(t).violations}


def test_finite_maximum_rejected():
    t = table_of(
        ["A"],
        Genus("zero"),
        [end_class("m", Cardinality("finite", 1), False, {"A": "maximal"})],
    )
    assert "maximal-cardinality" in {v.rule for v in validate_table(t).violations}


def test_nonplanar_into_planar_rejected():
    t = table_of(
        ["A"],
        Genus("infinite"),
        [
            end_class("m", Cardinality("countable"), False, {"A": "maximal"}),
            end_class(
                "h", Cardinality("countable"), True, {"A": "present"}, ("m",)
            ),
        ],
    )
    assert "nonplanar-accumulation" in {v.rule for v in validate_table(t).violations}


def test_genus_consistency_both_ways():
    planar = table_of(
        ["A"],
        Genus("infinite"),
        [end_class("m", Cardinality("countable"), False, {"A": "maximal"})],
    )
    assert "genus-consistency" in {v.rule for v in validate_table(planar).violations}
    handled = table_of(
        ["A"],
        Genus("zero"),
        [end_class("m", Cardinality("countable"), True, {"A": "maximal"})],
    )
    assert "genus-consistency" in {v.rule for v in validate_table(handled).violations}


def test_unknown_references():
    t = table_of(
        ["A"],
        Genus("zero"),
        [
            end_class("m", Cardinality("countable"), False, {"A": "maximal"}),
            end_class(
                "c", Cardinality("countable"), False, {"A": "present", "Z": "present"},
                ("m", "ghost"),
            ),
        ],
    )
    rules = {v.rule for v in validate_table(t).violations}
    assert "unknown-piece" in rules
    assert "unknown-accumulation-target" in rules


def test_presence_needs_accumulation():
    t = table_of(
        ["A"],
        Genus("zero"),
        [
            end_class("m", Cardinality("countable"), False, {"A": "maximal"}),
            end_class("stray", Cardinality("countable"), False, {"A": "present"}),
        ],
    )
    assert "presence-needs-accumulation" in {v.rule for v in validate_table(t).violations}


def test_invalid_table_refused_by_search():
    t = table_of(
        ["A"],
        Genus("zero"),
        [end_class("m", Cardinality("finite", 1), False, {"A": "maximal"})],
    )
    with pytest.raises(ValueError, match="maximal-cardinality"):
        has_essential_shift(t)


def test_invalid_table_refused_by_side_partitions():
    # two classes share the id "e": the table names no surface, so neither
    # partition function may answer on it
    t = table_of(
        ["A", "B"],
        Genus("infinite"),
        [
            end_class("e", Cardinality("countable"), True, {"A": "maximal", "B": "maximal"}),
            end_class("e", Cardinality("countable"), False, {"A": "present", "B": "present"}),
        ],
    )
    assert not validate_table(t).ok
    with pytest.raises(ValueError, match="invalid table"):
        genus_side_partition(t, "A", "B")
    with pytest.raises(ValueError, match="invalid table"):
        class_side_partition(t, "e", "A", "B")


# ---------------------------------------------------------------------------
# side partitions on the reference tables


def test_shark_tank_partitions():
    t = compile_builtin("shark_tank")
    assert genus_side_partition(t, "A", "B") is None
    part = class_side_partition(t, "punctures", "A", "B")
    assert part == (frozenset({"A"}), frozenset({"B"}))
    assert class_side_partition(t, "limits", "A", "B") is None


def test_jacobs_ladder_partition():
    t = compile_builtin("jacobs_ladder")
    assert genus_side_partition(t, "A", "B") == (frozenset({"A"}), frozenset({"B"}))


def test_cantor_tree_partitions():
    t = compile_builtin("cantor_tree")
    assert genus_side_partition(t, "A", "B") is None
    assert class_side_partition(t, "cantor_ends", "A", "B") is None


def test_blooming_partition_blocked_by_cantor_rule():
    t = compile_builtin("blooming_cantor_tree")
    assert genus_side_partition(t, "A", "B") is None


def test_partition_argument_errors():
    t = compile_builtin("shark_tank")
    with pytest.raises(ValueError):
        class_side_partition(t, "ghost", "A", "B")


# ---------------------------------------------------------------------------
# the existence search


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_verdicts(name):
    res = has_essential_shift(compile_builtin(name))
    assert isinstance(res, EssentialResult)
    assert res.two_sided == EXPECTED_VERDICTS[name]
    assert (res.witness is not None) == res.two_sided


def test_shark_tank_witness_details():
    res = has_essential_shift(compile_builtin("shark_tank"))
    w = res.witness
    assert w.mode == "class"
    assert w.class_id == "punctures"
    assert {w.anchor_x, w.anchor_y} == {"A", "B"}
    assert (set(w.side_x), set(w.side_y)) == ({"A"}, {"B"})


def test_jacobs_ladder_witness_details():
    res = has_essential_shift(compile_builtin("jacobs_ladder"))
    w = res.witness
    assert w.mode == "genus"
    assert w.class_id is None
    assert (set(w.side_x), set(w.side_y)) == ({"A"}, {"B"})


def test_derived_fields_follow_the_stored_ones():
    genus = EssentialWitness(None, "A", "B", ("A",), ("B",))
    by_class = EssentialWitness("punctures", "A", "B", ("A",), ("B",))
    assert (genus.mode, by_class.mode) == ("genus", "class")
    assert not EssentialResult(None).two_sided
    assert EssentialResult(genus).two_sided
    assert not ShiftVerdict(()).essential
    assert ShiftVerdict((by_class,)).essential


def test_cantor_rule_notes():
    assert has_essential_shift(compile_builtin("blooming_cantor_tree")).notes
    assert has_essential_shift(compile_builtin("spider")).notes
    assert not has_essential_shift(compile_builtin("cantor_tree")).notes
    assert not has_essential_shift(compile_builtin("loch_ness")).notes


# ---------------------------------------------------------------------------
# classifying described shifts


def test_classify_shark_tank_by_block_puncture():
    t = compile_builtin("shark_tank")
    desc = ShiftDescriptor(
        EndRef("A", "limits"),
        EndRef("B", "limits"),
        Genus("zero"),
        (("punctures", "one"),),
    )
    verdict = classify_shift(t, desc)
    assert verdict.essential
    assert verdict.reasons[0].mode == "class"
    assert verdict.reasons[0].class_id == "punctures"


def test_classify_cantor_multiplicity_never_fires():
    t = compile_builtin("shark_tank")
    desc = ShiftDescriptor(
        EndRef("A", "limits"),
        EndRef("B", "limits"),
        Genus("zero"),
        (("punctures", "cantor"),),
    )
    assert not classify_shift(t, desc).essential


def test_classify_jacobs_ladder_by_genus():
    t = compile_builtin("jacobs_ladder")
    desc = ShiftDescriptor(
        EndRef("A", "ladder_ends"), EndRef("B", "ladder_ends"), Genus("finite", 1)
    )
    verdict = classify_shift(t, desc)
    assert verdict.essential
    assert verdict.reasons[0].mode == "genus"
    plain = ShiftDescriptor(
        EndRef("A", "ladder_ends"), EndRef("B", "ladder_ends"), Genus("zero")
    )
    assert not classify_shift(t, plain).essential


def test_classify_spider_notes_cantor_rule():
    t = compile_builtin("spider")
    desc = ShiftDescriptor(
        EndRef("A", "web"),
        EndRef("B", "web"),
        Genus("zero"),
        (("crawlers", "one"),),
    )
    verdict = classify_shift(t, desc)
    assert not verdict.essential
    assert verdict.notes


def test_classify_descriptor_errors():
    t = compile_builtin("spider")
    with pytest.raises(ValueError):
        ShiftDescriptor(EndRef("A", "web"), EndRef("A", "web"), Genus("zero"))
    with pytest.raises(ValueError):
        classify_shift(t, ShiftDescriptor(EndRef("A", "web"), EndRef("Z", "web"), Genus("zero")))
    with pytest.raises(ValueError):
        classify_shift(
            t, ShiftDescriptor(EndRef("A", "web"), EndRef("B", "ghost"), Genus("zero"))
        )
    with pytest.raises(ValueError):
        # legs never reach piece B
        classify_shift(
            t, ShiftDescriptor(EndRef("A", "web"), EndRef("B", "legs"), Genus("zero"))
        )
    with pytest.raises(ValueError):
        classify_shift(
            t,
            ShiftDescriptor(
                EndRef("A", "web"), EndRef("B", "web"), Genus("zero"), (("ghost", "one"),)
            ),
        )
    with pytest.raises(ValueError, match="block class twice"):
        ShiftDescriptor(
            EndRef("A", "web"),
            EndRef("B", "web"),
            Genus("zero"),
            (("crawlers", "one"), ("crawlers", "one")),
        )
    with pytest.raises(ValueError, match="block class twice"):
        ShiftDescriptor(
            EndRef("A", "web"),
            EndRef("B", "web"),
            Genus("zero"),
            (("crawlers", "one"), ("crawlers", "cantor")),
        )


# ---------------------------------------------------------------------------
# properties over generated tables


@given(tables())
def test_generated_tables_validate(table):
    assert validate_table(table).ok


@given(tables())
def test_genus_partitions_are_sound(table):
    for px, py in itertools.permutations(table.pieces, 2):
        part = genus_side_partition(table, px, py)
        if part is not None:
            check_partition(table, part, px, py, None, planar_ok=False)


@given(tables())
def test_class_partitions_are_sound(table):
    for c in table.classes:
        closure = accumulation_closure(table, c.id)
        for px, py in itertools.permutations(table.pieces, 2):
            part = class_side_partition(table, c.id, px, py)
            if part is None:
                continue
            assert c.card.kind == "countable"
            check_partition(table, part, px, py, closure, planar_ok=True)


@given(tables())
def test_noncountable_classes_never_partition(table):
    blocked = [c for c in table.classes if c.card.kind != "countable"]
    for c in blocked:
        for px, py in itertools.permutations(table.pieces, 2):
            assert class_side_partition(table, c.id, px, py) is None


@given(tables(max_pieces=2))
def test_two_piece_partitions_swap(table):
    assume(len(table.pieces) == 2)
    a, b = table.pieces
    fwd = genus_side_partition(table, a, b)
    rev = genus_side_partition(table, b, a)
    assert (fwd is None) == (rev is None)
    if fwd is not None:
        assert rev == (fwd[1], fwd[0])
    for c in table.classes:
        fwd = class_side_partition(table, c.id, a, b)
        rev = class_side_partition(table, c.id, b, a)
        assert (fwd is None) == (rev is None)
        if fwd is not None:
            assert rev == (fwd[1], fwd[0])


@given(tables(), st.randoms(use_true_random=False))
def test_extra_shared_class_cannot_create_partitions(table, rng):
    """Gluing two pieces with a new shared class only removes partitions."""
    hosts = [
        p
        for p in table.pieces
        if any(c.nonplanar and c.presence_in(p) == "maximal" for c in table.classes)
    ]
    assume(len(hosts) >= 2)
    chosen = rng.sample(hosts, 2)
    maxima = {c.id for c in table.classes for p in chosen if c.presence_in(p) == "maximal"}
    glue = end_class(
        "GLUE",
        Cardinality("countable"),
        True,
        {p: "present" for p in chosen},
        maxima,
    )
    bigger = EndClassTable(table.pieces, table.genus, table.classes + (glue,))
    assert validate_table(bigger).ok
    for px, py in itertools.permutations(table.pieces, 2):
        if genus_side_partition(bigger, px, py) is not None:
            assert genus_side_partition(table, px, py) is not None


def all_descriptors(table):
    refs = [
        EndRef(p, c.id)
        for p in table.pieces
        for c in table.classes
        if c.presence_in(p) != "absent"
    ]
    blocks = [(Genus("finite", 1), ())]
    blocks += [
        (Genus("zero"), ((c.id, "one"),))
        for c in table.classes
        if c.card.kind == "countable"
    ]
    for x, y in itertools.permutations(refs, 2):
        if x.piece == y.piece:
            continue
        for genus, maxima in blocks:
            yield ShiftDescriptor(x, y, genus, maxima)


@settings(max_examples=40)
@given(tables())
def test_search_agrees_with_exhaustive_classification(table):
    found = any(classify_shift(table, d).essential for d in all_descriptors(table))
    assert found == has_essential_shift(table).two_sided


@functools.cache
def small_tables():
    """Every valid table on 1-3 pieces with 1-2 classes. Each piece picks
    its one maximal class and whether each other class is present in it;
    each class's cardinality (countable or cantor for a piece maximum),
    planarity and set of accumulation targets, and the genus, range over
    small values. `validate_table` checks the rules not built in. Built
    once and shared by the tests that walk it."""
    found = []
    cards = [Cardinality("finite", 1), Cardinality("countable"), Cardinality("cantor")]
    genera = [Genus("zero"), Genus("finite", 1), Genus("infinite")]
    for n_pieces, n_classes in itertools.product((1, 2, 3), (1, 2)):
        pieces = tuple("ABC"[:n_pieces])
        ids = [f"c{k}" for k in range(n_classes)]
        targets = [s for r in range(n_classes + 1) for s in itertools.combinations(ids, r)]
        levels = itertools.product(("absent", "present", "maximal"), repeat=n_classes)
        columns = [lv for lv in levels if lv.count("maximal") == 1]
        for layout in itertools.product(columns, repeat=n_pieces):
            wheres = [
                {p: col[k] for p, col in zip(pieces, layout) if col[k] != "absent"}
                for k in range(n_classes)
            ]
            kinds = [
                itertools.product(
                    cards[1:] if "maximal" in where.values() else cards, (False, True), targets
                )
                for where in wheres
            ]
            for chosen in itertools.product(*kinds):
                classes = tuple(
                    end_class(class_id, card, nonplanar, where, accu)
                    for class_id, where, (card, nonplanar, accu) in zip(ids, wheres, chosen)
                )
                for genus in genera:
                    table = EndClassTable(pieces, genus, classes)
                    if validate_table(table).ok:
                        found.append(table)
    return tuple(found)


def test_search_agrees_with_classification_on_every_small_table():
    counts = [0, 0]
    for table in small_tables():
        found = any(classify_shift(table, d).essential for d in all_descriptors(table))
        assert found == has_essential_shift(table).two_sided, table_to_json(table)
        counts[found] += 1
    # the enumeration's size, so that it cannot shrink unnoticed
    assert sum(counts) == 9876 and counts[True] == 4528


def split_exists(table, include_cantor):
    """Whether some mode splits the pieces two-sidedly, by brute force over
    the 2^(P-1) bipartitions and without components: a bipartition splits a
    mode when no eligible class glues pieces on both sides of it and both
    sides hold eligible ends."""
    modes = [[c for c in table.classes if c.nonplanar]]
    modes += [
        [c for c in table.classes if c.id in accumulation_closure(table, m.id)]
        for m in table.classes
        if m.card.kind == "countable"
    ]
    first, *rest = table.pieces
    for bits in range(2 ** len(rest) - 1):
        side = {first} | {p for k, p in enumerate(rest) if bits >> k & 1}
        for classes in modes:
            glued = [
                c.pieces_at("present", "maximal")
                if include_cantor and c.card.kind == "cantor"
                else c.pieces_at("present")
                for c in classes
            ]
            if any(set(g) & side and set(g) - side for g in glued):
                continue
            hosts = {p for c in classes for p in c.pieces_at("present", "maximal")}
            if hosts & side and hosts - side:
                return True
    return False


def check_against_bipartitions(table):
    result = has_essential_shift(table)
    with_rule = split_exists(table, True)
    assert result.two_sided == with_rule, table_to_json(table)
    assert bool(result.notes) == (not with_rule and split_exists(table, False))


def test_search_agrees_with_bipartitions_on_every_small_table():
    for table in small_tables():
        check_against_bipartitions(table)


@given(tables(max_pieces=8))
def test_search_agrees_with_bipartitions(table):
    check_against_bipartitions(table)


@pytest.mark.parametrize("n_pieces", [2, 1000])
def test_search_labels_each_mode_at_most_twice(monkeypatch, n_pieces):
    table = wide_table(n_pieces, 4)
    calls = []
    labelling = endspace._components

    def spy(*args):
        calls.append(args[1:])
        return labelling(*args)

    monkeypatch.setattr(endspace, "_components", spy)
    result = has_essential_shift(table)
    assert result.witness is None and result.notes == (_CANTOR_NOTE,)
    # each mode at most once with and once without the cantor rule; the
    # witness reuses the labelling that found it
    assert len(calls) <= 2 * (len(table.classes) + 1), calls
    assert len(set(calls)) == len(calls), calls


def test_wide_table_validates():
    assert validate_table(wide_table(20, 400)).ok


class CountedTuple(tuple):
    """A tuple that counts the times it is iterated, forwards or in reverse."""

    reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()

    def __reversed__(self):
        self.reads += 1
        return iter(self[::-1])


def class_list_reads(search, n_classes):
    """How many times `search` reads the class list of a 20-piece wide table."""
    table = wide_table(20, n_classes)
    classes = CountedTuple(table.classes)
    search(EndClassTable(table.pieces, table.genus, classes))
    return classes.reads


def classify_wide(table):
    # the genus mode has no eligible exits; the class mode of C0 is labelled
    desc = ShiftDescriptor(
        EndRef("p0", "M"), EndRef("p1", "M"), Genus("finite", 1), (("C0", "one"),)
    )
    verdict = classify_shift(table, desc)
    assert not verdict.essential and verdict.notes == (_CANTOR_NOTE,)


@pytest.mark.parametrize("search", [has_essential_shift, classify_wide])
def test_class_list_is_read_a_fixed_number_of_times(search):
    # every lookup by id goes through the table's one class index, so the
    # passes over the class list do not grow with the class count
    assert class_list_reads(search, 10) == class_list_reads(search, 1000)


def test_first_class_listed_under_an_id_wins():
    countable = Cardinality("countable")
    first = end_class("e", countable, False, {"A": "maximal", "B": "maximal"}, ("t",))
    second = end_class("e", Cardinality("cantor"), True, {"A": "present"}, ("u",))
    t = table_of(
        ["A", "B"],
        Genus("zero"),
        [
            end_class("x", countable, False, {"A": "present"}, ("e",)),
            first,
            second,
            end_class("t", countable, False, {"B": "present"}),
            end_class("u", countable, False, {"A": "present"}),
        ],
    )
    assert t.class_by_id("e") is first
    assert accumulation_closure(t, "e") == frozenset({"t"})
    assert accumulation_closure(t, "x") == frozenset({"e", "t"})
    assert "duplicate-class" in [v.rule for v in validate_table(t).violations]
    with pytest.raises(ValueError, match="invalid table: duplicate-class"):
        has_essential_shift(t)


@st.composite
def tables_and_descriptors(draw):
    """A generated table with a random valid descriptor on it: exit ends in
    two different pieces, any block genus, any distinct block-maximal
    classes."""
    table = draw(tables())
    assume(len(table.pieces) >= 2)
    refs = [
        EndRef(p, c.id)
        for p in table.pieces
        for c in table.classes
        if c.presence_in(p) != "absent"
    ]
    x = draw(st.sampled_from(refs))
    others = [r for r in refs if r.piece != x.piece]
    assume(others)
    y = draw(st.sampled_from(others))
    genus = draw(st.sampled_from([Genus("zero"), Genus("finite", 1), Genus("finite", 2)]))
    maxima = draw(
        st.lists(
            st.tuples(
                st.sampled_from([c.id for c in table.classes]),
                st.sampled_from(["one", "cantor"]),
            ),
            max_size=3,
            unique_by=lambda entry: entry[0],
        )
    )
    return table, ShiftDescriptor(x, y, genus, tuple(maxima))


@st.composite
def relabelled_cases(draw):
    """A generated table and descriptor, and their image after renaming the
    pieces by one permutation, declaring them in another order, renaming
    the classes by a permutation of their ids and listing them in another
    order."""
    table, desc = draw(tables_and_descriptors())
    piece = dict(zip(table.pieces, draw(st.permutations(table.pieces))))
    ids = [c.id for c in table.classes]
    name = dict(zip(ids, draw(st.permutations(ids))))
    classes = [
        end_class(
            name[c.id], c.card, c.nonplanar,
            {piece[p]: level for p, level in c.presence},
            {name[t] for t in c.accumulates_to},
        )
        for c in draw(st.permutations(table.classes))
    ]
    pieces = draw(st.permutations(sorted(piece.values())))
    image = EndClassTable(tuple(pieces), table.genus, tuple(classes))

    def ref(r):
        return EndRef(piece[r.piece], name[r.class_id])

    blocks = tuple((name[class_id], mult) for class_id, mult in desc.block_maximal_classes)
    image_desc = ShiftDescriptor(ref(desc.x), ref(desc.y), desc.block_genus, blocks)
    return (table, desc), (image, image_desc)


@given(relabelled_cases())
def test_verdicts_ignore_piece_and_class_names(cases):
    (table, desc), (image, image_desc) = cases
    assert validate_table(image).ok
    before, after = has_essential_shift(table), has_essential_shift(image)
    assert (after.two_sided, bool(after.notes)) == (before.two_sided, bool(before.notes))
    before, after = classify_shift(table, desc), classify_shift(image, image_desc)
    assert (after.essential, bool(after.notes)) == (before.essential, bool(before.notes))


@given(tables_and_descriptors())
def test_essential_descriptor_implies_essential_table(case):
    """Soundness of the classifier against the search, and every witness
    and reason either reports is a genuine split for its mode."""
    table, desc = case
    verdict = classify_shift(table, desc)
    result = has_essential_shift(table)
    if verdict.essential:
        assert result.two_sided and result.witness is not None
    for w in verdict.reasons:
        assert (w.anchor_x, w.anchor_y) == (desc.x.piece, desc.y.piece)
        check_witness(table, w)
    if result.witness is not None:
        check_witness(table, result.witness)


@pytest.mark.parametrize(
    "presence, message",
    [
        ((("A", "present"), ("A", "maximal")), "class 'm' lists a piece twice"),
        ((("B", "present"), ("A", "present")), "presence must be sorted by piece"),
    ],
)
def test_end_class_presence_is_a_sorted_map(presence, message):
    with pytest.raises(ValueError, match=message):
        EndClass("m", Cardinality("countable"), False, presence)


def test_duplicate_piece_is_a_violation():
    m = end_class("m", Cardinality("countable"), False, {"A": "maximal"})
    report = validate_table(table_of(["A", "A"], Genus("zero"), [m]))
    assert "duplicate-piece" in [v.rule for v in report.violations]


def test_descriptor_refuses_a_bad_multiplicity():
    with pytest.raises(ValueError, match="multiplicity must be one or cantor, got 'two'"):
        ShiftDescriptor(EndRef("A", "m"), EndRef("B", "m"), Genus("zero"), (("m", "two"),))


def test_unknown_builtin_is_refused():
    with pytest.raises(ValueError, match="unknown builtin table 'atlantis'"):
        compile_builtin("atlantis")


# ---------------------------------------------------------------------------
# serialization


@given(tables())
def test_table_json_round_trip(table):
    assert table_from_json(table_to_json(table)) == table


def test_builtin_json_round_trip():
    for name in BUILTIN_NAMES:
        t = compile_builtin(name)
        assert table_from_json(table_to_json(t)) == t


def descriptor_to_json(desc):
    """The document `descriptor_from_json` reads."""
    return {
        "x": {"piece": desc.x.piece, "class": desc.x.class_id},
        "y": {"piece": desc.y.piece, "class": desc.y.class_id},
        "block_genus": desc.block_genus.render(),
        "block_maximal_classes": [
            {"class": class_id, "multiplicity": mult}
            for class_id, mult in desc.block_maximal_classes
        ],
    }


def test_descriptor_json_round_trip():
    desc = ShiftDescriptor(
        EndRef("A", "limits"),
        EndRef("B", "limits"),
        Genus("finite", 2),
        (("punctures", "one"), ("limits", "cantor")),
    )
    assert descriptor_from_json(descriptor_to_json(desc)) == desc


def test_result_and_verdict_json_shapes():
    t = compile_builtin("shark_tank")
    res = result_to_json(has_essential_shift(t))
    assert res["has_essential_shift"] is True
    assert res["witness"]["class"] == "punctures"
    verdict = verdict_to_json(
        classify_shift(
            t,
            ShiftDescriptor(
                EndRef("A", "limits"), EndRef("B", "limits"), Genus("zero"),
                (("punctures", "one"),),
            ),
        )
    )
    assert verdict["essential"] is True
    report = report_to_json(validate_table(t))
    assert report == {"ok": True, "violations": []}


@pytest.mark.parametrize("blocks", [5, None, "punctures", {"class": "punctures"}])
def test_descriptor_json_rejects_malformed_blocks(blocks):
    doc = {
        "x": {"piece": "A", "class": "limits"},
        "y": {"piece": "B", "class": "limits"},
        "block_genus": "zero",
        "block_maximal_classes": blocks,
    }
    with pytest.raises(ValueError, match="block"):
        descriptor_from_json(doc)


def test_table_json_rejects_malformed():
    with pytest.raises(ValueError):
        table_from_json([])
    with pytest.raises(ValueError):
        table_from_json({"pieces": ["A"], "genus": "zero"})
    with pytest.raises(ValueError):
        table_from_json(
            {
                "pieces": ["A"],
                "genus": "sideways",
                "classes": [],
            }
        )
    with pytest.raises(ValueError):
        table_from_json(
            {
                "pieces": ["A"],
                "genus": "zero",
                "classes": [
                    {
                        "id": "m",
                        "cardinality": "countable",
                        "nonplanar": False,
                        "presence": {"A": "sideways"},
                        "accumulates_to": [],
                    }
                ],
            }
        )


@pytest.mark.parametrize(
    "text",
    ["finite:1_0", "finite: 2", "finite:+2", "finite:02", "finite:2 ", "finite:٣",
     "finite:0", "finite:-1", "finite:", "finite"],
)
@pytest.mark.parametrize("kind", [Genus, Cardinality])
def test_parse_accepts_only_rendered_counts(kind, text):
    with pytest.raises(ValueError, match=f"cannot parse {kind.__name__.lower()}"):
        kind.parse(text)


def test_counted_kinds_are_separate_and_round_trip():
    with pytest.raises(ValueError, match="cannot parse genus 'countable'"):
        Genus.parse("countable")
    with pytest.raises(ValueError, match="unknown cardinality kind 'zero'"):
        Cardinality("zero")
    with pytest.raises(ValueError, match="finite genus must be >= 1"):
        Genus("finite", 0)
    with pytest.raises(ValueError, match="cardinality 'cantor' takes no count"):
        Cardinality("cantor", 2)
    values = [
        Genus("zero"), Genus("infinite"), Cardinality("countable"), Cardinality("cantor"),
        *(kind("finite", k) for kind in (Genus, Cardinality) for k in (1, 9, 10, 12345)),
    ]
    for x in values:
        assert type(x).parse(x.render()) == x
    assert Genus("finite", 3) != Cardinality("finite", 3)
