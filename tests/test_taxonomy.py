import numpy as np
import pytest

from htss.errors import CyclicRelations, DataError, NoStrongParent, UncoveredClass
from htss.taxonomy import (
    BBOX,
    HOLONYM,
    HYPERNYM,
    IMAGE_TAG,
    PIXEL_COARSE,
    PIXEL_DENSE,
    SYNONYM,
    AtomPartition,
    LabelSpace,
    RelationTable,
    Taxonomy,
    build_group_sets,
    build_semantic_atoms,
    dataset_heads,
    partition_atoms,
    semantic_closure,
    synonym_closure,
    validate_taxonomy,
)

from oracles import atoms_fixed_point_oracle, partition_oracle, random_taxonomy_instance


def space(ds, names, kind=PIXEL_DENSE):
    return LabelSpace(dataset_id=ds, classes=("void",) + tuple(names), supervision=kind)


# --- label spaces ---

def test_label_space_basics():
    sp = space("d0", ["car", "person"])
    assert sp.num_classes == 2
    assert sp.class_index("void") == 0
    assert sp.class_index("person") == 2


def test_label_space_requires_void_first():
    with pytest.raises(DataError):
        LabelSpace(dataset_id="d", classes=("car", "void"), supervision=PIXEL_DENSE)


def test_label_space_rejects_duplicates():
    with pytest.raises(DataError):
        space("d", ["car", "car"])


def test_label_space_rejects_unknown_supervision():
    with pytest.raises(DataError):
        space("d", ["car"], kind="scribble")


# --- relation table ---

def test_relations_reject_self_relation():
    with pytest.raises(DataError):
        RelationTable.from_triples([(SYNONYM, "a", "a")])


def test_relations_reject_cycle():
    with pytest.raises(CyclicRelations):
        RelationTable.from_triples([(HYPERNYM, "a", "b"), (HYPERNYM, "b", "a")])


def test_relations_reject_mixed_kind_cycle():
    # acyclicity is over the union of hypernym and holonym edges; the
    # message lists the cycle along the edges
    with pytest.raises(CyclicRelations, match="cycle: a -> b -> c -> a$"):
        RelationTable.from_triples([
            (HYPERNYM, "a", "b"), (HOLONYM, "b", "c"), (HYPERNYM, "c", "a"),
        ])


def test_relations_chain_is_fine():
    t = RelationTable.from_triples([(HYPERNYM, "a", "b"), (HOLONYM, "b", "c")])
    assert t.generalizes("a", "b")
    assert t.generalizes("b", "c")
    assert not t.generalizes("a", "c")  # one step only


def test_synonym_closure_is_transitive():
    t = RelationTable.from_triples([(SYNONYM, "a", "b"), (SYNONYM, "b", "c")])
    assert synonym_closure("a", t) == {"a", "b", "c"}
    assert synonym_closure("c", t) == {"a", "b", "c"}


def test_semantic_closure_descends_and_aliases():
    t = RelationTable.from_triples([
        (HYPERNYM, "rider", "bicyclist"),
        (SYNONYM, "bicyclist", "cyclist"),
    ])
    assert semantic_closure("rider", t) == {"rider", "bicyclist", "cyclist"}
    assert semantic_closure("bicyclist", t) == {"bicyclist", "cyclist"}


# --- atom extraction ---

def test_atoms_single_space_no_relations():
    atoms = build_semantic_atoms([space("d0", ["car", "person"])], RelationTable.empty())
    assert atoms == ["car", "person"]


def test_atoms_parent_label_dissolves():
    spaces = [
        space("d0", ["rider"]),
        space("d1", ["motorcyclist"]),
        space("d2", ["bicyclist"]),
    ]
    rel = RelationTable.from_triples([
        (HYPERNYM, "rider", "motorcyclist"),
        (HYPERNYM, "rider", "bicyclist"),
    ])
    assert build_semantic_atoms(spaces, rel) == ["bicyclist", "motorcyclist"]


def test_atoms_synonym_keeps_smaller_name():
    spaces = [space("d0", ["auto"]), space("d1", ["automobile"], PIXEL_COARSE)]
    rel = RelationTable.from_triples([(SYNONYM, "auto", "automobile")])
    assert build_semantic_atoms(spaces, rel) == ["auto"]


def test_atoms_duplicate_names_collapse():
    spaces = [space("d0", ["car"]), space("d1", ["car", "person"])]
    assert build_semantic_atoms(spaces, RelationTable.empty()) == ["car", "person"]


def test_atoms_holonym_whole_dissolves():
    spaces = [space("d0", ["car"]), space("d1", ["wheel"])]
    rel = RelationTable.from_triples([(HOLONYM, "car", "wheel")])
    assert build_semantic_atoms(spaces, rel) == ["wheel"]


def test_atoms_idempotent():
    spaces = [
        space("d0", ["rider", "car"]),
        space("d1", ["bicyclist", "auto"]),
    ]
    rel = RelationTable.from_triples([
        (HYPERNYM, "rider", "bicyclist"),
        (SYNONYM, "car", "auto"),
    ])
    atoms = build_semantic_atoms(spaces, rel)
    again = build_semantic_atoms([space("w", atoms)], rel)
    assert again == atoms


def test_atoms_invariant_under_input_order():
    spaces = [
        space("d0", ["rider", "car"]),
        space("d1", ["bicyclist"]),
        space("d2", ["motorcyclist", "auto"], PIXEL_COARSE),
    ]
    rel = RelationTable.from_triples([
        (HYPERNYM, "rider", "bicyclist"),
        (HYPERNYM, "rider", "motorcyclist"),
        (SYNONYM, "auto", "car"),
    ])
    base = build_semantic_atoms(spaces, rel)
    for perm in [(2, 0, 1), (1, 2, 0), (2, 1, 0)]:
        shuffled = [spaces[i] for i in perm]
        assert build_semantic_atoms(shuffled, rel) == base


def test_atoms_need_pixel_space():
    with pytest.raises(DataError):
        build_semantic_atoms([space("d0", ["car"], BBOX)], RelationTable.empty())


def test_atoms_reject_duplicate_dataset_ids():
    with pytest.raises(DataError):
        build_semantic_atoms([space("d", ["a"]), space("d", ["b"])],
                             RelationTable.empty())


def test_atoms_match_bruteforce_oracle_random():
    rng = np.random.default_rng(20260822)
    for _ in range(120):
        spaces, triples = random_taxonomy_instance(rng)
        rel = RelationTable.from_triples(triples)
        got = build_semantic_atoms(spaces, rel)
        names = {n for sp in spaces for n in sp.classes[1:]}
        assert got == atoms_fixed_point_oracle(names, rel)


def test_atoms_removal_order_decides():
    # the first related pair is (a, c): a goes, so b no longer has a partner
    rel = RelationTable.from_triples([(HYPERNYM, "b", "a"), (HYPERNYM, "a", "c")])
    assert build_semantic_atoms([space("d0", ["a", "b", "c"])], rel) == ["b", "c"]


def test_atoms_generalization_beats_synonym():
    rel = RelationTable.from_triples([(SYNONYM, "a", "b"), (HYPERNYM, "a", "b")])
    assert build_semantic_atoms([space("d0", ["a", "b"])], rel) == ["b"]


def test_atoms_one_way_synonym_removes_larger_name():
    rel = RelationTable(narrower={}, synonyms={"b": ("a",)})
    spaces = [space("d0", ["a", "b"])]
    assert build_semantic_atoms(spaces, rel) == atoms_fixed_point_oracle(["a", "b"], rel) == ["a"]


def shuffled_relations_instance(rng, n_names):
    """Random acyclic relations over names whose sort order is unrelated
    to the edge direction, so a child can sort before its parent.

    Hypernym/holonym edges run from lower to higher rank of a random
    ranking, which keeps them acyclic. Synonym pairs are arbitrary, and a
    few relations mention names outside the label union.
    """
    n_outside = int(rng.integers(0, 4))
    ids = rng.choice(10 * (n_names + n_outside), size=n_names + n_outside, replace=False)
    everything = [f"l{i}" for i in ids]
    rank = {name: r for r, name in enumerate(rng.permutation(everything))}
    triples = set()
    for _ in range(int(rng.integers(0, 2 * len(everything)))):
        a, b = rng.choice(everything, size=2, replace=False)
        if rng.random() < 0.25:
            triples.add((SYNONYM, a, b))
        else:
            hi, lo = (a, b) if rank[a] < rank[b] else (b, a)
            triples.add((HYPERNYM if rng.random() < 0.6 else HOLONYM, hi, lo))
    union = everything[:n_names]
    spaces = []
    for si in range(int(rng.integers(1, 4))):
        picked = [n for n in union if rng.random() < 0.6] or [union[0]]
        spaces.append(space(f"d{si}", picked, PIXEL_DENSE if si == 0 else BBOX))
    covered = {n for sp in spaces for n in sp.classes[1:]}
    if len(covered) < len(union):
        spaces.append(space("rest", sorted(set(union) - covered), PIXEL_COARSE))
    return spaces, RelationTable.from_triples(sorted(triples))


def test_atoms_match_oracle_on_shuffled_relations():
    rng = np.random.default_rng(7041)
    sizes = [int(n) for n in rng.integers(2, 31, size=2000)] + [150]
    for n_names in sizes:
        spaces, rel = shuffled_relations_instance(rng, n_names)
        names = {n for sp in spaces for n in sp.classes[1:]}
        assert build_semantic_atoms(spaces, rel) == atoms_fixed_point_oracle(names, rel)


# --- group sets ---

def test_groups_parent_covers_children():
    spaces = [
        space("d0", ["rider"]),
        space("d1", ["motorcyclist"]),
        space("d2", ["bicyclist"]),
    ]
    rel = RelationTable.from_triples([
        (HYPERNYM, "rider", "motorcyclist"),
        (HYPERNYM, "rider", "bicyclist"),
    ])
    atoms = build_semantic_atoms(spaces, rel)
    t = build_group_sets(atoms, spaces, rel)
    assert t.atoms == ("bicyclist", "motorcyclist")
    assert t.groups[("d0", 1)] == frozenset({1, 2})
    assert t.groups[("d1", 1)] == frozenset({2})
    assert t.groups[("d0", 0)] == frozenset({0})
    assert dataset_heads(t, AtomPartition.trivial(t), spaces[0]).loss_groups == (
        frozenset({0, 1}),)


def test_groups_synonym_class_maps_to_kept_atom():
    spaces = [space("d0", ["auto"]), space("d1", ["automobile"], PIXEL_COARSE)]
    rel = RelationTable.from_triples([(SYNONYM, "auto", "automobile")])
    t = build_group_sets(build_semantic_atoms(spaces, rel), spaces, rel)
    assert t.groups[("d1", 1)] == frozenset({1})
    assert t.atom_name(1) == "auto"


def test_groups_uncovered_class_raises():
    spaces = [space("d0", ["car"])]
    with pytest.raises(UncoveredClass):
        build_group_sets(["person"], spaces, RelationTable.empty())


def test_validate_accepts_built_taxonomy():
    rng = np.random.default_rng(7)
    for _ in range(40):
        spaces, triples = random_taxonomy_instance(rng)
        rel = RelationTable.from_triples(triples)
        t = build_group_sets(build_semantic_atoms(spaces, rel), spaces, rel)
        violations = validate_taxonomy(t, spaces)
        assert not violations, violations


def test_validate_flags_overlap():
    sp = space("d0", ["a", "b"])
    t = Taxonomy(atoms=("a", "b"),
                 groups={("d0", 0): frozenset({0}),
                         ("d0", 1): frozenset({1, 2}),
                         ("d0", 2): frozenset({2})})
    assert [v.kind for v in validate_taxonomy(t, [sp])] == ["overlap"]


def test_validate_flags_bad_void_and_unknown_atom():
    sp = space("d0", ["a"])
    t = Taxonomy(atoms=("a",),
                 groups={("d0", 0): frozenset({0, 1}),
                         ("d0", 1): frozenset({5})})
    kinds = {v.kind for v in validate_taxonomy(t, [sp])}
    assert kinds == {"void-mapping", "unknown-atom"}


def test_validate_flags_missing_group():
    sp = space("d0", ["a", "b"])
    t = Taxonomy(atoms=("a", "b"),
                 groups={("d0", 0): frozenset({0}), ("d0", 1): frozenset({1})})
    assert [v.kind for v in validate_taxonomy(t, [sp])] == ["uncovered"]


# --- partition ---

def _sign_world():
    spaces = [
        space("front", ["traffic_sign_front"]),
        space("boxes", ["speed_limit", "stop_sign"], BBOX),
    ]
    rel = RelationTable.from_triples([
        (HYPERNYM, "traffic_sign_front", "speed_limit"),
        (HYPERNYM, "traffic_sign_front", "stop_sign"),
    ])
    atoms = build_semantic_atoms(spaces, rel)
    t = build_group_sets(atoms, spaces, rel)
    return spaces, rel, t


def test_partition_weak_only_subclasses():
    spaces, rel, t = _sign_world()
    assert t.atoms == ("speed_limit", "stop_sign")
    part = partition_atoms(t, spaces, rel)
    assert part.atoms == ("speed_limit", "stop_sign", "traffic_sign_front")
    assert part.a_set == frozenset()
    assert part.s_set == frozenset({1, 2})
    assert part.p_set == frozenset({3})
    assert part.parent_of == {1: 3, 2: 3}
    assert part.ap_atoms == (3,)
    assert part.s_atoms == (1, 2)
    assert part.children_of(3) == [1, 2]


def test_partition_all_pixel_is_trivial():
    spaces = [space("d0", ["car", "person"])]
    t = build_group_sets(["car", "person"], spaces, RelationTable.empty())
    part = partition_atoms(t, spaces, RelationTable.empty())
    assert part.s_set == frozenset()
    assert part.p_set == frozenset()
    assert part.a_set == frozenset({1, 2})
    assert part == AtomPartition.trivial(t)


def test_partition_pixel_appearance_elsewhere_blocks_s():
    # the subclass also appears in a pixel dataset, so it stays in a_set
    spaces = [
        space("front", ["traffic_sign_front"]),
        space("dense", ["stop_sign"]),
        space("boxes", ["speed_limit", "stop_sign"], BBOX),
    ]
    rel = RelationTable.from_triples([
        (HYPERNYM, "traffic_sign_front", "speed_limit"),
        (HYPERNYM, "traffic_sign_front", "stop_sign"),
    ])
    t = build_group_sets(build_semantic_atoms(spaces, rel), spaces, rel)
    part = partition_atoms(t, spaces, rel)
    assert part.s_set == frozenset({1})  # speed_limit only
    assert part.atom_name(next(iter(part.p_set))) == "traffic_sign_front"


def test_partition_synonym_counts_as_exact_appearance():
    spaces = [
        space("front", ["traffic_sign_front"]),
        space("dense", ["halt_sign"]),
        space("boxes", ["stop_sign"], BBOX),
    ]
    rel = RelationTable.from_triples([
        (HYPERNYM, "traffic_sign_front", "stop_sign"),
        (SYNONYM, "stop_sign", "halt_sign"),
    ])
    t = build_group_sets(build_semantic_atoms(spaces, rel), spaces, rel)
    part = partition_atoms(t, spaces, rel)
    # pixel dataset names the atom through a synonym: not weak-only
    assert part.s_set == frozenset()


def test_partition_no_strong_parent():
    spaces = [space("d0", ["car"]), space("d1", ["stop_sign"], BBOX)]
    with pytest.raises(NoStrongParent):
        t = build_group_sets(["car", "stop_sign"], spaces, RelationTable.empty())
        partition_atoms(t, spaces, RelationTable.empty())


def test_partition_parent_tiebreak_smallest_name():
    spaces = [
        space("f1", ["sign_front"]),
        space("f2", ["marker_front"]),
        space("boxes", ["stop_sign"], BBOX),
    ]
    rel = RelationTable.from_triples([
        (HYPERNYM, "sign_front", "stop_sign"),
        (HYPERNYM, "marker_front", "stop_sign"),
    ])
    t = build_group_sets(build_semantic_atoms(spaces, rel), spaces, rel)
    part = partition_atoms(t, spaces, rel)
    parent = part.parent_of[t.atoms.index("stop_sign") + 1]
    assert part.atom_name(parent) == "marker_front"


def test_partition_matches_oracle_on_shuffled_relations():
    rng = np.random.default_rng(31)
    outcomes = {"partition": 0, "raise": 0}
    for _ in range(300):
        spaces, rel = shuffled_relations_instance(rng, int(rng.integers(2, 31)))
        t = build_group_sets(build_semantic_atoms(spaces, rel), spaces, rel)
        universe = {n for sp in spaces for n in sp.classes[1:]}
        universe |= {n for edges in (rel.narrower, rel.synonyms)
                     for subject, objs in edges.items() for n in (subject, *objs)}
        try:
            expected = partition_oracle(t.atoms, spaces, rel, universe)
        except DataError as exc:
            with pytest.raises(DataError) as got:
                partition_atoms(t, spaces, rel)
            assert type(got.value) is type(exc), (got.value, exc)
            outcomes["raise"] += 1
            continue
        part = partition_atoms(t, spaces, rel)
        assert {part.atom_name(s): part.atom_name(p)
                for s, p in part.parent_of.items()} == expected
        outcomes["partition"] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_partition_rejects_overlapping_sets():
    with pytest.raises(DataError):
        AtomPartition(atoms=("a", "b"), a_set=frozenset({1}),
                      s_set=frozenset({1}), p_set=frozenset(), parent_of={1: 2})


@pytest.mark.parametrize("s_set, p_set, parent_of", [
    (set(), {4}, {}),         # a parent and no subclass at all
    ({1}, {3, 4}, {1: 3}),    # parent 3 has subclass 1, parent 4 has none
], ids=["no-subclass-at-all", "one-parent-without"])
def test_partition_rejects_a_parent_without_subclasses(s_set, p_set, parent_of):
    # the merge of the two heads would have no s-head atom to put in place
    # of parent 4, so the partition is refused when it is built
    with pytest.raises(DataError, match="subclass"):
        AtomPartition(atoms=("a", "b", "p", "q"), a_set=frozenset({1, 2} - s_set),
                      s_set=frozenset(s_set), p_set=frozenset(p_set), parent_of=parent_of)


# --- head routing ---

def test_heads_trivial_partition_keeps_groups():
    spaces = [space("d0", ["rider", "car"]), space("d1", ["bicyclist"])]
    rel = RelationTable.from_triples([(HYPERNYM, "rider", "bicyclist")])
    t = build_group_sets(build_semantic_atoms(spaces, rel), spaces, rel)
    part = AtomPartition.trivial(t)
    dg = dataset_heads(t, part, spaces[0])
    assert dg.head == "ap"
    assert dg.parent_slots is None
    # head-local positions are zero-based atom indices here: atom a -> a - 1
    assert dg.loss_groups == tuple(frozenset(a - 1 for a in t.groups[("d0", m)])
                                   for m in (1, 2))


def test_heads_parent_class_remaps_to_p_atom():
    spaces, rel, t = _sign_world()
    part = partition_atoms(t, spaces, rel)
    dg_front = dataset_heads(t, part, spaces[0])
    assert dg_front.head == "ap"
    # only one a+p slot: the appended parent atom
    assert dg_front.loss_groups == (frozenset({0}),)
    dg_boxes = dataset_heads(t, part, spaces[1])
    assert dg_boxes.head == "s"
    assert dg_boxes.loss_groups == (frozenset({0}), frozenset({1}))
    assert dg_boxes.parent_slots == (0, 0)


def test_heads_reject_mixed_dataset():
    spaces = [
        space("front", ["traffic_sign_front"]),
        space("boxes", ["speed_limit", "stop_sign", "car"], BBOX),
        space("dense", ["car"]),
    ]
    rel = RelationTable.from_triples([
        (HYPERNYM, "traffic_sign_front", "speed_limit"),
        (HYPERNYM, "traffic_sign_front", "stop_sign"),
    ])
    t = build_group_sets(build_semantic_atoms(spaces, rel), spaces, rel)
    part = partition_atoms(t, spaces, rel)
    with pytest.raises(DataError):
        dataset_heads(t, part, spaces[1])


def test_heads_straddling_group_rejected():
    # coarse pixel class covering one weak-only atom and one strong atom
    spaces = [
        space("coarse", ["sign"]),
        space("dense", ["speed_limit"]),
        space("boxes", ["stop_sign"], BBOX),
    ]
    rel = RelationTable.from_triples([
        (HYPERNYM, "sign", "speed_limit"),
        (HYPERNYM, "sign", "stop_sign"),
    ])
    t = build_group_sets(build_semantic_atoms(spaces, rel), spaces, rel)
    part = partition_atoms(t, spaces, rel)
    with pytest.raises(DataError):
        dataset_heads(t, part, spaces[0])


def test_heads_reject_class_spanning_several_parents():
    triples = [
        (HYPERNYM, "abc", "a"), (HYPERNYM, "sign", "a"), (HYPERNYM, "sign", "b"),
        (HYPERNYM, "both", "a"), (HYPERNYM, "both", "b"),
    ]
    rel = RelationTable.from_triples(triples)
    spaces = [space("p1", ["abc"]), space("p2", ["sign"]),
              space("boxes", ["a", "b", "both"], BBOX)]
    t = build_group_sets(build_semantic_atoms(spaces, rel), spaces, rel)
    part = partition_atoms(t, spaces, rel)
    assert {part.atom_name(s): part.atom_name(p) for s, p in part.parent_of.items()} == {
        "a": "abc", "b": "sign"}
    assert dataset_heads(t, part, spaces[0]).head == "ap"
    # a pixel parent class covering a and b, and a box class covering both
    for sp in spaces[1:]:
        with pytest.raises(DataError, match="spans several parents"):
            dataset_heads(t, part, sp)

    spaces[2] = space("boxes", ["a", "b"], BBOX)
    t = build_group_sets(build_semantic_atoms(spaces, rel), spaces, rel)
    part = partition_atoms(t, spaces, rel)
    dg = dataset_heads(t, part, spaces[2])
    assert dg.head == "s"
    assert dg.parent_slots == (0, 1)
