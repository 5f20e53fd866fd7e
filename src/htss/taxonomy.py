"""Merging conflicting label spaces into a shared atom vocabulary.

Several datasets, each with its own label space and supervision kind, are
unified by extracting "semantic atoms": the finest-grained labels that
survive after removing every label that is a synonym, hypernym (more
generic term), or holonym (whole of a part) of another surviving label.
Each dataset class is then associated with the group of atoms it covers,
and the atoms are split by supervision reach so that weakly-labeled
subclasses can be trained under a pixel-labeled parent. The relations
are kept as two adjacency maps (narrower: hypernym and holonym edges;
synonyms: synonym edges both ways), walked by one closure function.

Index conventions used throughout the toolkit:
  * class index 0 of every label space is the void class;
  * atom index 0 is the implicit void atom, semantic atoms occupy
    indices 1..atom_count in canonical (sorted-name) order.
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import (
    CyclicRelations,
    DataError,
    EmptyResult,
    NoStrongParent,
    UncoveredClass,
)

VOID = "void"

PIXEL_DENSE = "pixel_dense"
PIXEL_COARSE = "pixel_coarse"
BBOX = "bbox"
IMAGE_TAG = "image_tag"

SUPERVISION_KINDS = (PIXEL_DENSE, PIXEL_COARSE, BBOX, IMAGE_TAG)
PIXEL_KINDS = frozenset({PIXEL_DENSE, PIXEL_COARSE})
WEAK_KINDS = frozenset({BBOX, IMAGE_TAG})

SYNONYM = "synonym"
HYPERNYM = "hypernym"
HOLONYM = "holonym"
RELATION_KINDS = (SYNONYM, HYPERNYM, HOLONYM)


@dataclass(frozen=True)
class LabelSpace:
    """Ordered class list of one dataset; index 0 is always void."""

    dataset_id: str
    classes: tuple[str, ...]
    supervision: str

    def __post_init__(self):
        if not self.dataset_id:
            raise DataError("label space needs a non-empty dataset_id")
        if self.supervision not in SUPERVISION_KINDS:
            raise DataError(f"unknown supervision kind {self.supervision!r}")
        if len(self.classes) < 2:
            raise DataError(f"label space {self.dataset_id!r} needs at least one non-void class")
        if self.classes[0] != VOID:
            raise DataError(f"label space {self.dataset_id!r} must reserve index 0 for {VOID!r}")
        if len(set(self.classes)) != len(self.classes):
            raise DataError(f"label space {self.dataset_id!r} has duplicate class names")

    @property
    def num_classes(self) -> int:
        """Number of semantic (non-void) classes."""
        return len(self.classes) - 1

    def class_index(self, name: str) -> int:
        return self.classes.index(name)


@dataclass(frozen=True)
class RelationTable:
    """Lexico-semantic relations between label names, as two adjacency maps.

    narrower maps a name to the names it directly generalizes: the
    objects of its hypernym and holonym relations (read subject ->
    object, the subject being the more generic term or the whole).
    synonyms maps a name to its synonyms; from_triples stores every
    synonym pair in both directions. Targets are sorted tuples. The
    narrower edges must be acyclic since group building walks them.
    """

    narrower: Mapping[str, tuple[str, ...]]
    synonyms: Mapping[str, tuple[str, ...]]

    @classmethod
    def from_triples(cls, triples: Iterable[tuple[str, str, str]]) -> "RelationTable":
        narrower: dict[str, set[str]] = {}
        synonyms: dict[str, set[str]] = {}
        for kind, subject, obj in triples:
            if subject == obj:
                raise DataError(f"self-relation {kind}({subject}, {obj}) is not allowed")
            if kind == SYNONYM:
                synonyms.setdefault(subject, set()).add(obj)
                synonyms.setdefault(obj, set()).add(subject)
            elif kind in (HYPERNYM, HOLONYM):
                narrower.setdefault(subject, set()).add(obj)
            else:
                raise DataError(f"unknown relation kind {kind!r}")
        table = cls({s: tuple(sorted(os)) for s, os in narrower.items()},
                    {s: tuple(sorted(os)) for s, os in synonyms.items()})
        table._check_acyclic()
        return table

    @classmethod
    def empty(cls) -> "RelationTable":
        return cls({}, {})

    def _check_acyclic(self):
        try:
            graphlib.TopologicalSorter(self.narrower).prepare()
        except graphlib.CycleError as exc:  # graphlib lists it against the edges
            raise CyclicRelations(exc.args[1][::-1]) from None

    def generalizes(self, subject: str, obj: str) -> bool:
        """True when subject is a hypernym or holonym of obj."""
        return obj in self.narrower.get(subject, ())

    def synonymous(self, a: str, b: str) -> bool:
        return b in self.synonyms.get(a, ())


def _closure(name: str, *edges: Mapping[str, tuple[str, ...]]) -> set[str]:
    """name and every name reachable from it along the given edge maps."""
    seen = {name}
    frontier = [name]
    while frontier:
        cur = frontier.pop()
        for nxt in (n for adjacency in edges for n in adjacency.get(cur, ())):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def synonym_closure(name: str, relations: RelationTable) -> set[str]:
    """All names reachable from name through synonym edges alone."""
    return _closure(name, relations.synonyms)


def semantic_closure(name: str, relations: RelationTable) -> set[str]:
    """Names covered by name: itself, everything reachable through
    hypernym/holonym edges, and synonyms of any of those."""
    return _closure(name, relations.narrower, relations.synonyms)


def build_semantic_atoms(spaces: Sequence[LabelSpace], relations: RelationTable) -> list[str]:
    """Extract the atom vocabulary from all label spaces.

    Starts from the union of all non-void class names (duplicates
    collapse to one atom) and removes every label that is a synonym,
    hypernym, or holonym of another surviving label, until a fixed point
    is reached. The result is that of this removal rule: take the
    lexicographically first ordered pair (subject, object) of survivors
    that are related; if the subject generalizes the object (hypernym or
    holonym), remove the subject, otherwise (a synonym pair) remove the
    larger name; repeat. The order matters: with hypernym(b, a) and
    hypernym(a, c) the atoms are ['b', 'c'], not ['c'].

    One pass over the sorted names reproduces that rule. A name's
    partners are the names of the union it generalizes or is a synonym
    of. Removing a name never gives another name a new partner, so once
    a name has been visited and kept it has no surviving partner, and
    the smallest subject with a surviving partner never decreases. Each
    name therefore walks its surviving partners in sorted order: it
    removes itself at the first one it generalizes (or the first synonym
    smaller than itself) and otherwise removes each larger synonym.
    Building the partner lists is linear in the relation count, so the
    pass costs O(V log V + E log E) for V names and E relations.

    Returns the surviving atom names in canonical sorted order.
    """
    if not spaces:
        raise DataError("need at least one label space")
    if len({sp.dataset_id for sp in spaces}) != len(spaces):
        raise DataError("duplicate dataset_id among label spaces")
    if not any(sp.supervision in PIXEL_KINDS for sp in spaces):
        raise DataError("need at least one pixel-supervised label space")

    names = sorted({name for sp in spaces for name in sp.classes[1:]})
    # partners[name][other] is True when name generalizes other, False
    # when the two are only synonyms
    partners: dict[str, dict[str, bool]] = {name: {} for name in names}
    # synonyms first, so a generalization edge overrides a synonym edge
    for edges, generalizes in ((relations.synonyms, False), (relations.narrower, True)):
        for subject, objs in edges.items():
            for obj in objs:
                if subject in partners and obj in partners:
                    partners[subject][obj] = generalizes

    removed: set[str] = set()
    for name in names:
        if name in removed:
            continue
        for other in sorted(partners[name]):
            if other in removed:
                continue
            if partners[name][other] or other < name:
                removed.add(name)
                break
            removed.add(other)
    survivors = [name for name in names if name not in removed]
    if not survivors:
        raise EmptyResult()
    return survivors


@dataclass(frozen=True)
class Taxonomy:
    """Atom vocabulary plus per-dataset class-to-atoms groupings.

    atoms holds the semantic atom names; atom index i (1-based) names
    atoms[i - 1], index 0 is the implicit void atom. groups maps
    (dataset_id, class_index) to a frozenset of atom indices; the void
    class of every dataset maps to {0}.
    """

    atoms: tuple[str, ...]
    groups: dict[tuple[str, int], frozenset[int]]

    @property
    def atom_count(self) -> int:
        return len(self.atoms)

    def atom_name(self, index: int) -> str:
        return VOID if index == 0 else self.atoms[index - 1]

    def groups_for(self, space: LabelSpace) -> list[frozenset[int]]:
        """Groups of one dataset as a list over class indices 0..L."""
        return [self.groups[(space.dataset_id, m)] for m in range(space.num_classes + 1)]


def build_group_sets(atoms: Sequence[str], spaces: Sequence[LabelSpace],
                     relations: RelationTable) -> Taxonomy:
    """Associate every dataset class with the atoms it covers.

    A class covers itself (if it survived as an atom), everything
    reachable from it along hypernym/holonym edges, and synonyms of any
    of those. The void class of every dataset covers exactly the void
    atom.
    """
    index = {name: i + 1 for i, name in enumerate(atoms)}
    groups: dict[tuple[str, int], frozenset[int]] = {}
    for sp in spaces:
        groups[(sp.dataset_id, 0)] = frozenset({0})
        for m, cname in enumerate(sp.classes[1:], start=1):
            covered = frozenset(index[n] for n in semantic_closure(cname, relations) if n in index)
            if not covered:
                raise UncoveredClass(sp.dataset_id, cname)
            groups[(sp.dataset_id, m)] = covered
    return Taxonomy(atoms=tuple(atoms), groups=groups)


@dataclass(frozen=True)
class Violation:
    kind: str
    dataset_id: str
    detail: str


def validate_taxonomy(t: Taxonomy, spaces: Sequence[LabelSpace]) -> tuple[Violation, ...]:
    """Check the structural invariants of a taxonomy; returns the
    violations found, none for a valid taxonomy.

    Per dataset: non-void groups are pairwise disjoint (no atom serves
    two classes of one dataset), every non-void class has a non-empty
    group, every referenced atom index exists, and the void class maps
    to exactly the void atom.
    """
    found: list[Violation] = []
    valid_range = range(1, t.atom_count + 1)
    for sp in spaces:
        seen: dict[int, str] = {}
        for m in range(sp.num_classes + 1):
            key = (sp.dataset_id, m)
            if key not in t.groups:
                found.append(Violation("uncovered", sp.dataset_id,
                                       f"class {sp.classes[m]!r} has no group"))
                continue
            g = t.groups[key]
            if m == 0:
                if g != frozenset({0}):
                    found.append(Violation("void-mapping", sp.dataset_id,
                                           f"void group is {sorted(g)}, expected [0]"))
                continue
            if not g:
                found.append(Violation("uncovered", sp.dataset_id,
                                       f"class {sp.classes[m]!r} has an empty group"))
            for a in sorted(g):
                if a not in valid_range:
                    found.append(Violation("unknown-atom", sp.dataset_id,
                                           f"class {sp.classes[m]!r} references atom index {a}"))
                elif a in seen:
                    found.append(Violation(
                        "overlap", sp.dataset_id,
                        f"atom {t.atom_name(a)!r} shared by classes "
                        f"{seen[a]!r} and {sp.classes[m]!r}"))
                else:
                    seen[a] = sp.classes[m]
    return tuple(found)


@dataclass(frozen=True)
class AtomPartition:
    """Split of the atom universe by supervision reach.

    a_set: atoms with their own pixel-supervised class somewhere (or at
    least not exclusively weak). s_set: atoms whose only exact class
    appearances are in box/tag datasets and that sit under a
    pixel-supervised ancestor class. p_set: those ancestor classes,
    appended to the atom list so they can be predicted directly.

    atoms is the full universe (taxonomy atoms followed by appended
    parents); indices are 1-based with the implicit void atom at 0.
    ap_atoms and s_atoms fix the label order of the two prediction
    heads: ascending atom index.
    """

    atoms: tuple[str, ...]
    a_set: frozenset[int]
    s_set: frozenset[int]
    p_set: frozenset[int]
    parent_of: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.a_set & self.s_set or self.a_set & self.p_set or self.s_set & self.p_set:
            raise DataError("partition sets must be pairwise disjoint")
        if set(self.parent_of) != set(self.s_set):
            raise DataError("parent_of must cover exactly the s_set atoms")
        if set(self.parent_of.values()) != set(self.p_set):
            raise DataError("parent_of must map onto p_set: every parent needs a subclass")

    @property
    def atom_count(self) -> int:
        return len(self.atoms)

    @property
    def ap_atoms(self) -> tuple[int, ...]:
        return tuple(sorted(self.a_set | self.p_set))

    @property
    def s_atoms(self) -> tuple[int, ...]:
        return tuple(sorted(self.s_set))

    def atom_name(self, index: int) -> str:
        return VOID if index == 0 else self.atoms[index - 1]

    def children_of(self, parent_index: int) -> list[int]:
        return sorted(s for s, p in self.parent_of.items() if p == parent_index)

    def ap_local(self) -> dict[int, int]:
        """Atom index -> position in the a+p head."""
        return {a: i for i, a in enumerate(self.ap_atoms)}

    def s_local(self) -> dict[int, int]:
        return {a: i for i, a in enumerate(self.s_atoms)}

    @classmethod
    def trivial(cls, t: Taxonomy) -> "AtomPartition":
        """Everything in a_set; the single-head case."""
        return cls(atoms=t.atoms,
                   a_set=frozenset(range(1, t.atom_count + 1)),
                   s_set=frozenset(), p_set=frozenset(), parent_of={})


def partition_atoms(t: Taxonomy, spaces: Sequence[LabelSpace],
                    relations: RelationTable) -> AtomPartition:
    """Split atoms into a_set / s_set / p_set for two-headed training.

    An atom belongs to s_set when every class that names it exactly
    (identical or synonymous name) lives in a box/tag dataset, and some
    pixel-supervised dataset has an ancestor class covering it through
    at least one hypernym/holonym step. Those ancestor classes are
    appended to the atom universe as p_set atoms, since the class they
    came from no longer survives atom extraction. All remaining atoms
    form a_set. Raises NoStrongParent for a weak-only atom with no
    pixel-supervised ancestor.
    """
    index = {name: i + 1 for i, name in enumerate(t.atoms)}
    pixel_exact: set[int] = set()
    weak_exact: set[int] = set()
    covers: dict[str, set[str]] = {}  # pixel class -> its semantic closure
    for sp in spaces:
        pixel = sp.supervision in PIXEL_KINDS
        for cname in sp.classes[1:]:
            aliases = synonym_closure(cname, relations)
            (pixel_exact if pixel else weak_exact).update(index[n] for n in aliases if n in index)
            if pixel and cname not in covers:
                covers[cname] = semantic_closure(cname, relations)

    # a candidate lies in no pixel class's synonym closure (that would make
    # it pixel-exact), so a pixel class covering it does so through a
    # hypernym/holonym step
    candidates = sorted(weak_exact - pixel_exact)
    parent_name_of: dict[int, str] = {}
    for idx in candidates:
        ancestors = [cname for cname, names in covers.items() if t.atoms[idx - 1] in names]
        if not ancestors:
            raise NoStrongParent(t.atoms[idx - 1])
        parent_name_of[idx] = min(ancestors)

    appended = sorted(set(parent_name_of.values()))
    for pname in appended:
        if pname in index:
            raise DataError(f"parent class {pname!r} collides with an existing atom")
    full = t.atoms + tuple(appended)
    parent_index = {pname: t.atom_count + 1 + i for i, pname in enumerate(appended)}

    s_set = frozenset(candidates)
    p_set = frozenset(parent_index.values())
    a_set = frozenset(range(1, t.atom_count + 1)) - s_set
    parent_of = {idx: parent_index[parent_name_of[idx]] for idx in candidates}
    return AtomPartition(atoms=full, a_set=a_set, s_set=s_set, p_set=p_set,
                         parent_of=parent_of)


@dataclass(frozen=True)
class DatasetGroups:
    """How one dataset supervises the (possibly two-headed) classifier.

    head is "ap" or "s". loss_groups holds, per non-void class slot, the
    head-local atom positions the class covers. For an s-head dataset,
    parent_slots gives the a+p-head position of each class's parent atom
    (used as the localization cue during pseudo-label refinement).
    """

    head: str
    loss_groups: tuple[frozenset[int], ...]
    parent_slots: tuple[int, ...] | None = None


def dataset_heads(t: Taxonomy, part: AtomPartition, space: LabelSpace) -> DatasetGroups:
    """Resolve one dataset's groups against a partition.

    Pixel-supervised classes whose group fell entirely into s_set are
    parent classes: they are remapped to their p_set atom on the a+p
    head. Weak classes fully inside s_set go to the s head. Groups that
    straddle s_set and the rest are not supported.
    """
    ap_pos = part.ap_local()
    s_pos = part.s_local()
    base = [t.groups[(space.dataset_id, m)] for m in range(1, space.num_classes + 1)]

    local: list[frozenset[int]] = []
    parents: list[int] = []  # the parent slot of each s-head class
    for m, g in enumerate(base, start=1):
        in_s = g & part.s_set
        if not in_s:
            local.append(frozenset(ap_pos[a] for a in g))
            continue
        if in_s != g:
            raise DataError(
                f"class {space.classes[m]!r} of dataset {space.dataset_id!r} mixes "
                "weak-only atoms with others; unsupported grouping")
        parent = {part.parent_of[a] for a in g}
        if len(parent) != 1:
            raise DataError(
                f"class {space.classes[m]!r} of dataset {space.dataset_id!r} "
                "spans several parents")
        parent_slot = ap_pos[parent.pop()]
        if space.supervision in PIXEL_KINDS:  # a parent class: its p_set atom
            local.append(frozenset({parent_slot}))
        else:
            local.append(frozenset(s_pos[a] for a in g))
            parents.append(parent_slot)

    if not parents:
        return DatasetGroups("ap", tuple(local), None)
    if len(parents) != len(local):
        raise DataError(
            f"dataset {space.dataset_id!r} mixes a+p-head and s-head classes; unsupported")
    return DatasetGroups("s", tuple(local), tuple(parents))
