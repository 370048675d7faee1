"""Decision procedures on declared end-class tables.

An end-class table is a finite, asserted description of the end space of
an infinite-type surface: the clopen pieces a standard shift translates
through, the equivalence classes of ends with their cardinalities and
planarity, where each class appears and where it is the piece maximum,
and which classes accumulate on which.  Nothing here computes topology;
the table records it and the procedures decide consequences.

Two-sidedness questions reduce to connectivity of a graph on pieces: an
edge joins two pieces whenever ends of one class can be traded between
them, which happens when a class is present non-maximally in both, or
when a cantor-cardinality class meets both (such ends are never fixed
pointwise).  Isolated maximal ends, in contrast, are fixed by every
end-preserving map, so a class that is maximal in both pieces with one
end apiece creates no edge.  A shift is classified essential when it
carries finite positive genus per block across a genus-two-sided cut, or
a single block-maximal end class across a cut that is two-sided for that
class's accumulation set.

Each mode, genus or one class, is labelled into trading components once,
by a union-find over the pieces; `_split` reads a pair's split off the
labels, and the existence search and the shift classifier filter it.

The builtin tables are table documents in `_BUILTINS`, read by
`table_from_json` and checked by `validate_table` like any user file.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, ClassVar, Optional, TypeVar

from .shark import _fields

__all__ = [
    "Genus",
    "Cardinality",
    "EndClass",
    "EndClassTable",
    "EndRef",
    "ShiftDescriptor",
    "Violation",
    "ValidationReport",
    "EssentialWitness",
    "EssentialResult",
    "ShiftVerdict",
    "validate_table",
    "accumulation_closure",
    "has_essential_shift",
    "classify_shift",
    "compile_builtin",
    "BUILTIN_NAMES",
    "table_to_json",
    "table_from_json",
    "descriptor_from_json",
    "report_to_json",
    "result_to_json",
    "verdict_to_json",
]


_C = TypeVar("_C", bound="_Counted")


@dataclass(frozen=True)
class _Counted:
    """A kind name; the kind "finite" carries a positive count."""

    KINDS: ClassVar[tuple[str, ...]] = ()

    kind: str
    count: int = 0

    def __post_init__(self) -> None:
        what = type(self).__name__.lower()
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown {what} kind {self.kind!r}")
        if self.kind == "finite":
            if self.count < 1:
                raise ValueError(f"finite {what} must be >= 1")
        elif self.count != 0:
            raise ValueError(f"{what} {self.kind!r} takes no count")

    def render(self) -> str:
        return f"finite:{self.count}" if self.kind == "finite" else self.kind

    @classmethod
    def parse(cls: type[_C], text: str) -> _C:
        """The inverse of `render`: a count is ASCII decimal without a leading zero."""
        if text != "finite" and text in cls.KINDS:
            return cls(text)
        digits = text[len("finite:") :] if text.startswith("finite:") else ""
        if digits.isdigit() and digits.isascii() and digits[0] != "0":
            return cls("finite", int(digits))
        raise ValueError(f"cannot parse {cls.__name__.lower()} {text!r}")


class Genus(_Counted):
    """Total genus: zero, a finite positive count, or infinite."""

    KINDS = ("zero", "finite", "infinite")


class Cardinality(_Counted):
    """How many ends a class has: finite n, countably infinite (discrete,
    including one isolated end per piece), or a Cantor set."""

    KINDS = ("finite", "countable", "cantor")


_PRESENCE_LEVELS = ("present", "maximal")


@dataclass(frozen=True)
class EndClass:
    """One equivalence class of ends and where it lives.

    `presence` maps piece name to "present" (the class appears but is not
    the piece maximum) or "maximal" (it is); absent pieces are omitted.
    `accumulates_to` lists the classes this one accumulates on directly.
    """

    id: str
    card: Cardinality
    nonplanar: bool
    presence: tuple[tuple[str, str], ...]
    accumulates_to: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        pieces = [p for p, _ in self.presence]
        if len(pieces) != len(set(pieces)):
            raise ValueError(f"class {self.id!r} lists a piece twice")
        if list(self.presence) != sorted(self.presence):
            raise ValueError(f"class {self.id!r} presence must be sorted by piece")
        for piece, level in self.presence:
            if level not in _PRESENCE_LEVELS:
                raise ValueError(
                    f"class {self.id!r} has presence level {level!r} in {piece!r}"
                )

    def presence_in(self, piece: str) -> str:
        for p, level in self.presence:
            if p == piece:
                return level
        return "absent"

    def pieces_at(self, *levels: str) -> tuple[str, ...]:
        return tuple(p for p, level in self.presence if level in levels)


@dataclass(frozen=True)
class EndClassTable:
    """Pieces, total genus, and the end classes living on them."""

    pieces: tuple[str, ...]
    genus: Genus
    classes: tuple[EndClass, ...]

    @cached_property
    def _by_id(self) -> dict[str, EndClass]:
        """The class index: the first class listed under an id wins."""
        return {c.id: c for c in reversed(self.classes)}

    def class_by_id(self, class_id: str) -> EndClass:
        if class_id not in self._by_id:
            raise ValueError(f"unknown class {class_id!r}")
        return self._by_id[class_id]


@dataclass(frozen=True)
class Violation:
    rule: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_table(table: EndClassTable) -> ValidationReport:
    """Check the structural invariants of a table and report every failure."""
    out: list[Violation] = []

    def bad(rule: str, detail: str) -> None:
        out.append(Violation(rule, detail))

    if len(table.pieces) != len(set(table.pieces)):
        bad("duplicate-piece", f"pieces listed twice in {table.pieces!r}")
    ids = [c.id for c in table.classes]
    if len(ids) != len(set(ids)):
        bad("duplicate-class", f"class ids listed twice in {ids!r}")
    known_pieces = set(table.pieces)

    for c in table.classes:
        for piece, _ in c.presence:
            if piece not in known_pieces:
                bad("unknown-piece", f"class {c.id!r} appears in unknown piece {piece!r}")
        if not c.presence:
            bad("empty-presence", f"class {c.id!r} appears in no piece")
        for target in sorted(c.accumulates_to):
            if target not in table._by_id:
                bad(
                    "unknown-accumulation-target",
                    f"class {c.id!r} accumulates to unknown class {target!r}",
                )

    maxima: dict[str, list[str]] = {piece: [] for piece in table.pieces}
    for c in table.classes:
        for piece in c.pieces_at("maximal"):
            maxima.setdefault(piece, []).append(c.id)
    for piece in table.pieces:
        if len(maxima[piece]) != 1:
            bad(
                "maximal-count",
                f"piece {piece!r} must have exactly one maximal class, has {maxima[piece]!r}",
            )

    for c in table.classes:
        if c.pieces_at("maximal") and c.card.kind == "finite":
            bad(
                "maximal-cardinality",
                f"class {c.id!r} is a piece maximum but has finite cardinality; "
                "isolated maxima are recorded as countable (one end per piece)",
            )

    # presence below the maximum forces accumulation up to it
    closure_ok = not out
    if closure_ok:
        for c in table.classes:
            closure = accumulation_closure(table, c.id)
            for piece in c.pieces_at("present"):
                (top,) = maxima[piece]
                if top not in closure:
                    bad(
                        "presence-needs-accumulation",
                        f"class {c.id!r} is present in {piece!r} but does not "
                        f"accumulate to its maximum {top!r}",
                    )

    for c in table.classes:
        if not c.nonplanar:
            continue
        for target in sorted(c.accumulates_to):
            if target in table._by_id and not table._by_id[target].nonplanar:
                bad(
                    "nonplanar-accumulation",
                    f"nonplanar class {c.id!r} accumulates to planar {target!r}",
                )

    any_nonplanar = any(c.nonplanar for c in table.classes)
    if any_nonplanar and table.genus.kind != "infinite":
        bad(
            "genus-consistency",
            f"nonplanar classes need infinite genus, table declares {table.genus.render()}",
        )
    if table.genus.kind == "infinite" and not any_nonplanar:
        bad("genus-consistency", "infinite genus needs at least one nonplanar class")

    return ValidationReport(tuple(out))


def _require_valid(table: EndClassTable) -> None:
    report = validate_table(table)
    if not report.ok:
        summary = "; ".join(f"{v.rule}: {v.detail}" for v in report.violations)
        raise ValueError(f"invalid table: {summary}")


def accumulation_closure(table: EndClassTable, class_id: str) -> frozenset[str]:
    """Every class reachable from `class_id` along accumulates_to edges
    (one or more steps; contains the class itself only on a cycle)."""
    by_id = table._by_id
    seen: set[str] = set()
    frontier = list(table.class_by_id(class_id).accumulates_to)
    while frontier:
        cur = frontier.pop()
        if cur in by_id and cur not in seen:
            seen.add(cur)
            frontier.extend(by_id[cur].accumulates_to)
    return frozenset(seen)


# ---------------------------------------------------------------------------
# piece graphs and two-sided splits


def _eligible(table: EndClassTable, class_id: Optional[str]) -> frozenset[str]:
    """The classes a split must keep apart: every nonplanar class in genus
    mode (`class_id` None), the accumulation closure of a countable class,
    and none for a finite or cantor class, which never separates."""
    if class_id is None:
        return frozenset(c.id for c in table.classes if c.nonplanar)
    if table.class_by_id(class_id).card.kind != "countable":
        return frozenset()
    return accumulation_closure(table, class_id)


_Labelling = tuple[dict[str, str], frozenset[str]]


def _components(table: EndClassTable, class_id: Optional[str], include_cantor: bool) -> _Labelling:
    """Each piece's component label in the trading graph of the `_eligible`
    classes, glued in id order (genus mode for `class_id` None), and the
    labels that can be side X: they hold eligible ends, and so does another
    component.  `include_cantor` lets each cantor class glue all its pieces."""
    eligible = _eligible(table, class_id)
    parent = {p: p for p in table.pieces}

    def root(p: str) -> str:
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    hosts: set[str] = set()
    for c in [table._by_id[i] for i in sorted(eligible)]:
        glue_all = include_cantor and c.card.kind == "cantor"
        glued = c.pieces_at("present", "maximal") if glue_all else c.pieces_at("present")
        for a, b in zip(glued, glued[1:]):
            parent[root(a)] = root(b)
        hosts.update(c.pieces_at("present", "maximal"))
    label = {p: root(p) for p in table.pieces}
    held = {label[p] for p in hosts}
    return label, frozenset(held if len(held) > 1 else ())


def _split(
    table: EndClassTable, class_id: Optional[str], px: str, py: str, labelling: _Labelling
) -> Optional[EssentialWitness]:
    """The two-sided split between `px` and `py` in genus mode (`class_id`
    None) or a class mode, or None: side X is px's component in the mode's
    `_components` labelling, and py must lie outside it."""
    label, sides = labelling
    if label[px] not in sides or label[py] == label[px]:
        return None
    side_x = tuple(sorted(p for p in table.pieces if label[p] == label[px]))
    side_y = tuple(sorted(p for p in table.pieces if label[p] != label[px]))
    return EssentialWitness(class_id, px, py, side_x, side_y)


@dataclass(frozen=True)
class EssentialWitness:
    """Which mode produced a two-sided split and between which anchors:
    genus mode when `class_id` is None, else the mode of that class."""

    class_id: Optional[str]
    anchor_x: str
    anchor_y: str
    side_x: tuple[str, ...]
    side_y: tuple[str, ...]

    @property
    def mode(self) -> str:
        return "genus" if self.class_id is None else "class"


@dataclass(frozen=True)
class EssentialResult:
    witness: Optional[EssentialWitness]
    notes: tuple[str, ...] = ()

    @property
    def two_sided(self) -> bool:
        return self.witness is not None


_CANTOR_NOTE = (
    "verdict relies on the rule that a cantor class met by both pieces always "
    "lets ends cross; without it a two-sided split would exist"
)


def _cantor_note(found: object, search: Callable[[bool], object]) -> tuple[str, ...]:
    """No notes when the search with the cantor rule `found` a split;
    otherwise the cantor note if `search` finds one without the rule."""
    return (_CANTOR_NOTE,) if not found and search(False) else ()


def has_essential_shift(table: EndClassTable) -> EssentialResult:
    """Whether some pair of pieces admits a two-sided split, in either mode.

    The witness records the first split found, scanning pieces in
    declared order, genus mode before class modes.  When the answer is no
    only because shared cantor classes glue the pieces together, a note
    says so.
    """
    _require_valid(table)
    modes = [None, *(c.id for c in table.classes)]

    def first_split(include_cantor: bool) -> Optional[EssentialWitness]:
        for class_id in modes:
            label, sides = labelling = _components(table, class_id, include_cantor)
            at = [i for i, p in enumerate(table.pieces) if label[p] in sides]
            if at:
                # the first piece that can be side X has a later piece outside
                # its component: another component with eligible ends follows
                px, later = table.pieces[at[0]], table.pieces[at[0] + 1 :]
                py = next(p for p in later if label[p] != label[px])
                return _split(table, class_id, px, py, labelling)
        return None

    witness = first_split(True)
    return EssentialResult(witness, _cantor_note(witness, first_split))


# ---------------------------------------------------------------------------
# classifying a described shift


@dataclass(frozen=True)
class EndRef:
    """An end named by the piece it lies in and its class."""

    piece: str
    class_id: str


@dataclass(frozen=True)
class ShiftDescriptor:
    """A standard shift described by its two exit ends and the content of
    one translation block: the block's genus and the end classes that are
    block-maximal, each with multiplicity "one" or "cantor"."""

    x: EndRef
    y: EndRef
    block_genus: Genus
    block_maximal_classes: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.x.piece == self.y.piece:
            raise ValueError("the shift's exit ends must lie in different pieces")
        ids = [class_id for class_id, _ in self.block_maximal_classes]
        if len(ids) != len(set(ids)):
            raise ValueError(f"descriptor lists a block class twice in {ids!r}")
        for class_id, mult in self.block_maximal_classes:
            if mult not in ("one", "cantor"):
                raise ValueError(f"multiplicity must be one or cantor, got {mult!r}")


@dataclass(frozen=True)
class ShiftVerdict:
    reasons: tuple[EssentialWitness, ...]
    notes: tuple[str, ...] = ()

    @property
    def essential(self) -> bool:
        return bool(self.reasons)


def _check_descriptor(table: EndClassTable, desc: ShiftDescriptor) -> None:
    for ref in (desc.x, desc.y):
        if ref.piece not in table.pieces:
            raise ValueError(f"descriptor names unknown piece {ref.piece!r}")
        if ref.class_id not in table._by_id:
            raise ValueError(f"descriptor names unknown class {ref.class_id!r}")
        if table.class_by_id(ref.class_id).presence_in(ref.piece) == "absent":
            raise ValueError(
                f"descriptor puts class {ref.class_id!r} in piece {ref.piece!r} "
                "where the table says it is absent"
            )
    for class_id, _ in desc.block_maximal_classes:
        if class_id not in table._by_id:
            raise ValueError(f"descriptor names unknown block class {class_id!r}")


def classify_shift(table: EndClassTable, desc: ShiftDescriptor) -> ShiftVerdict:
    """Decide whether the described shift is essential.

    Fires the genus reason when the blocks carry finite positive genus,
    both exit ends are nonplanar, and the exit pieces split two-sidedly
    for genus; fires a class reason for each block-maximal class of
    multiplicity one whose accumulation set contains both exit ends and
    splits the exit pieces two-sidedly.  Any reason makes the shift
    essential.
    """
    _require_valid(table)
    _check_descriptor(table, desc)
    modes: list[Optional[str]] = [None] if desc.block_genus.kind == "finite" else []
    # cantor-multiplicity block maxima never separate
    modes += [class_id for class_id, mult in desc.block_maximal_classes if mult == "one"]
    exits = {desc.x.class_id, desc.y.class_id}
    modes = [m for m in modes if exits <= _eligible(table, m)]

    def reasons(include_cantor: bool) -> tuple[EssentialWitness, ...]:
        x, y = desc.x.piece, desc.y.piece
        splits = (_split(table, m, x, y, _components(table, m, include_cantor)) for m in modes)
        return tuple(w for w in splits if w is not None)

    found = reasons(True)
    return ShiftVerdict(found, _cantor_note(found, reasons))


# ---------------------------------------------------------------------------
# built-in tables

_BUILTINS: dict[str, dict] = {
    # a strip of punctures accumulating to one limit end per side
    "shark_tank": {"pieces": ["A", "B"], "genus": "zero", "classes": [
        {"id": "limits", "cardinality": "countable", "presence": {"A": "maximal", "B": "maximal"}},
        {"id": "punctures", "cardinality": "countable",
         "presence": {"A": "present", "B": "present"}, "accumulates_to": ["limits"]},
    ]},
    # two ends, each accumulated by genus
    "jacobs_ladder": {"pieces": ["A", "B"], "genus": "infinite", "classes": [
        {"id": "ladder_ends", "cardinality": "countable", "nonplanar": True,
         "presence": {"A": "maximal", "B": "maximal"}},
    ]},
    # one end accumulated by genus: no second piece to shift between
    "loch_ness": {"pieces": ["A"], "genus": "infinite", "classes": [
        {"id": "monster_end", "cardinality": "countable", "nonplanar": True,
         "presence": {"A": "maximal"}},
    ]},
    # planar surface with a Cantor set of ends, split into two halves
    "cantor_tree": {"pieces": ["A", "B"], "genus": "zero", "classes": [
        {"id": "cantor_ends", "cardinality": "cantor",
         "presence": {"A": "maximal", "B": "maximal"}, "accumulates_to": ["cantor_ends"]},
    ]},
    # a Cantor set of ends, every one accumulated by genus
    "blooming_cantor_tree": {"pieces": ["A", "B"], "genus": "infinite", "classes": [
        {"id": "blooming_ends", "cardinality": "cantor", "nonplanar": True,
         "presence": {"A": "maximal", "B": "maximal"}, "accumulates_to": ["blooming_ends"]},
    ]},
    # a cantor body with crawling handle ends and discrete decoration;
    # everything glues through the shared cantor maximum
    "spider": {"pieces": ["A", "B"], "genus": "infinite", "classes": [
        {"id": "web", "cardinality": "cantor", "nonplanar": True,
         "presence": {"A": "maximal", "B": "maximal"}, "accumulates_to": ["web"]},
        {"id": "crawlers", "cardinality": "countable", "nonplanar": True,
         "presence": {"A": "present", "B": "present"}, "accumulates_to": ["web"]},
        {"id": "flies", "cardinality": "countable",
         "presence": {"A": "present", "B": "present"}, "accumulates_to": ["crawlers", "web"]},
        {"id": "legs", "cardinality": "countable",
         "presence": {"A": "present"}, "accumulates_to": ["web"]},
    ]},
}

BUILTIN_NAMES = tuple(_BUILTINS)


def compile_builtin(name: str) -> EndClassTable:
    """A named reference table; see BUILTIN_NAMES for the choices."""
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin table {name!r}; choose from {BUILTIN_NAMES}")
    table = table_from_json(_BUILTINS[name])
    _require_valid(table)
    return table


# ---------------------------------------------------------------------------
# serialization


def table_to_json(table: EndClassTable) -> dict:
    return {
        "pieces": list(table.pieces),
        "genus": table.genus.render(),
        "classes": [
            {
                "id": c.id,
                "cardinality": c.card.render(),
                "nonplanar": c.nonplanar,
                "presence": {p: level for p, level in c.presence},
                "accumulates_to": sorted(c.accumulates_to),
            }
            for c in table.classes
        ],
    }


def _strings(values: list, what: str) -> None:
    if not all(isinstance(v, str) for v in values):
        raise ValueError(f"{what} must hold only strings")


def table_from_json(doc: object) -> EndClassTable:
    _fields(doc, "table", {"pieces": list, "genus": str, "classes": list})
    _strings(doc["pieces"], 'table: "pieces"')
    genus = Genus.parse(doc["genus"])
    classes = []
    required = {"id": str, "cardinality": str, "presence": dict}
    optional = {"nonplanar": bool, "accumulates_to": list}
    for n, entry in enumerate(doc["classes"]):
        what = f"table.classes[{n}]"
        _fields(entry, what, required, optional)
        presence = entry["presence"]
        _strings([*presence, *presence.values()], f'{what}: "presence"')
        accu = entry.get("accumulates_to", [])
        _strings(accu, f'{what}: "accumulates_to"')
        classes.append(
            EndClass(
                entry["id"],
                Cardinality.parse(entry["cardinality"]),
                entry.get("nonplanar", False),
                tuple(sorted((p, v) for p, v in presence.items() if v != "absent")),
                frozenset(accu),
            )
        )
    return EndClassTable(tuple(doc["pieces"]), genus, tuple(classes))


def descriptor_from_json(doc: object) -> ShiftDescriptor:
    required = {"x": dict, "y": dict, "block_genus": str}
    _fields(doc, "descriptor", required, {"block_maximal_classes": list})
    x, y = doc["x"], doc["y"]
    ref = {"piece": str, "class": str}
    _fields(x, "descriptor.x", ref)
    _fields(y, "descriptor.y", ref)
    blocks = doc.get("block_maximal_classes", [])
    block = {"class": str, "multiplicity": str}
    for n, entry in enumerate(blocks):
        _fields(entry, f"descriptor.block_maximal_classes[{n}]", block)
    return ShiftDescriptor(
        EndRef(x["piece"], x["class"]),
        EndRef(y["piece"], y["class"]),
        Genus.parse(doc["block_genus"]),
        tuple((entry["class"], entry["multiplicity"]) for entry in blocks),
    )


def report_to_json(report: ValidationReport) -> dict:
    return {
        "ok": report.ok,
        "violations": [{"rule": v.rule, "detail": v.detail} for v in report.violations],
    }


def _witness_to_json(witness: Optional[EssentialWitness]) -> Optional[dict]:
    if witness is None:
        return None
    return {
        "mode": witness.mode,
        "class": witness.class_id,
        "anchor_x": witness.anchor_x,
        "anchor_y": witness.anchor_y,
        "side_x": list(witness.side_x),
        "side_y": list(witness.side_y),
    }


def result_to_json(result: EssentialResult) -> dict:
    return {
        "has_essential_shift": result.two_sided,
        "witness": _witness_to_json(result.witness),
        "notes": list(result.notes),
    }


def verdict_to_json(verdict: ShiftVerdict) -> dict:
    return {
        "essential": verdict.essential,
        "reasons": [_witness_to_json(w) for w in verdict.reasons],
        "notes": list(verdict.notes),
    }
