"""Sentence corpora: label schemas, JSON-lines I/O, gold triples and tables.

A corpus file holds one JSON object per line with fields ``tokens``,
``entities`` (objects with ``start``, ``end``, ``type``; zero-based,
end-inclusive spans) and ``relations`` (objects with ``subject``, ``object``,
``type`` where subject and object index into ``entities``).  A schema file is
a single JSON object listing ``entity_types`` and ``relation_types`` in the
order that fixes their table channels.
"""

from __future__ import annotations

import enum
import json
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CorpusError",
    "Entity",
    "InputError",
    "LabelSchema",
    "MatchMode",
    "Relation",
    "Sentence",
    "Vocabulary",
    "entity_mask",
    "entity_triple",
    "gold_entities",
    "gold_relations",
    "gold_tables",
    "load_corpus",
    "read_json",
    "read_text",
    "relation_anchor",
    "relation_ends",
    "save_corpus",
    "sentence_from_json",
    "sentence_to_json",
    "write_atomically",
    "write_json",
]


# ---------------------------------------------------------------------------
# files


def write_atomically(path, write) -> None:
    """Call write(handle) on a temporary file beside `path`, then rename it
    over `path`, so a failed write leaves any previous file as it was. A
    file that cannot be written raises an OSError naming `path`."""
    temp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            write(handle)
        os.replace(temp, path)
    except OSError as exc:
        raise OSError(f"{path}: cannot write: {exc.strerror or exc}") from exc
    finally:
        if os.path.exists(temp):         # the write failed
            os.unlink(temp)


class InputError(OSError):
    """An input file cannot be opened: missing, a directory, or not
    readable. The message names the path."""


def write_json(path, obj, indent: int | None = None) -> None:
    """One JSON document and a newline, written atomically."""
    def write(handle):
        json.dump(obj, handle, indent=indent)
        handle.write("\n")

    write_atomically(path, write)


class CorpusError(ValueError):
    """Raised when a schema or corpus file fails validation."""


def read_text(path, error) -> str:
    """The whole of `path` as UTF-8 text. A file that cannot be opened
    raises an InputError, and bytes that are not UTF-8 raise `error` (an
    exception class), each naming the path."""
    try:
        handle = open(path, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: cannot read: "
                         f"{exc.strerror or exc}") from exc
    with handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text: {exc.reason}") from None


def read_json(path, error):
    """The one JSON document in `path`; malformed JSON, like text that is
    not UTF-8, raises `error` naming the path."""
    try:
        return json.loads(read_text(path, error))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: malformed JSON: {exc.msg}") from None


class MatchMode(enum.Enum):
    """How entity spans are anchored, in annotations and in scoring.

    ``EXACT`` keeps full (start, end) spans.  ``TAIL`` reduces every span to
    its last token: annotations must be single-token, and scoring projects
    both predictions and gold onto tail positions.
    """

    EXACT = "exact"
    TAIL = "tail"

    @classmethod
    def parse(cls, name: str) -> "MatchMode":
        for mode in cls:
            if mode.value == name:
                return mode
        raise CorpusError(
            f"unknown match mode {name!r}; expected 'exact' or 'tail'")


# ---------------------------------------------------------------------------
# label schema


@dataclass(frozen=True)
class LabelSchema:
    """Ordered entity and relation type names; order fixes table channels."""

    entity_types: tuple[str, ...]
    relation_types: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "entity_types", tuple(self.entity_types))
        object.__setattr__(self, "relation_types", tuple(self.relation_types))
        for field, names in (("entity_types", self.entity_types),
                             ("relation_types", self.relation_types)):
            if not names:
                raise CorpusError(f"{field}: at least one type required")
            for name in names:
                if not isinstance(name, str) or not name:
                    raise CorpusError(
                        f"{field}: type names must be non-empty strings")
            if len(set(names)) != len(names):
                raise CorpusError(f"{field}: duplicate type names")

    @property
    def u(self) -> int:
        return len(self.entity_types)

    @property
    def v(self) -> int:
        return len(self.relation_types)

    def entity_id(self, name: str) -> int:
        try:
            return self.entity_types.index(name)
        except ValueError:
            raise CorpusError(f"unknown entity type {name!r}") from None

    def relation_id(self, name: str) -> int:
        try:
            return self.relation_types.index(name)
        except ValueError:
            raise CorpusError(f"unknown relation type {name!r}") from None

    @classmethod
    def from_json(cls, obj) -> "LabelSchema":
        """A schema from its JSON object, which holds exactly the two lists
        of type names."""
        if (not isinstance(obj, dict)
                or set(obj) != {"entity_types", "relation_types"}
                or not all(isinstance(names, list) for names in obj.values())):
            raise CorpusError("expected an object with entity_types and "
                              "relation_types lists")
        return cls(obj["entity_types"], obj["relation_types"])

    def to_json(self) -> dict:
        return {"entity_types": list(self.entity_types),
                "relation_types": list(self.relation_types)}

    @classmethod
    def load(cls, path) -> "LabelSchema":
        obj = read_json(path, CorpusError)
        try:
            return cls.from_json(obj)
        except CorpusError as exc:
            raise CorpusError(f"{path}: {exc}") from None

    def save(self, path) -> None:
        write_json(path, self.to_json(), indent=2)


# ---------------------------------------------------------------------------
# sentences


@dataclass(frozen=True)
class Entity:
    start: int
    end: int
    type: str


@dataclass(frozen=True)
class Relation:
    subject: int
    object: int
    type: str


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[str, ...]
    entities: tuple[Entity, ...]
    relations: tuple[Relation, ...]
    mode: MatchMode

    def __len__(self) -> int:
        return len(self.tokens)


def _require(condition, where, message):
    if not condition:
        raise CorpusError(f"{where}: {message}")


def _int_field(value, where, upper):
    _require(isinstance(value, int) and not isinstance(value, bool),
             where, "expected an integer")
    _require(0 <= value < upper, where,
             f"index {value} out of range [0, {upper})")
    return value


def sentence_from_json(obj, schema: LabelSchema,
                       mode: MatchMode) -> Sentence:
    _require(isinstance(obj, dict), "sentence", "expected a JSON object")
    unknown = set(obj) - {"tokens", "entities", "relations"}
    _require(not unknown, "sentence",
             f"unknown fields {sorted(unknown)}")

    tokens = obj.get("tokens")
    _require(isinstance(tokens, list) and tokens,
             "tokens", "expected a non-empty list")
    for idx, token in enumerate(tokens):
        _require(isinstance(token, str) and token,
                 f"tokens[{idx}]", "expected a non-empty string")
    t = len(tokens)

    raw_entities = obj.get("entities", [])
    _require(isinstance(raw_entities, list), "entities", "expected a list")
    entities = []
    for idx, raw in enumerate(raw_entities):
        where = f"entities[{idx}]"
        _require(isinstance(raw, dict), where, "expected an object")
        _require(set(raw) == {"start", "end", "type"}, where,
                 "expected exactly the fields start, end, type")
        start = _int_field(raw["start"], f"{where}.start", t)
        end = _int_field(raw["end"], f"{where}.end", t)
        _require(start <= end, f"{where}.end",
                 f"span end {end} before start {start}")
        if mode is MatchMode.TAIL:
            _require(start == end, f"{where}.end",
                     "tail mode annotates single-token spans only")
        _require(raw["type"] in schema.entity_types, f"{where}.type",
                 f"unknown entity type {raw['type']!r}")
        entities.append(Entity(start, end, raw["type"]))
    _require(len(set(entities)) == len(entities),
             "entities", "duplicate entity annotation")

    raw_relations = obj.get("relations", [])
    _require(isinstance(raw_relations, list), "relations", "expected a list")
    relations = []
    for idx, raw in enumerate(raw_relations):
        where = f"relations[{idx}]"
        _require(isinstance(raw, dict), where, "expected an object")
        _require(set(raw) == {"subject", "object", "type"}, where,
                 "expected exactly the fields subject, object, type")
        subject = _int_field(raw["subject"], f"{where}.subject", len(entities))
        obj_idx = _int_field(raw["object"], f"{where}.object", len(entities))
        _require(raw["type"] in schema.relation_types, f"{where}.type",
                 f"unknown relation type {raw['type']!r}")
        relations.append(Relation(subject, obj_idx, raw["type"]))
    _require(len(set(relations)) == len(relations),
             "relations", "duplicate relation annotation")

    return Sentence(tuple(tokens), tuple(entities), tuple(relations), mode)


def sentence_to_json(sentence: Sentence) -> dict:
    return {
        "tokens": list(sentence.tokens),
        "entities": [{"start": e.start, "end": e.end, "type": e.type}
                     for e in sentence.entities],
        "relations": [{"subject": r.subject, "object": r.object,
                       "type": r.type} for r in sentence.relations],
    }


def load_corpus(path, schema: LabelSchema,
                mode: MatchMode = MatchMode.EXACT) -> list[Sentence]:
    sentences = []
    # not splitlines(), which also splits inside a JSON string at U+2028
    for line_no, line in enumerate(read_text(path, CorpusError).split("\n"),
                                   start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(
                f"{path}:{line_no}: malformed JSON: {exc.msg}") from None
        try:
            sentences.append(sentence_from_json(obj, schema, mode))
        except CorpusError as exc:
            raise CorpusError(f"{path}:{line_no}: {exc}") from None
    return sentences


def save_corpus(path, sentences) -> None:
    def write(handle):
        for sentence in sentences:
            handle.write(json.dumps(sentence_to_json(sentence),
                                    ensure_ascii=False))
            handle.write("\n")

    write_atomically(path, write)


# ---------------------------------------------------------------------------
# vocabulary


@dataclass(frozen=True)
class Vocabulary:
    """Token-to-row map for the embedding table; row 0 is the unknown token."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.tokens, (list, tuple)):
            raise CorpusError("vocabulary must be a list of tokens")
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not all(isinstance(token, str) and token for token in self.tokens):
            raise CorpusError("vocabulary tokens must be non-empty strings")
        if len(set(self.tokens)) != len(self.tokens):
            raise CorpusError("vocabulary tokens must be unique")
        object.__setattr__(
            self, "_ids", {tok: i + 1 for i, tok in enumerate(self.tokens)})

    @property
    def size(self) -> int:
        return len(self.tokens) + 1

    @classmethod
    def from_corpus(cls, sentences) -> "Vocabulary":
        seen = {token for sentence in sentences for token in sentence.tokens}
        return cls(tuple(sorted(seen)))

    def encode(self, tokens) -> np.ndarray:
        return np.array([self._ids.get(token, 0) for token in tokens],
                        dtype=np.int64)


# ---------------------------------------------------------------------------
# projections and gold tables


def entity_triple(entity: Entity, schema: LabelSchema,
                  mode: MatchMode) -> tuple[int, int, int]:
    type_id = schema.entity_id(entity.type)
    if mode is MatchMode.TAIL:
        return (entity.end, entity.end, type_id)
    return (entity.start, entity.end, type_id)


def relation_anchor(entity: Entity, mode: MatchMode) -> int:
    """Token index standing in for an entity inside the relation table."""
    return entity.end if mode is MatchMode.TAIL else entity.start


def gold_entities(sentence: Sentence, schema: LabelSchema,
                  mode: MatchMode) -> frozenset:
    return frozenset(entity_triple(e, schema, mode)
                     for e in sentence.entities)


def relation_ends(sentence: Sentence, schema: LabelSchema,
                  mode: MatchMode) -> dict[tuple, list]:
    """Each gold relation triple (subject anchor, object anchor, type id) ->
    the (subject, object) entity triples of every relation behind it."""
    ends: dict[tuple, list] = {}
    for rel in sentence.relations:
        subject = sentence.entities[rel.subject]
        obj = sentence.entities[rel.object]
        ends.setdefault((relation_anchor(subject, mode),
                         relation_anchor(obj, mode),
                         schema.relation_id(rel.type)), []).append(
            (entity_triple(subject, schema, mode),
             entity_triple(obj, schema, mode)))
    return ends


def gold_relations(sentence: Sentence, schema: LabelSchema,
                   mode: MatchMode) -> frozenset:
    return frozenset(relation_ends(sentence, schema, mode))


def gold_tables(sentence: Sentence,
                schema: LabelSchema) -> tuple[np.ndarray, np.ndarray]:
    """Binary target tables [t, t, u] and [t, t, v] for one sentence."""
    t = len(sentence)
    entity_table = np.zeros((t, t, schema.u))
    relation_table = np.zeros((t, t, schema.v))
    for i, j, k in gold_entities(sentence, schema, sentence.mode):
        entity_table[i, j, k] = 1.0
    for i, m, k in gold_relations(sentence, schema, sentence.mode):
        relation_table[i, m, k] = 1.0
    return entity_table, relation_table


def entity_mask(t: int, u: int, mode: MatchMode,
                mask_reversed: bool = True) -> np.ndarray:
    """Cells of the entity table that carry loss and predictions.

    Exact mode keeps ordered spans (i <= j); the flag relaxes that to the
    full table.  Tail mode keeps the diagonal only.
    """
    if mode is MatchMode.TAIL:
        mask = np.zeros((t, t, u))
        diag = np.arange(t)
        mask[diag, diag, :] = 1.0
        return mask
    if mask_reversed:
        return np.triu(np.ones((t, t)))[:, :, None] * np.ones(u)
    return np.ones((t, t, u))
