"""OBO 1.2 flat-file ingestion.

Only the tags the pipeline needs are interpreted: id, name, namespace,
is_a, relationship, is_obsolete. Everything else is ignored. [Typedef]
and other non-[Term] stanzas are skipped wholesale.
"""

import logging
from dataclasses import dataclass, field

from .errors import DuplicateTermId, EmptyAfterFilter, MalformedStanza, open_input

log = logging.getLogger(__name__)


@dataclass(slots=True)
class OboTerm:
    """One [Term] stanza. Slotted, so a record holds no per-instance
    dict; parse_obo gives equal ids, targets and namespaces one shared
    str object."""

    id: str
    name: str = ""
    namespace: str = ""
    is_a: list = field(default_factory=list)
    relationships: list = field(default_factory=list)  # (relation, target)
    obsolete: bool = False


def _strip_comment(value):
    # trailing "! comment" per OBO 1.2
    bang = value.find("!")
    if bang >= 0:
        value = value[:bang]
    return value.strip()


def _strip_modifiers(value):
    # trailing '{name="value", ...}' qualifier block and "! comment" per
    # OBO 1.2; the block comes first, and a "!" or "}" inside its quoted
    # values is text, not the comment's start or the block's end
    brace = value.find("{")
    bang = value.find("!")
    if brace >= 0 and not 0 <= bang < brace:
        close = _block_end(value, brace)
        if close is not None and value[close + 1:].lstrip()[:1] in ("", "!"):
            return value[:brace].strip()
    return _strip_comment(value)


def _block_end(value, brace):
    """Index of the "}" that closes the qualifier block opened at
    value[brace], or None; quoted text and backslash escapes are skipped."""
    quoted = escaped = False
    for i in range(brace + 1, len(value)):
        ch = value[i]
        if escaped:
            escaped = False
        elif ch == "\\":
            escaped = True
        elif ch == '"':
            quoted = not quoted
        elif ch == "}" and not quoted:
            return i
    return None


def parse_obo(stream):
    """Parse [Term] stanzas from an OBO 1.2 text stream into OboTerm records.

    Each distinct text read as a term id, an is_a or relationship target,
    or a namespace is kept as one str object, which every record naming
    it shares: a parent's id is the very object its children's is_a
    lists hold, so to_graph's ids and edges and the built Ontology hold
    one string per term.
    """
    terms = []
    seen = {}
    shared = {}  # text -> its one str object
    current = None
    current_line = 0
    once = set()  # the current stanza's single-valued tags

    def finish():
        nonlocal current
        if current is None:
            return
        if current.id is None:
            raise MalformedStanza(current_line, "[Term] stanza has no id tag")
        if current.id in seen:
            raise DuplicateTermId(current.id, current_line)
        seen[current.id] = True
        terms.append(current)
        current = None

    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("["):
            finish()
            if line == "[Term]":
                current = OboTerm(id=None)
                current_line = lineno
                once.clear()
            continue
        if current is None:
            continue
        if ":" not in line:
            raise MalformedStanza(lineno, f"tag line without colon: {line!r}")
        tag, _, value = line.partition(":")
        tag = tag.strip()
        value = value.strip()
        if tag in ("id", "namespace", "is_obsolete"):
            # OBO 1.2 allows one of each; a second would silently replace
            # the first and change which terms exist or survive filtering
            if tag in once:
                raise MalformedStanza(lineno, f"second {tag} tag in one [Term] stanza")
            once.add(tag)
        if tag == "id":
            value = _strip_comment(value)
            if not value:
                raise MalformedStanza(lineno, "empty id")
            current.id = shared.setdefault(value, value)
        elif tag == "name":
            current.name = value
        elif tag == "namespace":
            value = _strip_comment(value)
            current.namespace = shared.setdefault(value, value)
        elif tag == "is_a":
            target = _strip_modifiers(value)
            if not target:
                raise MalformedStanza(lineno, "is_a with no target")
            current.is_a.append(shared.setdefault(target, target))
        elif tag == "relationship":
            parts = _strip_modifiers(value).split()
            if len(parts) != 2:
                raise MalformedStanza(lineno, f"relationship needs 'type target': {value!r}")
            current.relationships.append((parts[0], shared.setdefault(parts[1], parts[1])))
        elif tag == "is_obsolete":
            current.obsolete = _strip_comment(value).lower() == "true"
        # all other tags ignored
    finish()
    return terms


def load_obo(path):
    with open_input(path) as fh:
        return parse_obo(fh)


def to_graph(terms, namespace=None, relations=frozenset()):
    """Filter parsed terms down to (term ids, child->parent edges).

    Obsolete terms and terms outside the namespace are dropped. is_a
    edges are always emitted; relationship edges only for types in
    `relations`. Edges into dropped terms are dropped and counted.

    Returns (term_ids, edges, dropped_edge_count).
    """
    kept = [t for t in terms
            if not t.obsolete and (namespace is None or t.namespace == namespace)]
    if not kept:
        raise EmptyAfterFilter()
    kept_ids = {t.id for t in kept}

    edges = []
    dropped = 0
    for t in kept:
        targets = list(t.is_a)
        targets += [tgt for rel, tgt in t.relationships if rel in relations]
        for parent in targets:
            if parent in kept_ids:
                edges.append((t.id, parent))
            else:
                dropped += 1
    if dropped:
        log.warning("dropped %d edges pointing at filtered-out terms", dropped)
    return sorted(kept_ids), edges, dropped


def format_obo(terms):
    """Debug serializer; parse(format(parse(f))) == parse(f)."""
    out = []
    for t in terms:
        out.append("[Term]")
        out.append(f"id: {t.id}")
        if t.name:
            out.append(f"name: {t.name}")
        if t.namespace:
            out.append(f"namespace: {t.namespace}")
        for parent in t.is_a:
            out.append(f"is_a: {parent}")
        for rel, tgt in t.relationships:
            out.append(f"relationship: {rel} {tgt}")
        if t.obsolete:
            out.append("is_obsolete: true")
        out.append("")
    return "\n".join(out)
