"""Exception types raised across the package.

Everything inherits from DagicError so callers (notably the CLI) can
separate domain/validation failures from plain I/O errors.
"""

from contextlib import contextmanager


class DagicError(Exception):
    """Base class for all domain errors."""


# --- graph construction ---

class CycleDetected(DagicError):
    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__(f"cycle detected: {' -> '.join(self.cycle)}")


class MultipleRoots(DagicError):
    def __init__(self, roots):
        self.roots = sorted(roots)
        super().__init__(f"multiple parentless terms: {', '.join(self.roots)}")


class NoRoot(DagicError):
    def __init__(self):
        super().__init__("no terms: an ontology needs at least one term, its root")


class UnknownTermInEdge(DagicError):
    def __init__(self, term, edge):
        self.term = term
        self.edge = edge
        super().__init__(f"edge {edge[0]} -> {edge[1]} references unknown term {term!r}")


class UnknownTerm(DagicError):
    def __init__(self, term):
        self.term = term
        super().__init__(f"unknown term {term!r}")


# --- parsing ---

class LineError(DagicError):
    """An error at a line of an input; read as `path:line: message` once
    open_input has set the path of the file, `line N: message` before."""
    path = None

    def __init__(self, line_number, message):
        self.line_number = line_number
        self.message = message
        super().__init__(line_number, message)

    def __str__(self):
        if self.path is None:
            return f"line {self.line_number}: {self.message}"
        return f"{self.path}:{self.line_number}: {self.message}"


@contextmanager
def open_input(path):
    """The text file at path, read as strict UTF-8 (invalid bytes are an
    error, never silently replaced); a LineError raised inside names it."""
    with open(path, encoding="utf-8", errors="strict") as fh:
        try:
            yield fh
        except LineError as exc:
            exc.path = path
            raise


class MalformedStanza(LineError):
    pass


class DuplicateTermId(LineError):
    def __init__(self, term_id, line_number):
        self.term_id = term_id
        super().__init__(line_number, f"duplicate term id {term_id!r}")


class MalformedLine(LineError):
    pass


def require_fields(line_number, cols, columns):
    """Raise MalformedLine naming the first of the 1-based column
    numbers whose field in cols is empty."""
    for k in columns:
        if not cols[k - 1]:
            raise MalformedLine(line_number, f"column {k} is empty")


class UnknownFormat(DagicError):
    def __init__(self, fmt):
        super().__init__(f"unknown annotation format {fmt!r} (expected 'tsv' or 'gaf')")


class EmptyAfterFilter(DagicError):
    def __init__(self):
        super().__init__("no terms left after namespace/obsolete filtering")


# --- corpus ---

class EmptyCorpus(DagicError):
    def __init__(self):
        super().__init__("no annotation pairs retained")


class UnknownGene(DagicError):
    def __init__(self, gene):
        self.gene = gene
        super().__init__(f"unknown gene {gene!r}")


class EmptyTermSet(DagicError):
    def __init__(self, gene):
        self.gene = gene
        super().__init__(f"gene {gene!r} has no retained annotation terms")


# --- metrics ---

class DegenerateOntology(DagicError):
    def __init__(self):
        super().__init__("ontology entropy is zero (single-term ontology)")


class NoDefinedCommonAncestor(DagicError):
    def __init__(self, t1, t2):
        super().__init__(f"no common ancestor of {t1!r} and {t2!r} has a defined IC value")


# --- benchmark ---

class NegativeScore(LineError):
    def __init__(self, line_number, score):
        super().__init__(line_number, f"negative bit score {score}")


class MissingScore(DagicError):
    def __init__(self, a, b):
        self.pair = (a, b)
        super().__init__(f"no bit score for ({a!r}, {b!r})")


class ZeroDenominator(DagicError):
    def __init__(self, a, b):
        super().__init__(f"self bit scores of {a!r} and {b!r} sum to zero")


class TooFewBins(DagicError):
    def __init__(self, nbins):
        super().__init__(f"regression needs at least 2 bins, got {nbins}")


class DegenerateRegression(DagicError):
    def __init__(self):
        super().__init__("zero variance in mean RRBS; regression undefined")


# --- cli ---

class MissingInput(DagicError):
    def __init__(self, command, flag, what, when):
        given = "".join(f" with {key} {value!r}" for key, value in when.items())
        super().__init__(f"'{command}'{given} requires {flag} ({what})")
