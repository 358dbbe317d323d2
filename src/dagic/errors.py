"""Exception types raised across the package.

Everything inherits from DagicError so callers (notably the CLI) can
separate domain/validation failures from plain I/O errors.
"""


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


class UnreachableTerms(DagicError):
    def __init__(self, terms):
        self.terms = sorted(terms)
        super().__init__(f"terms unreachable from root: {', '.join(self.terms)}")


class UnknownTerm(DagicError):
    def __init__(self, term):
        self.term = term
        super().__init__(f"unknown term {term!r}")


# --- parsing ---

class MalformedStanza(DagicError):
    def __init__(self, line_number, message):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class DuplicateTermId(DagicError):
    def __init__(self, term_id, line_number):
        self.term_id = term_id
        self.line_number = line_number
        super().__init__(f"line {line_number}: duplicate term id {term_id!r}")


class MalformedLine(DagicError):
    def __init__(self, line_number, message):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


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

class NegativeScore(DagicError):
    def __init__(self, line_number, score):
        self.line_number = line_number
        super().__init__(f"line {line_number}: negative bit score {score}")


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
