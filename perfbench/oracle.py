"""Independent recomputation of the workloads' outputs.

Shares no code with the dagic package, in the manner of the test
suite's bench_oracle: its own OBO reader, set-based closures, the
two-term joint entropy summed over explicit first/second term sets,
naive SimMax loops, and plain-Python bins and regression.
"""

import functools
import math

TOL = 1e-6


class Mismatch(Exception):
    """An output disagrees with the recomputation."""


def check(ok, message):
    if not ok:
        raise Mismatch(message)


def close(a, b, what):
    check(abs(a - b) <= TOL, f"{what}: program {a!r}, oracle {b!r}")


class Ontology:
    """Kept (non-obsolete) terms, is_a edges between them, reflexive
    ancestor sets, strict descendant sets and minimum depths."""

    def __init__(self, obo_path):
        terms, current = {}, None
        with open(obo_path, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if line.startswith("["):
                    current = {"is_a": [], "obsolete": False} if line == "[Term]" else None
                elif current is not None and ":" in line:
                    tag, value = line.split(":", 1)
                    value = value.split("!")[0].strip()
                    if tag == "id":
                        terms[value] = current
                    elif tag == "is_a":
                        current["is_a"].append(value)
                    elif tag == "is_obsolete":
                        current["obsolete"] = value == "true"
        kept = sorted(t for t, rec in terms.items() if not rec["obsolete"])
        self.nodes = frozenset(kept)
        self.ids = kept
        self.parsed_terms = len(terms)
        self.parents = {t: [p for p in terms[t]["is_a"] if p in self.nodes] for t in kept}
        self.edges = sum(len(ps) for ps in self.parents.values())
        self.edges_dropped = sum(len(terms[t]["is_a"]) for t in kept) - self.edges
        self.root = next(t for t in kept if not self.parents[t])
        self._anc = {}
        self._desc = None
        self.depth = {self.root: 0}
        children = {t: [] for t in kept}
        for t, ps in self.parents.items():
            for p in ps:
                children[p].append(t)
        frontier = [self.root]
        while frontier:
            nxt = []
            for t in frontier:
                for c in children[t]:
                    if c not in self.depth:
                        self.depth[c] = self.depth[t] + 1
                        nxt.append(c)
            frontier = nxt

    def anc(self, t):
        if t not in self._anc:
            stack = [t]
            while stack:  # iterative post-order, so deep DAGs need no recursion
                top = stack[-1]
                todo = [p for p in self.parents[top] if p not in self._anc]
                if todo:
                    stack.extend(todo)
                    continue
                stack.pop()
                s = {top}
                for p in self.parents[top]:
                    s |= self._anc[p]
                self._anc[top] = frozenset(s)
        return self._anc[t]

    def desc(self, t):
        if self._desc is None:
            self._desc = {x: set() for x in self.ids}
            for x in self.ids:
                for a in self.anc(x):
                    if a != x:
                        self._desc[a].add(x)
        return self._desc[t]

    def joint_entropy(self, excluded=frozenset()):
        """-sum p log2 p of the two-term draw, with `excluded` removed from
        the first-term choices (the root stays) and from every second-term
        choice. Each second-term set is uniform, so its terms contribute
        |Y| equal summands."""
        first = (self.nodes - excluded) | {self.root}
        bits = 0.0
        for x in first:
            blocked = self.desc(x) | self.anc(x) | excluded
            second = len(self.nodes) - len(blocked) + (self.root in blocked)
            p = (1.0 / len(first)) * (1.0 / second)
            bits -= second * p * math.log2(p)
        return bits

    @functools.cached_property
    def entropy(self):
        return self.joint_entropy()

    def gic_raw(self, terms):
        """Raw gIC (H - H(.|z)) / H for the given terms."""
        h = self.entropy
        return {z: (h - self.joint_entropy(excluded=self.anc(z))) / h for z in terms}


def load_corpus(path, o, min_depth):
    genes = {}
    unknown = shallow = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            gene, term = line.rstrip("\n").split("\t")
            if term not in o.nodes:
                unknown += 1
            elif o.depth[term] < min_depth:
                shallow += 1
            else:
                genes.setdefault(gene, set()).add(term)
    return genes, unknown, shallow


def ric_normalized(o, genes):
    """Corpus surprisal -log2 p(t), max-normalized; None where p(t) = 0."""
    count = {}
    for terms in genes.values():
        covered = set()
        for t in terms:
            covered |= o.anc(t)
        for t in covered:
            count[t] = count.get(t, 0) + 1
    raw = {t: -math.log2(c / len(genes)) for t, c in count.items()}
    top = max(raw.values())
    return {t: raw[t] / top if t in raw else None for t in o.ids}


def simmax(o, ic, terms1, terms2):
    """(best value, (sorted term pair, mica)): the smallest key among the
    term pairs reaching the maximum, each pair's MICA the smallest id
    reaching that pair's maximum."""
    best = None
    for ta in terms1:
        for tb in terms2:
            common = [c for c in o.anc(ta) & o.anc(tb) if ic[c] is not None]
            top = max(ic[c] for c in common)
            mica = min(c for c in common if ic[c] == top)
            cand = (-top, (tuple(sorted((ta, tb))), mica))
            best = cand if best is None else min(best, cand)
    return -best[0], best[1]


def load_scores(path):
    scores, lines = {}, 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            a, b, s = line.rstrip("\n").split("\t")
            lines += 1
            scores[a, b] = max(scores.get((a, b), 0.0), float(s))
    return scores, lines


def bin_means(points, bin_size):
    out = []
    for i in range(0, len(points), bin_size):
        chunk = points[i:i + bin_size]
        out.append((len(chunk), sum(p[0] for p in chunk) / len(chunk),
                    sum(p[1] for p in chunk) / len(chunk)))
    return out


def r_squared(xy):
    n = len(xy)
    mx = sum(x for x, _ in xy) / n
    my = sum(y for _, y in xy) / n
    sxx = sum((x - mx) ** 2 for x, _ in xy)
    sxy = sum((x - mx) * (y - my) for x, y in xy)
    slope = sxy / sxx
    inter = my - slope * mx
    ss_res = sum((y - slope * x - inter) ** 2 for x, y in xy)
    ss_tot = sum((y - my) ** 2 for _, y in xy)
    return 1.0 - ss_res / ss_tot


def rrbs_summary(o, ic, genes, scores, bin_size):
    """Bins and summary of the RRBS benchmark, identical pairs excluded
    from the regression."""
    pairs = sorted({tuple(sorted(k)) for k in scores if k[0] != k[1]})
    points, skipped = [], 0
    for a, b in pairs:
        need = [(a, b), (b, a), (a, a), (b, b)]
        if a not in genes or b not in genes or any(k not in scores for k in need):
            skipped += 1
            continue
        rr = (scores[a, b] + scores[b, a]) / (scores[a, a] + scores[b, b])
        points.append((rr, simmax(o, ic, sorted(genes[a]), sorted(genes[b]))[0], (a, b)))
    points.sort()
    bins = bin_means(points, bin_size)
    retained = [p for p in points if abs(p[0] - 1.0) > 1e-12]
    r2 = r_squared([(x, y) for _, x, y in bin_means(retained, bin_size)])
    summary = {
        "min": bins[0][2], "max": bins[-1][2], "range": bins[-1][2] - bins[0][2],
        "r2": r2, "bins": len(bins), "excluded_identical": len(points) - len(retained),
        "skipped_pairs": skipped,
    }
    return bins, summary
