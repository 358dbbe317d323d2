"""Seeded synthetic inputs for the dagic benchmark workloads.

`generate(workload, seed, out_dir)` writes the files one workload's CLI
command reads (ontology.obo, annotations.tsv, pairs.tsv, bitscores.tsv)
and returns a manifest: the workload's shape and the exact number of
every record the program must drop or skip. The same (workload, seed)
always gives byte-identical files.

The ontology is a layered DAG (the `layered_dag` idiom of the acceptance
suite): every non-root term takes its is_a parents from the level above,
so a term's minimum depth is its level. A `window` below 1 keeps parents
near the child's relative position, which narrows ancestor cones and
sets how dense the closures are.
"""

import os
import random

# Level sizes start at the root level. Why each workload exists is in README.md.
SHAPES = {
    "gic_sweep": dict(
        levels=[1, 10, 64, 256, 640, 960, 800, 470],
        parents=(1, 2), window=1.0,
        genes=0),
    "semsim_go": dict(
        levels=[1, 20, 150, 800, 2500, 5000, 8000, 9000, 7500, 4500, 2529],
        parents=(1, 2), window=1.0,
        genes=10000, terms_per_gene=(1, 5), family_size=1, pairs=5000),
    "rrbs_dense": dict(
        levels=[1, 4, 10, 25, 50, 100, 150, 200, 250, 300, 350, 350, 350, 330, 300, 230],
        parents=(1, 4), window=0.25,
        genes=600, terms_per_gene=(1, 2), family_size=10, hits=10),
}

# Droppable records put into every input on purpose, so each drop and
# skip path of the program runs and its count can be checked.
OBSOLETE_TERMS = 8        # obsolete stanzas; kept terms point extra is_a edges at them
DROPPED_EDGES = 40        # such edges, dropped by the namespace/obsolete filter
UNKNOWN_ANNOTATIONS = 60  # annotation lines naming a term absent from the ontology
SHALLOW_ANNOTATIONS = 50  # annotation lines on a depth 0 or 1 term (min depth is 2)
ORPHAN_GENES = 20         # genes annotated only with unknown or shallow terms
GHOST_GENES = 15          # genes with bit scores but no annotation line at all
DUPLICATE_SCORES = 80     # repeated (a, b) bit-score lines; the maximum is kept
MISSING_REVERSE = 70      # scored pairs whose (b, a) line is left out
IDENTICAL_PAIRS = 30      # pairs scored so that RRBS is exactly 1

MIN_DEPTH = 2             # the CLI default the workloads run with


def term_id(i):
    return f"GO:{i:07d}"


def layered_dag(rng, levels, parents, window):
    """Returns (level of each term, parent index lists, index lists per level)."""
    level_of, parents_of, by_level = [], [], []
    for lvl, size in enumerate(levels):
        start = len(level_of)
        row = list(range(start, start + size))
        prev = by_level[-1] if by_level else []
        span = max(1, int(round(window * len(prev))))
        for pos in range(size):
            level_of.append(lvl)
            if not prev:
                parents_of.append([])
                continue
            # the `span` previous-level terms nearest this term's relative position
            centre = int((pos + 0.5) * len(prev) / size)
            lo = min(max(0, centre - span // 2), len(prev) - span)
            pool = prev[lo:lo + span]
            k = min(rng.randint(*parents), len(pool))
            parents_of.append(sorted(rng.sample(pool, k)))
        by_level.append(row)
    return level_of, parents_of, by_level


def ancestor_sets(parents_of):
    """Reflexive ancestor sets; parents always have lower indices."""
    anc = []
    for i, ps in enumerate(parents_of):
        s = {i}
        for p in ps:
            s |= anc[p]
        anc.append(frozenset(s))
    return anc


def write_obo(path, level_of, parents_of, extra_is_a, n_obsolete):
    lines = ["format-version: 1.2", "ontology: synthetic", ""]
    n = len(level_of)
    for i in range(n):
        lines += ["[Term]", f"id: {term_id(i)}", f"name: term {i} at level {level_of[i]}",
                  "namespace: synthetic_process"]
        for j, p in enumerate(parents_of[i]):
            lines.append(f"is_a: {term_id(p)}" + (" ! parent" if j == 0 else ""))
        for p in extra_is_a.get(i, ()):
            lines.append(f"is_a: {p} ! obsolete parent")
        lines.append("")
    for k in range(n_obsolete):
        lines += ["[Term]", f"id: {obsolete_id(k)}", "name: obsolete term",
                  "namespace: synthetic_process", f"is_a: {term_id(0)}",
                  "is_obsolete: true", ""]
    lines += ["[Typedef]", "id: part_of", "name: part of", ""]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def obsolete_id(k):
    return f"GO:8{k:06d}"


def unknown_id(k):
    return f"GO:9{k:06d}"


def _annotations(rng, shape, by_level, deep_terms):
    """Gene -> retained term set, plus the raw lines with injected drops."""
    genes = {}
    home = {}
    n_genes = shape["genes"]
    family_size = shape["family_size"]
    homes = [rng.choice(deep_terms) for _ in range(0, n_genes, family_size)]
    lo, hi = shape["terms_per_gene"]
    for g in range(n_genes):
        gene = f"P{g:05d}"
        terms = {homes[g // family_size]}
        k = rng.randint(lo, hi)
        while len(terms) < k:
            terms.add(rng.choice(deep_terms))
        genes[gene] = terms
        home[gene] = g // family_size

    lines = [(g, term_id(t)) for g in sorted(genes) for t in sorted(genes[g])]
    shallow_pool = [t for lvl in (0, 1) for t in by_level[lvl]]
    real = sorted(genes)
    orphans = [f"Q{k:05d}" for k in range(ORPHAN_GENES)]
    # the first lines of each kind land on orphan genes, the rest on real genes
    for k in range(UNKNOWN_ANNOTATIONS):
        gene = orphans[k] if k < ORPHAN_GENES // 2 else rng.choice(real)
        lines.append((gene, unknown_id(k)))
    for k in range(SHALLOW_ANNOTATIONS):
        gene = orphans[ORPHAN_GENES // 2 + k] if k < ORPHAN_GENES - ORPHAN_GENES // 2 \
            else rng.choice(real)
        lines.append((gene, term_id(rng.choice(shallow_pool))))
    rng.shuffle(lines)
    return genes, home, orphans, lines


def _bitscores(rng, shape, genes, home, orphans, anc, level_of):
    """Directed bit-score lines; RRBS tracks the depth of the deepest shared ancestor."""
    real = sorted(genes)
    everyone = real + orphans + [f"R{k:05d}" for k in range(GHOST_GENES)]
    members = {}
    for g in real:
        members.setdefault(home[g], []).append(g)
    self_score = {g: round(rng.uniform(150.0, 600.0), 1) for g in everyone}
    max_level = max(level_of)

    pairs = set()
    for g in everyone:
        fam = members.get(home.get(g), [g])
        for h in range(shape["hits"]):
            pool = fam if h < shape["hits"] // 2 and len(fam) > 1 else everyone
            other = rng.choice(pool)
            if other != g:
                pairs.add(tuple(sorted((g, other))))
    pairs = sorted(pairs)

    usable = [p for p in pairs if p[0] in genes and p[1] in genes]
    picked = rng.sample(usable, IDENTICAL_PAIRS + MISSING_REVERSE)
    identical = set(picked[:IDENTICAL_PAIRS])
    missing_reverse = set(picked[IDENTICAL_PAIRS:])

    lines = [(g, g, self_score[g]) for g in everyone]
    for a, b in pairs:
        total = self_score[a] + self_score[b]
        if (a, b) in identical:
            x, y = self_score[a], self_score[b]
        else:
            depth = _shared_depth(genes.get(a), genes.get(b), anc, level_of)
            target = 0.05 + 0.85 * depth / max_level + rng.uniform(-0.05, 0.05)
            target = min(0.97, max(0.02, target))
            x = round(0.55 * target * total, 1)
            y = round(target * total - x, 1)
        lines.append((a, b, x))
        if (a, b) not in missing_reverse:
            lines.append((b, a, y))

    # repeated keys: half carry a lower score (the first line wins), half a higher one
    for k, (a, b, s) in enumerate(rng.sample(lines[len(everyone):], DUPLICATE_SCORES)):
        if tuple(sorted((a, b))) not in identical:
            lines.append((a, b, round(s * (0.5 if k % 2 else 1.05), 1)))
    rng.shuffle(lines)

    best = {}
    for a, b, s in lines:
        best[a, b] = max(best.get((a, b), s), s)
    skipped = identical_count = 0
    term_pairs = []
    for a, b in pairs:
        if a not in genes or b not in genes or (b, a) not in best:
            skipped += 1
            continue
        if (best[a, b] + best[b, a]) / (best[a, a] + best[b, b]) == 1.0:
            identical_count += 1
        term_pairs.append(len(genes[a]) * len(genes[b]))
    return lines, dict(score_lines=len(lines), candidate_pairs=len(pairs),
                       duplicate_scores=len(lines) - len(best), skipped_pairs=skipped,
                       identical_pairs=identical_count,
                       scored_pairs=len(term_pairs),
                       term_pairs_per_gene_pair=sum(term_pairs) / len(term_pairs))


def _shared_depth(terms_a, terms_b, anc, level_of):
    if not terms_a or not terms_b:
        return 0
    common = set()
    for ta in terms_a:
        for tb in terms_b:
            common |= anc[ta] & anc[tb]
    return max(level_of[t] for t in common)


def generate(workload, seed, out_dir):
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(out_dir, exist_ok=True)

    level_of, parents_of, by_level = layered_dag(
        rng, shape["levels"], shape["parents"], shape["window"])
    n = len(level_of)
    anc = ancestor_sets(parents_of)
    n_edges = sum(len(ps) for ps in parents_of)

    extra = {}
    for k, child in enumerate(rng.sample(range(1, n), DROPPED_EDGES)):
        extra.setdefault(child, []).append(obsolete_id(k % OBSOLETE_TERMS))
    files = {"obo": os.path.join(out_dir, "ontology.obo")}
    write_obo(files["obo"], level_of, parents_of, extra, OBSOLETE_TERMS)

    manifest = dict(
        workload=workload, seed=seed,
        terms=n, parsed_terms=n + OBSOLETE_TERMS, edges=n_edges,
        edges_dropped=DROPPED_EDGES, max_depth=max(level_of),
        mean_anc=sum(len(a) for a in anc) / n,
    )

    if shape["genes"]:
        deep = [t for t in range(n) if level_of[t] >= MIN_DEPTH]
        genes, home, orphans, ann_lines = _annotations(rng, shape, by_level, deep)
        files["corpus"] = os.path.join(out_dir, "annotations.tsv")
        with open(files["corpus"], "w", encoding="utf-8") as fh:
            fh.writelines(f"{g}\t{t}\n" for g, t in ann_lines)
        manifest.update(genes=len(genes), annotation_lines=len(ann_lines),
                        dropped_unknown=UNKNOWN_ANNOTATIONS,
                        dropped_shallow=SHALLOW_ANNOTATIONS)

    if "pairs" in shape:
        real = sorted(genes)
        gene_pairs = [tuple(rng.sample(real, 2)) for _ in range(shape["pairs"])]
        files["pairs"] = os.path.join(out_dir, "pairs.tsv")
        with open(files["pairs"], "w", encoding="utf-8") as fh:
            fh.writelines(f"{a}\t{b}\n" for a, b in gene_pairs)
        manifest.update(gene_pairs=len(gene_pairs), term_pairs_per_gene_pair=sum(
            len(genes[a]) * len(genes[b]) for a, b in gene_pairs) / len(gene_pairs))

    if "hits" in shape:
        score_lines, counts = _bitscores(rng, shape, genes, home, orphans, anc, level_of)
        files["bitscores"] = os.path.join(out_dir, "bitscores.tsv")
        with open(files["bitscores"], "w", encoding="utf-8") as fh:
            fh.writelines(f"{a}\t{b}\t{s:.1f}\n" for a, b, s in score_lines)
        manifest.update(counts)

    manifest["files"] = files
    return manifest
