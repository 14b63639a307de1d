"""The benchmark workloads: inputs from a seed, one closed-loop step, oracle.

Every workload drives cusplab only through its public functions and the
``cli.run`` entry point.  A workload object is built once per run:

* ``build()`` makes the inputs (slope pools, covers, word orders, loaded
  references) and returns them; the harness calls it several times to
  time set-up and keeps the last result.
* ``start(inputs)`` installs those inputs.
* ``step()`` performs one client request and returns a ``Step``: how many
  operations it covered, the failure label of each failed one, and how
  many disagreed with the oracle.
* ``finish()`` runs untimed end-of-run checks and returns their mismatch
  messages.

``long_requests`` marks workloads whose single requests run for a large
part of the window; the harness samples host speed inside those.  A
workload with a finite input list sets ``exhausted`` once every input has
been requested, and the run ends there rather than repeat warm inputs.

A failure the reference predicts (a solver failure recorded at the
reference commit) counts in ``failed`` but not as a mismatch; any other
failure is a mismatch, so the run reports ``correct: false``.
"""

import contextlib
import csv
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field

from cusplab import arcs, bounds, cli, errors, farey, surface

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references")

# the paper's arXiv number; fixes every reference pool below
POOL_SEED = 11085748

REL_TOL = 1e-9


@dataclass
class Step:
    ops: int
    failures: list = field(default_factory=list)   # one label per failed op
    mismatches: int = 0
    notes: list = field(default_factory=list)      # mismatch messages


def close(a, b):
    """Equal to a relative 1e-9; values below 1 compare absolutely."""
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def load_reference(name):
    with open(os.path.join(REFERENCES, name + ".json")) as fh:
        return json.load(fh)


def run_cli(argv):
    """cli.run with its stderr notes captured; returns (code, notes)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, err.getvalue().strip().replace("cusplab: ", "")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---- corpus-scan ----

CORPUS_ARGS = ["verify-thm14", "--max-word-len", "5", "--n-max", "5"]


def parse_thm14_csv(text):
    """(comment lines, header, rows) of a verify-thm14 report."""
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    table = list(csv.reader(body))
    return comments, table[0], table[1:]


def _row_mismatch(header, got, want):
    if len(got) != len(want):
        return "column count %d != %d" % (len(got), len(want))
    for name, g, w in zip(header, got, want):
        if name in ("word", "flags") or name.startswith("d"):
            if g != w:
                return "%s %r != %r" % (name, g, w)
        elif name == "margins":
            gm = dict(kv.split("=") for kv in g.split(";"))
            wm = dict(kv.split("=") for kv in w.split(";"))
            if gm.keys() != wm.keys() or not all(
                    close(float(gm[k]), float(wm[k])) for k in wm):
                return "margins %r != %r" % (g, w)
        elif not close(float(g), float(w)):
            return "%s %s != %s" % (name, g, w)
    return None


class CorpusScan:
    """verify-thm14 over the fixed length <= 5 corpus, powers up to 5.

    The corpus is canonical, so the seed is unused.  One step is one CLI
    call; its operations are the corpus words.
    """
    name = "corpus-scan"
    long_requests = True
    exhausted = False

    def __init__(self, seed, workdir):
        self.out = os.path.join(workdir, "corpus.csv")

    def build(self):
        return cli.corpus(5), load_reference(self.name)

    def start(self, inputs):
        self.words, self.reference = inputs
        self.step_ops = len(self.words)

    def step(self):
        n = self.step_ops
        code, note = run_cli(CORPUS_ARGS + ["--out", self.out])
        if code != 0:
            return Step(n, ["exit%d" % code] * n, n, [note])
        with open(self.out) as fh:
            comments, header, rows = parse_thm14_csv(fh.read())
        want = self.reference
        notes = []
        if comments[0] != want["comments"][0] or header != want["header"]:
            notes.append("report preamble differs")
        got = {row[0]: row for row in rows}
        bad = 0
        for row in want["rows"]:
            if row[0] not in got:
                why = "row missing"
            else:
                why = _row_mismatch(header, got[row[0]], row)
            if why is not None:
                bad += 1
                notes.append("%s: %s" % (row[0], why))
        if len(rows) != len(want["rows"]):
            notes.append("%d rows, expected %d" % (len(rows), len(want["rows"])))
        if notes and not bad:
            bad = n
        return Step(n, ["oracle"] * bad, bad, notes)

    def finish(self):
        return []


# ---- bundle-report ----

BUNDLE_POOL_SIZE = 48


def bundle_words():
    """The word pool: lengths 6..16, both letters, no repeats."""
    rng = random.Random(POOL_SEED)
    words = []
    while len(words) < BUNDLE_POOL_SIZE:
        n = rng.randint(6, 16)
        w = "".join(rng.choice("RL") for _ in range(n))
        if "R" in w and "L" in w and w not in words:
            words.append(w)
    return words


def bundle_outcome(code, note, doc):
    """The recorded form of one bundle-report call."""
    if code != 0:
        return {"exit": code, "note": note}
    return {"exit": 0, "report": {k: doc[k] for k in (
        "word", "shapes", "residual", "volume", "cusp_area", "longitude",
        "height")}}


def _bundle_mismatch(got, want, tol):
    if got["word"] != want["word"]:
        return "word %r" % got["word"]
    if len(got["shapes"]) != len(want["shapes"]):
        return "shape count"
    for g, w in zip(got["shapes"], want["shapes"]):
        if not (close(g[0], w[0]) and close(g[1], w[1])):
            return "shape %r != %r" % (g, w)
    # the residual is rounding noise; it only has to stay under the tolerance
    if not got["residual"] < tol:
        return "residual %g" % got["residual"]
    for k in ("volume", "cusp_area", "longitude", "height"):
        if not close(got[k], want[k]):
            return "%s %r != %r" % (k, got[k], want[k])
    return None


def _bundle_consistent(doc, tol):
    ok = doc["residual"] < tol and doc["cusp_area"] > 0.0
    return ok and close(doc["height"] * doc["longitude"], doc["cusp_area"])


class BundleReport:
    """bundle-report on seeded words from the pool, one word per step."""
    name = "bundle-report"
    long_requests = False
    step_ops = 1
    tol = 1e-12      # the CLI default

    def __init__(self, seed, workdir):
        self.seed = seed
        self.out = os.path.join(workdir, "bundle.json")

    def build(self):
        words = bundle_words()
        random.Random(self.seed).shuffle(words)
        return words, load_reference(self.name)

    def start(self, inputs):
        self.words, self.reference = inputs
        self.next = 0

    def _call(self, word):
        code, note = run_cli(["bundle-report", word, "--out", self.out])
        doc = read_json(self.out) if code == 0 else None
        return code, note, doc

    @property
    def exhausted(self):
        return self.next >= len(self.words)

    def step(self):
        word = self.words[self.next]
        self.next += 1
        code, note, doc = self._call(word)
        want = self.reference[word]
        if want["exit"] == 0:
            if code != 0:
                return Step(1, ["exit%d" % code], 1,
                            ["%s: exit %d, %s" % (word, code, note)])
            why = _bundle_mismatch(doc, want["report"], self.tol)
            if why:
                return Step(1, ["oracle"], 1, ["%s: %s" % (word, why)])
            return Step(1)
        if code == want["exit"]:
            # the recorded solver failure, repeated: failed but expected
            return Step(1, ["exit%d %s" % (code, note)])
        if code == 0 and _bundle_consistent(doc, self.tol):
            return Step(1)    # a solver fix: accepted when self-consistent
        return Step(1, ["exit%d" % code], 1,
                    ["%s: exit %d, reference exit %d"
                     % (word, code, want["exit"])])

    def finish(self):
        code, note, doc = self._call("RL")
        fig8 = 2.0 * math.sqrt(3.0)
        if code != 0 or not close(doc["cusp_area"], fig8):
            return ["RL cusp area is not 2*sqrt(3): exit %d %s"
                    % (code, doc and doc["cusp_area"])]
        return []


# ---- torus-queries ----

TORUS_BUDGET = 64     # the arc-dist default


def torus_slopes(base):
    """Slopes with |p|, q <= 20 whose arcs fit the budget."""
    return [s for s in farey.slopes_in_box(20)
            if arcs.slope_arc(base, s).coord_sum <= TORUS_BUDGET]


class TorusQueries:
    """Arc-complex distance queries between seeded slope pairs."""
    name = "torus-queries"
    long_requests = False
    exhausted = False
    step_ops = 1

    def __init__(self, seed, workdir):
        self.seed = seed

    def build(self):
        base = surface.once_punctured_torus()
        return base, torus_slopes(base)

    def start(self, inputs):
        self.base, self.pool = inputs
        self.rng = random.Random(self.seed)

    def step(self):
        s, t = self.rng.choice(self.pool), self.rng.choice(self.pool)
        a = arcs.parse_arc(self.base, "slope %s" % s)
        b = arcs.parse_arc(self.base, "slope %s" % t)
        d = arcs.distance(a, b, budget=TORUS_BUDGET)
        want = farey.distance(s, t)
        if d != want:
            return Step(1, ["oracle"], 1,
                        ["d(%s, %s) = %d, Farey %d" % (s, t, d, want)])
        return Step(1)

    def finish(self):
        return []


# ---- cover-lifting ----

COVER_CAP = 12
COVER_POOL_SIZE = 6


def degree3_covers(base):
    """The once-punctured transitive degree-3 covers, in a fixed order."""
    out = []
    s3 = list(itertools.permutations(range(3)))
    for triple in itertools.product(s3, repeat=3):
        try:
            cover = surface.build_cover(base, dict(zip(range(3), triple)))
        except errors.Intransitive:
            continue
        if len(cover.total.punctures) == 1:
            out.append(cover)
    return out


def cover_pool():
    """Indices into degree3_covers of the covers with references."""
    return sorted(random.Random(POOL_SEED).sample(range(108), COVER_POOL_SIZE))


def small_slopes(base):
    """Slopes whose arcs have coordinate sum 1."""
    return [s for s in farey.slopes_in_box(2)
            if arcs.slope_arc(base, s).coord_sum <= 1]


def pair_key(index, s, t):
    return "%d %s %s" % (index, s, t)


def lifting_outcome(entry):
    return {"d_base": entry["d_base"],
            "d_cover": [lift["d_cover"] for lift in entry["lifts"]]}


class CoverLifting:
    """verify_lifting one slope pair at a time on a seeded degree-3 cover."""
    name = "cover-lifting"
    long_requests = True
    step_ops = 1

    def __init__(self, seed, workdir):
        self.seed = seed

    def build(self):
        base = surface.once_punctured_torus()
        covers = degree3_covers(base)
        pool = cover_pool()
        index = pool[self.seed % len(pool)]
        slopes = small_slopes(base)
        pairs = list(itertools.combinations(slopes, 2))
        random.Random(self.seed).shuffle(pairs)
        arc_of = {s: arcs.slope_arc(base, s) for s in slopes}
        return (index, covers[index], pairs, arc_of,
                load_reference(self.name))

    def start(self, inputs):
        self.index, self.cover, self.pairs, self.arc_of, self.reference = \
            inputs
        self.next = 0

    @property
    def exhausted(self):
        return self.next >= len(self.pairs)

    def step(self):
        s, t = self.pairs[self.next]
        self.next += 1
        rep = bounds.verify_lifting(
            self.cover, [(self.arc_of[s], self.arc_of[t])], cap=COVER_CAP)
        entry = rep["pairs"][0]
        got = lifting_outcome(entry)
        want = self.reference[pair_key(self.index, s, t)]
        if not all(d <= got["d_base"] for d in got["d_cover"]):
            why = "a lifted distance exceeds the base distance"
        elif got != want:
            why = "got %r, reference %r" % (got, want)
        else:
            return Step(1)
        return Step(1, ["oracle"], 1, ["%s %s: %s" % (s, t, why)])

    def finish(self):
        return []


# ---- lemma-suite ----

LEMMA_POOL_SIZE = 32
LEMMA_SAMPLES = 100000 + 10000     # the CLI defaults, tangent plus cone


def lemma_doc(path):
    """The report with its output path blanked, as references store it."""
    doc = read_json(path)
    doc["config"]["out"] = None
    return doc


class LemmaSuite:
    """lemma-suite calls at the default sample counts, seeds from a pool."""
    name = "lemma-suite"
    long_requests = False
    exhausted = False
    step_ops = LEMMA_SAMPLES

    def __init__(self, seed, workdir):
        self.seed = seed
        self.out = os.path.join(workdir, "lemma.json")

    def build(self):
        return load_reference(self.name)

    def start(self, inputs):
        self.reference = inputs
        self.next = self.seed % LEMMA_POOL_SIZE

    def step(self):
        n = self.step_ops
        lemma_seed = self.next % LEMMA_POOL_SIZE
        self.next += 1
        code, note = run_cli(["lemma-suite", "--seed", str(lemma_seed),
                              "--out", self.out])
        if code != 0:
            return Step(n, ["exit%d" % code] * n, n, [note])
        doc = lemma_doc(self.out)
        if doc["status"] != "PASS" or doc != self.reference[str(lemma_seed)]:
            return Step(n, ["oracle"] * n, n,
                        ["seed %d: report differs from the reference"
                         % lemma_seed])
        return Step(n)

    def finish(self):
        return []


WORKLOADS = {w.name: w for w in (CorpusScan, BundleReport, TorusQueries,
                                 CoverLifting, LemmaSuite)}
