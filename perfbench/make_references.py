"""Record the oracle references the workloads compare against.

Run from the checkout root at the commit whose outputs are the reference:

    python3 perfbench/make_references.py [workload ...]

Each workload's file lands in perfbench/references/<workload>.json.  The
pools are fixed by workloads.POOL_SEED, so a rerun on unchanged code writes
identical files.  cover-lifting takes about ten minutes on one core.
"""

import itertools
import json
import os
import shutil
import sys

import checkout

checkout.use_source()

import workloads as wl  # noqa: E402
from cusplab import arcs, bounds, surface  # noqa: E402


def corpus_scan(tmp):
    out = os.path.join(tmp, "corpus.csv")
    code, note = wl.run_cli(wl.CORPUS_ARGS + ["--out", out])
    if code != 0:
        raise SystemExit("verify-thm14 failed: %s" % note)
    with open(out) as fh:
        comments, header, rows = wl.parse_thm14_csv(fh.read())
    return {"argv": wl.CORPUS_ARGS, "comments": comments[:1],
            "header": header, "rows": rows}


def bundle_report(tmp):
    out = os.path.join(tmp, "bundle.json")
    ref = {}
    for word in wl.bundle_words():
        code, note = wl.run_cli(["bundle-report", word, "--out", out])
        doc = wl.read_json(out) if code == 0 else None
        ref[word] = wl.bundle_outcome(code, note, doc)
        print(word, code, note, file=sys.stderr, flush=True)
    return ref


def cover_lifting(tmp):
    base = surface.once_punctured_torus()
    covers = wl.degree3_covers(base)
    slopes = wl.small_slopes(base)
    arc_of = {s: arcs.slope_arc(base, s) for s in slopes}
    ref = {}
    for index in wl.cover_pool():
        for s, t in itertools.combinations(slopes, 2):
            rep = bounds.verify_lifting(covers[index], [(arc_of[s], arc_of[t])],
                                        cap=wl.COVER_CAP)
            key = wl.pair_key(index, s, t)
            ref[key] = wl.lifting_outcome(rep["pairs"][0])
            print(key, ref[key], file=sys.stderr, flush=True)
    return ref


def lemma_suite(tmp):
    out = os.path.join(tmp, "lemma.json")
    ref = {}
    for seed in range(wl.LEMMA_POOL_SIZE):
        code, note = wl.run_cli(["lemma-suite", "--seed", str(seed),
                                 "--out", out])
        if code != 0:
            raise SystemExit("lemma-suite seed %d failed: %s" % (seed, note))
        ref[str(seed)] = wl.lemma_doc(out)
    return ref


MAKERS = {"corpus-scan": corpus_scan, "bundle-report": bundle_report,
          "cover-lifting": cover_lifting, "lemma-suite": lemma_suite}


def main(names):
    for name in names or sorted(MAKERS):
        tmp = os.path.join(wl.HERE, "work", "references-%d" % os.getpid())
        os.makedirs(tmp)
        try:
            ref = MAKERS[name](tmp)
        finally:
            shutil.rmtree(tmp)
        path = os.path.join(wl.REFERENCES, name + ".json")
        with open(path, "w") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("wrote %s" % path)


if __name__ == "__main__":
    main(sys.argv[1:])
