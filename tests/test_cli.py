"""Subcommand dispatch, corpus symmetry classes, and report formats."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest

from cusplab import (bounds, bundle, cli, errors, farey, geometry,
                     surface)
from oracles import (canonical_word, corpus_rotations, lemma_checks_scalar,
                     thm14_csv)

SQRT3 = math.sqrt(3.0)


def rotation_swap_class(word):
    swap = word.translate(str.maketrans("RL", "LR"))
    out = set()
    for w in (word, swap):
        for i in range(len(w)):
            out.add(w[i:] + w[:i])
    return frozenset(out)


class TestCorpus:

    def test_smallest_corpora(self):
        assert cli.corpus(2) == ["RL"]
        assert cli.corpus(3) == ["RL", "RRL"]

    def test_matches_brute_force_class_count(self):
        # independent enumeration: orbit count of rotation+swap on mixed words
        for max_len in range(2, 8):
            classes = set()
            for n in range(2, max_len + 1):
                for bits in range(2 ** n):
                    word = "".join("R" if (bits >> i) & 1 else "L"
                                   for i in range(n))
                    if "R" in word and "L" in word:
                        classes.add(rotation_swap_class(word))
            assert len(cli.corpus(max_len)) == len(classes)

    def test_words_are_canonical_and_mixed(self):
        words = cli.corpus(6)
        assert len(words) == len(set(words))
        for w in words:
            assert "R" in w and "L" in w
            assert canonical_word(w) == w
        # distinct entries really are distinct classes
        reps = [rotation_swap_class(w) for w in words]
        assert len(set(reps)) == len(words)

    def test_matches_the_rotation_corpus(self):
        # the necklace generator against canonicalising every word
        for max_len in range(2, 15):
            assert cli.corpus(max_len) == corpus_rotations(max_len), max_len

    def test_powers_of_mixed_words_stay(self):
        # RLRL is a square but still pseudo-Anosov, unlike RRRR
        assert "RLRL" in cli.corpus(4)
        for w in cli.corpus(8):
            assert set(w) == {"R", "L"}

    def test_order_is_by_length_then_lex(self):
        words = cli.corpus(5)
        assert words == sorted(words, key=lambda w: (len(w), w))

    def test_short_cap_rejected(self):
        with pytest.raises(ValueError):
            cli.corpus(1)


def run_redirected(argv):
    """cli.run with stdout and stderr redirected: (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def run_fresh(argv):
    """cli.run in a new interpreter, so with a parser built afresh."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from cusplab import cli; sys.exit(cli.run(sys.argv[1:]))"]
        + argv, env=env, capture_output=True, text=True, check=False)
    return done.returncode, done.stdout, done.stderr


class TestParser:

    CALLS = (["bundle-report"], ["--help"], ["farey-dist", "0/1", "2/5"])

    def test_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_repeated_calls_match_a_fresh_process(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        fresh = [run_fresh(argv) for argv in self.CALLS]
        assert [code for code, _, _ in fresh] == [2, 0, 0]
        for _ in range(2):
            for argv, want in zip(self.CALLS, fresh):
                assert run_redirected(argv) == want


class TestFareyDist:

    def test_prints_the_distance(self, capsys):
        assert cli.run(["farey-dist", "0/1", "2/5"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_infinity_literal(self, capsys):
        assert cli.run(["farey-dist", "inf", "1/1"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_bad_slope_is_a_usage_error(self, capsys):
        assert cli.run(["farey-dist", "banana", "1/2"]) == 2
        assert "error" in capsys.readouterr().err


class TestArcDist:

    def test_matches_farey_distance(self, capsys):
        assert cli.run(["arc-dist", "slope 0/1", "slope 2/5"]) == 0
        got = int(capsys.readouterr().out.strip())
        assert got == farey.distance(farey.Slope(0, 1), farey.Slope(2, 5))

    def test_explicit_surface_file(self, tmp_path, capsys):
        path = tmp_path / "torus.tri"
        path.write_text(surface.once_punctured_torus().to_text())
        code = cli.run(["arc-dist", "--surface", str(path),
                        "slope 0/1", "slope 1/1"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_bad_literal(self, capsys):
        assert cli.run(["arc-dist", "slope 0/1", "wiggle"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_surface_file(self, tmp_path, capsys):
        code = cli.run(["arc-dist", "--surface", str(tmp_path / "no.tri"),
                        "slope 0/1", "slope 1/1"])
        assert code == 2


class TestBundleReport:

    def test_figure_eight_report(self, capsys):
        assert cli.run(["bundle-report", "RL"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert doc["versions"]["cusplab"]
        assert doc["config"]["subcommand"] == "bundle-report"
        assert doc["config"]["seed"] == 0
        assert doc["residual"] < 1e-12
        assert abs(doc["cusp_area"] - 2 * SQRT3) < 1e-6
        for re_z, im_z in doc["shapes"]:
            assert abs(complex(re_z, im_z) - complex(0.5, SQRT3 / 2)) < 1e-9

    def test_out_flag_writes_the_file(self, tmp_path, capsys):
        path = tmp_path / "rl.json"
        assert cli.run(["bundle-report", "RL", "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(path.read_text())
        assert doc["word"] == "RL"
        assert doc["config"]["out"] == str(path)

    def test_depth_is_accepted_and_ignored(self, capsys):
        # and so is --init: the solve starts from the volume maximum
        docs = []
        for extra in ([], ["--depth", "1", "--init", "regular"]):
            assert cli.run(["bundle-report", "RL"] + extra) == 0
            docs.append(json.loads(capsys.readouterr().out))
        # only the config, which records the flags, differs
        assert [(d["config"]["depth"], d["config"]["init"]) for d in docs] \
            == [(8, "i"), (1, "regular")]
        for doc in docs:
            del doc["config"]["depth"], doc["config"]["init"]
        assert docs[0] == docs[1]

    def test_reducible_word_is_an_input_error(self, capsys):
        assert cli.run(["bundle-report", "RR"]) == 2
        assert "error" in capsys.readouterr().err

    def test_numerical_failure_exits_three(self, monkeypatch, capsys):
        def blow_up(word, tol):
            raise errors.Diverged("no convergence")
        monkeypatch.setattr(bundle, "bundle_report", blow_up)
        assert cli.run(["bundle-report", "RL"]) == 3
        assert "numerical failure" in capsys.readouterr().err


class TestVerifyThm14:

    def test_zero_cap_is_a_usage_error(self, capsys):
        assert cli.run(["verify-thm14", "--max-word-len", "0"]) == 2
        assert "--max-word-len" in capsys.readouterr().err

    def test_csv_layout_and_exit(self, tmp_path, capsys):
        path = tmp_path / "report.csv"
        code = cli.run(["verify-thm14", "--max-word-len", "3",
                        "--n-max", "2", "--out", str(path)])
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "# cusplab verify-thm14 schema 1"
        assert lines[1].startswith("# versions: ")
        assert lines[2].startswith("# config: ")
        rows = list(csv.reader(io.StringIO("\n".join(lines[3:]))))
        assert rows[0] == ["word", "area", "longitude", "height",
                           "d1", "d2", "stable_upper", "margins", "flags"]
        assert [r[0] for r in rows[1:]] == ["RL", "RRL"]
        rl = rows[1]
        assert abs(float(rl[1]) - 2 * SQRT3) < 1e-6
        assert int(rl[4]) == 1 and int(rl[5]) == 2
        assert "consistent-strong:area_stable" in rl[8]
        assert "violation" not in rl[8]
        # margins cell round-trips to floats
        for part in rl[7].split(";"):
            name, value = part.split("=")
            assert math.isfinite(float(value))

    def test_identical_bytes_across_runs(self, capsys):
        texts = []
        for _ in range(2):
            assert cli.run(["verify-thm14", "--max-word-len", "3",
                            "--n-max", "1"]) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]

    def test_depth_is_accepted_and_ignored(self, capsys):
        outs = []
        for depth in ("8", "1"):
            assert cli.run(["verify-thm14", "--max-word-len", "3",
                            "--n-max", "1", "--depth", depth]) == 0
            outs.append(capsys.readouterr().out.splitlines())
        # only the config line, which records the flag, differs
        assert outs[0][2] != outs[1][2]
        assert outs[0][:2] + outs[0][3:] == outs[1][:2] + outs[1][3:]

    @pytest.mark.parametrize("n_max", [1, 5, 7])
    def test_matches_the_csv_writer_oracle(self, n_max, capsys):
        assert cli.run(["verify-thm14", "--max-word-len", "8",
                        "--n-max", str(n_max)]) == 0
        got = capsys.readouterr().out
        config = cli.RunConfig("verify-thm14", n_max=n_max, max_word_len=8,
                               fmt="csv")
        reports = [bounds.verify_fibered(word, n_max=n_max)
                   for word in cli.corpus(8)]
        assert len(reports) == 43
        assert got == thm14_csv(config, reports)

    def test_violation_row_matches_the_csv_writer_oracle(self):
        config = cli.RunConfig("verify-thm14", n_max=2, max_word_len=3,
                               fmt="csv")
        rl, rrl = (bounds.verify_fibered(word, n_max=2)
                   for word in ("RL", "RRL"))
        bad = replace(rrl, margins={**rrl.margins, "area_n2": -0.25,
                                    "height_n1": 0.0},
                      flags=("violation:area_n2", "violation:height_n1")
                      + rrl.flags)
        text = cli._thm14_csv(config, [rl, bad])
        assert text == thm14_csv(config, [rl, bad])
        assert text.splitlines()[-1].split(",")[-1] == ";".join(bad.flags)

    def test_violations_exit_one(self, monkeypatch, tmp_path, capsys):
        # zero translation distances break every n * area <= 9 chi^2 d(psi^n)
        monkeypatch.setattr(farey, "translation_distances",
                            lambda m, n_max: dict.fromkeys(
                                range(1, n_max + 1), 0))
        path = tmp_path / "report.csv"
        code = cli.run(["verify-thm14", "--max-word-len", "3",
                        "--n-max", "2", "--out", str(path)])
        assert code == 1
        assert capsys.readouterr().err == \
            "cusplab: violations on RL, RRL\n"
        rows = list(csv.reader(io.StringIO(
            "\n".join(path.read_text().splitlines()[3:]))))
        for row in rows[1:]:
            assert row[4:6] == ["0", "0"]
            flags = row[8].split(";")
            assert flags[:4] == ["violation:area_n1", "violation:height_n1",
                                 "violation:area_n2", "violation:height_n2"]


class TestRunConfig:

    @pytest.mark.parametrize("config", [
        cli.RunConfig("verify-thm14", n_max=5, max_word_len=5, fmt="csv"),
        cli.RunConfig("lemma-suite", samples=10, seed=3, out="x.json"),
        cli.RunConfig("arc-dist", budget=9, fmt="text"),
    ], ids=["verify-thm14", "lemma-suite", "arc-dist"])
    def test_to_json_matches_asdict(self, config):
        doc = config.to_json()
        assert doc == asdict(config)
        assert list(doc) == list(asdict(config))
        doc["seed"] = -1
        assert config.to_json() == asdict(config)


class TestEchoedConfig:
    """The configuration each subcommand echoes, with no options and with
    every option set, field by field as the parser's own defaults gave it
    before RunConfig's became the only ones."""

    DEFAULTS = {"budget": 64, "cap": 12, "cone_samples": 10000, "depth": 8,
                "fmt": "json", "init": "i", "max_word_len": 6, "n_max": 4,
                "out": None, "samples": 100000, "seed": 0, "stable_n": 20,
                "tol": 1e-12}

    @pytest.fixture()
    def files(self, tmp_path):
        base = surface.once_punctured_torus()
        cover = surface.build_cover(base, {e: (0,) for e in (0, 1, 2)})
        (tmp_path / "cover.tri").write_text(surface.cover_to_text(cover))
        (tmp_path / "pairs.json").write_text('[["slope 0/1", "slope 1/2"]]')
        return tmp_path

    CASES = [
        pytest.param(["bundle-report", "RL"], {}, id="bundle-report"),
        pytest.param(["bundle-report", "RL", "--tol", "1e-9", "--depth", "3",
                      "--init", "regular"],
                     {"tol": 1e-9, "depth": 3, "init": "regular"},
                     id="bundle-report-all"),
        pytest.param(["verify-thm14", "--max-word-len", "2"],
                     {"max_word_len": 2, "fmt": "csv"}, id="verify-thm14"),
        pytest.param(["verify-thm14", "--max-word-len", "3", "--n-max", "2",
                      "--stable-n", "7", "--tol", "1e-10", "--depth", "5"],
                     {"max_word_len": 3, "n_max": 2, "stable_n": 7,
                      "tol": 1e-10, "depth": 5, "fmt": "csv"},
                     id="verify-thm14-all"),
        pytest.param(["verify-lifting", "--cover", "cover.tri",
                      "--pairs", "pairs.json"], {}, id="verify-lifting"),
        pytest.param(["verify-lifting", "--cover", "cover.tri",
                      "--pairs", "pairs.json", "--cap", "5"], {"cap": 5},
                     id="verify-lifting-all"),
        pytest.param(["lemma-suite"], {}, id="lemma-suite"),
        pytest.param(["lemma-suite", "--samples", "11", "--cone-samples",
                      "12", "--seed", "13"],
                     {"samples": 11, "cone_samples": 12, "seed": 13},
                     id="lemma-suite-all"),
    ]

    @pytest.mark.parametrize("argv, changes", CASES)
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_matches_the_parser_defaults(self, argv, changes, to_file,
                                         files, monkeypatch, capsys):
        monkeypatch.chdir(files)
        out = files / "report"
        want = dict(self.DEFAULTS, subcommand=argv[0], **changes)
        if to_file:
            argv = argv + ["--out", str(out)]
            want["out"] = str(out)
        assert cli.run(argv) == 0
        text = out.read_text() if to_file else capsys.readouterr().out
        if argv[0] == "verify-thm14":
            line = text.splitlines()[2]
            assert line.startswith("# config: ")
            assert json.loads(line[len("# config: "):]) == want
        else:
            assert json.loads(text)["config"] == want

    @pytest.mark.parametrize("argv, budget", [
        (["arc-dist", "slope 0/1", "slope 1/2"], 64),
        (["arc-dist", "slope 0/1", "slope 1/2", "--budget", "9"], 9),
    ])
    def test_arc_dist_config(self, argv, budget, monkeypatch):
        # arc-dist prints a bare distance, so its configuration is read at
        # the handler
        seen = []
        monkeypatch.setattr(cli, "_cmd_arc_dist",
                            lambda args, config: seen.append(config) or 0)
        assert cli.run(argv) == 0
        assert seen[0].to_json() == dict(self.DEFAULTS, subcommand="arc-dist",
                                         budget=budget, fmt="text")

    @pytest.mark.parametrize("argv, message", [
        (["verify-thm14", "--max-word-len", "1", "--tol", "-1"],
         "--max-word-len must be at least 2"),
        (["verify-thm14", "--max-word-len", "0"],
         "--max-word-len must be at least 2"),
        (["verify-thm14", "--max-word-len", "3", "--n-max", "0", "--tol",
          "-1"], "--tol must be positive and finite, got -1.0"),
        (["lemma-suite", "--seed", "-1", "--samples", "0"],
         "--samples must be positive"),
    ])
    def test_first_failing_check_names_the_option(self, argv, message,
                                                   capsys):
        assert cli.run(argv) == 2
        assert capsys.readouterr().err == "cusplab: error: %s\n" % message


class TestVerifyLifting:

    @pytest.fixture()
    def identity_cover(self, tmp_path):
        base = surface.once_punctured_torus()
        cover = surface.build_cover(base, {e: (0,) for e in (0, 1, 2)})
        path = tmp_path / "cover.tri"
        path.write_text(surface.cover_to_text(cover))
        return path

    def test_identity_cover_reproduces_distances(self, identity_cover,
                                                 tmp_path, capsys):
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps([["slope 0/1", "slope 2/3"],
                                     ["slope 1/2", "slope -1/1"]]))
        code = cli.run(["verify-lifting", "--cover", str(identity_cover),
                        "--pairs", str(pairs)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "PASS"
        assert doc["report"]["degree"] == 1
        for entry in doc["report"]["pairs"]:
            assert len(entry["lifts"]) == 1
            assert entry["lifts"][0]["d_cover"] == entry["d_base"]
            assert entry["lower_vacuous"] is True

    def test_malformed_pairs_file(self, identity_cover, tmp_path, capsys):
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps({"a": 1}))
        code = cli.run(["verify-lifting", "--cover", str(identity_cover),
                        "--pairs", str(pairs)])
        assert code == 2
        assert "--pairs" in capsys.readouterr().err

    def test_malformed_cover_file(self, identity_cover, tmp_path, capsys):
        pairs = tmp_path / "pairs.json"
        pairs.write_text("[]")
        lines = identity_cover.read_text().splitlines()
        assert lines[3] == "cover degree 1"
        lines[3] = "cover degree one"
        identity_cover.write_text("\n".join(lines) + "\n")
        code = cli.run(["verify-lifting", "--cover", str(identity_cover),
                        "--pairs", str(pairs)])
        assert code == 2
        assert capsys.readouterr().err == \
            "cusplab: error: line 4: bad cover degree\n"

    def test_cover_file_surface_error_names_the_file_line(self, tmp_path,
                                                          capsys):
        # the base surface's errors count the comment and blank line too
        cover = tmp_path / "cover.tri"
        cover.write_text("# my cover\n\nsurface s11 preferred_puncture p0\n"
                         "tri 0: 1.1 1.2 1.0\ntri 0: 0.2 0.0 0.1\n"
                         "cover degree 1\nperm 0: 0\nperm 1: 0\nperm 2: 0\n")
        pairs = tmp_path / "pairs.json"
        pairs.write_text("[]")
        code = cli.run(["verify-lifting", "--cover", str(cover),
                        "--pairs", str(pairs)])
        assert code == 2
        assert capsys.readouterr().err == \
            "cusplab: error: line 5: triangle 0 repeated\n"

    def test_missing_cover_file(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.json"
        pairs.write_text("[]")
        code = cli.run(["verify-lifting", "--cover", str(tmp_path / "x.tri"),
                        "--pairs", str(pairs)])
        assert code == 2


class TestLemmaSuite:

    def test_small_run_passes(self, capsys):
        code = cli.run(["lemma-suite", "--samples", "500",
                        "--cone-samples", "200"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "PASS"
        names = [c["name"] for c in doc["checks"]]
        assert names == ["tangent-bounds", "cone-growth"]
        tangent, cone = doc["checks"]
        assert tangent["min_l1"] >= tangent["min_l1_bound"] - 1e-9
        assert tangent["max_l2"] <= tangent["max_l2_bound"] + 1e-9
        assert tangent["equality_error"] < 1e-9
        assert cone["violations"] == 0
        assert doc["config"]["seed"] == 0

    def test_seed_changes_the_draws(self, capsys):
        docs = []
        for seed in ("0", "1", "0"):
            cli.run(["lemma-suite", "--samples", "300",
                     "--cone-samples", "50", "--seed", seed])
            docs.append(json.loads(capsys.readouterr().out))
        assert docs[0]["checks"][0]["min_l1"] != docs[1]["checks"][0]["min_l1"]
        assert docs[0] == docs[2]

    def test_violations_exit_one(self, monkeypatch, capsys):
        # l1 = 1 < ln(3 + 2 sqrt 2) and l2 = 2 > sqrt 2 on every sample and
        # every tangent case, and a constant area never grows
        monkeypatch.setattr(geometry, "tangent_lengths",
                            lambda h1, h2: (1.0, 2.0))
        monkeypatch.setattr(geometry, "cone_cusp_area",
                            lambda params, x: 1.0)
        code = cli.run(["lemma-suite", "--samples", "30",
                        "--cone-samples", "20"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "VIOLATION"
        tangent, cone = doc["checks"]
        assert tangent["status"] == cone["status"] == "VIOLATION"
        # two per sample and one for the tangent cases; every cone sample
        # with d > 0 fails exp(d) * area <= area
        assert tangent["violations"] == 2 * 30 + 1
        assert (tangent["min_l1"], tangent["max_l2"]) == (1.0, 2.0)
        assert cone["violations"] == 20


def draws_at(seed, u):
    """seed's draw source one double in, with the half-word u buffered."""
    draws = cli._Draws(seed)
    draws.unit()
    draws._half = u
    return draws


def assert_same_stream(rng, draws, steps, seed):
    # a mixed sequence: the lemma draws, other bounds, unit doubles and
    # uniform ranges
    pick = np.random.default_rng(1000 + seed)
    bounds = [6, 6, 6, 2, 3, 7, 1000, 2 ** 31 + 5, 2 ** 32 - 1, 2 ** 32]
    ranges = [(-5, 5), (0.1, 5.0), (0.05, 3.0), (0.0, 2.0 * math.pi),
              (0.0, 4.0), (-1e-3, 1e9)]
    for step in range(steps):
        kind = pick.random()
        if kind < 0.3:
            n = bounds[pick.integers(len(bounds))]
            want, got = int(rng.integers(n)), draws.integers(n)
        elif kind < 0.45:
            want, got = float(rng.random()), draws.unit()
        else:
            lo, hi = ranges[pick.integers(len(ranges))]
            want, got = float(rng.uniform(lo, hi)), draws.uniform(lo, hi)
        assert got == want, (seed, step)


class TestDraws:

    def test_matches_the_generator_scalar_calls(self):
        # 6000 mixed draws take about 5000 words, more than one block
        for seed in range(20):
            assert_same_stream(np.random.default_rng(seed),
                               cli._Draws(seed), 6000, seed)

    def test_lemire_redraw_branch(self):
        # a buffered half-word u with u * n mod 2^32 below the threshold
        # (2^32 - n) mod n forces the redraw; u = 0 does for every n, and
        # u = 2 for n = 2^31 + 5
        forced = 0
        for seed in range(4):
            for u in range(4):
                for n in (6, 3, 2 ** 31 + 5):
                    if (u * n) % 2 ** 32 < (2 ** 32 - n) % n:
                        forced += 1
                    rng = np.random.default_rng(seed)
                    rng.random()
                    state = rng.bit_generator.state
                    state["has_uint32"], state["uinteger"] = 1, u
                    rng.bit_generator.state = state
                    draws = draws_at(seed, u)
                    assert draws.integers(n) == int(rng.integers(n))
                    assert_same_stream(rng, draws, 200, seed)
        assert forced == 4 * 4

    def test_negative_seed_is_refused_as_default_rng_does(self):
        with pytest.raises(ValueError) as want:
            np.random.default_rng(-1)
        with pytest.raises(ValueError) as got:
            cli._Draws(-1)
        assert str(got.value) == str(want.value)


def lemma_report(args, capsys):
    code = cli.run(["lemma-suite"] + args)
    return code, capsys.readouterr().out


def expected_lemma_report(seed, samples, cone_samples):
    config = cli.RunConfig("lemma-suite", samples=samples,
                           cone_samples=cone_samples, seed=seed)
    checks = lemma_checks_scalar(config)
    ok = all(c["status"] == "PASS" for c in checks)
    doc = cli._envelope(config)
    doc["checks"] = checks
    doc["status"] = "PASS" if ok else "VIOLATION"
    return (0 if ok else 1), cli._json_text(doc)


class TestLemmaStream:

    def test_reports_match_the_scalar_oracle(self, capsys):
        for seed in range(8):
            got = lemma_report(["--samples", "3000", "--cone-samples", "500",
                                "--seed", str(seed)], capsys)
            assert got == expected_lemma_report(seed, 3000, 500), seed

    def test_default_counts_match_the_scalar_oracle(self, capsys):
        got = lemma_report([], capsys)
        assert got == expected_lemma_report(0, 100000, 10000)

    def test_negative_seed_exits_2(self, capsys):
        assert cli.run(["lemma-suite", "--seed", "-1"]) == 2
        assert "--seed must be non-negative" in capsys.readouterr().err

    def test_negative_seed_is_refused_by_the_config(self):
        # before any draw source is built, so the message names the option
        with pytest.raises(ValueError, match="--seed"):
            cli.RunConfig("lemma-suite", seed=-1)
        assert cli.RunConfig("lemma-suite", seed=0).seed == 0

    def test_zero_samples_exits_2(self, capsys):
        assert cli.run(["lemma-suite", "--samples", "0"]) == 2
        assert "samples must be positive" in capsys.readouterr().err

    def test_geometry_calls_match_the_scalar_oracle(self, monkeypatch,
                                                    capsys):
        # rebind the geometry functions on their module, as the per-layer
        # tracer does: the checks bind them locally on each call, so every
        # call still goes through the wrappers, and the same stream gives
        # the same arguments, results and errors in the same order
        calls = []

        def recorded(name, fn):
            def wrapper(*args):
                try:
                    out = fn(*args)
                except errors.CuspLabError as exc:
                    calls.append((name, args, type(exc).__name__))
                    raise
                calls.append((name, args, out))
                return out
            return wrapper

        for name in ("tangent_lengths", "horoball_distance",
                     "cone_cusp_area"):
            monkeypatch.setattr(geometry, name,
                                recorded(name, getattr(geometry, name)))
        code, _ = lemma_report(["--samples", "2000",
                                "--cone-samples", "300"], capsys)
        assert code == 0
        got = calls[:]
        del calls[:]
        lemma_checks_scalar(cli.RunConfig("lemma-suite", samples=2000,
                                          cone_samples=300))
        assert got == calls
        # tuple equality alone would accept plain tuples
        for name, args, _ in got:
            if name == "cone_cusp_area":
                assert type(args[0]) is geometry.ConeCuspParams
                assert type(args[1]) is float
            else:
                assert [type(a) for a in args] == [geometry.Horoball] * 2
        counts = Counter((name, isinstance(out, str))
                         for name, _, out in got)
        refused = counts[("tangent_lengths", True)]
        assert counts[("tangent_lengths", False)] == 2000 + 51
        assert 0 < refused < 2000
        assert counts[("horoball_distance", False)] == 2000 + 51 + refused
        assert counts[("cone_cusp_area", False)] == 2 * 300
        assert len(got) == 2 * (2000 + 51 + refused) + 2 * 300

    @pytest.mark.parametrize("u, k", [(-1.0, 0), (-1.0, 1), (math.nan, 1)])
    def test_sampled_diameters_are_checked_inline(self, u, k):
        # the sampled horoballs skip Horoball.__new__, so the loop itself
        # refuses a diameter that is not positive, with the record's
        # message, within the first attempt's six doubles; k = 0 puts the
        # first ball at infinity
        class StubDraws:
            left = 6

            def unit(self):
                self.left -= 1
                assert self.left >= 0, "drew past the first attempt"
                return u

            def integers(self, n):
                return k

        config = cli.RunConfig("lemma-suite", samples=1, cone_samples=1)
        with pytest.raises(ValueError) as want:
            geometry.Horoball(0j, 0.05 + (3.0 - 0.05) * u)
        with pytest.raises(ValueError) as got:
            cli._tangent_check(config, StubDraws())
        assert str(got.value) == str(want.value)


class TestDispatch:

    @pytest.mark.parametrize("argv", [
        ["arc-dist", "slope 0/1", "slope 1/2", "--budget", "0"],
        ["verify-thm14", "--max-word-len", "2", "--n-max", "0"],
        ["verify-lifting", "--cover", "cover.tri", "--pairs", "pairs.json",
         "--cap", "-1"],
        ["verify-thm14", "--max-word-len", "2", "--tol", "inf"],
    ])
    def test_nonpositive_caps_exit_2(self, argv, capsys):
        # the message names the option, the one before the bad value
        assert cli.run(argv) == 2
        assert "%s must be positive" % argv[-2] in capsys.readouterr().err

    def test_no_subcommand(self, capsys):
        assert cli.run([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert cli.run(["polish"]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli.run(["--help"]) == 0
        assert "subcommand" in capsys.readouterr().out
