import contextlib
import csv
import gc
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import urnova
from urnova import (
    Alphabet,
    Symbol,
    SymmetricKernel,
    UrnModel,
    build_weak_copy,
    builtin_kernel,
    decompose,
    expectation,
    from_table,
    urn_model,
    ustatistic,
)
from urnova.coefficients import assumption_check, gamma_coeff, phi_coeff, psi_coeff
from urnova.conditional import (
    cond_expectation,
    expand_conditional,
    nested_conditional,
    nested_conditional_sum,
    symmetrized_offdiagonal,
)
from urnova.decomposition import (
    covariance_levels,
    degenerate_cov,
    project_degenerate_ustat,
    project_level,
    wor_level_variance_derived,
)
from urnova.cli import (COMMANDS, kernel_json_text, kernel_to_json, main, parse_kernel_file,
                        parse_model_file)
from urnova.errors import ExhaustedUrn, ParseError, ValidationError
from urnova.report import Report, format_decimal, render_csv
from urnova.weak_copy import dirichlet_moment

from helpers import reference_render


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def polya_doc():
    return {
        "symbols": [{"label": "a", "value": "0"}, {"label": "b", "value": "1"}],
        "alpha": {"a": "1", "b": "1"},
        "c": "1",
        "length": 8,
    }


class TestModelParsing:
    def test_well_formed(self, tmp_path):
        m = parse_model_file(write_json(tmp_path / "m.json", polya_doc()))
        assert m.alpha_total == 2 and m.length == 8

    def test_fractional_alpha_negative_c(self, tmp_path):
        doc = polya_doc()
        doc["alpha"]["a"] = "3/2"
        doc["c"] = "-1"
        doc["length"] = 1
        with pytest.raises(ExhaustedUrn):
            parse_model_file(write_json(tmp_path / "m.json", doc))

    def test_missing_length(self, tmp_path):
        doc = polya_doc()
        del doc["length"]
        with pytest.raises(ParseError):
            parse_model_file(write_json(tmp_path / "m.json", doc))

    def test_mixture_document(self, tmp_path):
        m = parse_model_file(write_json(tmp_path / "m.json", {"epsilon": "1/2"}))
        assert m.epsilon == F(1, 2)

    def test_bad_rational(self, tmp_path):
        doc = polya_doc()
        doc["c"] = "one"
        with pytest.raises(ParseError):
            parse_model_file(write_json(tmp_path / "m.json", doc))


class TestKernelRoundTrip:
    def test_table_round_trip(self, tmp_path):
        model = parse_model_file(write_json(tmp_path / "m.json", polya_doc()))
        kernel = from_table(model.alphabet, 2,
                            {("a", "a"): F(1, 3), ("a", "b"): -2, ("b", "b"): 0})
        path = write_json(tmp_path / "k.json", kernel_to_json(kernel))
        again = parse_kernel_file(path, model)
        assert again == kernel

    def test_builtin_needs_arity(self, tmp_path):
        model = parse_model_file(write_json(tmp_path / "m.json", polya_doc()))
        path = write_json(tmp_path / "k.json", {"builtin": "max"})
        with pytest.raises(ParseError):
            parse_kernel_file(path, model)
        assert parse_kernel_file(path, model, 3).arity == 3


def sidecar_alphabet(*labels):
    return Alphabet(tuple(Symbol(label) for label in labels))


@st.composite
def sidecar_kernels(draw):
    labels = draw(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=4, unique=True))
    arity = draw(st.integers(0, 3))
    multiset = st.lists(st.sampled_from(labels), min_size=arity, max_size=arity).map(tuple)
    entries = draw(st.lists(st.tuples(multiset, st.fractions()), max_size=4))
    return SymmetricKernel(arity, sidecar_alphabet(*labels), tuple(entries))


class TestSidecarText:
    @given(kernel=sidecar_kernels())
    @example(kernel=SymmetricKernel(2, sidecar_alphabet("a"), ()))
    @example(kernel=SymmetricKernel(0, sidecar_alphabet("a"), (((), F(1, 2)),)))
    @example(kernel=SymmetricKernel(2, sidecar_alphabet('q"', "b\\", "\u00e9"), (
        (('q"', "\u00e9"), F(-3)), (("b\\", "b\\"), F(0)), (("\u00e9", "\u00e9"), F(7, 2)))))
    def test_equals_json_dumps(self, kernel):
        assert kernel_json_text(kernel) == json.dumps(kernel_to_json(kernel), indent=1,
                                                      sort_keys=True)


REPORT_CELLS = st.one_of(
    st.integers(-3, 3), st.integers(), st.booleans(), st.just(""),
    st.text(alphabet='ab1-/ ,"', max_size=3), st.fractions(max_denominator=5),
    st.sampled_from([F(0), F(-1, 2), F(1, 10**400), F(-10**400, 3), F(7, 10**320)]),
)


@st.composite
def reports(draw):
    """A report over random columns and rational columns, with rows that
    mix numbers and text in every column and leave some cells missing."""
    columns = draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=4, unique=True))
    rational = tuple(draw(st.lists(st.sampled_from(columns), unique=True)))
    rep = Report({"tool_version": "t", "seed": 3}, columns, rational_columns=rational)
    for row in draw(st.lists(st.fixed_dictionaries(
            {}, optional={col: REPORT_CELLS for col in columns}), max_size=8)):
        rep.add(**row)
    return rep


class TestReports:
    @given(rep=reports())
    def test_render_equals_the_reference(self, rep):
        ours, reference = io.StringIO(), io.StringIO()
        rep.render(ours)
        reference_render(rep, reference)
        assert ours.getvalue() == reference.getvalue()

    def test_rational_formatting(self, tmp_path):
        rep = Report({"tool_version": "t"}, ["value"], rational_columns=("value",))
        rep.add(value=F(1, 3))
        out = tmp_path / "r.csv"
        render_csv(rep, str(out))
        lines = out.read_text().splitlines()
        assert lines[1] == "value,value_decimal"
        assert lines[2] == "1/3,0.333333333333"

    @pytest.mark.parametrize("value, text", [
        (F(10**400, 3), "3.33333333333e+399"),
        (F(-10**400, 3), "-3.33333333333e+399"),
        (F(1, 10**400), "1e-400"),
        (F(-1, 7 * 10**400), "-1.42857142857e-401"),
        (F(10**20), "1e+20"),
        (F(1, 3), "0.333333333333"),
        (F(0), "0"),
        (F(1, 10**320), "1e-320"),
        (F(-2, 3 * 10**315), "-6.66666666667e-316"),
    ])
    def test_decimal_beyond_float_range(self, value, text):
        assert format_decimal(value) == text

    def test_empty_report_is_header_only(self, tmp_path):
        rep = Report({"tool_version": "t"}, ["a", "b"])
        out = tmp_path / "r.csv"
        render_csv(rep, str(out))
        lines = out.read_text().splitlines()
        assert len(lines) == 2


class TestCommands:
    def test_identical_configs_are_byte_identical(self, tmp_path, capsys):
        model = write_json(tmp_path / "m.json", polya_doc())
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["coeffs", "--model", model, "--M", "4", "--out", out1]) == 0
        assert main(["coeffs", "--model", model, "--M", "4", "--out", out2]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_coeffs_first_level(self, tmp_path):
        model = write_json(tmp_path / "m.json", polya_doc())
        out = str(tmp_path / "c.csv")
        main(["coeffs", "--model", model, "--M", "4", "--out", out])
        rows = [line.split(",") for line in Path(out).read_text().splitlines()]
        theta11 = next(r for r in rows if r[:3] == ["theta", "1", "1"])
        # (alpha_total + c) / (alpha_total + 4 c) at alpha_total 2, c 1
        assert theta11[5] == "1/2"

    def test_counterexample_values(self, tmp_path):
        out = str(tmp_path / "w.csv")
        assert main(["counterexample", "--epsilon", "1/2", "--out", out]) == 0
        body = Path(out).read_text()
        assert "E[phi|third=0],-1/84" in body
        assert "E[phi|second=0],0" in body

    def test_decompose_round_trip_reconstructs(self, tmp_path):
        model_path = write_json(tmp_path / "m.json", polya_doc())
        model = parse_model_file(model_path)
        kernel = from_table(model.alphabet, 3, {
            ("a", "a", "a"): F(2, 3), ("a", "a", "b"): -1,
            ("a", "b", "b"): F(5, 7), ("b", "b", "b"): 4,
        })
        kpath = write_json(tmp_path / "k.json", kernel_to_json(kernel))
        out = str(tmp_path / "d.csv")
        assert main(["decompose", "--model", model_path, "--kernel", kpath,
                     "--M", "3", "--out", out]) == 0
        # re-sum the emitted level kernels plus the mean: must reproduce input
        mean = expectation(model, kernel)
        total = None
        for s in (1, 2, 3):
            level = parse_kernel_file(f"{out}.level{s}.json", model)
            lifted = ustatistic(level, 3)
            total = lifted if total is None else total + lifted
        rebuilt = total.shift(mean)
        assert rebuilt.table == kernel.table

    def test_exit_codes(self, tmp_path, capsys):
        assert main(["pmf", "--model", str(tmp_path / "missing.json")]) == 6
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["pmf", "--model", str(bad)]) == 2
        doc = polya_doc()
        doc["alpha"] = {"a": "0", "b": "0"}
        broken = write_json(tmp_path / "broken.json", doc)
        assert main(["validate", "--model", broken]) == 3

    def test_validate_mixture_reports_kind_and_epsilon(self, tmp_path):
        mix = write_json(tmp_path / "mix.json", {"epsilon": "1/2"})
        out = tmp_path / "v.csv"
        assert main(["validate", "--model", mix, "--out", str(out)]) == 0
        assert {row["field"]: row["value"] for row in read_rows(out)} == {
            "kind": "mixture", "epsilon": "1/2"}

    def test_sidecar_into_missing_directory_exits_6(self, tmp_path, capsys):
        model = write_json(tmp_path / "m.json", polya_doc())
        kernel = write_json(tmp_path / "max.json", {"builtin": "max"})
        out = tmp_path / "missing" / "d.csv"
        assert main(["decompose", "--model", model, "--kernel", kernel, "--M", "2",
                     "--out", str(out)]) == 6
        err = capsys.readouterr().err
        assert err.startswith(f"error[io]: cannot write {out}.level1.json: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_vanishing_coefficient_denominator_names_M_rate_and_t(self, tmp_path, capsys):
        # alpha(A) = 3, c = -1: alpha(A) + c*t vanishes at t = 3 < M
        doc = polya_doc()
        doc.update(alpha={"a": "2", "b": "1"}, c="-1", length=2)
        model = write_json(tmp_path / "m.json", doc)
        assert main(["coeffs", "--model", model, "--M", "5",
                     "--out", str(tmp_path / "c.csv")]) == 3
        err = capsys.readouterr().err
        assert "vanishing denominator in coefficient table" in err
        assert "M = 5" in err and "t = 3" in err and "rate c/alpha(A) = -1/3" in err

    def test_sample_determinism(self, tmp_path):
        model = write_json(tmp_path / "m.json", polya_doc())
        out1, out2 = str(tmp_path / "s1.csv"), str(tmp_path / "s2.csv")
        args = ["sample", "--model", model, "--M", "4", "--count", "20",
                "--seed", "99"]
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_check_wi_mixture(self, tmp_path):
        mix = write_json(tmp_path / "mix.json", {"epsilon": "1/2"})
        out = str(tmp_path / "wi.csv")
        assert main(["check-wi", "--model", mix, "--level", "2", "--out", out]) == 0
        body = Path(out).read_text()
        assert "failed" in body and "violation" in body

    def test_check_wi_level_above_the_horizon_exits_4_first(self, tmp_path, capsys,
                                                             monkeypatch):
        # refused before level 1 runs, not after levels 1..4
        def no_level_runs(model, n):
            raise AssertionError(f"level {n} ran")
        monkeypatch.setattr("urnova.cli.check_weak_independence", no_level_runs)
        model = write_json(tmp_path / "m.json", dict(polya_doc(), length=4))
        out = tmp_path / "wi.csv"
        assert main(["check-wi", "--model", model, "--level", "6", "--out", str(out)]) == 4
        assert capsys.readouterr().err == f"error[horizon]: {model}: --level 6 exceeds length 4\n"
        assert not out.exists()

    def test_remaining_subcommands(self, tmp_path):
        model = write_json(tmp_path / "m.json", polya_doc())
        tbl = write_json(tmp_path / "t.json", {
            "arity": 2,
            "entries": [
                {"multiset": {"a": 2}, "value": "1"},
                {"multiset": {"a": 1, "b": 1}, "value": "-1/2"},
                {"multiset": {"b": 2}, "value": "0"},
            ],
        })
        out = str(tmp_path / "o.csv")
        assert main(["validate", "--model", model, "--out", out]) == 0
        assert main(["pmf", "--model", model, "--M", "2", "--out", out]) == 0
        assert "a a,1/3" in Path(out).read_text()
        assert main(["covariance", "--model", model, "--kernel", tbl,
                     "--kernel", tbl, "--M", "2", "--out", out]) == 0
        body = Path(out).read_text()
        assert "total," in body and "product_moment," in body
        assert main(["zhao-chen", "--M", "6", "--draws", "2", "--out", out]) == 0
        assert "agree" in Path(out).read_text()
        assert main(["lemma3", "--N", "3", "--out", out]) == 0
        assert "4/3" in Path(out).read_text()

    def test_degenerate_cov_subcommand(self, tmp_path):
        model_path = write_json(tmp_path / "m.json", polya_doc())
        model = parse_model_file(model_path)
        from urnova import degenerate_basis

        g = degenerate_basis(model, 2)[0]
        gpath = write_json(tmp_path / "g.json", kernel_to_json(g))
        out = str(tmp_path / "o.csv")
        assert main(["degenerate-cov", "--model", model_path, "--kernel", gpath,
                     "--kernel", gpath, "--overlap", "1", "--out", out]) == 0
        lines = Path(out).read_text().splitlines()
        assert lines[1].startswith("overlap,value")

    def test_degenerate_cov_overlap_above_arity_exits_3(self, tmp_path, capsys):
        model = write_json(tmp_path / "m.json", polya_doc())
        kernel = write_json(tmp_path / "max.json", {"builtin": "max"})
        out = str(tmp_path / "d.csv")
        assert main(["decompose", "--model", model, "--kernel", kernel, "--M", "2",
                     "--out", out]) == 0
        level2 = f"{out}.level2.json"
        assert main(["degenerate-cov", "--model", model, "--kernel", level2,
                     "--kernel", level2, "--overlap", "7", "--out", out]) == 3
        err = capsys.readouterr().err
        assert "overlap 7" in err and "arity 2" in err

    def test_weak_copy_report(self, tmp_path):
        model = write_json(tmp_path / "m.json", polya_doc())
        kpath = write_json(tmp_path / "k.json",
                           {"builtin": "indicator", "multiset": {"b": 2}, "arity": 2})
        out = str(tmp_path / "wc.csv")
        assert main(["weak-copy", "--model", model, "--kernel", kpath,
                     "--level", "1", "--eta", "1/2", "--out", out]) == 0
        assert "passed=True" in Path(out).read_text()


def read_rows(path):
    """Data rows of a report CSV as dictionaries keyed by the header."""
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    return [dict(zip(lines[1], row)) for row in lines[2:]]


PMF_MODELS = {
    "polya": polya_doc(),
    "iid": {**polya_doc(), "alpha": {"a": "1/2", "b": "3"}, "c": "0"},
    "without-replacement": {
        "symbols": [{"label": "a"}, {"label": "b"}, {"label": "c"}],
        "alpha": {"a": "3", "b": "0", "c": "2"}, "c": "-1", "length": 5,
    },
    "fractional-negative-c": {
        "symbols": [{"label": "a"}, {"label": "b"}, {"label": "c"}],
        "alpha": {"a": "3/2", "b": "1", "c": "1/2"}, "c": "-1/2", "length": 4,
    },
    "mixture": {"epsilon": "2/3"},
}


class TestPmfCommand:
    """``pmf`` reads the size law; its ordered column must equal the
    step-by-step ``joint_pmf`` in every replacement regime."""

    @pytest.mark.parametrize("name", sorted(PMF_MODELS))
    def test_ordered_pmf_equals_joint_pmf(self, tmp_path, name):
        path = write_json(tmp_path / "m.json", PMF_MODELS[name])
        model = parse_model_file(path)
        out = str(tmp_path / "p.csv")
        assert main(["pmf", "--model", path, "--M", "3", "--out", out]) == 0
        rows = read_rows(out)
        assert [r["sequence"] for r in rows] == [" ".join(ms) for ms in model.alphabet.multisets(3)]
        for row in rows:
            assert F(row["ordered_pmf"]) == model.joint_pmf(row["sequence"].split())
        assert sum(F(r["multiset_weight"]) for r in rows) == 1
        seq = model.alphabet.labels[::-1] + model.alphabet.labels[:1]
        assert main(["pmf", "--model", path, "--seq", ",".join(seq), "--out", out]) == 0
        [row] = read_rows(out)
        assert F(row["ordered_pmf"]) == model.joint_pmf(seq)

    def test_unknown_label(self, tmp_path, capsys):
        model = write_json(tmp_path / "m.json", polya_doc())
        too_long_and_unknown = ",".join(["a"] * 8 + ["z"])
        assert main(["pmf", "--model", model, "--seq", too_long_and_unknown]) == 3
        mix = write_json(tmp_path / "mix.json", {"epsilon": "1/2"})
        assert main(["pmf", "--model", mix, "--seq", "0,x"]) == 3
        assert "--seq: unknown symbol 'x'" in capsys.readouterr().err
        assert main(["pmf", "--model", model, "--seq", ",".join(["a"] * 9)]) == 4
        assert capsys.readouterr().err == ("error[horizon]: --seq: needs 9 coordinates, "
                                           "model allows 8\n")

    def test_M_past_the_horizon_exits_4(self, tmp_path, capsys):
        model = write_json(tmp_path / "m.json", polya_doc())
        out = tmp_path / "p.csv"
        assert main(["pmf", "--model", model, "--M", "9", "--out", str(out)]) == 4
        assert capsys.readouterr().err == f"error[horizon]: {model}: --M 9 exceeds length 8\n"
        assert not out.exists()
        mix = write_json(tmp_path / "mix.json", {"epsilon": "1/2"})
        assert main(["pmf", "--model", mix, "--M", "9", "--out", str(out)]) == 0

    def test_empty_seq_is_an_unknown_label(self, tmp_path, capsys):
        # an empty --seq is one empty label, not a request for the --M table
        model = write_json(tmp_path / "m.json", polya_doc())
        out = tmp_path / "p.csv"
        assert main(["pmf", "--model", model, "--seq", "", "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error[validation]: --seq: unknown symbol ''\n"
        assert not out.exists()



class TestHorizonFlags:
    """A coordinate-count flag past the horizon exits 4 right after the
    model is parsed, naming the file and the flag: before the kernel file
    is read (it does not exist here) and before any CSV is written."""

    @pytest.mark.parametrize("argv, length, refusal", [
        (["sample", "--M", "13", "--seed", "1"], 12, "--M 13"),
        (["decompose", "--M", "7", "--kernel", "K"], 6, "--M 7"),
        (["covariance", "--M", "7", "--kernel", "K", "--kernel", "K"], 6, "--M 7"),
        (["weak-copy", "--level", "6", "--kernel", "K"], 6, "--level 6 (needs 7 coordinates)"),
    ], ids=["sample", "decompose", "covariance", "weak-copy"])
    def test_refused_before_any_work(self, tmp_path, capsys, argv, length, refusal):
        model = write_json(tmp_path / "m.json", dict(polya_doc(), length=length))
        missing = str(tmp_path / "missing.json")
        out = tmp_path / "o.csv"
        argv = [missing if a == "K" else a for a in argv]
        assert main([argv[0], "--model", model, *argv[1:], "--out", str(out)]) == 4
        assert capsys.readouterr().err == (f"error[horizon]: {model}: {refusal} "
                                           f"exceeds length {length}\n")
        assert not out.exists()


class TestUtf8:
    """Documents are read, and reports written, as UTF-8 whatever the
    locale: the CSV bytes do not depend on it."""

    C_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}

    def run(self, argv, **env):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
                   **env)
        return subprocess.run([sys.executable, "-m", "urnova.cli", *argv], capture_output=True,
                              env=env, timeout=60)

    def test_a_document_that_is_not_utf8_exits_2(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(polya_doc()).encode("utf-16-le"))
        for env in ({}, self.C_LOCALE):
            done = self.run(["validate", "--model", str(path)], **env)
            assert done.returncode == 2
            assert done.stderr.decode().startswith(
                f"error[parse]: {path}: invalid JSON: 'utf-8' codec can't decode byte 0xff")
            assert done.stdout == b""

    @pytest.mark.parametrize("ensure_ascii", [False, True])
    def test_a_label_outside_ascii_under_the_c_locale(self, tmp_path, ensure_ascii):
        doc = dict(polya_doc(), symbols=[{"label": "\u4e2d"}, {"label": "b"}],
                   alpha={"\u4e2d": "1", "b": "2"})
        model = tmp_path / "m.json"
        model.write_bytes(json.dumps(doc, ensure_ascii=ensure_ascii).encode("utf-8"))
        default = tmp_path / "default.csv"
        assert self.run(["validate", "--model", str(model), "--out", str(default)]).returncode == 0
        expected = default.read_bytes()
        assert "alpha[\u4e2d],1".encode("utf-8") in expected
        out = tmp_path / "c.csv"
        done = self.run(["validate", "--model", str(model), "--out", str(out)], **self.C_LOCALE)
        assert (done.returncode, done.stderr) == (0, b"")
        assert out.read_bytes() == expected
        done = self.run(["validate", "--model", str(model)], **self.C_LOCALE)
        assert (done.returncode, done.stderr, done.stdout) == (0, b"", expected)

    def test_a_lone_surrogate_label_exits_2(self, tmp_path):
        doc = dict(polya_doc(), symbols=[{"label": "\ud800"}], alpha={"\ud800": "1"})
        model = write_json(tmp_path / "m.json", doc)
        out = tmp_path / "o.csv"
        assert main(["validate", "--model", model, "--out", str(out)]) == 2
        assert not out.exists()


def meta_hash(path):
    meta = Path(path).read_text().splitlines()[0].split(",")
    return next(f for f in meta if f.startswith("param_hash="))


class TestParamHash:
    def run(self, tmp_path, *argv):
        out = str(tmp_path / "h.csv")
        assert main([*argv, "--out", out]) == 0
        return meta_hash(out)

    def test_same_content_at_two_paths(self, tmp_path):
        (tmp_path / "elsewhere").mkdir()
        first = write_json(tmp_path / "m.json", polya_doc())
        second = tmp_path / "elsewhere" / "copy.json"
        second.write_text(json.dumps(polya_doc(), indent=4))
        assert (self.run(tmp_path, "pmf", "--model", first, "--M", "2")
                == self.run(tmp_path, "pmf", "--model", str(second), "--M", "2"))

    def test_different_models_at_one_path(self, tmp_path):
        path = tmp_path / "m.json"
        write_json(path, polya_doc())
        polya = self.run(tmp_path, "pmf", "--model", str(path), "--M", "2")
        iid = dict(polya_doc(), c="0")
        write_json(path, iid)
        assert self.run(tmp_path, "pmf", "--model", str(path), "--M", "2") != polya

    def test_own_flags_are_hashed(self, tmp_path):
        model = write_json(tmp_path / "m.json", polya_doc())
        assert (self.run(tmp_path, "pmf", "--model", model, "--M", "2")
                != self.run(tmp_path, "pmf", "--model", model, "--M", "3"))

    def test_builtin_matches_explicit_table(self, tmp_path):
        model_path = write_json(tmp_path / "m.json", polya_doc())
        model = parse_model_file(model_path)
        builtin = write_json(tmp_path / "max.json", {"builtin": "max"})
        table = write_json(tmp_path / "t.json", kernel_to_json(
            from_table(model.alphabet, 2, {("a", "a"): 0, ("a", "b"): 1, ("b", "b"): 1})))
        argv = ("decompose", "--model", model_path, "--M", "2", "--kernel")
        assert self.run(tmp_path, *argv, builtin) == self.run(tmp_path, *argv, table)

    def test_decompose_hash_is_pinned(self, tmp_path):
        # the hash covers the repr of the parsed model and kernel, so a
        # change in how the records print would change every #meta row
        model = write_json(tmp_path / "m.json", polya_doc())
        kernel = write_json(tmp_path / "max.json", {"builtin": "max"})
        assert (self.run(tmp_path, "decompose", "--model", model, "--kernel", kernel, "--M", "2")
                == "param_hash=12890f6d6a41")


def fractional_doc():
    """c = -3/2 on alpha = (3, 9/2): a population of 5 balls, rate -1/5."""
    return dict(polya_doc(), alpha={"a": "3", "b": "9/2"}, c="-3/2", length=4)


def zero_weight_doc():
    """c = -2 on alpha = (2, 0, 4, 8): a population of 7 balls in which b
    never occurs, so only multisets without b are observable."""
    labels = ("a", "b", "c", "d")
    return {
        "symbols": [{"label": x, "value": str(i)} for i, x in enumerate(labels)],
        "alpha": dict(zip(labels, ("2", "0", "4", "8"))),
        "c": "-2",
        "length": 7,
    }


def output_digests(tmp_path) -> dict:
    """sha256 of every CSV and level sidecar of small runs over the urn
    regimes c > 0, c = -1 and fractional c < 0, and of check-wi runs on a
    zero-weight letter, a short horizon and the mixture, and of one run of
    each remaining command, keyed by file name."""
    polya = write_json(tmp_path / "polya.json", polya_doc())
    half = write_json(tmp_path / "half.json", dict(polya_doc(), c="1/2"))
    wor = write_json(tmp_path / "wor.json",
                     dict(polya_doc(), alpha={"a": "3", "b": "4"}, c="-1", length=3))
    frac = write_json(tmp_path / "frac.json", fractional_doc())
    zero = write_json(tmp_path / "zero.json", zero_weight_doc())
    short = write_json(tmp_path / "short.json", dict(polya_doc(), alpha={"a": "1", "b": "2"},
                                                     length=4))
    mix = write_json(tmp_path / "mix.json", {"epsilon": "3/7"})
    k_max = write_json(tmp_path / "max.json", {"builtin": "max"})
    k_min = write_json(tmp_path / "min.json", {"builtin": "min"})
    level2 = str(tmp_path / "decompose-polya.csv.level2.json")
    runs = {
        "coeffs": ["coeffs", "--model", polya, "--M", "6"],
        "coeffs-12": ["coeffs", "--model", half, "--M", "12"],
        "decompose-polya": ["decompose", "--model", polya, "--kernel", k_max, "--M", "3"],
        "decompose-wor": ["decompose", "--model", wor, "--kernel", k_max, "--M", "3"],
        "decompose-frac": ["decompose", "--model", frac, "--kernel", k_max, "--M", "2"],
        "covariance": ["covariance", "--model", polya, "--kernel", k_max, "--kernel", k_min,
                       "--M", "3"],
        # reads the level-2 sidecar of the polya decomposition
        "degenerate-cov": ["degenerate-cov", "--model", polya, "--kernel", level2,
                           "--kernel", level2, "--overlap", "1"],
        "weak-copy": ["weak-copy", "--model", polya, "--kernel", k_max, "--level", "2"],
        "zhao-chen": ["zhao-chen", "--M", "8", "--draws", "4"],
        # basis rows and witnesses over the support only
        "check-wi-zero": ["check-wi", "--model", zero, "--level", "4"],
        # overlaps 0..2 at level 4 need more than 4 coordinates: not-checkable rows
        "check-wi-short": ["check-wi", "--model", short, "--level", "4"],
        "check-wi-mixture": ["check-wi", "--model", mix, "--level", "3"],
        "validate": ["validate", "--model", frac],
        "pmf": ["pmf", "--model", zero, "--M", "3"],
        # the mixture's size law and the counterexample's functional read
        # the law primitive of a pmf-defined law
        "pmf-mixture": ["pmf", "--model", mix, "--M", "4"],
        "sample": ["sample", "--model", frac, "--count", "5", "--seed", "7"],
        "counterexample": ["counterexample", "--epsilon", "3/7"],
        "lemma3": ["lemma3", "--N", "5"],
    }
    digests = {}
    for name, argv in runs.items():
        assert main([*argv, "--out", str(tmp_path / f"{name}.csv")]) == 0, name
        for path in sorted(tmp_path.glob(f"{name}.csv*")):
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


# taken from the runs above; an intended change of the output re-pins them
PINNED_DIGESTS = {
    "coeffs.csv": "9bbef79c7d8999ec1100511baf35029f17bf5cea2ae8142fcb408cee943546b6",
    "coeffs-12.csv": "4871efe67b91db0ac7341a578c79b1ec6852d36001d81d215b9e1878c0f48bfa",
    "decompose-polya.csv": "4e066a63b5d3b6b83efc9caf0a2f9656a33b4c7bdcc65d85ffff5bf120e8ad4c",
    "decompose-polya.csv.level1.json": "feea3314f8ed288e7231c17f81c58a58749b857d92755a2bfc4f9dcca72e257f",
    "decompose-polya.csv.level2.json": "a7caee8da587c8c8bb07ee2960d4a317738884441852f154f5b9167776d90b89",
    "decompose-polya.csv.level3.json": "e3b3e7c861c9243416b6192ece775f127bbf61177a9dc0f2129073a9598896d3",
    "decompose-wor.csv": "d500258bdbcd41007081614e41581072f66c8483df833797ebcb4ce197901370",
    "decompose-wor.csv.level1.json": "fcf68185d3c7a5c2be20db8e02b52947bb9e65e6c64a1138e21999d473043499",
    "decompose-wor.csv.level2.json": "def42498a7807fd189c6faca8e4a7f928ef087e67767f98490ed71cf48cdac19",
    "decompose-wor.csv.level3.json": "0a2a41d21a199fe446daddbadea3d4d45cd7d4023562fa4eef84289d3ba2def3",
    "decompose-frac.csv": "7fefd51722551d2771f093de9e225879dbdfc0576c62df73ef06761ca234d2fd",
    "decompose-frac.csv.level1.json": "d430d0e9465623483a058a792d130f63928435da55a1bd69dac2f99b44be79c2",
    "decompose-frac.csv.level2.json": "b750fc1e0dc1e0bf82ce5990e700e1e2e4c948d9183cdf314e8965f98549f957",
    "covariance.csv": "c859371f6baed60eb7da5c631bd51081a03648d58eae2cb645e4e98da12c06b8",
    "degenerate-cov.csv": "3a00f59402b34ca8e9e383792118d819d63f66a7fb485b8820b38155529a0367",
    "weak-copy.csv": "0dc5184bc4b66fc69077c931cf3cf78d17bc51fef5b6f8f651ae737648ca6f94",
    "zhao-chen.csv": "5186766390a62b478e748ea2241b69d236dca091511bfe22489754349b2ecdce",
    "check-wi-zero.csv": "57d9a4ee4bf4cd22e16c6063f48fb81782a59c05aade9f337bce3ce0fb9005f5",
    "check-wi-short.csv": "3e61a0c24d553391d8fca6a91d401e1d0fa8e94f9a3744c5453950a3a9230fa3",
    "check-wi-mixture.csv": "0c8d0838dc7754902b7f2db1143b08d391050daf45788386ddcbeac65023e31a",
    "validate.csv": "b65854e648fb5cb7001e0c52bb95739d4f455af6f77511f4f6d4d2b3777a7667",
    "pmf.csv": "3204d32cd52e97c97595db5917f7700d0d5740b4012e33a59a117fe6d041d42a",
    "pmf-mixture.csv": "a4d8c3d82c9bb78ae27062f2c0b1530185223e26d2b2160457c2ca4ff2c3c5cf",
    "sample.csv": "49a9f0e939d79ffb726972dec4baa2ea0b4655d3dcd0a1479f0095ea4dcb17ed",
    "counterexample.csv": "06f407852bdd6799e861e7fa4e6aed8755314e4f4fc7dd63bf02472c3045295e",
    "lemma3.csv": "7604d01f76c3d8dcf92050b650f613f02fef6ec247eb1705dc77ac6d87cae0dd",
}


class TestPinnedOutputBytes:
    def test_csv_and_sidecar_bytes_are_pinned(self, tmp_path):
        # a change to any value, row order or format of a report or a
        # sidecar changes a digest
        assert output_digests(tmp_path) == PINNED_DIGESTS

    # past M = 2 the population of 5 balls runs out: a denominator factor
    # alpha(A) + c*t vanishes at t = 5, or first a pivot does
    @pytest.mark.parametrize("M, code, err", [
        (4, 5, "error[degenerate-assumption]: vanishing pivots at (q, n) pairs ((2, 2), (2, 3))"),
        (12, 3, "error[validation]: vanishing denominator in coefficient table at M = 12: "
                "alpha(A) + c*t = 0 at t = 5 (rate c/alpha(A) = -1/5)"),
    ])
    def test_coefficient_failures_are_pinned(self, tmp_path, capsys, M, code, err):
        frac = write_json(tmp_path / "frac.json", fractional_doc())
        out = tmp_path / "c.csv"
        assert main(["coeffs", "--model", frac, "--M", str(M), "--out", str(out)]) == code
        assert capsys.readouterr().err == err + "\n"
        assert not out.exists()


URN_ONLY_COMMANDS = {
    "sample": ("sampling", ["--seed", "1"]),
    "coeffs": ("coefficient tables", ["--M", "2"]),
    "decompose": ("decomposition", ["--M", "2"]),
    "covariance": ("covariance", ["--M", "2"]),
    "degenerate-cov": ("degenerate covariance", []),
    "weak-copy": ("weak copies", []),
}


class TestUrnOnlyCommands:
    @pytest.mark.parametrize("command", sorted(URN_ONLY_COMMANDS))
    def test_mixture_exits_3_naming_the_operation(self, tmp_path, capsys, command):
        # the model is refused before any kernel is read: this kernel has no arity
        operation, flags = URN_ONLY_COMMANDS[command]
        mix = write_json(tmp_path / "mix.json", {"epsilon": "1/2"})
        kernel = write_json(tmp_path / "max.json", {"builtin": "max"})
        kernels = ["--kernel", kernel] * COMMANDS[command].kernels
        out = tmp_path / "o.csv"
        assert main([command, "--model", mix, *flags, *kernels, "--out", str(out)]) == 3
        assert (capsys.readouterr().err
                == f"error[validation]: {operation} needs an urn model, not a mixture\n")
        assert not out.exists()


def table_doc(arity):
    """An arity-n table kernel on the polya alphabet: value k on a^k b^(n-k)."""
    return {"arity": arity, "entries": [{"multiset": {"a": k, "b": arity - k}, "value": str(k)}
                                        for k in range(arity + 1)]}


class TestArityMismatch:
    # (command, flags, kernel documents, index of the refused kernel, needed arity)
    @pytest.mark.parametrize("command, flags, docs, bad, needed", [
        ("decompose", ["--M", "3"], [table_doc(2)], 0, 3),
        ("decompose", ["--M", "3"], [{"builtin": "max", "arity": 2}], 0, 3),
        ("covariance", ["--M", "2"], [table_doc(2), table_doc(3)], 1, 2),
        ("weak-copy", ["--level", "1"], [table_doc(3)], 0, 2),
    ])
    def test_exit_3_names_the_file_and_both_arities(self, tmp_path, capsys, command, flags,
                                                    docs, bad, needed):
        model = write_json(tmp_path / "m.json", polya_doc())
        paths = [write_json(tmp_path / f"k{i}.json", doc) for i, doc in enumerate(docs)]
        out = tmp_path / "o.csv"
        argv = [command, "--model", model, *flags, "--out", str(out)]
        assert main(argv + [x for path in paths for x in ("--kernel", path)]) == 3
        arity = docs[bad]["arity"]
        assert capsys.readouterr().err == (f"error[validation]: {paths[bad]}: arity {arity}, "
                                           f"but the command needs arity {needed}\n")
        assert not out.exists()

    def test_degenerate_cov_builtin_without_arity_exits_2(self, tmp_path, capsys):
        model = write_json(tmp_path / "m.json", polya_doc())
        kernel = write_json(tmp_path / "max.json", {"builtin": "max"})
        out = tmp_path / "o.csv"
        assert main(["degenerate-cov", "--model", model, "--kernel", kernel, "--kernel", kernel,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error[parse]: {kernel}: builtin kernel needs an arity\n"
        assert not out.exists()

    def test_degenerate_cov_names_both_files(self, tmp_path, capsys):
        model = write_json(tmp_path / "m.json", polya_doc())
        left = write_json(tmp_path / "k2.json", table_doc(2))
        right = write_json(tmp_path / "k3.json", table_doc(3))
        out = tmp_path / "o.csv"
        assert main(["degenerate-cov", "--model", model, "--kernel", left, "--kernel", right,
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == (f"error[validation]: {right}: arity 3, but "
                                           f"degenerate-cov needs the arity 2 of {left}\n")
        assert not out.exists()


class TestFlagErrors:
    @pytest.mark.parametrize("argv, flag", [
        (["validate", "--model", "MODEL", "--M", "3"], "--M"),
        (["counterexample", "--epsilon", "1/2", "--level", "7"], "--level"),
        (["validate", "--model", "MODEL", "--format", "csv"], "--format"),
        (["validate"], "--model"),
        (["coeffs", "--model", "MODEL"], "--M"),
        (["sample", "--model", "MODEL", "--count", "3"], "--seed"),
        (["check-wi", "--model", "MODEL", "--level", "-1"], "--level"),
        (["decompose", "--model", "MODEL", "--kernel", "MODEL", "--M", "0"], "--M"),
        (["decompose", "--model", "MODEL", "--M", "2"], "--kernel"),
        (["counterexample", "--epsilon", "1/0"], "--epsilon"),
        (["counterexample", "--epsilon", "2"], "--epsilon"),
        (["counterexample", "--epsilon", "1"], "--epsilon"),
        (["weak-copy", "--model", "MODEL", "--kernel", "MODEL", "--eta", "1"], "--eta"),
    ])
    def test_exit_2_names_the_flag(self, tmp_path, capsys, argv, flag):
        model = write_json(tmp_path / "m.json", polya_doc())
        with pytest.raises(SystemExit) as exc:
            main([model if a == "MODEL" else a for a in argv])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    # argparse would echo the whole text after "invalid positive_int value"
    @pytest.mark.parametrize("argv, line", [
        (["sample", "--count", "12x", "--seed", "1"],
         "urnova sample: error: argument --count: must be a positive integer, not '12x'"),
        (["sample", "--count", "x" * 5000, "--seed", "1"],
         "urnova sample: error: argument --count: must be a positive integer, not '"
         + "x" * 39 + "... (5002 characters)"),
        (["sample", "--count", "1", "--seed", "1.5"],
         "urnova sample: error: argument --seed: must be a non-negative integer, not '1.5'"),
    ], ids=["non-integer", "long", "non-negative"])
    def test_a_non_integer_is_refused_in_the_range_words(self, tmp_path, capsys, argv, line):
        model = write_json(tmp_path / "m.json", polya_doc())
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--model", model])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == line

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        # random.Random seeds on |seed|, so rows at seeds -1 and 1 would repeat
        model = write_json(tmp_path / "m.json", polya_doc())
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--model", model, "--count", "5", "--seed", "-3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "'-3'" in err

    def test_second_kernel_rejected(self, tmp_path, capsys):
        model = write_json(tmp_path / "m.json", polya_doc())
        kernel = write_json(tmp_path / "k.json", {"builtin": "max"})
        assert main(["decompose", "--model", model, "--M", "2",
                     "--kernel", kernel, "--kernel", kernel]) == 3
        assert "--kernel" in capsys.readouterr().err


class TestMalformedDocuments:
    def run_model(self, tmp_path, capsys, doc):
        path = write_json(tmp_path / "m.json", doc)
        code = main(["validate", "--model", path])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("alpha", ["1", "1"]),
        ("symbols", {"label": "a"}),
        ("length", True),
        ("length", "8"),
    ])
    def test_model_field_exits_2(self, tmp_path, capsys, field, value):
        doc = dict(polya_doc(), **{field: value})
        code, err = self.run_model(tmp_path, capsys, doc)
        assert code == 2
        assert "m.json" in err and field in err and repr(value) in err

    def test_symbol_label_must_be_a_string(self, tmp_path, capsys):
        code, err = self.run_model(tmp_path, capsys, dict(polya_doc(), symbols=[{"label": ["a"]}]))
        assert code == 2
        assert "m.json" in err and "symbols[0]" in err and "['a']" in err

    def test_integer_past_the_digit_limit_exits_2(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(polya_doc()).replace('"length": 8', '"length": ' + "9" * 5000))
        assert main(["validate", "--model", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error[parse]: {path}: invalid JSON: Exceeds")

    def test_unknown_builtin_exits_2(self, tmp_path, capsys):
        model = write_json(tmp_path / "m.json", polya_doc())
        kernel = write_json(tmp_path / "k.json", {"builtin": "median"})
        assert main(["decompose", "--model", model, "--kernel", kernel, "--M", "2"]) == 2
        err = capsys.readouterr().err
        assert "k.json" in err and "builtin" in err and "'median'" in err

    @pytest.mark.parametrize("doc", [
        {"builtin": "max", "arity": "x"},
        {"builtin": "max", "arity": 0},
        {"builtin": "max", "arity": -2},
        {"builtin": "max", "arity": True},
        {"arity": "2", "entries": []},
        {"arity": 0, "entries": [{"multiset": {}, "value": "1"}]},
    ])
    def test_kernel_arity_exits_2(self, tmp_path, capsys, doc):
        model = write_json(tmp_path / "m.json", polya_doc())
        kernel = write_json(tmp_path / "k.json", doc)
        assert main(["decompose", "--model", model, "--kernel", kernel, "--M", "2"]) == 2
        err = capsys.readouterr().err
        assert "k.json" in err and "arity" in err and repr(doc["arity"]) in err

    @pytest.mark.parametrize("doc, field, value", [
        ({"arity": 2, "entries": 5}, "entries", 5),
        ({"arity": 2, "entries": [5]}, "entries[0]", 5),
        ({"arity": 2, "entries": [{"multiset": {"a": 1, "b": True}, "value": "1"}]},
         "entries[0].multiset", True),
        ({"builtin": "indicator", "arity": 2, "multiset": {"a": True, "b": 1}}, "multiset", True),
        ({"arity": 2, "entries": [{"multiset": ["a", "b"], "value": "1"}]},
         "entries[0].multiset", ["a", "b"]),
    ])
    def test_kernel_entries_exit_2(self, tmp_path, capsys, doc, field, value):
        model = write_json(tmp_path / "m.json", polya_doc())
        kernel = write_json(tmp_path / "k.json", doc)
        assert main(["decompose", "--model", model, "--kernel", kernel, "--M", "2"]) == 2
        err = capsys.readouterr().err
        assert "k.json" in err and field in err and repr(value) in err

    def test_boolean_length_rejected_by_the_model(self):
        alphabet = Alphabet((Symbol("a"),))
        with pytest.raises(ValidationError):
            UrnModel(alphabet, (("a", F(1)),), F(1), True)

    # a bool is an int subclass, so JSON true/false used to read as 1/0
    @pytest.mark.parametrize("model, kernel, field, value", [
        (dict(polya_doc(), c=True), None, "c", True),
        ({"epsilon": True}, None, "epsilon", True),
        (dict(polya_doc(), alpha={"a": False, "b": "1"}), None, "alpha['a']", False),
        (dict(polya_doc(), symbols=[{"label": "a", "value": True}, {"label": "b"}]), None,
         "symbols[0].value", True),
        (polya_doc(), {"arity": 1, "entries": [{"multiset": {"a": 1}, "value": "1"},
                                               {"multiset": {"b": 1}, "value": False}]},
         "entries[1].value", False),
    ])
    def test_boolean_rational_exits_2(self, tmp_path, capsys, model, kernel, field, value):
        model_path = write_json(tmp_path / "m.json", model)
        kernel_path = write_json(tmp_path / "k.json", kernel or {"builtin": "max"})
        assert main(["decompose", "--model", model_path, "--kernel", kernel_path, "--M", "1"]) == 2
        err = capsys.readouterr().err
        assert ("k.json" if kernel else "m.json") in err
        assert field in err and repr(value) in err

    # sample joins labels with spaces and pmf --seq splits on commas
    @pytest.mark.parametrize("label", ["", "a b", " a", "a\tb", "a\n", "a,b"])
    def test_label_the_csv_cannot_carry_exits_2(self, tmp_path, capsys, label):
        doc = dict(polya_doc(), symbols=[{"label": label}, {"label": "b"}],
                   alpha={label: "1", "b": "1"})
        code, err = self.run_model(tmp_path, capsys, doc)
        assert code == 2
        assert "m.json" in err and "symbols[0]" in err and repr(label) in err

    @pytest.mark.parametrize("model, kernel, where, message", [
        (dict(polya_doc(), alpha={"a": "1", "b": "1", "z": "1"}), None,
         "m.json: alpha", "unknown symbol 'z'"),
        (polya_doc(), [({"x": 1}, "1"), ({"a": 1}, "1")], "k.json: entries",
         "unknown symbol 'x'"),
        (polya_doc(), [({"a": 1}, "1"), ({"a": 1}, "2"), ({"b": 1}, "1")], "k.json: entries",
         "multiset ('a',) specified twice"),
        (polya_doc(), [({"a": 1}, "1")], "k.json: entries", "no value for multiset ('b',)"),
        (polya_doc(), [({"a": 2}, "1")], "k.json: entries", "entry ('a', 'a') has size 2, not 1"),
        (polya_doc(), {"builtin": "indicator", "multiset": {"z": 2}, "arity": 2},
         "k.json: multiset", "unknown symbol 'z'"),
        (dict(polya_doc(), symbols=[{"label": "a"}, {"label": "b"}]), {"builtin": "max"},
         "k.json: builtin", "builtin 'max' needs numeric symbol values"),
    ])
    def test_validation_errors_name_the_file_and_field(self, tmp_path, capsys, model, kernel,
                                                       where, message):
        model_path = write_json(tmp_path / "m.json", model)
        if isinstance(kernel, list):
            kernel = {"arity": 1, "entries": [{"multiset": ms, "value": v} for ms, v in kernel]}
        kernel_path = write_json(tmp_path / "k.json", kernel or {"builtin": "max"})
        assert main(["decompose", "--model", model_path, "--kernel", kernel_path, "--M", "1"]) == 3
        assert f"{where}: {message}" in capsys.readouterr().err


class TestValuesPastTheDigitLimit:
    """Exact values are written in full, however many digits they have:
    CSV cells, #meta values and level sidecars.  Inputs keep the
    interpreter's digit limit (see TestMalformedDocuments), and main
    restores the limit when it returns."""

    @pytest.fixture
    def unlimited(self):
        """Read the written values back, past the limit main restored."""
        if not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("this interpreter has no digit limit")
        limit = sys.get_int_max_str_digits()
        yield lambda: sys.set_int_max_str_digits(0)
        sys.set_int_max_str_digits(limit)

    def run(self, argv, code=0):
        limit = sys.get_int_max_str_digits()
        assert main(argv) == code
        assert sys.get_int_max_str_digits() == limit

    def test_pmf_of_a_4002_digit_weight(self, tmp_path, unlimited):
        doc = dict(polya_doc(), symbols=[{"label": "a"}, {"label": "b"}],
                   alpha={"a": "1" + "0" * 4000 + "1", "b": "1"}, length=4)
        path = write_json(tmp_path / "m.json", doc)
        out = tmp_path / "o.csv"
        self.run(["pmf", "--model", path, "--M", "2", "--out", str(out)])
        model = parse_model_file(path)
        unlimited()
        rows = read_rows(out)
        assert [row["sequence"] for row in rows] == ["a a", "a b", "b b"]
        for row in rows:
            weight = model.multiset_weight(row["sequence"].split())
            assert F(row["multiset_weight"]) == weight
            assert len(row["multiset_weight"]) > 4300 or row["sequence"] == "b b"

    def test_decompose_sidecars_of_a_2202_digit_weight(self, tmp_path, unlimited):
        path = write_json(tmp_path / "m.json", dict(polya_doc(), alpha={"a": "7" * 2202, "b": "1"},
                                                    length=4))
        kernel = write_json(tmp_path / "max.json", {"builtin": "max"})
        out = tmp_path / "d.csv"
        self.run(["decompose", "--model", path, "--kernel", kernel, "--M", "3",
                  "--out", str(out)])
        model = parse_model_file(path)
        result = decompose(model, builtin_kernel(model.alphabet, 3, "max"), 3)
        unlimited()
        for s, level in enumerate(result.kernels, start=1):
            assert parse_kernel_file(f"{out}.level{s}.json", model) == level
        kernel_rows = [row for row in read_rows(out) if row["row"] == "kernel"]
        assert [F(row["value"]) for row in kernel_rows] == [
            v for level in result.kernels for _, v in level.entries]
        assert max(len(row["value"]) for row in kernel_rows) > 4300

    def test_validate_of_two_2202_digit_denominators(self, tmp_path, unlimited):
        doc = dict(polya_doc(), alpha={"a": "1/" + "3" * 2202, "b": "1/" + "7" * 2201 + "1"})
        path = write_json(tmp_path / "m.json", doc)
        out = tmp_path / "v.csv"
        self.run(["validate", "--model", path, "--out", str(out)])
        model = parse_model_file(path)
        unlimited()
        values = {row["field"]: row["value"] for row in read_rows(out)}
        assert F(values["alpha_total"]) == model.alpha_total
        assert F(values["rate"]) == model.rate
        assert len(values["alpha_total"]) > 4300

    def test_weak_copy_meta_and_an_error_exit(self, tmp_path, capsys, unlimited):
        doc = {"symbols": [{"label": x, "value": str(i)} for i, x in enumerate("abc")],
               "alpha": {"a": "7" * 1200, "b": "1", "c": "2"}, "c": "1", "length": 3}
        model = write_json(tmp_path / "m.json", doc)
        kernel = write_json(tmp_path / "max.json", {"builtin": "max"})
        out = tmp_path / "w.csv"
        self.run(["weak-copy", "--model", model, "--kernel", kernel, "--out", str(out)])
        self.run(["weak-copy", "--model", model, "--kernel", kernel, "--level", "9"], code=4)
        unlimited()
        meta = dict(cell.split("=", 1) for cell in out.read_text().splitlines()[0].split(",")[1:])
        base = parse_model_file(model)
        tilted = build_weak_copy(base, 1, builtin_kernel(base.alphabet, 2, "max"), F(1, 2))
        assert F(meta["scale"]) == tilted.scale and len(meta["scale"]) > 4300
        assert meta["density_bound"] == "1/4"  # scale * coefficient bound = eta / 2


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_documents():
    """The json blocks of the README's "Model files" and "Kernel files"
    sections, and the mixture document quoted in the first."""
    text = README.read_text(encoding="utf-8")
    blocks = {}
    for section in ("Model files", "Kernel files"):
        body = text.split(f"### {section}\n", 1)[1].split("\n#", 1)[0]
        blocks[section] = json.loads(re.search(r"```json\n(.*?)```", body, re.S).group(1))
    mixture = re.search(r"A mixture model\s+file is just `(\{.*?\})`", text).group(1)
    return blocks["Model files"], blocks["Kernel files"], json.loads(mixture)


class TestReadmeExamples:
    def test_examples_run(self, tmp_path, capsys):
        model_doc, kernel_doc, mixture_doc = readme_documents()
        model = write_json(tmp_path / "model.json", model_doc)
        kernel = write_json(tmp_path / "kernel.json", kernel_doc)
        mixture = write_json(tmp_path / "mixture.json", mixture_doc)
        out = str(tmp_path / "o.csv")
        for argv in (["validate", "--model", model],
                     ["validate", "--model", mixture],
                     ["decompose", "--model", model, "--kernel", kernel, "--M", "2"],
                     ["check-wi", "--model", mixture]):
            assert main([*argv, "--out", out]) == 0, capsys.readouterr().err


class TestRationalForms:
    """A rational in a document or a flag is an integer, or a string of an
    optional sign, digits and optionally /digits; any other form exits 2,
    and is refused before a Fraction is built from it."""

    @pytest.mark.parametrize("text, value", [
        ("3", F(3)), ("+3", F(3)), ("-1/2", F(-1, 2)), ("007/014", F(1, 2)), (5, F(5)),
    ])
    def test_accepted_forms(self, tmp_path, text, value):
        doc = dict(polya_doc(), symbols=[{"label": "a", "value": text}, {"label": "b"}])
        assert parse_model_file(write_json(tmp_path / "m.json", doc)).alphabet.value("a") == value

    @pytest.mark.parametrize("text", [
        "1e5000", "1e10000000", "0.5", "1/2 ", " 1", "1_000", "\u0661", "1/", "/2", "+-1",
        "", 0.5,
    ])
    def test_other_forms_exit_2(self, tmp_path, capsys, text):
        doc = dict(polya_doc(), alpha={"a": text, "b": "1"})
        assert main(["validate", "--model", write_json(tmp_path / "m.json", doc)]) == 2
        assert capsys.readouterr().err == (
            f"error[parse]: {tmp_path / 'm.json'}: alpha['a']: not a rational: {text!r}\n")

    def test_a_5000_digit_weight_is_cut_in_the_message(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", dict(polya_doc(), alpha={"a": "1" * 5000, "b": "1"}))
        assert main(["validate", "--model", path]) == 2
        assert capsys.readouterr().err == (f"error[parse]: {path}: alpha['a']: not a rational: '"
                                           + "1" * 39 + "... (5002 characters)\n")

    def test_exponent_epsilon_in_a_document_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "m.json", {"epsilon": "1e-5000"})
        assert main(["validate", "--model", path]) == 2
        assert "epsilon: not a rational: '1e-5000'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["1e-5000", "0.5", "1/2 "])
    def test_other_flag_forms_exit_2(self, capsys, text):
        with pytest.raises(SystemExit) as exc:
            main(["counterexample", "--epsilon", text])
        assert exc.value.code == 2
        assert f"--epsilon: not a rational: {text!r}" in capsys.readouterr().err


class TestStartup:
    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # every command is a fresh process; these two modules cost about
        # 10 ms of its start-up and nothing in urnova needs them.  Only the
        # modules the import adds count, whatever the interpreter loaded
        # before it.
        probe = ("import sys; before = set(sys.modules); import urnova.cli; "
                 "print(' '.join(sorted(set(sys.modules) - before)))")
        src = str(Path(__file__).resolve().parent.parent / "src")
        added = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                               text=True, env=dict(os.environ, PYTHONPATH=src)).stdout.split()
        assert "urnova.cli" in added
        assert "dataclasses" not in added and "inspect" not in added


class TestVersion:
    def test_package_version_matches_pyproject(self):
        # every CSV's #meta tool_version reads urnova.__version__; the
        # project file is parsed with re, as tomllib is new in Python 3.11
        text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
        project = text.split("[project]", 1)[1].split("\n[", 1)[0]
        assert re.search(r'^version = "([^"]*)"$', project, re.M).group(1) == urnova.__version__


class TestClosedStdout:
    """A report written to a closed pipe exits 6 with error[io], and no
    traceback, also from the interpreter's flush at exit."""

    def spawn(self, tmp_path, argv, stdout):
        model = write_json(tmp_path / "m.json", polya_doc())
        # stdout block-buffered, as it is on a pipe unless PYTHONUNBUFFERED is set
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        return subprocess.Popen([sys.executable, "-m", "urnova.cli", argv[0], "--model", model,
                                 *argv[1:]], stdout=stdout, stderr=subprocess.PIPE, env=env)

    def check(self, child):
        with child:  # closes the pipes
            err = child.stderr.read().decode()
            assert child.wait(timeout=60) == 6
        assert err.startswith("error[io]: cannot write stdout")
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_reader_leaving_after_one_line(self, tmp_path):
        # the rows outgrow the pipe buffer, so the write after the reader
        # leaves meets a closed pipe
        child = self.spawn(tmp_path, ["sample", "--count", "20000", "--seed", "1"],
                           subprocess.PIPE)
        assert child.stdout.readline().startswith(b"#meta")
        child.stdout.close()
        self.check(child)

    def test_report_smaller_than_the_stream_buffer(self, tmp_path):
        # nothing is written before the flush, and the pipe has no reader
        read, write = os.pipe()
        os.close(read)
        child = self.spawn(tmp_path, ["validate"], write)
        os.close(write)
        self.check(child)


class TestForkedSample:
    """sample computes its rows in contiguous blocks, the first in the
    command's own process and each other in a forked worker, with up to one
    process per usable CPU and at least 1000 rows each; the CSV does not
    depend on the blocks."""

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        """Two usable CPUs whatever the host has; the list of forks made."""
        if not hasattr(os, "fork"):
            pytest.skip("this platform has no fork")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        forks, fork = [], os.fork

        def counted():
            forks.append(None)
            return fork()
        monkeypatch.setattr(os, "fork", counted)
        return forks

    def sample_lines(self, path, model, n, seed, count):
        expected = [f"{i},{' '.join(model.sample(n, seed + i))}" for i in range(count)]
        assert Path(path).read_text().splitlines()[2:] == expected

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    def test_one_cpu_and_every_cpu_write_the_same_bytes(self, tmp_path):
        model = write_json(tmp_path / "m.json", polya_doc())
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        outputs = []
        for pin in (lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}), None):
            out = tmp_path / f"{len(outputs)}.csv"
            subprocess.run([sys.executable, "-m", "urnova.cli", "sample", "--model", model,
                            "--count", "2500", "--seed", "11", "--out", str(out)],
                           env=env, preexec_fn=pin, check=True, timeout=60)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        self.sample_lines(tmp_path / "0.csv", parse_model_file(model), 8, 11, 2500)

    @pytest.mark.parametrize("count, forks", [(1, 0), (1999, 0), (2000, 1), (2001, 1)])
    def test_rows_are_the_model_draws(self, tmp_path, two_cpus, count, forks):
        model = write_json(tmp_path / "m.json", polya_doc())
        out = tmp_path / "s.csv"
        assert main(["sample", "--model", model, "--M", "5", "--count", str(count),
                     "--seed", "3", "--out", str(out)]) == 0
        assert len(two_cpus) == forks
        self.sample_lines(out, parse_model_file(model), 5, 3, count)

    @pytest.mark.parametrize("flag", ["--M", "--count"])
    def test_zero_exits_2(self, tmp_path, capsys, flag):
        model = write_json(tmp_path / "m.json", polya_doc())
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--model", model, "--seed", "1", flag, "0"])
        assert exc.value.code == 2
        assert f"{flag}: must be a positive integer, not '0'" in capsys.readouterr().err

    def test_no_fork_beside_a_thread(self, tmp_path, two_cpus):
        model = write_json(tmp_path / "m.json", polya_doc())
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert main(["sample", "--model", model, "--count", "2000", "--seed", "3",
                         "--out", str(tmp_path / "s.csv")]) == 0
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert two_cpus == []
        self.sample_lines(tmp_path / "s.csv", parse_model_file(model), 8, 3, 2000)

    # rows 0..999 are the command's own block, rows 1000..1999 the worker's;
    # when its own block fails, the command must stop a worker that would
    # otherwise run for a minute
    @pytest.mark.parametrize("row", [500, 1500], ids=["own-block", "worker-block"])
    def test_a_failing_block_leaves_no_worker(self, tmp_path, capfd, monkeypatch, two_cpus,
                                               row):
        sample = UrnModel.sample

        def failing(model, n, seed):
            if seed == 3 + row:
                raise RuntimeError("no draw")
            if row < 1000 and seed == 3 + 1000:
                time.sleep(60)
            return sample(model, n, seed)
        monkeypatch.setattr(UrnModel, "sample", failing)
        model = write_json(tmp_path / "m.json", polya_doc())
        out = tmp_path / "s.csv"
        argv = ["sample", "--model", model, "--count", "2000", "--seed", "3", "--out", str(out)]
        frozen = gc.get_freeze_count()
        if row < 1000:
            start = time.monotonic()
            with pytest.raises(RuntimeError, match="no draw"):
                main(argv)
            assert time.monotonic() - start < 30
        else:
            assert main(argv) == 1
            err = capfd.readouterr().err
            assert "RuntimeError: no draw" in err  # the worker's traceback
            assert err.endswith("error[worker]: the worker of rows 1000 to 1999 exited with 1\n")
        assert len(two_cpus) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert gc.get_freeze_count() == frozen
        assert not out.exists()


class TestZhaoChenFlags:
    @pytest.mark.parametrize("argv, named", [
        (["--M", "3", "--draws", "2", "--level", "5"], ("--level 5", "--draws 2")),
        (["--M", "2", "--draws", "5"], ("--draws 5", "--M 2")),
    ])
    def test_size_out_of_range_exits_2(self, tmp_path, capsys, argv, named):
        assert main(["zhao-chen", *argv, "--out", str(tmp_path / "z.csv")]) == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag in named), err

    def test_sample_of_the_whole_population_is_reported(self, tmp_path):
        out = tmp_path / "z.csv"
        assert main(["zhao-chen", "--M", "4", "--draws", "4", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2 + 4


class TestLemma3Flags:
    @pytest.mark.parametrize("argv, missing", [
        (["--n", "2"], "--level"),
        (["--level", "1"], "--n"),
    ])
    def test_one_of_the_pair_exits_2(self, tmp_path, capsys, argv, missing):
        assert main(["lemma3", "--N", "4", *argv, "--out", str(tmp_path / "l.csv")]) == 2
        assert missing in capsys.readouterr().err

    @pytest.mark.parametrize("argv, rows", [([], 6), (["--n", "2", "--level", "1"], 1)])
    def test_both_or_neither(self, tmp_path, argv, rows):
        out = tmp_path / "l.csv"
        assert main(["lemma3", "--N", "4", *argv, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2 + rows


class TestOracleIsolation:
    """Production commands and routes never reach the enumeration or
    Fraction coefficient oracles."""

    @pytest.fixture
    def no_oracles(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("an oracle was called")

        for oracle in (cond_expectation, symmetrized_offdiagonal, dirichlet_moment,
                       phi_coeff, psi_coeff):
            for name, module in list(sys.modules.items()):
                if name == "urnova" or name.startswith("urnova."):
                    for key, value in list(vars(module).items()):
                        if value is oracle:
                            monkeypatch.setattr(module, key, forbidden)
        monkeypatch.setattr(UrnModel, "joint_pmf", forbidden)

    def test_expansions_and_constants_run_without_oracles(self, no_oracles):
        # the enumeration oracle is patched only inside urnova, so this
        # module can still compare against it
        model = urn_model([("a", 0), ("b", 1), ("c", 3)], {"a": 2, "b": 2, "c": 4}, F(-1), 5)
        statistic = builtin_kernel(model.alphabet, 3, "max")
        centered = statistic.shift(-expectation(model, statistic))
        kernel = decompose(model, centered, 3).kernels[1]
        assert (expand_conditional(model, statistic, ("a",), ("b",))
                == cond_expectation(model, statistic, ("a",), ("b",)) == F(43, 15))
        assert nested_conditional(model, statistic, 2, 1, ("a", "c", "b")) == F(41, 15)
        assert nested_conditional_sum(model, statistic, 2, ("a", "b")) == F(71, 9)
        assert gamma_coeff(3, 2, model.rate) == F(3, 2)
        assert assumption_check(3, model.rate) == ()
        assert (project_degenerate_ustat(model, kernel, 3)
                == project_level(model, ustatistic(kernel, 3), 3, 2))
        assert degenerate_cov(model, kernel, kernel, 1) == F(-1, 98)
        levels, total = covariance_levels(model, centered, centered, 3)
        assert levels == (F(3, 35), F(6, 49), F(2, 35))
        assert total == expectation(model, centered.pointwise_product(centered))
        assert wor_level_variance_derived(6, 3, 2) == F(3, 2)

    def test_commands_run_without_oracles(self, tmp_path, no_oracles):
        model = write_json(tmp_path / "m.json", polya_doc())
        k_max = write_json(tmp_path / "max.json", {"builtin": "max"})
        k_min = write_json(tmp_path / "min.json", {"builtin": "min"})
        out = str(tmp_path / "o.csv")
        runs = (
            ["validate", "--model", model],
            ["pmf", "--model", model, "--M", "2"],
            ["pmf", "--model", model, "--seq", "b,a,b"],
            ["decompose", "--model", model, "--kernel", k_max, "--M", "3"],
            # reads the level-2 sidecar the decompose run above writes
            ["degenerate-cov", "--model", model, "--kernel", f"{out}.level2.json",
             "--kernel", f"{out}.level2.json"],
            ["covariance", "--model", model, "--kernel", k_max, "--kernel", k_min, "--M", "3"],
            ["coeffs", "--model", model, "--M", "4"],
            ["check-wi", "--model", model, "--level", "3"],
            ["counterexample", "--epsilon", "1/3"],
            ["weak-copy", "--model", model, "--kernel", k_max, "--level", "2"],
            ["sample", "--model", model, "--count", "5", "--seed", "7"],
            ["zhao-chen", "--M", "6", "--draws", "3"],
            ["lemma3", "--N", "5"],
        )
        assert {argv[0] for argv in runs} == set(COMMANDS)
        for argv in runs:
            assert main([*argv, "--out", out]) == 0, argv


LABELS = st.sampled_from(["a", "b", "c", "x" * 5000])
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 5), st.sampled_from([0.5, -1.0]),
    st.sampled_from(["0", "1", "2", "-1", "1/2", "-1/2", "3/2", "x", "1/0", "", "x" * 5000]),
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["a", "b", "label", "value", "multiset"]),
                        inner, max_size=3),
    ),
    max_leaves=6,
)
MULTISETS = st.one_of(
    st.dictionaries(LABELS, st.one_of(st.integers(-1, 3), st.booleans()), max_size=3), JSON)
# what a corrupted field of each document is replaced by
MODEL_FIELDS = {
    "symbols": st.one_of(JSON, st.lists(st.one_of(
        JSON, st.fixed_dictionaries({"label": st.one_of(LABELS, JSON)},
                                    optional={"value": JSON})), min_size=1, max_size=3)),
    "alpha": st.one_of(JSON, st.dictionaries(LABELS, JSON, max_size=3)),
    "c": JSON,
    "length": JSON,
}
BUILTIN_FIELDS = {
    "builtin": JSON,
    "arity": st.one_of(st.integers(-1, 4), JSON),
    "multiset": MULTISETS,
}
TABLE_FIELDS = {
    "arity": st.one_of(st.integers(-1, 4), JSON),
    "entries": st.one_of(SCALARS, st.lists(st.one_of(SCALARS, JSON, st.fixed_dictionaries(
        {}, optional={"multiset": MULTISETS, "value": JSON})), min_size=1, max_size=4)),
}


def corrupt(draw, doc, fields):
    """Delete or replace one or two fields of a well-formed document, or
    replace the whole document by arbitrary JSON."""
    if draw(st.integers(0, 4)) == 0:
        return draw(JSON)
    for key in draw(st.lists(st.sampled_from(sorted(fields)), min_size=1, max_size=2,
                             unique=True)):
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(fields[key])
    return doc


@st.composite
def documents(draw):
    """An urn model document and an arity-2 kernel document over its
    labels, both well formed, and then one of them corrupted or the model
    replaced by a mixture document."""
    labels = draw(st.lists(LABELS, min_size=1, max_size=3, unique=True))
    model = {
        "symbols": [{"label": label, "value": str(i)} for i, label in enumerate(labels)],
        "alpha": {label: str(draw(st.integers(0, 3))) for label in labels},
        "c": draw(st.sampled_from(["1", "1/2", "0", "-1", "-1/2"])),
        "length": draw(st.integers(1, 5)),
    }
    if draw(st.booleans()):
        kernel, fields = {"builtin": draw(st.sampled_from(["max", "min", "mean", "indicator"])),
                          "arity": 2, "multiset": {labels[0]: 2}}, BUILTIN_FIELDS
    else:
        kernel, fields = {"arity": 2, "entries": [
            {"multiset": {label: ms.count(label) for label in set(ms)},
             "value": str(draw(st.integers(-3, 3)))}
            for ms in itertools.combinations_with_replacement(labels, 2)
        ]}, TABLE_FIELDS
    target = draw(st.sampled_from(["kernel", "model", "mixture", "none"]))
    if target == "kernel":
        kernel = corrupt(draw, kernel, fields)
    elif target == "model":
        model = corrupt(draw, model, MODEL_FIELDS)
    elif target == "mixture":
        model = {"epsilon": draw(st.one_of(st.sampled_from(["1/2", "1", "3/10"]), JSON))}
    return model, kernel


COMMAND_LINES = st.sampled_from([
    ["decompose", "--M", "2", "--kernel", "K"],
    ["weak-copy", "--level", "1", "--kernel", "K"],
    ["covariance", "--M", "2", "--kernel", "K", "--kernel", "K"],
    ["degenerate-cov", "--kernel", "K", "--kernel", "K"],
    ["check-wi", "--level", "2"],
    ["sample", "--count", "2", "--seed", "1"],
    ["coeffs", "--M", "3"],
    ["pmf", "--M", "2"],
])


class TestFuzzDocuments:
    @given(docs=documents(), argv=COMMAND_LINES)
    @settings(max_examples=200, deadline=None)
    def test_every_document_maps_to_an_exit_code(self, docs, argv):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            model = write_json(root / "m.json", docs[0])
            kernel = write_json(root / "k.json", docs[1])
            argv = [kernel if a == "K" else a for a in argv]
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = main([*argv, "--model", model, "--out", str(root / "o.csv")])
        assert code in (0, 2, 3, 4, 5, 6)
        # a refused value is cut, so a 5000-character one never fills a line
        assert all(len(line) < 400 for line in err.getvalue().splitlines())
