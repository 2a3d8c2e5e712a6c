"""End-to-end tests of the command-line interface (in-process)."""

from __future__ import annotations

import json

import pytest

from permlab.cli import main
from permlab.series import XSeries


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_triangle_tsv(capsys):
    code, out, _ = run(capsys, "triangle", "--n", "6")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert len(rows) == 6
    assert rows[-1] == ["16", "40", "68", "90", "90", "90"]
    assert rows[0] == ["1"]


def test_triangle_single_row(capsys):
    code, out, _ = run(capsys, "triangle", "--n", "1")
    assert code == 0
    assert out.strip() == "1"


def test_triangle_json_row_sums(capsys):
    from permlab.schroeder import schroeder_numbers

    code, out, _ = run(capsys, "triangle", "--n", "12", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "permlab/v1"
    assert payload["row_sums"] == schroeder_numbers(12)


def test_triangle_cap(capsys):
    code, _, err = run(capsys, "triangle", "--n", "41")
    assert code == 2
    assert "limited" in err


def test_distribution_brute_reference_row(capsys):
    code, out, _ = run(capsys, "distribution", "--pair", "2314,3124", "--n", "8")
    assert code == 0
    first = out.strip().splitlines()[0]
    assert first == "1806 1092 752 629 629 752 1092 1806"


def test_distribution_check_agrees(capsys):
    code, out, _ = run(capsys, "distribution", "--pair", "1243,1423", "--n", "8", "--check")
    assert code == 0
    assert "methods agree" in out
    lines = out.strip().splitlines()
    assert any(line.startswith("brute") for line in lines)
    assert any(line.startswith("recurrence") for line in lines)
    assert any(line.startswith("series") for line in lines)


def test_distribution_check_trivial_case(capsys):
    code, out, _ = run(capsys, "distribution", "--pair", "1243,1423", "--n", "1", "--check")
    assert code == 0
    assert all(line.split("\t")[-1] == "1" for line in out.strip().splitlines()[:-1])


def test_distribution_json(capsys):
    code, out, _ = run(
        capsys, "distribution", "--pair", "1234,1243", "--n", "6",
        "--method", "recurrence", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == [16, 40, 68, 90, 90, 90]
    assert payload["method"] == "recurrence"


def test_distribution_unsupported_method(capsys):
    code, _, err = run(
        capsys, "distribution", "--pair", "1342,1432", "--n", "6",
        "--method", "series",
    )
    assert code == 2
    assert "not available" in err


def test_distribution_brute_cap_and_big(capsys):
    # one enumeration cap, n <= 11, and no --big to raise it
    code, out, err = run(capsys, "distribution", "--pair", "1243,1423", "--n", "12")
    assert code == 2
    assert "PERMLAB_MAX_N" in err
    assert out == ""
    code, out, _ = run(capsys, "distribution", "--pair", "1243,1423", "--n", "10")
    assert code == 0
    first = out.strip().splitlines()[0]
    # the stabilised tail of row 10 is the full count at size 9
    assert first.endswith("41586 41586 41586")
    assert sum(map(int, first.split())) == 206098


def test_distribution_methods_disagree_is_exit_one(capsys, monkeypatch):
    import permlab.cli as cli

    real = cli._distribution_by

    def skew(pair, n, method):
        counts = real(pair, n, method)
        if method == "series":
            counts = counts[:-1] + [counts[-1] + 1]
        return counts

    monkeypatch.setattr(cli, "_distribution_by", skew)
    code, out, _ = run(capsys, "distribution", "--pair", "1243,1423", "--n", "6", "--check")
    assert code == 1
    assert "DISAGREE" in out


def test_table2(capsys):
    code, out, _ = run(capsys, "table2")
    assert code == 0
    assert "rows checked: 57" in out
    assert "mismatches: 0" in out


def test_verify_all_suites_pass(capsys):
    for suite, flags in (
        ("conjecture", ["--n", "7"]),
        ("recurrences", ["--n", "6"]),
        ("bijection", ["--n", "6"]),
        ("series", ["--deg", "7"]),
        ("systems", ["--deg", "6"]),
        ("inversion", ["--n", "8"]),
    ):
        code, out, _ = run(capsys, "verify", suite, *flags)
        assert code == 0, f"{suite}: {out}"
        assert "[FAIL]" not in out
        assert "[PASS]" in out


def test_verify_inversion_is_not_clipped(capsys):
    # the inversion suite enumerates no permutations, so the brute-force
    # cap on permutation size does not apply to it
    code, out, _ = run(capsys, "verify", "inversion", "--n", "10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["scale"] == 10
    assert len(payload["checks"]) == 10
    assert payload["all_ok"] is True


def test_verify_enumerating_suites_refuse_above_the_cap(capsys, monkeypatch):
    for suite, flag in (("conjecture", "--n"), ("series", "--deg")):
        code, out, err = run(capsys, "verify", suite, flag, "12")
        assert code == 2
        assert "PERMLAB_MAX_N" in err
        assert out == ""
    monkeypatch.setenv("PERMLAB_MAX_N", "8")
    code, out, err = run(capsys, "verify", "conjecture", "--n", "9")
    assert code == 2
    assert "PERMLAB_MAX_N" in err
    assert out == ""


@pytest.mark.parametrize("suite", ["conjecture", "recurrences", "bijection", "series"])
def test_enumerating_suites_refuse_above_the_cap_before_any_walk(monkeypatch, suite):
    # called from Python, as the acceptance gate calls them, the suites meet
    # the same cap as every census, before the first walk
    from permlab import kernels, suites
    from permlab.perms import ResourceLimitError, enumeration_cap

    def no_walk(*args):
        raise AssertionError("an enumeration ran above the cap")

    monkeypatch.setattr(kernels, "_walk", no_walk)
    run_suite = suites.SUITES[suite].run
    with pytest.raises(ResourceLimitError, match="PERMLAB_MAX_N"):
        run_suite(enumeration_cap() + 1)
    monkeypatch.setenv("PERMLAB_MAX_N", "8")
    with pytest.raises(ResourceLimitError, match="PERMLAB_MAX_N"):
        run_suite(9)


@pytest.mark.parametrize("suite, flag, scale", [
    ("conjecture", "--n", "-3"),
    ("bijection", "--n", "0"),
    ("inversion", "--n", "0"),
    ("systems", "--deg", "0"),
])
def test_verify_scale_below_one_is_usage_error(capsys, suite, flag, scale):
    code, out, err = run(capsys, "verify", suite, flag, scale)
    assert code == 2
    assert "at least 1" in err
    assert "[PASS]" not in out


@pytest.mark.parametrize("n", ["0", "-2"])
@pytest.mark.parametrize("method", [
    ["--method", "brute"], ["--method", "recurrence"], ["--method", "series"], ["--check"],
], ids=["brute", "recurrence", "series", "check"])
def test_distribution_n_below_one_is_usage_error(capsys, n, method):
    code, out, err = run(capsys, "distribution", "--pair", "1243,1423", "--n", n, *method)
    assert code == 2
    assert f"n must be at least 1, got {n}" in err
    assert out == ""


def test_verify_n_and_deg_are_exclusive(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "conjecture", "--n", "7", "--deg", "5"])
    assert excinfo.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_verify_with_no_checks_fails(capsys, monkeypatch):
    from permlab import suites

    empty = suites.SUITES["inversion"]._replace(run=lambda scale: [])
    monkeypatch.setitem(suites.SUITES, "inversion", empty)
    code, out, _ = run(capsys, "verify", "inversion", "--format", "json")
    assert code == 1
    assert json.loads(out)["all_ok"] is False


def _bump_last(counts):
    # a copy with the last count (of the last row, for a table) raised by one
    last = counts[-1]
    return counts[:-1] + [_bump_last(last) if isinstance(last, list) else last + 1]


def _then(bump):
    return lambda real: lambda *args, **kwargs: bump(real(*args, **kwargs))


@pytest.mark.parametrize("suite, flag, route, skew", [
    ("conjecture", "--n", "perms.first_letter_distribution", _then(_bump_last)),
    ("recurrences", "--n", "recurrences.site_table", _then(_bump_last)),
    ("bijection", "--n", "bijection.inverse",
     _then(lambda perm: perm[::-1] if len(perm) == 3 else perm)),
    ("series", "--deg", "closedforms.expand", _then(lambda s: s + XSeries.x(s.trunc, s.guard))),
    ("systems", "--deg", "systems._residual",
     lambda real: lambda name, res: real(name, res + 1 if name.startswith("site series") else res)),
    ("inversion", "--n", "schroeder.inversion_seq_distribution", _then(_bump_last)),
])
def test_each_suite_can_fail(capsys, monkeypatch, suite, flag, route, skew):
    # one skewed input route must turn the suite, and the command, into a failure
    import importlib

    from permlab import suites

    module, attr = route.split(".")
    mod = importlib.import_module(f"permlab.{module}")
    monkeypatch.setattr(mod, attr, skew(getattr(mod, attr)))
    assert any(not c.ok for c in suites.SUITES[suite].run(5))
    code, out, _ = run(capsys, "verify", suite, flag, "5")
    assert code == 1
    assert "[FAIL]" in out


@pytest.mark.parametrize("argv", [
    ["triangle"], ["table2"], ["bijection", "132"],
    ["distribution", "--pair", "1243,1423"], ["verify", "conjecture"],
])
def test_big_only_where_it_applies(argv):
    # --big is gone: the enumeration cap has one setting, PERMLAB_MAX_N
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--big"])
    assert excinfo.value.code == 2


def test_verify_json_report(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "systems", "--deg", "5", "--format", "json",
        "--out", str(out_path),
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload == json.loads(out)
    assert payload["schema"] == "permlab/v1"
    assert payload["all_ok"] is True
    assert payload["elapsed_seconds"] >= 0
    assert all(check["ok"] for check in payload["checks"])


def test_bijection_trace(capsys):
    code, out, _ = run(capsys, "bijection", "3 5 2 4 1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("minima")
    assert "(1, 3)" in lines[0] and "(5, 1)" in lines[0]
    assert lines[-1] == "image : 3 4 2 5 1"
    # one input line plus one line for each of the three minima
    assert sum(1 for line in lines if line.startswith("stage")) == 3


def test_bijection_single_stage(capsys):
    code, out, _ = run(capsys, "bijection", "1 3 2")
    assert code == 0
    assert out.strip().splitlines()[-1] == "image : 1 2 3"


def test_bijection_domain_error(capsys):
    code, _, err = run(capsys, "bijection", "1 3 4 2")
    assert code == 2
    assert "avoid" in err


def test_bijection_json(capsys):
    code, out, _ = run(capsys, "bijection", "35241", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["image"] == [3, 4, 2, 5, 1]
    assert payload["minima"] == [[1, 3], [3, 2], [5, 1]]


def test_bad_pair_is_usage_error(capsys):
    code, _, err = run(capsys, "distribution", "--pair", "123,1243", "--n", "5")
    assert code == 2
    assert "length 4" in err
    code, _, err = run(capsys, "distribution", "--pair", "1243", "--n", "5")
    assert code == 2
    assert "two patterns" in err


def test_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "everything"])
    assert excinfo.value.code == 2
