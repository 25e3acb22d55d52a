import hashlib
import json
import math
import os
import subprocess
import sys
import time

import pytest

import queuedecay.validate
from queuedecay.cli import _parse_grid, main
from queuedecay.ratecalc import (NumericalFailure, PriorityDecay, gamma_p,
                                 gamma_p_trunc, gamma_v_srpt, model_from_json,
                                 y_star)
from queuedecay.validate import run_criterion

MM1 = {"arrival": {"type": "exponential", "rate": 0.5},
       "service": {"type": "exponential", "rate": 1.0}}
SPLIT = {"arrival": {"type": "exponential", "rate": 1.0},
         "split": {"p": 0.5,
                   "class1": {"type": "uniform", "lo": 0.0, "hi": 0.5},
                   "class2": {"type": "deterministic", "value": 1.0}}}
UNSTABLE = {"arrival": {"type": "exponential", "rate": 2.0},
            "service": {"type": "exponential", "rate": 1.0}}
UNIFORM_ARRIVALS = {"arrival": {"type": "uniform", "lo": 0.5, "hi": 1.5},
                    "service": {"type": "exponential", "rate": 1.5}}
NO_DELAYS = {"arrival": {"type": "deterministic", "value": 2.0},
             "service": {"type": "deterministic", "value": 1.0}}


@pytest.fixture
def model_file(tmp_path):
    def write(doc, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return write


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["rates", "--help"]) == 0
    capsys.readouterr()


def test_unknown_flag_is_config_error(capsys):
    assert main(["rates", "--no-such-flag"]) == 1
    capsys.readouterr()


def test_missing_and_malformed_model_files(capsys, tmp_path):
    assert main(["rates", "--model", str(tmp_path / "absent.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["rates", "--model", str(bad)]) == 1
    capsys.readouterr()


def test_exit_codes_for_model_classes(capsys, model_file):
    assert main(["rates", "--model", model_file(MM1)]) == 0
    capsys.readouterr()
    assert main(["rates", "--model", model_file(UNSTABLE)]) == 2
    capsys.readouterr()
    assert main(["rates", "--model", model_file(NO_DELAYS)]) == 1
    capsys.readouterr()


def test_rates_json_document(capsys, model_file):
    code, out = _run(capsys, ["rates", "--model", model_file(MM1)])
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["model", "report"]
    report = doc["report"]
    assert list(report) == ["gamma_w", "gamma_p", "gamma_w2", "gamma_v",
                            "regime", "s_opt", "a", "K", "rho", "q",
                            "x_b", "case"]
    assert report["gamma_w"] == pytest.approx(0.5, abs=1e-12)
    assert report["rho"] == pytest.approx(0.5, abs=1e-12)
    assert report["gamma_w2"] is None  # no class split in this model
    assert doc["model"] == MM1


def test_rates_ystar_fields(capsys, model_file):
    code, out = _run(capsys, ["rates", "--model", model_file(MM1),
                              "--ystar"])
    assert code == 0
    doc = json.loads(out)
    assert "y_star" in doc and "p_exceed" in doc
    from queuedecay.ratecalc import model_from_json
    crit = y_star(model_from_json(MM1))
    assert doc["y_star"] == pytest.approx(crit.value, rel=1e-12)
    assert doc["p_exceed"] == pytest.approx(crit.tail_prob, rel=1e-12)
    assert 0.0 < doc["p_exceed"] <= 1.0


def test_rates_csv_output(capsys, model_file):
    code, out = _run(capsys, ["rates", "--model", model_file(MM1),
                              "--output", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    table = dict(line.split(",", 1) for line in lines[1:])
    assert float(table["gamma_w"]) == pytest.approx(0.5, abs=1e-12)
    assert table["gamma_w2"] == ""  # None renders as an empty cell
    assert table["case"] and "'" not in table["case"]


@pytest.mark.parametrize("model", [MM1, SPLIT, UNIFORM_ARRIVALS],
                         ids=["mm1", "split", "uniform-arrivals"])
def test_rates_ystar_csv_rows_equal_the_json_values(capsys, model_file, model):
    path = model_file(model)
    code, out = _run(capsys, ["rates", "--model", path, "--ystar"])
    assert code == 0
    doc = json.loads(out)
    code, out = _run(capsys, ["rates", "--model", path, "--ystar",
                              "--output", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert [line.split(",")[0] for line in lines[-2:]] == ["y_star", "p_exceed"]
    table = dict(line.split(",", 1) for line in lines[1:])
    assert float(table["y_star"]) == doc["y_star"]
    assert float(table["p_exceed"]) == doc["p_exceed"]


def test_rates_byte_deterministic(capsys, model_file):
    path = model_file(SPLIT)
    first = _run(capsys, ["rates", "--model", path])
    second = _run(capsys, ["rates", "--model", path])
    assert first == second


def test_json_numbers_round_trip(capsys, model_file):
    code, out = _run(capsys, ["rates", "--model", model_file(SPLIT)])
    assert code == 0
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc


def test_simulate_json_document(capsys, model_file):
    code, out = _run(capsys, ["simulate", "--model", model_file(SPLIT),
                              "--discipline", "prio-pr",
                              "--customers", "20000", "--seed", "7"])
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["model", "discipline", "customers", "seed",
                         "warmup", "analytic", "summary", "fits", "bins"]
    assert doc["discipline"] == "prio-pr"
    assert doc["customers"] == 20000
    assert doc["bins"] is None
    summary = doc["summary"]
    assert set(summary) == {"served", "total_time", "busy_periods",
                            "mean_busy", "mean_waiting", "mean_sojourn"}
    assert summary["served"] == 20000
    assert summary["busy_periods"] >= 1
    fits = doc["fits"]
    assert set(fits) == {"waiting", "sojourn",
                         "class2_waiting", "class2_sojourn"}
    for name in ("class2_waiting", "class2_sojourn"):
        assert fits[name]["analytic"] == doc["analytic"]["gamma_w2"]
    assert fits["waiting"]["analytic"] is None  # not a FIFO run


def test_simulate_fifo_fit_targets_workload_rate(capsys, model_file):
    code, out = _run(capsys, ["simulate", "--model", model_file(MM1),
                              "--discipline", "fifo",
                              "--customers", "100000", "--seed", "3"])
    assert code == 0
    doc = json.loads(out)
    block = doc["fits"]["waiting"]
    assert block["analytic"] == doc["analytic"]["gamma_w"]
    assert doc["fits"]["sojourn"]["analytic"] is None
    assert block["fit"] is not None and block["skipped"] is None
    assert block["fit"]["rate"] > 0
    assert block["comparison"]["analytic"] == doc["analytic"]["gamma_w"]


def test_simulate_documents_for_all_six_disciplines(capsys, model_file):
    # the shared streams and the busy-period identity fix the summaries
    # below; each document carries its own discipline's analytic target
    path = model_file(SPLIT)
    docs = {}
    for name in ("fifo", "lifo-pr", "srpt-pr", "srpt-np", "prio-pr", "prio-np"):
        code, out = _run(capsys, ["simulate", "--model", path, "--discipline",
                                  name, "--customers", "4000", "--seed", "6"])
        assert code == 0
        docs[name] = json.loads(out)
    shared = ("served", "busy_periods", "mean_busy", "total_time")
    summaries = {name: [doc["summary"][k] for k in shared]
                 for name, doc in docs.items()}
    assert all(s == summaries["fifo"] for s in summaries.values()), summaries
    report = docs["fifo"]["analytic"]
    assert None not in (report["gamma_w"], report["gamma_v"], report["gamma_w2"])
    none = {"waiting": None, "sojourn": None}
    prio = dict(none, class2_waiting=report["gamma_w2"],
                class2_sojourn=report["gamma_w2"])
    expect = {"fifo": dict(none, waiting=report["gamma_w"]),
              "lifo-pr": none,
              "srpt-pr": dict(none, sojourn=report["gamma_v"]),
              "srpt-np": dict(none, sojourn=report["gamma_v"]),
              "prio-pr": prio, "prio-np": prio}
    for name, doc in docs.items():
        targets = {fit: block["analytic"] for fit, block in doc["fits"].items()}
        assert targets == expect[name], name


def test_simulate_csv_records(capsys, model_file):
    code, out = _run(capsys, ["simulate", "--model", model_file(MM1),
                              "--discipline", "fifo",
                              "--customers", "500", "--seed", "1",
                              "--output", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("index,arrival,service,class,first_service,"
                        "departure,workload_at_arrival")
    assert len(lines) == 1 + 400  # 20 percent warmup dropped
    row = lines[1].split(",")
    assert float(row[4]) >= float(row[1])


def test_simulate_bins_document(capsys, model_file):
    code, out = _run(capsys, ["simulate", "--model", model_file(MM1),
                              "--discipline", "srpt-pr",
                              "--customers", "50000", "--seed", "5",
                              "--bins", "0.4"])
    assert code == 0
    doc = json.loads(out)
    assert "bins" in doc
    assert doc["bins"], "expected at least one service bin"
    for entry in doc["bins"]:
        assert {"lo", "hi", "count", "analytic"} <= set(entry)
    finite = [b for b in doc["bins"] if b["analytic"] is not None]
    assert finite
    rates = [b["analytic"] for b in finite]
    assert all(r2 <= r1 + 1e-12 for r1, r2 in zip(rates, rates[1:]))


def test_simulate_bins_zero_picks_a_tenth_of_the_mean_service(capsys, model_file):
    # E[B] = 2/3, so the bins are 1/15 wide; a cutoff of at most 0.5 keeps
    # every service below the shortest inter-arrival time, so the first
    # eight bins, whose midpoints reach 0.5, have a truncated system that
    # never queues and no analytic rate
    code, out = _run(capsys, ["simulate", "--model", model_file(UNIFORM_ARRIVALS),
                              "--discipline", "srpt-pr", "--customers", "20000",
                              "--seed", "3", "--bins", "0"])
    assert code == 0
    bins = json.loads(out)["bins"]
    width = 0.1 * (1.0 / 1.5)
    index = [round(b["lo"] / width) for b in bins]
    assert index[:9] == list(range(9))
    assert [(b["lo"], b["hi"]) for b in bins] == [
        (j * width, (j + 1) * width) for j in index]
    assert [b["analytic"] for b in bins[:8]] == [None] * 8
    model = model_from_json(UNIFORM_ARRIVALS)
    rates = [b["analytic"] for b in bins[8:]]
    assert rates == [gamma_p_trunc(model, 0.5 * (b["lo"] + b["hi"]))
                     for b in bins[8:]]
    assert all(math.isfinite(r) for r in rates)


def test_simulate_bins_fit_far_below_the_main_fits_sample_count(capsys, model_file):
    # a bin's window (0.90 quantile, 50 points) exists from 60 samples on,
    # so bins of a few hundred samples carry a fit and a comparison
    code, out = _run(capsys, ["simulate", "--model", model_file(UNIFORM_ARRIVALS),
                              "--discipline", "srpt-pr", "--customers", "20000",
                              "--seed", "3", "--bins", "0"])
    assert code == 0
    bins = json.loads(out)["bins"]
    assert all((b["fit"] is None) == (b["skipped"] is not None) for b in bins)
    fitted = [b for b in bins if b["fit"] is not None]
    assert len(fitted) >= 8 and all(b["count"] < 5000 for b in fitted)
    compared = [b for b in fitted if b["analytic"] is not None]
    assert compared
    assert all(b["comparison"]["analytic"] == b["analytic"] for b in compared)
    assert [b["skipped"] for b in bins if b["count"] < 60] == [
        f"need at least 60 samples, got {b['count']}" for b in bins if b["count"] < 60]


@pytest.mark.parametrize("width", ["1e-300", "inf"])
def test_simulate_bins_too_narrow_or_endless_is_one_error_line(capsys, model_file,
                                                               width):
    # 1e-300 put every customer in one bin whose bounds overflowed
    assert main(["simulate", "--model", model_file(MM1), "--customers", "20000",
                 "--bins", width]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_simulate_writes_output_file(capsys, model_file, tmp_path):
    target = tmp_path / "run.json"
    code, out = _run(capsys, ["simulate", "--model", model_file(MM1),
                              "--discipline", "fifo",
                              "--customers", "1000", "--seed", "2",
                              "--out", str(target)])
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["customers"] == 1000


@pytest.mark.parametrize("where", ["a-directory", "missing/run.json"])
def test_unwritable_out_path_is_one_error_line(capsys, model_file, tmp_path, where):
    (tmp_path / "a-directory").mkdir()
    code = main(["rates", "--model", model_file(MM1),
                 "--out", str(tmp_path / where)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_service_that_agrees_with_the_split_reads_as_the_split(capsys, model_file):
    mixture = {"type": "mixture",
               "components": [{"weight": 0.5, "dist": SPLIT["split"]["class1"]},
                              {"weight": 0.5, "dist": SPLIT["split"]["class2"]}]}
    code, alone = _run(capsys, ["rates", "--model", model_file(SPLIT)])
    assert code == 0
    code, both = _run(capsys, ["rates", "--model",
                               model_file(dict(SPLIT, service=mixture), "both.json")])
    assert code == 0 and both == alone


def test_ystar_curve_csv(capsys):
    code, out = _run(capsys, ["ystar-curve", "--rho-grid", "0.3:0.7:0.2",
                              "--output", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rho,y_star,p_exceed,error"
    assert len(lines) == 4
    row = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert float(row["rho"]) == pytest.approx(0.5, abs=1e-12)
    from queuedecay.dist import Exponential
    from queuedecay.ratecalc import QueueModel
    crit = y_star(QueueModel(Exponential(0.5), Exponential(1.0)))
    assert float(row["y_star"]) == pytest.approx(crit.value, rel=1e-12)
    assert float(row["p_exceed"]) == pytest.approx(crit.tail_prob, rel=1e-12)


def test_ystar_curve_json_deterministic(capsys):
    argv = ["ystar-curve", "--rho-grid", "0.2:0.9:0.1",
            "--output", "json"]
    first = _run(capsys, argv)
    second = _run(capsys, argv)
    assert first == second
    doc = json.loads(first[1])
    assert doc["family"] == "mm1-unit-mean-service"
    assert len(doc["rows"]) == 8


def test_ystar_curve_bad_grid(capsys):
    assert main(["ystar-curve", "--rho-grid", "0.5"]) == 1
    capsys.readouterr()
    assert main(["ystar-curve", "--rho-grid", "0.9:0.1:0.1"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("grid", ["nan:1:0.1", "0.1:inf:0.1", "0.1:0.2:nan",
                                  "0.1:0.5:1e-300", "0:1:0.0001"])
def test_ystar_curve_endless_or_huge_grid_is_one_error_line(grid):
    # a child process with a deadline, so that a grid that never ends
    # fails the test instead of hanging it
    src = os.path.dirname(os.path.dirname(queuedecay.validate.__file__))
    done = subprocess.run([sys.executable, "-m", "queuedecay", "ystar-curve",
                           "--rho-grid", grid], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


@pytest.mark.parametrize("grid, message", [
    ("nan:1:0.1", "needs finite A, B and STEP"),
    ("0:1:1e-5", "more than 10000 points"),
])
def test_ystar_curve_bad_grid_message(capsys, grid, message):
    assert main(["ystar-curve", "--rho-grid", grid]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


def test_ystar_curve_grid_points():
    assert _parse_grid("0.3:0.7:0.2") == [0.3, 0.5, 0.7]
    assert _parse_grid("0.5:0.5:1") == [0.5]
    most = _parse_grid("0.0001:1:0.0001")
    assert len(most) == 10_000 and most[0] == 0.0001 and most[-1] == 1.0


def test_ystar_curve_per_point_errors_are_rows(capsys):
    # points at or past load 1 fill the error column instead of aborting
    code, out = _run(capsys, ["ystar-curve", "--rho-grid", "0.5:1.5:0.5",
                              "--output", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[1].endswith(",")  # rho 0.5 row has an empty error cell
    assert "below 1" in lines[2] and lines[2].startswith("1.0,,,")


def test_validate_refuses_an_unknown_criterion():
    with pytest.raises(ValueError, match="no criterion numbered 11"):
        run_criterion(11)


def test_validate_has_one_scale_and_refuses_a_scale_flag(capsys):
    # the suite runs every criterion at its one size and tolerance, so the
    # retired downscaling flag is an unknown option, exit 1, with no run
    code, out = _run(capsys, ["validate", "--quick"])
    assert code == 1 and out == ""


def test_validate_single_criterion_runs():
    result = run_criterion(1)
    assert result.passed
    assert result.line().startswith("criterion  1")
    assert "PASS" in result.line()


def test_validate_detects_broken_priority_rates(monkeypatch):
    real = queuedecay.validate.gamma_w2

    def never_boundary(model):
        got = real(model)
        return PriorityDecay(rate=got.rate, regime="interior",
                             s_opt=got.s_opt, a=0.0)

    monkeypatch.setattr(queuedecay.validate, "gamma_w2", never_boundary)
    result = queuedecay.validate.run_criterion(2)
    assert not result.passed


def test_validate_detects_a_boundary_rate_off_its_closed_form(monkeypatch):
    # the program meets the closed form to 1.1e-16; a boundary rate 1e-9
    # relative too large must fail criterion 2
    real = queuedecay.validate.gamma_w2

    def inflated(model):
        got = real(model)
        if got.regime != "boundary":
            return got
        return PriorityDecay(rate=got.rate * (1.0 + 1e-9), regime=got.regime,
                             s_opt=got.s_opt, a=got.a)

    assert queuedecay.validate.run_criterion(2).passed
    monkeypatch.setattr(queuedecay.validate, "gamma_w2", inflated)
    assert not queuedecay.validate.run_criterion(2).passed


def test_validate_reports_honest_failure(capsys, monkeypatch):
    # only criterion 2 reads the regime, so exactly that line must fail
    real = queuedecay.validate.gamma_w2

    def never_boundary(model):
        got = real(model)
        return PriorityDecay(rate=got.rate, regime="interior",
                             s_opt=got.s_opt, a=0.0)

    monkeypatch.setattr(queuedecay.validate, "gamma_w2", never_boundary)
    code, out = _run(capsys, ["validate"])
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert lines[-1] == "passed 9/10"
    assert sum("PASS" in line for line in lines[:-1]) == 9
    assert lines[1].startswith("criterion  2 ")
    assert "FAIL" in lines[1]
    assert code == 1


NAN_SPLIT = {"arrival": {"type": "deterministic", "value": 1.0},
             "split": {"p": 0.769,
                       "class1": {"type": "conditioned_below",
                                  "base": {"type": "erlang", "shape": 2,
                                           "rate": 2.864},
                                  "cutoff": 0.775},
                       "class2": {"type": "conditioned_below",
                                  "base": {"type": "erlang", "shape": 2,
                                           "rate": 2.753},
                                  "cutoff": 1.0098}}}
LARGE_ERLANG = {"arrival": {"type": "exponential", "rate": 0.5},
                "service": {"type": "erlang", "shape": 2000, "rate": 2000.0}}


def test_nan_in_the_search_is_a_numerical_failure(capsys, model_file):
    assert main(["rates", "--model", model_file(NAN_SPLIT)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical failure:") and "NaN" in err


def test_large_erlang_shape_ends_with_a_message(capsys, model_file):
    path = model_file(LARGE_ERLANG)
    assert main(["rates", "--model", path]) == 0
    capsys.readouterr()
    code = main(["rates", "--model", path, "--ystar"])
    out, err = capsys.readouterr()
    assert code in (0, 3)
    if code == 3:
        assert err.startswith("error: numerical failure:") and out == ""
    else:
        assert "y_star" in json.loads(out)


EXP1 = {"type": "exponential", "rate": 1.0}
BAD_MODEL_FILES = {
    "missing-rate": ({"arrival": {"type": "exponential"}, "service": EXP1}, 1),
    "split-without-class2": ({"arrival": EXP1,
                              "split": {"p": 0.5, "class1": EXP1}}, 1),
    "component-without-dist": (
        {"arrival": {"type": "exponential", "rate": 0.5},
         "service": {"type": "mixture", "components": [{"weight": 1.0}]}}, 1),
    "infinite-rate": ({"arrival": {"type": "exponential", "rate": math.inf},
                       "service": EXP1}, 1),
    "fractional-shape": ({"arrival": {"type": "exponential", "rate": 0.5},
                          "service": {"type": "erlang", "shape": 2.5,
                                      "rate": 5.0}}, 1),
    "bool-rate": ({"arrival": {"type": "exponential", "rate": True},
                   "service": {"type": "exponential", "rate": 2.0}}, 1),
    "zero-mean-arrivals": ({"arrival": {"type": "deterministic", "value": 0},
                            "service": EXP1}, 2),
    "underflowing-variance": ({"arrival": {"type": "exponential", "rate": 1e-300},
                               "service": EXP1}, 1),
    "overflowing-variance": ({"arrival": {"type": "uniform", "lo": 0, "hi": 1e308},
                              "service": EXP1}, 1),
    "infinite-variance": ({"arrival": {"type": "exponential", "rate": 1e-160},
                           "service": EXP1}, 1),
    "vanishing-slope": ({"arrival": {"type": "exponential", "rate": 1e-150},
                         "service": {"type": "deterministic", "value": 5e149}}, 3),
    # each class is in range, but the service mixture's second moment is not
    "split-with-overflowing-variance": (
        {"arrival": {"type": "deterministic", "value": 1e201},
         "split": {"p": 0.5, "class1": {"type": "deterministic", "value": 1e200},
                   "class2": EXP1}}, 1),
    "service-disagrees-with-split": (
        dict(SPLIT, service={"type": "exponential", "rate": 5.0}), 1),
}


@pytest.mark.parametrize("name", BAD_MODEL_FILES)
def test_bad_model_file_ends_with_one_error_line(capsys, model_file, name):
    doc, expected = BAD_MODEL_FILES[name]
    assert main(["rates", "--model", model_file(doc)]) == expected
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_integral_float_shape_reads_as_an_integer(capsys, model_file):
    doc = {"arrival": {"type": "exponential", "rate": 0.5},
           "service": {"type": "erlang", "shape": 2.0, "rate": 4.0}}
    assert main(["rates", "--model", model_file(doc)]) == 0
    shape = json.loads(capsys.readouterr().out)["model"]["service"]["shape"]
    assert shape == 2 and isinstance(shape, int)


def _nested_mixture(depth):
    head = '{"type": "mixture", "components": [{"weight": 1.0, "dist": '
    return head * depth + json.dumps(EXP1) + "}]}" * depth


# a 300-deep mixture parses within the interpreter's recursion limit, but
# the solvers and the simulator recurse further than the parser does
DEEP_SERVICE = {"brackets": (["rates"], "[" * 100_000 + "]" * 100_000),
                "mixture": (["rates"], _nested_mixture(3_000)),
                "mixture-300": (["rates"], _nested_mixture(300)),
                "mixture-300-ystar": (["rates", "--ystar"], _nested_mixture(300)),
                "mixture-300-simulate": (["simulate", "--customers", "1000"],
                                         _nested_mixture(300))}


@pytest.mark.parametrize("name", DEEP_SERVICE)
def test_deeply_nested_model_file_ends_with_one_error_line(capsys, tmp_path, name):
    command, service = DEEP_SERVICE[name]
    path = tmp_path / "deep.json"
    path.write_text('{"arrival": {"type": "exponential", "rate": 0.5}, '
                    f'"service": {service}}}')
    assert main(command + ["--model", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


# one sha256 over the exit code and stdout bytes of each call in turn:
# every byte of these documents is pinned.  At 150 000 customers every
# targeted fit of the split model carries a comparison, the class-2 fits
# of the priority runs included
DISCIPLINES = ("fifo", "lifo-pr", "srpt-pr", "srpt-np", "prio-pr", "prio-np")
PINNED_CLI_CALLS = (
    [(["rates", "--ystar", "--output", out], model)
     for model in (MM1, SPLIT, UNIFORM_ARRIVALS) for out in ("json", "csv")]
    + [(["simulate", "--discipline", name, "--customers", "150000", "--seed", "2"],
        SPLIT) for name in DISCIPLINES]
    + [(["simulate", "--discipline", "srpt-pr", "--customers", "20000",
         "--seed", "3", "--bins", "0"], UNIFORM_ARRIVALS),
       (["ystar-curve", "--rho-grid", "0.5:1.5:0.25"], None)])
PINNED_CLI_DIGEST = "b2f907de63da496fff7a5fb8810d637d2904211552778a8a4c26b7973390b926"


def test_cli_documents_match_pinned_digest(capsys, model_file):
    h = hashlib.sha256()
    for argv, model in PINNED_CLI_CALLS:
        if model is not None:
            argv = argv + ["--model", model_file(model)]
        code = main(argv)
        out = capsys.readouterr().out
        h.update(f"{code}\n".encode())
        h.update(out.encode())
        if argv[0] == "simulate" and "--bins" not in argv:
            doc = json.loads(out)
            assert all(block["comparison"] is not None
                       for block in doc["fits"].values()
                       if block["analytic"] is not None), argv
    assert h.hexdigest() == PINNED_CLI_DIGEST


# weight 1e-17 on the endpoint atom sums to one within FiniteMixture's
# tolerance, and 1 - q rounds to 1: the auxiliary priority queue's class 1
# is then the whole stream, the law below the atom
TINY_ATOM = {"arrival": EXP1,
             "service": {"type": "mixture", "components": [
                 {"weight": 1.0, "dist": SPLIT["split"]["class1"]},
                 {"weight": 1e-17, "dist": SPLIT["split"]["class2"]}]}}


def test_endpoint_atom_below_rounding_reads_as_the_atom_case(capsys, model_file):
    below = model_from_json(dict(TINY_ATOM, service=SPLIT["split"]["class1"]))
    srpt = gamma_v_srpt(model_from_json(TINY_ATOM))
    assert srpt.case == "atom"
    assert srpt.rate == pytest.approx(gamma_p(below), rel=1e-12)
    code, out = _run(capsys, ["rates", "--model", model_file(TINY_ATOM)])
    assert code == 0
    report = json.loads(out)["report"]
    assert report["case"] == "atom" and report["regime"] == "interior"
    assert report["gamma_v"] == srpt.rate


def _stub_criterion(monkeypatch, budget, func):
    monkeypatch.setattr(queuedecay.validate, "CRITERIA",
                        ((1, "stub", budget, func),))


def _numerical_failure():
    raise NumericalFailure("stub diverged")


def test_validate_numerical_failure_exits_3(capsys, monkeypatch):
    _stub_criterion(monkeypatch, 1.0, _numerical_failure)
    code, out = _run(capsys, ["validate"])
    assert code == 3
    lines = out.splitlines()
    assert "FAIL" in lines[0] and "numerical failure: stub diverged" in lines[0]
    assert lines[1] == "passed 0/1"


def test_validate_criterion_over_its_budget_fails(capsys, monkeypatch):
    def slow():
        time.sleep(0.05)
        return True, "ok"

    _stub_criterion(monkeypatch, 0.01, slow)
    code, out = _run(capsys, ["validate"])
    assert code == 1
    lines = out.splitlines()
    assert "FAIL" in lines[0] and lines[0].endswith("ok; exceeded 0s budget")
    assert lines[1] == "passed 0/1"


class _ClosedStdout:
    # a pipe whose reader has gone: every write raises
    def __init__(self, fd):
        self.fd = fd
        self.raised = False

    def write(self, text):
        self.raised = True
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("command,expected", [("rates", 0), ("validate", 3)])
def test_closed_stdout_ends_quietly_with_the_commands_exit_code(
        capsys, monkeypatch, model_file, tmp_path, command, expected):
    _stub_criterion(monkeypatch, 1.0, _numerical_failure)
    argv = [command] + (["--model", model_file(MM1)] if command == "rates" else [])
    captured = sys.stdout
    with open(tmp_path / "stdout", "w") as target:
        closed = _ClosedStdout(target.fileno())
        monkeypatch.setattr(sys, "stdout", closed)
        code = main(argv)
        monkeypatch.setattr(sys, "stdout", captured)
    assert closed.raised and code == expected
    assert capsys.readouterr().err == ""
