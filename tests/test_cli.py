import csv
import datetime
import io
import json
import math
import pathlib

import jsonschema
import numpy as np
import pytest
from numpy.testing import assert_allclose

from fpsum.cli import _CHUNK, _csv_pieces, _json_pieces, main
from fpsum.distributions import NmlLaw, RngStream

SCHEMA_PATH = (
    pathlib.Path(__file__).parents[1]
    / "src"
    / "fpsum"
    / "schemas"
    / "fpsum_output.schema.json"
)
SCHEMA = json.loads(SCHEMA_PATH.read_text())


def run_json(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    assert code == 0, f"command failed: {argv}"
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, SCHEMA)
    return payload


def write_prices(tmp_path, prices, name="prices.csv"):
    path = tmp_path / name
    start = datetime.date(2020, 1, 1)
    rows = ["date,close"] + [
        f"{(start + datetime.timedelta(days=i)).isoformat()},{p}"
        for i, p in enumerate(prices)
    ]
    path.write_text("\n".join(rows) + "\n")
    return path


class TestReturns:
    def test_flat_prices_zero_return(self, tmp_path):
        path = write_prices(tmp_path, [100, 100])
        payload = run_json(["returns", str(path)], tmp_path)
        assert payload["values"] == [0.0]

    def test_log_return_definition(self, tmp_path):
        path = write_prices(tmp_path, [100, 110])
        payload = run_json(["returns", str(path)], tmp_path)
        assert_allclose(payload["values"][0], math.log(1.1), rtol=1e-12)

    def test_length_contract(self, tmp_path):
        rng = np.random.default_rng(0)
        prices = np.exp(np.cumsum(rng.normal(0, 0.01, 2227))) * 100
        path = write_prices(tmp_path, prices)
        payload = run_json(["returns", str(path)], tmp_path)
        assert len(payload["values"]) == 2226
        assert len(payload["dates"]) == 2226

    def test_nonpositive_price_reports_line(self, tmp_path, capsys):
        path = write_prices(tmp_path, [100, -3, 100])
        assert main(["returns", str(path)]) == 4
        assert "line 3" in capsys.readouterr().err

    def test_unparseable_row_reports_line(self, tmp_path, capsys):
        path = tmp_path / "prices.csv"
        path.write_text("date,close\n2020-01-01,100\n2020-01-02,oops\n")
        assert main(["returns", str(path)]) == 4
        assert "line 3" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["returns", "/nonexistent.csv"]) == 4

    def test_backwards_close_date_reports_line(self, tmp_path, capsys):
        # the second close is dated before the first: no return spans it
        path = tmp_path / "prices.csv"
        path.write_text("date,close\n2020-01-05,100\n2020-01-02,101\n2020-01-03,102\n")
        assert main(["returns", str(path)]) == 4
        assert "line 3" in capsys.readouterr().err

    def test_returns_csv_is_not_prices(self, tmp_path, capsys):
        path = tmp_path / "returns.csv"
        path.write_text("date,log_return\n2020-01-01,0.1\n2020-01-02,0.2\n")
        assert main(["returns", str(path)]) == 4
        assert "date,close" in capsys.readouterr().err

    def test_blank_rows_and_header_case(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text(" Date , CLOSE \n2020-01-01,100\n\n , \n2020-01-02,110\n")
        payload = run_json(["returns", str(path)], tmp_path)
        assert payload["dates"] == ["2020-01-02"]
        assert_allclose(payload["values"], [math.log(1.1)], rtol=1e-12)

    def test_csv_roundtrip(self, tmp_path):
        path = write_prices(tmp_path, [100, 105, 95])
        out = tmp_path / "returns.csv"
        assert main(["returns", str(path), "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "date,log_return"
        assert len(lines) == 3


class TestGrids:
    def test_density_normal_grid(self, tmp_path):
        payload = run_json(
            ["density", "--dist", "nml", "--kappa", "1", "--grid", "-4:4:0.01"],
            tmp_path,
        )
        x = np.array(payload["x"])
        f = np.array(payload["density"])
        ref = np.exp(-x * x / 2.0) / np.sqrt(2 * np.pi)
        assert np.max(np.abs(f - ref)) <= 1e-8

    def test_pmf_poisson_case(self, tmp_path):
        payload = run_json(
            ["pmf", "--dist", "fp", "--nu", "2", "--kappa", "1", "--max", "10"],
            tmp_path,
        )
        from scipy.special import gammaln

        n = np.array(payload["n"], dtype=float)
        ref = np.exp(n * np.log(2.0) - 2.0 - gammaln(n + 1.0))
        assert_allclose(payload["pmf"], ref, rtol=1e-12)

    def test_ml_eval_grid(self, tmp_path):
        payload = run_json(
            ["ml-eval", "--kappa", "1", "--grid", "-2:0:0.5"], tmp_path
        )
        assert_allclose(payload["value"], np.exp(payload["z"]), rtol=1e-12)

    def test_comp_pmf(self, tmp_path):
        payload = run_json(
            ["pmf", "--dist", "comp", "--lam", "3", "--eta", "1", "--max", "8"],
            tmp_path,
        )
        from scipy.special import gammaln

        n = np.array(payload["n"], dtype=float)
        ref = np.exp(n * np.log(3.0) - 3.0 - gammaln(n + 1.0))
        assert_allclose(payload["pmf"], ref, rtol=1e-10)

    def test_nml_density_far_grid(self, tmp_path):
        payload = run_json(
            ["density", "--dist", "nml", "--kappa", "0.5", "--grid", "-60:60:30"],
            tmp_path,
        )
        f = np.array(payload["density"])
        assert np.all(f > 0) and f[0] == f[-1] and f[1] == f[3]


class TestSample:
    def test_determinism_byte_identical(self, tmp_path):
        argv = ["sample", "--dist", "nml", "--kappa", "0.5", "--n", "200", "--seed", "7"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sample_kurtosis(self, tmp_path):
        payload = run_json(
            [
                "sample", "--dist", "nml", "--kappa", "0.5",
                "--n", "1000000", "--seed", "7",
            ],
            tmp_path,
        )
        values = np.array(payload["values"])
        centered = values - values.mean()
        kurt = np.mean(centered**4) / centered.var() ** 2 - 3.0
        assert abs(kurt - 1.7124) <= 0.05

    def test_fp_and_comp_and_ml(self, tmp_path):
        for argv in (
            ["sample", "--dist", "fp", "--nu", "2", "--kappa", "0.7", "--n", "50", "--seed", "1"],
            ["sample", "--dist", "comp", "--lam", "2", "--eta", "1.5", "--n", "50", "--seed", "1"],
            ["sample", "--dist", "ml", "--kappa", "0.4", "--n", "50", "--seed", "1"],
        ):
            payload = run_json(argv, tmp_path)
            assert len(payload["values"]) == 50


class TestFit:
    def test_demo_fit_recovers_parameters(self, tmp_path):
        payload = run_json(["fit", "--demo"], tmp_path)
        nml = next(m for m in payload["models"] if m["model"] == "nml")
        # generating values, with bands at one table-RMSE for n ~ 2000
        sigma = math.sqrt(0.00018)
        assert abs(nml["estimates"]["kappa"] - 0.49123) <= 0.115
        assert abs(nml["estimates"]["mu"] - 0.00021) <= 0.024 * sigma
        assert abs(nml["estimates"]["sigma2"] - 0.00018) <= 0.045 * 0.00018 / 1.0
        assert payload["n"] == 2226

    def test_demo_contains_all_models(self, tmp_path):
        payload = run_json(["fit", "--demo"], tmp_path)
        models = {m["model"] for m in payload["models"]}
        assert models == {"nml", "normal", "laplace"}
        laplace = next(m for m in payload["models"] if m["model"] == "laplace")
        assert laplace["fitted_cumulants"]["excess_kurtosis"] == 3.0
        assert_allclose(
            laplace["fitted_cumulants"]["variance"],
            2.0 * laplace["estimates"]["sigma2"],
            rtol=1e-12,
        )
        normal = next(m for m in payload["models"] if m["model"] == "normal")
        assert normal["fitted_cumulants"]["excess_kurtosis"] == 0.0

    def test_synthetic_large_sample_recovery(self, tmp_path):
        values = NmlLaw(0.0002, 0.0002, 0.5).sample(RngStream(1234), 100_000)
        start = datetime.date(2000, 1, 1)
        rows = ["date,log_return"] + [
            f"{(start + datetime.timedelta(days=i)).isoformat()},{float(v)!r}"
            for i, v in enumerate(values)
        ]
        path = tmp_path / "returns.csv"
        path.write_text("\n".join(rows) + "\n")
        payload = run_json(["fit", str(path), "--models", "nml"], tmp_path)
        nml = payload["models"][0]
        assert abs(nml["estimates"]["kappa"] - 0.5) <= 0.05

    def test_clamped_low_fit_reports_null_se(self, tmp_path, capsys):
        values = 1000.0 + 0.01 * NmlLaw(0.0, 1.0, 0.5).sample(RngStream(1), 2000)
        start = datetime.date(2000, 1, 1)
        rows = ["date,log_return"] + [
            f"{(start + datetime.timedelta(days=i)).isoformat()},{float(v)!r}"
            for i, v in enumerate(values)
        ]
        path = tmp_path / "returns.csv"
        path.write_text("\n".join(rows) + "\n")
        payload = run_json(["fit", str(path), "--models", "nml"], tmp_path)
        nml = payload["models"][0]
        assert nml["boundary_flag"] == "clamped_low"
        assert nml["se"]["sigma2"] is None and nml["se"]["kappa"] is None
        assert nml["se"]["mu"] > 0
        row = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("nml"))
        assert row.count("(") == 1

    def test_constant_series_is_numeric_failure(self, tmp_path, capsys):
        path = write_prices(tmp_path, [100] * 30)
        out = tmp_path / "r.csv"
        assert main(["returns", str(path), "--format", "csv", "--out", str(out)]) == 0
        assert main(["fit", str(out)]) == 3

    @pytest.mark.parametrize("rows,line", [
        (["2020-01-01,0.1", "2020-01-02,0.2", "2020-01-02,0.3"], 4),
        (["2020-01-01,0.1", "2020-01-02,nan", "2020-01-03,0.3"], 3),
        (["2020-01-01,0.1", "2020-01-02,0.2", "2020-01-03,-inf"], 4),
        (["2020-01-01,inf", "2020-01-02,0.2"], 2),
    ], ids=["repeated-date", "nan", "minus-inf", "inf"])
    def test_bad_return_row_reports_line(self, tmp_path, capsys, rows, line):
        path = tmp_path / "returns.csv"
        path.write_text("\n".join(["date,log_return"] + rows) + "\n")
        assert main(["fit", str(path)]) == 4
        assert f"line {line}:" in capsys.readouterr().err

    def test_too_short_series(self, tmp_path):
        path = write_prices(tmp_path, [100, 101, 102])
        assert main(["fit", str(path)]) == 4

    def test_fit_accepts_prices_csv(self, tmp_path):
        rng = np.random.default_rng(3)
        prices = np.exp(np.cumsum(rng.normal(0, 0.01, 400))) * 50
        path = write_prices(tmp_path, prices)
        payload = run_json(["fit", str(path)], tmp_path)
        assert payload["n"] == 399

    def test_text_table_on_stdout(self, tmp_path, capsys):
        out = tmp_path / "fit.json"
        assert main(["fit", "--demo", "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "model" in captured and "empirical" in captured


class TestMcTablesAndConverge:
    def test_mc_tables_output(self, tmp_path):
        payload = run_json(
            [
                "mc-tables", "--kappa", "0.8", "--n", "200",
                "--reps", "40", "--seed", "1",
            ],
            tmp_path,
        )
        cell = payload["cells"][0]
        assert cell["n"] == 200
        assert 0 <= cell["clamped_low"] + cell["clamped_high"] < 40
        assert 0.4 < cell["mean_est"]["kappa"] <= 1.0

    def test_mc_tables_csv(self, tmp_path):
        out = tmp_path / "cells.csv"
        code = main(
            [
                "mc-tables", "--kappa", "0.8", "--n", "200", "--reps", "10",
                "--seed", "1", "--format", "csv", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("kappa,n,replications")
        assert len(lines) == 2

    def test_mc_tables_matches_published_mean(self, tmp_path):
        payload = run_json(
            [
                "mc-tables", "--kappa", "0.8", "--n", "2000",
                "--reps", "500", "--seed", "1",
            ],
            tmp_path,
        )
        cell = payload["cells"][0]
        assert abs(cell["mean_est"]["kappa"] - 0.8032) <= 0.02

    def test_converge_determinism(self, tmp_path):
        argv = [
            "converge", "comp", "--eta", "1.5", "--grid", "10,100",
            "--draws", "5000", "--seed", "9",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_converge_poisson_case(self, tmp_path):
        payload = run_json(
            [
                "converge", "comp", "--eta", "1", "--grid", "100,10000",
                "--draws", "40000", "--seed", "2",
            ],
            tmp_path,
        )
        assert payload["ks"][-1] <= 0.01

    def test_converge_fp(self, tmp_path):
        payload = run_json(
            [
                "converge", "fp", "--kappa", "0.5", "--grid", "10,100,1000,10000",
                "--draws", "50000", "--seed", "3",
            ],
            tmp_path,
        )
        assert payload["ks"][-1] <= 0.02
        assert payload["ks"][0] > payload["ks"][-1]


class TestExitCodes:
    def test_usage_error_bad_kappa(self):
        assert main(["ml-eval", "--kappa", "2.0", "--z", "-1"]) == 2

    @pytest.mark.parametrize("draws", ["0", "-3"])
    def test_usage_error_no_draws(self, draws, capsys):
        argv = ["converge", "fp", "--kappa", "0.5", "--grid", "10,100", "--draws", draws]
        assert main(argv) == 2
        assert "draws" in capsys.readouterr().err

    def test_usage_error_too_many_reps(self, capsys):
        # more replications would make a cell's streams overlap the next cell's
        argv = ["mc-tables", "--kappa", "0.5", "--n", "200", "--reps", "1000004"]
        assert main(argv) == 2
        assert "replications" in capsys.readouterr().err

    def test_usage_error_bad_grid(self):
        assert main(["density", "--dist", "nml", "--kappa", "0.5", "--grid", "oops"]) == 2

    def test_argparse_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["density", "--dist", "nope", "--kappa", "0.5", "--grid", "0:1:0.1"])
        assert excinfo.value.code == 2

    def test_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n1,2\n")
        assert main(["returns", str(bad)]) == 4


class TestUnusedFlags:
    """A flag that the command does not use is a usage error naming it."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["sample", "--dist", "comp", "--lam", "3", "--eta", "1.5", "--kappa", "0.5",
              "--n", "5"], "--kappa"),
            (["density", "--dist", "ml", "--kappa", "0.5", "--mu", "5", "--grid", "1:2:1"],
             "--mu"),
            (["pmf", "--dist", "fp", "--nu", "2", "--kappa", "0.7", "--lam", "2", "--max", "5"],
             "--lam"),
            (["converge", "comp", "--eta", "2", "--kappa", "0.5", "--grid", "10",
              "--draws", "100"], "--kappa"),
            (["converge", "fp", "--kappa", "0.5", "--eta", "2", "--grid", "10",
              "--draws", "100"], "--eta"),
        ],
        ids=["sample-comp-kappa", "density-ml-mu", "pmf-fp-lam", "converge-comp-kappa",
             "converge-fp-eta"],
    )
    def test_flag_of_another_law(self, argv, flag, capsys):
        assert main(argv) == 2
        assert flag in capsys.readouterr().err

    def test_ml_eval_takes_no_seed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["ml-eval", "--kappa", "0.5", "--z", "-1", "--seed", "3"])
        assert excinfo.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_fit_takes_seed_only_with_demo(self, tmp_path, capsys):
        path = write_prices(tmp_path, [100, 101, 103, 102, 104, 105, 103])
        assert main(["fit", str(path), "--seed", "3"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_fit_takes_a_csv_or_demo_not_both(self, tmp_path, capsys):
        path = write_prices(tmp_path, [100, 101, 103, 102, 104, 105, 103])
        assert main(["fit", str(path), "--demo"]) == 2
        assert "--demo" in capsys.readouterr().err

    def test_missing_law_flag(self, capsys):
        assert main(["pmf", "--dist", "comp", "--lam", "3", "--max", "5"]) == 2
        assert "--eta" in capsys.readouterr().err


# The report writers stream arrays; these are the whole-report writers they
# replaced, which every command's output must still match byte for byte.


def _reference_clean(obj):
    if isinstance(obj, dict):
        return {k: _reference_clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_clean(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return None
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_reference_clean(v) for v in obj.tolist()]
    return obj


def _reference_json(payload):
    return json.dumps(_reference_clean(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _reference_csv(payload, columns):
    def fmt(v):
        if isinstance(v, float):
            return "" if math.isnan(v) else repr(v)
        return v

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([header for _, header in columns])
    lists = [payload[k].tolist() if isinstance(payload[k], np.ndarray) else payload[k]
             for k, _ in columns]
    for row in zip(*lists):
        writer.writerow([fmt(v) for v in row])
    return buf.getvalue()


_NAMES = ("mu", "sigma2", "kappa")
_GROUPS = ("mean_est", "rmse", "se_empirical", "se_theoretical")


def _reference_record_csv(payload):
    """The row-by-row writer of the record reports, mc_tables and fit_report."""
    def fmt(v):
        if v is None:
            return ""
        if isinstance(v, (float, np.floating)):
            return "" if math.isnan(v) else repr(float(v))
        return v

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if payload["kind"] == "mc_tables":
        counts = ["n", "replications", "clamped_low", "clamped_high"]
        writer.writerow(["kappa"] + counts + [f"{g}_{p}" for g in _GROUPS for p in _NAMES])
        for cell in payload["cells"]:
            writer.writerow([cell["kappa"]] + [cell[k] for k in counts]
                            + [fmt(cell[g][p]) for g in _GROUPS for p in _NAMES])
    else:
        writer.writerow(["model", "parameter", "estimate", "se"])
        for m in payload["models"]:
            for p, v in m["estimates"].items():
                writer.writerow([m["model"], p, fmt(v), fmt(m["se"].get(p))])
    return buf.getvalue()


def _mc_cell(kappa, n, seed):
    rng = np.random.default_rng(seed)
    stats = {g: dict(zip(_NAMES, rng.standard_normal(3) * 10.0 ** rng.integers(-9, 9, 3)))
             for g in _GROUPS}
    return {"kappa": kappa, "n": n, "replications": np.int64(500), "clamped_low": 17,
            "clamped_high": 0, **stats}


def _fit_model(model, estimates, se):
    return {"model": model, "estimates": dict(zip(_NAMES, estimates)), "se": dict(zip(_NAMES, se))}


def _odd_floats(n, seed):
    values = np.random.default_rng(seed).standard_normal(n) * 10.0 ** (np.arange(n) % 40 - 20)
    values[::7] = np.nan
    values[1::11] = np.inf
    values[2::13] = -np.inf
    values[3] = -0.0
    values[4] = 5e-324
    return values


class TestReportWriters:
    def test_json_arrays_at_every_depth(self):
        payload = {
            "schema": "fpsum-output/v1",
            "kind": "density_grid",
            "x": _odd_floats(40, 1),
            "density": np.array([]),
            "parameters": {"kappa": 0.5, "grid": {"n": np.arange(5), "empty": []}},
            "nested": [{"deep": [np.arange(3.0), np.array([], dtype=int)]}, np.float64(np.nan)],
            "label": "a \"quoted\" name",
        }
        assert "".join(_json_pieces(payload)) == _reference_json(payload)

    def test_json_across_chunks(self):
        payload = {"kind": "samples", "values": _odd_floats(2 * _CHUNK + 3, 2), "seed": 9}
        assert "".join(_json_pieces(payload)) == _reference_json(payload)

    @pytest.mark.parametrize(
        "payload, columns",
        [
            ({"kind": "density_grid", "x": np.linspace(-1.0, 1.0, 41), "density": _odd_floats(41, 3)},
             (("x", "x"), ("density", "density"))),
            ({"kind": "pmf_grid", "n": np.arange(12), "pmf": _odd_floats(12, 4)},
             (("n", "n"), ("pmf", "pmf"))),
            ({"kind": "samples", "values": _odd_floats(2 * _CHUNK + 3, 5)}, (("values", "value"),)),
            ({"kind": "samples", "values": np.arange(-3, 4)}, (("values", "value"),)),
            ({"kind": "samples", "values": np.array([])}, (("values", "value"),)),
            ({"kind": "returns_series", "dates": ["2020-01-02", "2020-01-03", "2020-01-06"],
              "values": np.array([0.01, np.nan, -0.02])},
             (("dates", "date"), ("values", "log_return"))),
        ],
    )
    def test_csv(self, payload, columns):
        assert "".join(_csv_pieces(payload)) == _reference_csv(payload, columns)

    def test_mc_tables_csv(self):
        cells = [_mc_cell(0.2, 200, 1), _mc_cell(0.8, 2000, 2), _mc_cell(0.05, 500, 3)]
        cells[1]["se_theoretical"]["kappa"] = np.nan
        cells[2]["mean_est"]["kappa"] = np.float64(np.nan)
        cells[2]["rmse"]["sigma2"] = np.inf
        payload = {"kind": "mc_tables", "config": {}, "cells": cells}
        text = "".join(_csv_pieces(payload))
        assert text == _reference_record_csv(payload)
        assert [len(line.split(",")) for line in text.splitlines()] == [17] * 4

    def test_fit_report_csv(self):
        models = [
            # a clamped_low nml fit: no se for sigma2 and kappa
            _fit_model("nml", (np.float64(1e-4), 2.5e-5, 1e-06), (np.float64(3e-6), None, None)),
            _fit_model("normal", (1e-4, 1.8e-4, 1.0), (2.1e-6, 5.4e-6, None)),
            _fit_model("laplace", (-0.0, 9e-5, 0.0), (2e-6, np.inf, None)),
        ]
        payload = {"kind": "fit_report", "n": 2226, "empirical": {}, "models": models}
        text = "".join(_csv_pieces(payload))
        assert text == _reference_record_csv(payload)
        assert text.splitlines()[3] == "nml,kappa,1e-06,"

    def test_lone_nan_field_is_quoted(self):
        text = "".join(_csv_pieces({"kind": "samples", "values": np.array([1.5, np.nan])}))
        assert text == 'value\n1.5\n""\n'


# Families of doubles on which a shortest-digit kernel goes wrong first: the
# ends of the positional range, powers of two (asymmetric rounding interval),
# near-ties and short decimals.  Each carries NaN and +-inf, and the writers
# take them in chunks of 4096 values, so every family crosses chunk bounds.


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _both_signs(values):
    return np.concatenate([values, -values])


def _float_family(name):
    rng = np.random.default_rng(2018)
    n = 20_000
    if name.startswith("nml"):
        values = NmlLaw(0.0, 1.0, float(name[3:])).sample(RngStream(7), n)
    elif name == "bit_patterns":
        values = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    elif name == "log_uniform":
        values = np.exp(rng.uniform(np.log(1e-5), np.log(1e17), n)) * rng.choice([-1.0, 1.0], n)
    elif name == "ulps_of_powers_of_ten":
        tens = [float(f"1e{e}") for e in range(-5, 17)]
        values = _both_signs((_bits(tens)[:, None] + np.arange(-1000, 1001)).ravel().view(float))
    elif name == "powers_of_two":
        twos = np.ldexp(1.0, np.arange(-1074, 1024))
        values = _both_signs((_bits(twos)[:, None] + np.arange(-1, 2)).ravel().view(float))
    elif name == "short_decimals":
        u = rng.uniform(-1000.0, 1000.0, n)
        parts = np.array_split(u, 12)
        values = np.concatenate([np.round(part, k) for k, part in enumerate(parts)])
    elif name == "integers":
        big = np.arange(2**53 - 2000, 2**53 + 3)
        values = np.concatenate(
            [big, -big, rng.integers(-(2**53) - 2, 2**53 + 3, n), np.arange(-3000, 3000)]
        ).astype(np.float64)
    elif name == "halfway":
        values = np.ldexp(rng.integers(0, 2**52, n) + 0.5, rng.integers(-70, 20, n))
    elif name == "float32":
        values = (rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 16, n)).astype(np.float32)
    elif name == "extremes":
        tiny = rng.integers(1, 2**52, 3000).view(np.float64)  # subnormals
        edges = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-4, 1e15, 1e16]
        edges = (_bits(edges)[:, None] + np.arange(-2, 3)).ravel().view(np.float64)
        values = _both_signs(np.concatenate([tiny, edges[edges >= 0], [np.inf, np.nan]]))
    values = np.array(values, dtype=np.float64)
    values[7::1009] = np.nan
    values[11::1013] = np.inf
    values[13::1019] = -np.inf
    return values


@pytest.mark.parametrize(
    "name",
    ["nml0.05", "nml0.5", "nml0.95", "bit_patterns", "log_uniform", "ulps_of_powers_of_ten",
     "powers_of_two", "short_decimals", "integers", "halfway", "float32", "extremes"],
)
def test_float_text_is_repr(name, monkeypatch):
    monkeypatch.setattr("fpsum.cli._CHUNK", 1 << 12)
    values = _float_family(name)
    payload = {"kind": "samples", "values": values, "seed": 1}
    assert "".join(_json_pieces(payload)) == _reference_json(payload)
    columns = (("values", "value"),)
    assert "".join(_csv_pieces(payload)) == _reference_csv(payload, columns)
    payload = {"kind": "density_grid", "x": values[::-1].copy(), "density": values}
    columns = (("x", "x"), ("density", "density"))
    assert "".join(_csv_pieces(payload)) == _reference_csv(payload, columns)
