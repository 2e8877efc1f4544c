import dataclasses
import functools
import json
import logging
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import zicopula
from zicopula.cli import (
    build_parser,
    load_model,
    main,
    model_from_dict,
    model_to_dict,
    read_data_csv,
    save_model,
    write_data_csv,
)
from zicopula.baselines import (
    GmmModel,
    KdeModel,
    _validation_split,
    fit_gmm,
    fit_kde_multi,
    gmm_loglik_rows,
    kde_loglik_rows,
)
from zicopula.errors import DataError
from zicopula.rgd_copula import DEFAULT_MC_SAMPLES
from zicopula.synth_bench import make_ground_truth, sample_dataset
from zicopula.zibt_model import ZibtModel, fit_zibt, zibt_loglik_rows
from zicopula.zicar_model import ZicarModel, fit_zicar, zicar_loglik_rows


def _toy_zibt_csv(path, n=60, zeros=(12, 30)):
    rng = np.random.Generator(np.random.PCG64(0))
    data = rng.lognormal(size=(n, 2))
    for j, k in enumerate(zeros):
        data[rng.permutation(n)[:k], j] = 0.0
    write_data_csv(path, data)
    return data


def test_fit_zibt_toy_q_matches_zero_counts(tmp_path, capsys):
    data_path = tmp_path / "train.csv"
    data = _toy_zibt_csv(data_path)
    model_path = tmp_path / "model.json"
    rc = main(["fit", "--data", str(data_path), "--model", "zibt",
               "--out", str(model_path)])
    assert rc == 0
    payload = json.loads(model_path.read_text())
    assert payload["kind"] == "zibt"
    for j, m in enumerate(payload["marginals"]):
        assert m["q"] == pytest.approx((data[:, j] == 0).mean())
    out = capsys.readouterr().out
    assert "q:" in out and "sigma condition number:" in out
    assert "rescale factors:" in out


def test_refit_same_seed_byte_identical(tmp_path):
    data_path = tmp_path / "train.csv"
    _toy_zibt_csv(data_path)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for out in (first, second):
        assert main(["fit", "--data", str(data_path), "--model", "zibt",
                     "--out", str(out), "--seed", "4"]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_zicar_rbm_model_file_round_trips(tmp_path):
    truth = make_ground_truth("zicar", 3, seed=1)
    data = sample_dataset(truth, 300, seed=2)
    model = fit_zicar(data, mask_kind="rbm", seed=0)
    path = tmp_path / "m.json"
    save_model(path, model)
    payload = json.loads(path.read_text())
    assert payload["mask"]["type"] == "rbm"
    assert math.isfinite(payload["mask"]["log_z"])
    # load_model may hand back a model it parsed before; model_from_dict
    # parses the text here.
    for loaded in (load_model(path), model_from_dict(json.loads(path.read_text()))):
        np.testing.assert_array_equal(
            zicar_loglik_rows(loaded, data), zicar_loglik_rows(model, data)
        )


def test_zicar_rbm_files_do_not_depend_on_log_level(tmp_path, caplog):
    data_path = tmp_path / "train.csv"
    write_data_csv(data_path, sample_dataset(make_ground_truth("zicar", 3, seed=1), 300, seed=2))
    outs = {}
    for level in (logging.DEBUG, logging.WARNING):
        caplog.clear()
        model_path, score_path = tmp_path / f"m{level}.json", tmp_path / f"s{level}.csv"
        with caplog.at_level(level, logger="zicopula"):
            assert main(["fit", "--model", "zicar", "--mask", "rbm", "--data", str(data_path),
                         "--out", str(model_path)]) == 0
            assert main(["score", "--model", str(model_path), "--data", str(data_path),
                         "--out", str(score_path)]) == 0
        fit_logged = any("exact RBM fit" in r.getMessage() for r in caplog.records)
        assert fit_logged == (level == logging.DEBUG)
        outs[level] = (model_path.read_bytes(), score_path.read_bytes())
    assert outs[logging.DEBUG] == outs[logging.WARNING]


@pytest.mark.parametrize("kind", ["gmm", "kde"])
def test_tuning_with_no_finite_held_out_score_is_a_data_error(tmp_path, capsys, kind):
    # One held-out row far past the training rows scores -inf under every
    # candidate, although every candidate fits.
    data = np.random.Generator(np.random.PCG64(0)).random((100, 2))
    data[_validation_split(100, 0)[1][0]] = 1e200
    data_path, model_path = tmp_path / "train.csv", tmp_path / "m.json"
    write_data_csv(data_path, data)
    capsys.readouterr()
    assert main(["fit", "--model", kind, "--seed", "0", "--data", str(data_path),
                 "--out", str(model_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERR:DATA no ") and "above -inf" in err[0]
    assert not model_path.exists()


def test_rbm_mask_is_refused_past_twelve_columns(tmp_path, capsys):
    data_path, model_path = tmp_path / "train.csv", tmp_path / "m.json"
    write_data_csv(data_path, sample_dataset(make_ground_truth("zicar", 13, seed=0), 200, seed=1))
    capsys.readouterr()
    assert main(["fit", "--model", "zicar", "--data", str(data_path),
                 "--out", str(model_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERR:DATA ") and "--mask bernoulli" in err[0]
    assert not model_path.exists()
    assert main(["fit", "--model", "zicar", "--mask", "bernoulli", "--data", str(data_path),
                 "--out", str(model_path)]) == 0
    assert json.loads(model_path.read_text())["mask"]["type"] == "bernoulli"


def test_corrupted_log_z_rejected(tmp_path):
    truth = make_ground_truth("zicar", 2, seed=3)
    data = sample_dataset(truth, 200, seed=1)
    model = fit_zicar(data, mask_kind="rbm", seed=0)
    path = tmp_path / "m.json"
    save_model(path, model)
    payload = json.loads(path.read_text())
    payload["mask"]["log_z"] += 0.25
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="log_Z"):
        load_model(path)


def test_zibt_model_round_trip_scores_identically(tmp_path):
    truth = make_ground_truth("zibt", 3, seed=4)
    data = sample_dataset(truth, 400, seed=5)
    model = fit_zibt(data, likelihood_mode="exact")
    path = tmp_path / "m.json"
    save_model(path, model)
    for loaded in (load_model(path), model_from_dict(json.loads(path.read_text()))):
        assert loaded.likelihood_mode == "exact"
        np.testing.assert_array_equal(
            zibt_loglik_rows(loaded, data[:50], base_seed=2),
            zibt_loglik_rows(model, data[:50], base_seed=2),
        )


def test_indented_model_file_scores_as_the_compact_one(tmp_path):
    # Model files were once written with indent=2; those still load, and
    # score bit-identically to the compact file of the same model.
    data_path = tmp_path / "train.csv"
    data = _toy_zibt_csv(data_path)
    compact = tmp_path / "compact.json"
    assert main(["fit", "--data", str(data_path), "--model", "zibt",
                 "--out", str(compact)]) == 0
    text = compact.read_text()
    assert text.endswith("}\n") and "\n" not in text[:-1]
    payload = json.loads(text)
    indented = tmp_path / "indented.json"
    with open(indented, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    assert json.loads(indented.read_text()) == payload
    scores = []
    for path in (compact, indented):
        out = tmp_path / f"{path.stem}_scores.csv"
        assert main(["score", "--model", str(path), "--data", str(data_path),
                     "--out", str(out)]) == 0
        scores.append(out.read_bytes())
    assert scores[0] == scores[1]
    np.testing.assert_array_equal(
        zibt_loglik_rows(load_model(indented), data),
        zibt_loglik_rows(load_model(compact), data),
    )


def test_score_zero_row_is_mask_term_under_identity_sigma(tmp_path):
    import dataclasses

    data_path = tmp_path / "train.csv"
    data = _toy_zibt_csv(data_path)
    model = fit_zibt(data)
    model = dataclasses.replace(model, sigma=np.eye(2))
    model_path = tmp_path / "m.json"
    save_model(model_path, model)
    score_path = tmp_path / "rows.csv"
    write_data_csv(score_path, np.zeros((1, 2)))
    out_path = tmp_path / "nll.csv"
    rc = main(["score", "--model", str(model_path), "--data", str(score_path),
               "--out", str(out_path)])
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "nll"
    expected = -sum(math.log(m.q) for m in model.marginals)
    assert float(lines[1]) == pytest.approx(expected, abs=1e-12)


def test_score_rerun_byte_identical(tmp_path):
    data_path = tmp_path / "train.csv"
    _toy_zibt_csv(data_path)
    model_path = tmp_path / "m.json"
    main(["fit", "--data", str(data_path), "--model", "zibt",
          "--likelihood", "exact", "--out", str(model_path)])
    outs = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        rc = main(["score", "--model", str(model_path), "--data", str(data_path),
                   "--out", str(out), "--seed", "6"])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# load_model keeps the last model text it parsed and the model built from it


@functools.cache
def _reuse_case(name: str) -> tuple:
    """(fitted model, 80 rows to score) for one model kind at D = 3."""
    family = "zibt" if name.startswith("zibt") else "zicar"
    truth = make_ground_truth(family, 3, seed=7)
    train, rows = sample_dataset(truth, 300, seed=8), sample_dataset(truth, 80, seed=9)
    if name == "zibt-exact":
        return fit_zibt(train, likelihood_mode="exact"), rows
    if name.startswith("zicar"):
        return fit_zicar(train, mask_kind=name.split("-")[1], seed=0), rows
    if name == "gmm":
        return fit_gmm(train, 2, seed=0), rows
    return fit_kde_multi(train), rows


_LOGLIK = {
    ZibtModel: lambda model, rows: zibt_loglik_rows(model, rows, base_seed=3),
    ZicarModel: zicar_loglik_rows,
    GmmModel: gmm_loglik_rows,
    KdeModel: kde_loglik_rows,
}


def _score_bytes(model, rows) -> bytes:
    return _LOGLIK[type(model)](model, rows).tobytes()


def _saved(tmp_path, name: str, model):
    path = tmp_path / f"{name}.json"
    save_model(path, model)
    return path


def _score_with(model_path, data_path, out_path) -> bytes:
    assert main(["score", "--model", str(model_path), "--data", str(data_path),
                 "--out", str(out_path)]) == 0
    return out_path.read_bytes()


@pytest.mark.parametrize("name", ["zibt-exact", "zicar-rbm", "gmm", "kde"])
def test_load_model_reuses_the_model_of_the_same_text(tmp_path, name):
    model, rows = _reuse_case(name)
    path = _saved(tmp_path, name, model)
    loaded = load_model(path)
    first = _score_bytes(loaded, rows)  # builds the lazily built state
    assert load_model(path) is loaded
    for m in getattr(loaded, "marginals", ()):
        assert vars(m)["_grid"] is not None
    fresh = model_from_dict(json.loads(path.read_text()))
    assert fresh is not loaded
    assert _score_bytes(loaded, rows) == _score_bytes(fresh, rows) == first


def test_load_model_parses_changed_text_again(tmp_path):
    model, rows = _reuse_case("zibt-exact")
    path = _saved(tmp_path, "m", model)
    first = load_model(path)
    save_model(path, dataclasses.replace(model, likelihood_mode="approx"))
    second = load_model(path)
    assert second is not first and second.likelihood_mode == "approx"
    fresh = model_from_dict(json.loads(path.read_text()))
    assert _score_bytes(second, rows) == _score_bytes(fresh, rows)
    assert _score_bytes(second, rows) != _score_bytes(first, rows)
    save_model(path, dataclasses.replace(model, likelihood_mode="approx"))
    assert load_model(path) is second


def test_scores_of_a_model_survive_another_model_loaded_in_between(tmp_path):
    rows = _reuse_case("zibt-exact")[1]
    data = tmp_path / "rows.csv"
    write_data_csv(data, rows)
    paths = {name: _saved(tmp_path, name, _reuse_case(name)[0])
             for name in ("zibt-exact", "zicar-rbm")}
    outs = [_score_with(paths[name], data, tmp_path / f"s{i}.csv")
            for i, name in enumerate(("zibt-exact", "zicar-rbm", "zibt-exact"))]
    assert outs[0] == outs[2] != outs[1]


def test_a_bad_model_file_leaves_the_last_model_in_place(tmp_path, capsys):
    model, rows = _reuse_case("zibt-exact")
    good, data, bad = _saved(tmp_path, "good", model), tmp_path / "rows.csv", tmp_path / "bad.json"
    write_data_csv(data, rows)
    loaded = load_model(good)
    payload = json.loads(good.read_text())
    # Text that is not JSON, then JSON that is not a valid model.
    for text in ('{"kind": "zibt", ', json.dumps({**payload, "sigma": [[1.0]]})):
        bad.write_text(text)
        capsys.readouterr()
        assert main(["score", "--model", str(bad), "--data", str(data),
                     "--out", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err.startswith("ERR:DATA ")
        assert load_model(good) is loaded


def _arrays(obj):
    """Every ndarray reachable from obj through tuples, dict values and
    attributes, cached properties included."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _arrays(item)
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value)
    elif hasattr(obj, "__dict__"):
        for value in vars(obj).values():
            yield from _arrays(value)


@pytest.mark.parametrize("name", ["zibt-exact", "zicar-bernoulli", "zicar-rbm", "gmm", "kde"])
def test_loaded_models_are_read_only(tmp_path, name):
    model, rows = _reuse_case(name)
    loaded = load_model(_saved(tmp_path, name, model))
    before = _score_bytes(loaded, rows)  # builds the grids, the copula and the table
    arrays = list(_arrays(loaded))
    assert arrays and not any(a.flags.writeable for a in arrays)
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
    assert _score_bytes(loaded, rows) == before


def test_halves_scored_with_the_reused_model_join_to_the_whole(tmp_path):
    model, rows = _reuse_case("zibt-exact")
    path = _saved(tmp_path, "m", model)
    loaded = load_model(path)
    lines = {}
    for name, part in (("whole", rows), ("head", rows[:37]), ("tail", rows[37:])):
        data = tmp_path / f"{name}.csv"
        write_data_csv(data, part)
        out = _score_with(path, data, tmp_path / f"{name}.nll")
        lines[name] = out.decode().splitlines(keepends=True)
    assert load_model(path) is loaded
    assert lines["head"] + lines["tail"][1:] == lines["whole"]


def test_parser_built_once_and_flags_do_not_carry_over(tmp_path):
    # Rows with three zeros make the exact score depend on --mc-samples; a
    # flag given to one call must not become the next call's default.
    truth = make_ground_truth("zibt", 3, seed=4)
    train_path, rows_path = tmp_path / "train.csv", tmp_path / "rows.csv"
    write_data_csv(train_path, sample_dataset(truth, 400, seed=5))
    write_data_csv(rows_path, np.vstack([np.zeros((2, 3)), sample_dataset(truth, 8, seed=6)]))
    model_path = tmp_path / "m.json"
    assert main(["fit", "--data", str(train_path), "--model", "zibt",
                 "--likelihood", "exact", "--out", str(model_path)]) == 0
    outs = {}
    for name, flags in (("seven", ["--mc-samples", "7"]), ("bare", []),
                        ("default", ["--mc-samples", str(DEFAULT_MC_SAMPLES)])):
        out = tmp_path / f"{name}.csv"
        assert main(["score", "--model", str(model_path), "--data", str(rows_path),
                     "--out", str(out), *flags]) == 0
        outs[name] = out.read_bytes()
    assert build_parser() is build_parser()
    assert outs["bare"] == outs["default"]
    assert outs["bare"] != outs["seven"]


def test_read_data_csv_errors(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,x2\n1.0,2.0\n3.0,oops\n")
    with pytest.raises(DataError, match="line 3.*'oops'"):
        read_data_csv(path)
    path.write_text("x1,x2\n1.0,2.0\n3.0\n")
    with pytest.raises(DataError, match="line 3.*expected 2 fields"):
        read_data_csv(path)
    path.write_text("1.0,2.0\n3.0,4.0\n")
    with pytest.raises(DataError, match="header"):
        read_data_csv(path)
    path.write_text("")
    with pytest.raises(DataError, match="empty"):
        read_data_csv(path)
    path.write_text("x1\n")
    with pytest.raises(DataError, match="no data rows"):
        read_data_csv(path)
    path.write_text("x1,x2\n1.0,nan\n")
    with pytest.raises(DataError, match="non-finite"):
        read_data_csv(path)


def test_negative_values_need_clip_flag(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1\n-1.5\n")
    with pytest.raises(DataError, match="line 2.*negative"):
        read_data_csv(path)
    np.testing.assert_array_equal(
        read_data_csv(path, clip_negatives=True), [[0.0]]
    )


def test_csv_records_end_only_where_csv_ends_them(tmp_path, capsys):
    # A form feed or a line separator inside a line does not end a record:
    # the line is one record of three fields, as the error scan reads it.
    data, out = tmp_path / "d.csv", tmp_path / "m.json"
    for sep in ("\x0c", "\u2028"):
        data.write_text(f"x1,x2\n1,2\n3,4{sep}5,6\n7,8\n", encoding="utf-8", newline="")
        assert main(["fit", "--data", str(data), "--model", "gmm", "--k", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "ERR:DATA line 3: expected 2 fields, got 3\n"
        assert not out.exists()
    # CRLF and lone-CR files read as LF ones.
    for end in ("\r\n", "\r", "\n"):
        data.write_text(end.join(["x1,x2", "1,2", "", "3,4", ""]), newline="")
        np.testing.assert_array_equal(read_data_csv(data), [[1.0, 2.0], [3.0, 4.0]])


def test_data_csv_round_trip_exact(tmp_path):
    rng = np.random.Generator(np.random.PCG64(8))
    matrix = rng.lognormal(size=(20, 3))
    matrix[matrix < 1.0] = 0.0
    path = tmp_path / "d.csv"
    write_data_csv(path, matrix)
    np.testing.assert_array_equal(read_data_csv(path), matrix)


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["fit", "--model", "zibt", "--out", "m.json"]) == 1
    err = capsys.readouterr().err
    assert "ERR:USAGE" in err

    # --mc-samples below 1 is refused before any work, also where no orthant
    # probability would be drawn (an approx model, rows with few zeros).
    data_path = tmp_path / "train.csv"
    _toy_zibt_csv(data_path)
    model_path = tmp_path / "model.json"
    assert main(["fit", "--data", str(data_path), "--model", "zibt",
                 "--out", str(model_path)]) == 0
    scores, results = tmp_path / "scores.csv", tmp_path / "results.csv"
    for n in ("0", "-5"):
        assert main(["score", "--model", str(model_path), "--data", str(data_path),
                     "--out", str(scores), "--mc-samples", n]) == 1
        assert main(["bench", "--kind", "zibt", "--dim", "5", "--mc-samples", n,
                     "--out", str(results)]) == 1
        assert "ERR:USAGE --mc-samples must be at least 1" in capsys.readouterr().err
    # Bad --seeds and --variants lists and a --jobs count below 1 are refused
    # before any data is drawn.
    for flags, message in (
        (["--seeds", "a,b"], "--seeds must be comma-separated integers"),
        (["--seeds", ","], "--seeds must name at least one seed"),
        (["--seeds", "0,-1"], "--seeds must be nonnegative integers, got -1"),
        (["--seeds", "0,0"], "--seeds names 0 more than once"),
        (["--variants", "kde,kde"], "--variants names kde more than once"),
        (["--variants", ","], "--variants must name at least one model tag"),
        (["--jobs", "0"], "--jobs must be at least 1"),
        (["--jobs", "-2"], "--jobs must be at least 1"),
    ):
        assert main(["bench", "--kind", "zibt", "--dim", "2", *flags,
                     "--out", str(results)]) == 1
        assert capsys.readouterr().err == f"ERR:USAGE {message}\n"
    assert not scores.exists() and not results.exists()

    # A mixture needs at least one component, from the flag or a config file.
    config = tmp_path / "k0.json"
    config.write_text(json.dumps({"k": 0}))
    for flags in (["--k", "0"], ["--config", str(config)]):
        assert main(["fit", "--data", str(data_path), "--model", "gmm",
                     "--out", str(model_path), *flags]) == 1
        assert "ERR:USAGE k must be at least 1, got 0" in capsys.readouterr().err

    # The rescale pass always runs; it has no off switch.
    unwritten = tmp_path / "unwritten.json"
    assert main(["fit", "--data", str(data_path), "--model", "zibt",
                 "--out", str(unwritten), "--no-rescale"]) == 1
    assert capsys.readouterr().err.startswith("ERR:USAGE")
    assert not unwritten.exists()


def test_data_errors_exit_two(tmp_path, capsys):
    missing = tmp_path / "none.json"
    out = tmp_path / "s.csv"
    rc = main(["score", "--model", str(missing), "--data", str(missing),
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("ERR:DATA")

    data_path = tmp_path / "train.csv"
    _toy_zibt_csv(data_path)
    config = tmp_path / "list.json"
    config.write_text("[1]")
    fit = ["fit", "--data", str(data_path), "--model", "zibt"]
    assert main([*fit, "--out", str(tmp_path / "m.json"), "--config", str(config)]) == 2
    assert "ERR:DATA config file must contain a JSON object" in capsys.readouterr().err
    # The model file cannot be opened for writing: the OSError arm of main.
    assert main([*fit, "--out", str(tmp_path / "no_dir" / "m.json")]) == 2
    assert capsys.readouterr().err.startswith("ERR:DATA")


def test_fit_baselines_tune_without_their_flags(tmp_path):
    # The README's example: gmm without --k and kde without
    # --bandwidth-mult tune the parameter on a validation split.
    data_path = tmp_path / "train.csv"
    _toy_zibt_csv(data_path)
    for kind in ("gmm", "kde"):
        model_path = tmp_path / f"{kind}.json"
        scores = tmp_path / f"{kind}_scores.csv"
        assert main(["fit", "--data", str(data_path), "--model", kind,
                     "--out", str(model_path)]) == 0
        assert main(["score", "--model", str(model_path), "--data", str(data_path),
                     "--out", str(scores)]) == 0
        assert len(scores.read_text().splitlines()) == 61


def test_model_from_dict_rejects_bad_payloads(tmp_path, capsys):
    with pytest.raises(DataError, match="schema_version"):
        model_from_dict({"kind": "zibt"})
    with pytest.raises(DataError, match="unknown model kind"):
        model_from_dict({"schema_version": 2, "kind": "tree"})
    with pytest.raises(DataError, match="unknown model kind"):
        model_from_dict({"schema_version": 2, "kind": ["zibt"]})
    with pytest.raises(DataError, match="missing field"):
        model_from_dict({"schema_version": 2, "kind": "kde", "centers": [[1.0]]})
    with pytest.raises(DataError, match="JSON object"):
        model_from_dict([1, 2, 3])

    data_path = tmp_path / "train.csv"
    data = _toy_zibt_csv(data_path)
    good = model_to_dict(fit_zibt(data))
    zicar = model_to_dict(fit_zicar(data, mask_kind="bernoulli"))
    first, second = good["marginals"]

    def first_marginal(**fields):
        return [{**first, **fields}, second]

    bad_fields = {
        "marginals": (5, [1, 2, 3])
        + tuple(first_marginal(kde_centers=c) for c in ([], None, [[1.0]], [0.0], [-1.0, 2.0]))
        + tuple(first_marginal(bandwidth=h) for h in (0.0, -1.0, math.inf))
        + (first_marginal(rescale_b=math.inf),),
        "sigma": ("abc",),
        "likelihood_mode": ("fast",),
    }
    for field, values in bad_fields.items():
        for value in values:
            with pytest.raises(DataError, match="malformed zibt model file"):
                model_from_dict({**good, field: value})

    # A non-finite number (JSON null or NaN) is refused, not scored as NaN.
    def first_replaced(values, bad):
        if not isinstance(values, list):
            return bad
        return [first_replaced(values[0], bad), *values[1:]]

    gmm = model_to_dict(fit_gmm(data, 2))
    kde = model_to_dict(fit_kde_multi(data))
    non_finite = [
        ({**payload, field: first_replaced(payload[field], bad)}, payload["kind"])
        for payload, fields in (
            (gmm, ("weights", "means", "covariances")),
            (kde, ("centers", "bandwidths")),
            (good, ("sigma",)),
            (zicar, ("sigma",)),
        )
        for field in fields
        for bad in (None, math.nan)
    ]
    for payload, kind in non_finite:
        with pytest.raises(DataError, match=f"malformed {kind} model file"):
            model_from_dict(payload)

    # Through the command line a malformed file is a data error (exit 2); a
    # well-formed sigma that is not positive definite is a numeric one
    # (exit 3). Python's json reads Infinity, so an infinite marginal field
    # must be refused as malformed rather than scored.
    model_path = tmp_path / "m.json"
    cases = (
        ({**good, "marginals": 5}, 2, "ERR:DATA"),
        ({**good, "marginals": first_marginal(bandwidth=math.inf)}, 2,
         "ERR:DATA malformed zibt model file"),
        ({**good, "marginals": first_marginal(rescale_b=math.inf)}, 2,
         "ERR:DATA malformed zibt model file"),
        (non_finite[0][0], 2, "ERR:DATA malformed gmm model file"),
        ({**good, "sigma": [[1.0, 2.0], [2.0, 1.0]]}, 3, "ERR:NUMERIC"),
    )
    for payload, rc, prefix in cases:
        model_path.write_text(json.dumps(payload))
        assert main(["score", "--model", str(model_path), "--data", str(data_path),
                     "--out", str(tmp_path / "s.csv")]) == rc
        assert capsys.readouterr().err.startswith(prefix)


def test_schema_2_files_refuse_stray_keys(tmp_path, capsys):
    data_path = tmp_path / "train.csv"
    data = _toy_zibt_csv(data_path)
    zibt = model_to_dict(fit_zibt(data))
    zicar = model_to_dict(fit_zicar(data, mask_kind="rbm"))
    # The copies of derived numbers that schema 1 also stored are not read,
    # so they are refused, whether or not they equal what they copy.
    copies = {
        **zibt,
        "thresholds": [5.0, 5.0],
        "rescales": [m["rescale_b"] for m in zibt["marginals"]],
        "marginals": [{**m, "a": 5.0} for m in zibt["marginals"]],
    }
    with pytest.raises(DataError, match="malformed zibt model file: unexpected keys"):
        model_from_dict(copies)

    def marginal_extra(payload, **fields):
        first, *rest = payload["marginals"]
        return {**payload, "marginals": [{**first, "extra": 1, **fields}, *rest]}

    cases = [
        ({**zicar, "mask": {**zicar["mask"], "extra": 1}}, "zicar"),
        ({**model_to_dict(fit_gmm(data, 2)), "extra": 1}, "gmm"),
        ({**model_to_dict(fit_kde_multi(data)), "extra": 1}, "kde"),
    ]
    # A stray key is named before a bad field beside it.
    for payload, kind in ((zibt, "zibt"), (zicar, "zicar")):
        cases += [
            ({**payload, "extra": 1}, kind),
            (marginal_extra(payload), kind),
            ({**payload, "extra": 1, "sigma": "abc"}, kind),
            (marginal_extra(payload, bandwidth=-1.0), kind),
        ]
    for payload, kind in cases:
        with pytest.raises(DataError, match=f"malformed {kind} model file: unexpected keys: extra"):
            model_from_dict(payload)
    model_path = tmp_path / "m.json"
    model_path.write_text(json.dumps(copies))
    assert main(["score", "--model", str(model_path), "--data", str(data_path),
                 "--out", str(tmp_path / "s.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERR:DATA malformed zibt model file: unexpected keys: rescales, thresholds")


def test_model_files_write_their_documented_keys(tmp_path):
    data = _toy_zibt_csv(tmp_path / "train.csv")
    marginal = {"q", "kde_centers", "bandwidth", "rescale_b"}
    cases = (
        (fit_zibt(data), {"marginals", "sigma", "likelihood_mode"}, None),
        (fit_zicar(data, mask_kind="bernoulli"), {"marginals", "mask", "sigma"}, {"type", "q"}),
        (
            fit_zicar(data, mask_kind="rbm"),
            {"marginals", "mask", "sigma"},
            {"type", "weights", "visible_bias", "hidden_bias", "log_z"},
        ),
        (fit_gmm(data, 2), {"weights", "means", "covariances"}, None),
        (fit_kde_multi(data), {"centers", "bandwidths"}, None),
    )
    for model, keys, mask_keys in cases:
        payload = model_to_dict(model)
        assert payload["schema_version"] == 2
        assert set(payload) == {"schema_version", "kind"} | keys
        for m in payload.get("marginals", ()):
            assert set(m) == marginal
        if mask_keys is not None:
            assert set(payload["mask"]) == mask_keys


def test_unsupported_schema_versions_are_refused(tmp_path, capsys):
    # This build reads schema 2 only: schema 1 (written before schema 2,
    # with copies of derived numbers) is refused like any other version.
    data_path = tmp_path / "train.csv"
    data = _toy_zibt_csv(data_path)
    models = (fit_zibt(data), fit_zicar(data, mask_kind="rbm"), fit_gmm(data, 2),
              fit_kde_multi(data))
    model_path = tmp_path / "m.json"
    for model, version in [(model, 1) for model in models] + [(models[0], 3)]:
        model_path.write_text(json.dumps({**model_to_dict(model), "schema_version": version}))
        assert main(["score", "--model", str(model_path), "--data", str(data_path),
                     "--out", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err == (
            f"ERR:DATA unsupported schema_version: {version}; this build reads 2\n"
        )


def test_schema_1_files_refuse_keys_they_never_wrote(tmp_path):
    # A schema-1 file with a key schema 1 never wrote, beside its copies of
    # derived numbers or a bad field, is refused for its version before any
    # key is read, so the refusal names the version and not the key.
    data = _toy_zibt_csv(tmp_path / "train.csv")
    for model in (fit_zibt(data), fit_zicar(data, mask_kind="rbm")):
        new = model_to_dict(model)
        old = {**new, "schema_version": 1,
               "rescales": [m["rescale_b"] for m in new["marginals"]],
               "marginals": [{**m, "a": 5.0} for m in new["marginals"]]}
        first, *rest = old["marginals"]
        cases = [
            {**old, "extra": 1},
            {**old, "marginals": [{**first, "extra": 1}, *rest]},
            {**old, "extra": 1, "sigma": "abc"},
            {**old, "marginals": [{**first, "extra": 1, "bandwidth": -1.0}, *rest]},
        ]
        if "mask" in old:
            cases.append({**old, "mask": {**old["mask"], "extra": 1}})
        for payload in cases:
            with pytest.raises(DataError, match=r"^unsupported schema_version: 1; this build reads 2$"):
                model_from_dict(payload)
    for model in (fit_gmm(data, 2), fit_kde_multi(data)):
        payload = {**model_to_dict(model), "schema_version": 1, "extra": 1}
        with pytest.raises(DataError, match=r"^unsupported schema_version: 1; this build reads 2$"):
            model_from_dict(payload)


def test_extreme_rows_score_without_nan_or_warnings(tmp_path):
    # Rows up to the top of the float range, under the suite's
    # error::RuntimeWarning filter: every overflow stays where inf is the
    # right value, so each kind exits 0; gmm and kde score a row whose
    # density underflows inf, never nan, and zibt and zicar keep their scores.
    data = tmp_path / "d.csv"
    assert main(["synth", "--kind", "zibt", "--dim", "3", "--rows", "300", "--seed", "0",
                 "--out", str(data)]) == 0
    rows = tmp_path / "rows.csv"
    values = ("1e100", "1e152", "1e155", "1e200", "1e300", "1e308")
    rows.write_text("x1,x2,x3\n" + "".join(f"{v},1,1\n{v},{v},{v}\n" for v in values))
    flags = {"zibt": ["--likelihood", "exact"], "zicar": [], "gmm": ["--k", "2"],
             "kde": ["--bandwidth-mult", "1"]}
    scores = {}
    for kind, extra in flags.items():
        model, out = tmp_path / f"{kind}.json", tmp_path / f"{kind}.csv"
        assert main(["fit", "--data", str(data), "--model", kind, "--out", str(model),
                     *extra]) == 0
        assert main(["score", "--model", str(model), "--data", str(rows),
                     "--out", str(out)]) == 0
        scores[kind] = np.loadtxt(out, skiprows=1)
        assert scores[kind].shape == (12,) and not np.isnan(scores[kind]).any()
    # Rows 9 and 11, counted from 0, are 1e300 and 1e308 in every column.
    assert scores["zibt"][9] == scores["zibt"][11] == 2044.4805181208537
    assert scores["zicar"][9] == scores["zicar"][11] == 2037.3450230466171
    for kind in ("gmm", "kde"):
        assert np.isfinite(scores[kind][:4]).all()
        assert np.isposinf(scores[kind][4:]).all()


def test_config_precedence(tmp_path, capsys):
    data_path = tmp_path / "train.csv"
    _toy_zibt_csv(data_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "data": str(data_path),
        "model": "gmm",
        "k": 1,
        "out": str(tmp_path / "from_cfg.json"),
    }))
    assert main(["fit", "--config", str(cfg)]) == 0
    assert json.loads((tmp_path / "from_cfg.json").read_text())["kind"] == "gmm"
    assert main(["fit", "--config", str(cfg), "--model", "kde",
                 "--bandwidth-mult", "1.0",
                 "--out", str(tmp_path / "flag.json")]) == 0
    assert json.loads((tmp_path / "flag.json").read_text())["kind"] == "kde"
    for unknown in ({"modle": "gmm"}, {"no_rescale": True}):
        cfg.write_text(json.dumps(unknown))
        assert main(["fit", "--config", str(cfg), "--data", str(data_path),
                     "--model", "gmm", "--k", "1",
                     "--out", str(tmp_path / "x.json")]) == 2
        assert f"config has unknown keys: {next(iter(unknown))}" in capsys.readouterr().err



def test_config_values_are_checked_as_their_flags(tmp_path, capsys):
    data_path = tmp_path / "train.csv"
    _toy_zibt_csv(data_path)
    raw = tmp_path / "raw.csv"
    _write_raw_credit(raw, n=10)
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    fit = ["fit", "--data", str(data_path), "--model", "gmm", "--k", "1", "--out", str(out)]
    ingest = ["ingest-credit", "--raw", str(raw), "--out-train", str(out),
              "--out-test", str(tmp_path / "test.csv")]
    refused = (
        (ingest, {"small": "false"}, "expected true or false"),
        (fit, {"no_mle": "false"}, "expected true or false"),
        (fit, {"clip_negatives": "no"}, "expected true or false"),
        (fit, {"clip_negatives": 1}, "expected true or false"),
        (fit, {"n_hidden": True}, "expected an integer"),
        (fit, {"n_hidden": 2.5}, "expected an integer"),
        (fit, {"bandwidth_scale": "1.0"}, "expected a number"),
        (fit, {"mask": "tree"}, "expected one of bernoulli, rbm"),
        (fit, {"seed": "3"}, "expected an integer"),
        (["synth", "--kind", "zibt", "--rows", "10", "--out", str(out)], {"dim": None},
         "expected an integer"),
        (["synth", "--dim", "2", "--kind", "zibt", "--rows", "10"], {"out": 5},
         "expected a string"),
    )
    for argv, config, message in refused:
        cfg.write_text(json.dumps(config))
        assert main([*argv, "--config", str(cfg)]) == 1
        option = next(iter(config))
        assert f"ERR:USAGE config {option}: {message}" in capsys.readouterr().err
        assert not out.exists()

    # Accepted values act as the flag does; null keeps a null default.
    cfg.write_text(json.dumps({"small": True}))
    assert main([*ingest, "--config", str(cfg)]) == 0
    assert out.read_text().splitlines()[0] == "PAY_AMT1,BILL_AMT1"
    by_flag, by_config = tmp_path / "flag.json", tmp_path / "config.json"
    assert main(["fit", "--data", str(data_path), "--model", "zibt", "--out", str(by_flag),
                 "--bandwidth-scale", "2", "--no-mle"]) == 0
    cfg.write_text(json.dumps({"bandwidth_scale": 2, "no_mle": True, "n_hidden": None}))
    assert main(["fit", "--data", str(data_path), "--model", "zibt", "--out", str(by_config),
                 "--config", str(cfg)]) == 0
    assert by_flag.read_bytes() == by_config.read_bytes()


def test_bandwidth_multipliers_must_be_positive_and_finite(tmp_path, capsys):
    # NaN, infinity and 0 are refused before any fit (NaN fails no `<= 0`
    # check), from a flag or a config key alike.
    data_path = tmp_path / "train.csv"
    _toy_zibt_csv(data_path)
    cfg, out = tmp_path / "cfg.json", tmp_path / "m.json"
    cases = (("bandwidth_mult", "kde", "bandwidth multiplier"),
             ("bandwidth_scale", "zibt", "bandwidth_scale"),
             ("bandwidth_scale", "zicar", "bandwidth_scale"))
    for option, kind, name in cases:
        fit = ["fit", "--data", str(data_path), "--model", kind, "--out", str(out)]
        for value in (math.nan, math.inf, 0.0):
            cfg.write_text(json.dumps({option: value}))
            flag = "--" + option.replace("_", "-")
            for flags in ([flag, str(value)], ["--config", str(cfg)]):
                assert main([*fit, *flags]) == 1
                assert capsys.readouterr().err == (
                    f"ERR:USAGE {name} must be positive and finite, got {value!r}\n"
                )
                assert not out.exists()


def test_one_column_zibt_fits_without_the_pairwise_mle(tmp_path):
    # np.corrcoef of one column is 0-d; the plain correlation is [[1.0]].
    data, out = tmp_path / "d.csv", tmp_path / "m.json"
    assert main(["synth", "--kind", "zibt", "--dim", "1", "--rows", "300", "--seed", "0",
                 "--out", str(data)]) == 0
    assert main(["fit", "--data", str(data), "--model", "zibt", "--no-mle",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["sigma"] == [[1.0]]


def test_input_that_is_not_utf8_is_a_data_error(tmp_path, capsys):
    data_path = tmp_path / "train.csv"
    _toy_zibt_csv(data_path)
    model_path = tmp_path / "model.json"
    assert main(["fit", "--data", str(data_path), "--model", "kde", "--bandwidth-mult", "1",
                 "--out", str(model_path)]) == 0
    binary = tmp_path / "binary"
    binary.write_bytes(b"x1,x2\n\xff\xfe\x00\x80,1\n")
    out = tmp_path / "out.csv"
    for argv in (
        ["fit", "--data", str(binary), "--model", "kde", "--out", str(out)],
        ["score", "--model", str(binary), "--data", str(data_path), "--out", str(out)],
        ["score", "--model", str(model_path), "--data", str(data_path), "--out", str(out),
         "--config", str(binary)],
    ):
        assert main(argv) == 2
        assert f"ERR:DATA {binary} is not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

def test_env_seed_used_as_default(tmp_path, monkeypatch):
    # The seed is the flag, else the config file, else $ZICOPULA_SEED, else 0.
    monkeypatch.delenv("ZICOPULA_SEED", raising=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 2}))

    def draw(*flags):
        out = tmp_path / "d.csv"
        assert main(["synth", "--kind", "zibt", "--dim", "2", "--rows", "80",
                     "--out", str(out), *flags]) == 0
        return out.read_bytes()

    by_seed = {s: draw("--seed", str(s)) for s in range(4)}
    assert len(set(by_seed.values())) == 4
    monkeypatch.setenv("ZICOPULA_SEED", "1")
    assert draw("--config", str(cfg), "--seed", "3") == by_seed[3]
    assert draw("--config", str(cfg)) == by_seed[2]
    assert draw() == by_seed[1]
    monkeypatch.delenv("ZICOPULA_SEED")
    assert draw() == by_seed[0]
    monkeypatch.setenv("ZICOPULA_SEED", "not-a-number")
    assert main(["synth", "--kind", "zibt", "--dim", "2", "--rows", "80",
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_negative_seeds_are_refused_naming_their_source(tmp_path, monkeypatch, capsys):
    # Each source of a seed: a flag, a config value and $ZICOPULA_SEED, and
    # synth's --sample-seed; kinds that never hand the seed to numpy included.
    monkeypatch.delenv("ZICOPULA_SEED", raising=False)
    data_path = tmp_path / "train.csv"
    _toy_zibt_csv(data_path)
    model_path = tmp_path / "model.json"
    assert main(["fit", "--data", str(data_path), "--model", "kde",
                 "--out", str(model_path)]) == 0
    capsys.readouterr()
    config = tmp_path / "seed.json"
    config.write_text(json.dumps({"seed": -4}))
    out = tmp_path / "out"
    synth = ["synth", "--kind", "zibt", "--dim", "2", "--rows", "80", "--out", str(out)]
    fit = ["fit", "--data", str(data_path), "--out", str(out)]
    cases = [
        ([*fit, "--model", "gmm", "--k", "2", "--seed", "-1"], None, 1,
         "ERR:USAGE --seed must be a nonnegative integer, got -1"),
        ([*fit, "--model", "zibt", "--seed", "-1"], None, 1,
         "ERR:USAGE --seed must be a nonnegative integer, got -1"),
        ([*fit, "--model", "kde", "--config", str(config)], None, 1,
         "ERR:USAGE --seed must be a nonnegative integer, got -4"),
        (["score", "--model", str(model_path), "--data", str(data_path), "--out", str(out),
          "--seed", "-5"], None, 1, "ERR:USAGE --seed must be a nonnegative integer, got -5"),
        ([*synth, "--sample-seed", "-2"], None, 1,
         "ERR:USAGE --sample-seed must be a nonnegative integer, got -2"),
        (synth, "-3", 2, "ERR:DATA ZICOPULA_SEED must be a nonnegative integer, got '-3'"),
    ]
    for argv, env, code, line in cases:
        if env is not None:
            monkeypatch.setenv("ZICOPULA_SEED", env)
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.err == line + "\n" and captured.out == ""
        assert not out.exists()


def test_synth_writes_sigma(tmp_path):
    out = tmp_path / "d.csv"
    sigma_out = tmp_path / "sigma.csv"
    rc = main(["synth", "--kind", "zicar", "--dim", "3", "--rows", "100",
               "--seed", "2", "--out", str(out), "--sigma-out", str(sigma_out)])
    assert rc == 0
    raw = np.array(
        [[float(v) for v in line.split(",")]
         for line in sigma_out.read_text().splitlines()[1:]]
    )
    assert raw.shape == (3, 3)
    np.testing.assert_allclose(np.diag(raw), 1.0, atol=1e-12)


def test_bench_command_appends_and_summarizes(tmp_path, capsys):
    out = tmp_path / "res.csv"
    argv = ["bench", "--kind", "zicar", "--dim", "2", "--preset", "desk",
            "--seeds", "0", "--variants", "gmm", "--out", str(out)]
    assert main(argv) == 0
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "model_tag,kind,D,seed,auc,sigma_l2_error"
    assert len(lines) == 3
    assert lines[1] == lines[2]
    assert "mean AUC" in capsys.readouterr().out



def test_bench_jobs_two_writes_the_serial_bytes(tmp_path):
    outs = {}
    for jobs in ("1", "2"):
        outs[jobs] = tmp_path / f"jobs{jobs}.csv"
        assert main(["bench", "--kind", "zibt", "--dim", "2", "--seeds", "0,1",
                     "--variants", "kde,zibt-approx", "--jobs", jobs,
                     "--out", str(outs[jobs])]) == 0
    assert outs["1"].read_bytes() == outs["2"].read_bytes()
    header, *lines = outs["2"].read_text().splitlines()
    assert header == "model_tag,kind,D,seed,auc,sigma_l2_error"
    assert [line.split(",")[:4] for line in lines] == [
        [tag, "zibt", "2", seed] for seed in "01" for tag in ("kde", "zibt-approx")
    ]
    for line in lines:
        tag, *_, auc, err = line.split(",")
        assert repr(float(auc)) == auc and 0.0 <= float(auc) <= 1.0
        assert (err == "nan") == (tag == "kde")


def test_bench_refuses_rbm_masks_past_twelve_columns(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["bench", "--kind", "zibt", "--dim", "13", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "ERR:DATA zicar-full: the RBM mask fit takes at most 12 columns, got 13; "
        "leave these out of --variants"
    ]
    assert not out.exists()


def test_bench_rejects_unknown_variant(tmp_path, capsys):
    for tag in ("mystery", "zibt-no-rescale"):
        rc = main(["bench", "--kind", "zibt", "--dim", "2",
                   "--variants", tag, "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        assert "unknown variant" in capsys.readouterr().err


def _write_raw_credit(path, n=30, negatives=True):
    import csv

    rng = np.random.Generator(np.random.PCG64(3))
    cols = (["ID", "LIMIT_BAL", "SEX", "EDUCATION", "MARRIAGE", "AGE"]
            + [f"PAY_AMT{i}" for i in range(1, 7)]
            + [f"BILL_AMT{i}" for i in range(1, 7)])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for i in range(n):
            pay = [0.0 if rng.random() < 0.4 else round(float(rng.lognormal(7, 1)), 2)
                   for _ in range(6)]
            bill = [round(float(rng.normal(2000, 3000)), 2) for _ in range(6)]
            writer.writerow([i + 1, 20000, 1, 2, 1, 30] + pay + bill)
    return cols


def test_ingest_credit_full_and_small(tmp_path):
    raw = tmp_path / "raw.csv"
    _write_raw_credit(raw)
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    rc = main(["ingest-credit", "--raw", str(raw), "--out-train", str(train),
               "--out-test", str(test), "--seed", "0"])
    assert rc == 0
    train_lines = train.read_text().splitlines()
    test_lines = test.read_text().splitlines()
    assert train_lines[0].split(",") == (
        [f"PAY_AMT{i}" for i in range(1, 7)] + [f"BILL_AMT{i}" for i in range(1, 7)]
    )
    assert len(train_lines) - 1 == 21
    assert len(test_lines) - 1 == 9
    values = np.array([[float(v) for v in line.split(",")]
                       for line in train_lines[1:] + test_lines[1:]])
    assert (values >= 0).all()

    small_train = tmp_path / "small_train.csv"
    small_test = tmp_path / "small_test.csv"
    rc = main(["ingest-credit", "--raw", str(raw), "--small",
               "--out-train", str(small_train), "--out-test", str(small_test)])
    assert rc == 0
    assert small_train.read_text().splitlines()[0] == "PAY_AMT1,BILL_AMT1"


def test_ingest_credit_deterministic_split(tmp_path):
    raw = tmp_path / "raw.csv"
    _write_raw_credit(raw)
    outs = []
    for tag in ("a", "b"):
        train = tmp_path / f"train_{tag}.csv"
        test = tmp_path / f"test_{tag}.csv"
        assert main(["ingest-credit", "--raw", str(raw), "--seed", "5",
                     "--out-train", str(train), "--out-test", str(test)]) == 0
        outs.append(train.read_bytes() + test.read_bytes())
    assert outs[0] == outs[1]


def test_ingest_credit_refuses_non_finite_amounts(tmp_path, capsys):
    # nan would be clamped to an exact zero, a structural zero to the models;
    # inf would reach the training file. Both are data errors.
    raw = tmp_path / "raw.csv"
    cols = _write_raw_credit(raw, n=5)
    lines = raw.read_text().splitlines()
    bill = cols.index("BILL_AMT2")
    for cell in ("nan", "-nan", "inf"):
        fields = lines[3].split(",")
        fields[bill] = cell
        raw.write_text("\n".join(lines[:3] + [",".join(fields)] + lines[4:]) + "\n")
        train, test = tmp_path / "t.csv", tmp_path / "e.csv"
        assert main(["ingest-credit", "--raw", str(raw),
                     "--out-train", str(train), "--out-test", str(test)]) == 2
        assert "ERR:DATA line 4: non-finite value" in capsys.readouterr().err
        assert not train.exists() and not test.exists()



def test_ingest_credit_refuses_a_short_row(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    cols = _write_raw_credit(raw, n=5)
    with open(raw, "a") as fh:
        fh.write("4,1,2\n")
    train, test = tmp_path / "t.csv", tmp_path / "e.csv"
    assert main(["ingest-credit", "--raw", str(raw),
                 "--out-train", str(train), "--out-test", str(test)]) == 2
    assert f"ERR:DATA line 7: expected {len(cols)} fields, got 3" in capsys.readouterr().err
    assert not train.exists() and not test.exists()

def test_ingest_credit_missing_columns(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("A,B\n1,2\n")
    rc = main(["ingest-credit", "--raw", str(raw),
               "--out-train", str(tmp_path / "t.csv"),
               "--out-test", str(tmp_path / "e.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "missing columns" in err and "PAY_AMT1" in err


def test_python_dash_m_runs_the_command() -> None:
    # The package's own source directory first, whether or not it is installed.
    src = os.path.dirname(os.path.dirname(os.path.abspath(zicopula.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "zicopula.cli", *args],
            capture_output=True, text=True, env=env, timeout=120,
        )

    shown = run("--help")
    assert shown.returncode == 0
    assert shown.stdout.startswith("usage:")
    bad = run("no-such-command")
    assert bad.returncode != 0
    assert "invalid choice" in bad.stderr
