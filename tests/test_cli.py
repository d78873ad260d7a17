"""Command-line behavior, driven in process through cli.main."""

import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import dualpairs
from dualpairs import cli
from dualpairs.jsonio import matrix_from_obj, matrix_to_obj


def _matrix_obj(M):
    # the matrix format written here, not by matrix_to_obj, which refuses
    # the non-finite entries some test files must hold
    M = np.asarray(M)
    cplx = bool(np.iscomplexobj(M))
    data = [[[float(v.real), float(v.imag)] if cplx else float(v) for v in row] for row in M]
    return {"rows": M.shape[0], "cols": M.shape[1], "complex": cplx, "data": data}


def _write_instance(path, kind, n, m, **mats):
    obj = {"kind": kind, "n": n, "m": m}
    for key, M in mats.items():
        obj[key] = _matrix_obj(M)
    path.write_text(json.dumps(obj))
    return str(path)


def _run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# gen

def test_gen_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        code, _ = _run(["gen", "u", "3", "2", "--seed", "7",
                        "--out", str(out)], capsys)
        assert code == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_gen_fiber_partner_shares_level(tmp_path, capsys):
    base = tmp_path / "pairq"
    code, out = _run(["gen", "sp", "2", "2", "--seed", "3",
                      "--partner", "fiber-left", "--out", str(base)], capsys)
    assert code == 0
    assert str(base) + ".partner.json" in out
    from dualpairs import symplectic
    E = matrix_from_obj(json.loads((tmp_path / "pairq.json").read_text())["matrix"])
    E2 = matrix_from_obj(
        json.loads((tmp_path / "pairq.partner.json").read_text())["matrix"])
    np.testing.assert_allclose(symplectic.momentum_right(E),
                               symplectic.momentum_right(E2), atol=1e-12)


def test_gen_normal_form_partner_gl(tmp_path, capsys):
    base = tmp_path / "nf"
    code, _ = _run(["gen", "gl", "3", "2", "--seed", "11",
                    "--partner", "normal-form", "--out", str(base)], capsys)
    assert code == 0
    one = json.loads((tmp_path / "nf.json").read_text())
    two = json.loads((tmp_path / "nf.partner.json").read_text())
    for obj in (one, two):
        assert obj["kind"] == "general_linear"
    zr1 = matrix_from_obj(one["P"]).T @ matrix_from_obj(one["Q"])
    zr2 = matrix_from_obj(two["P"]).T @ matrix_from_obj(two["Q"])
    np.testing.assert_array_equal(zr1, zr2)


def test_gen_rejects_bad_dims(capsys):
    assert cli.main(["gen", "gl", "2", "3", "--seed", "0"]) == 2
    assert cli.main(["gen", "quaternionic", "2", "2"]) == 2


@pytest.mark.parametrize("argv", [["gen", "--pair", "u", "--n", "3", "--m", "2"],
                                  ["gen", "u", "3"]])
def test_gen_takes_pair_n_m_as_positionals_only(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# momentum

def test_momentum_zero_instance(tmp_path, capsys):
    f = _write_instance(tmp_path / "z.json", "unitary", 2, 2,
                        matrix=np.zeros((2, 2)))
    code, out = _run(["momentum", f, "--side", "left"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["algebra"] == "u"
    np.testing.assert_array_equal(matrix_from_obj(payload["value"]),
                                  np.zeros((2, 2)))
    assert payload["identity_residual"] <= 1e-15


def test_momentum_template_hand_value(tmp_path, capsys):
    D = np.zeros((4, 2))
    D[0, 0] = 2.0
    D[2, 1] = 2.0
    f = _write_instance(tmp_path / "d.json", "symplectic", 2, 2, matrix=D)
    code, out = _run(["momentum", f, "--side", "right"], capsys)
    assert code == 0
    value = matrix_from_obj(json.loads(out)["value"])
    np.testing.assert_allclose(value, [[0.0, -2.0], [2.0, 0.0]])


def test_momentum_gl_identity(tmp_path, capsys):
    f = _write_instance(tmp_path / "i.json", "general_linear", 2, 2,
                        Q=np.eye(2), P=np.eye(2))
    code, out = _run(["momentum", f, "--side", "left"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["algebra"] == "gl"
    np.testing.assert_array_equal(matrix_from_obj(payload["value"]), np.eye(2))


# ---------------------------------------------------------------------------
# witness

def test_witness_same_file(tmp_path, capsys):
    base = tmp_path / "w"
    _run(["gen", "u", "3", "2", "--seed", "9", "--out", str(base)], capsys)
    f = str(tmp_path / "w.json")
    code, out = _run(["witness", f, f, "--side", "left"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] <= 1e-10
    assert payload["defining_residual"] <= 1e-10


def test_witness_fiber_partner(tmp_path, capsys):
    base = tmp_path / "fib"
    _run(["gen", "sp", "2", "2", "--seed", "4",
          "--partner", "fiber-left", "--out", str(base)], capsys)
    code, out = _run(["witness", str(tmp_path / "fib.json"),
                      str(tmp_path / "fib.partner.json"),
                      "--side", "left"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] <= 1e-8
    assert payload["defining_residual"] <= 1e-8


def test_witness_level_mismatch_exit_code(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    _run(["gen", "u", "2", "2", "--seed", "1", "--out", str(a)], capsys)
    _run(["gen", "u", "2", "2", "--seed", "2", "--out", str(b)], capsys)
    assert cli.main(["witness", str(tmp_path / "a.json"),
                     str(tmp_path / "b.json"), "--side", "left"]) == 1


def test_witness_missing_file(tmp_path, capsys):
    f = _write_instance(tmp_path / "x.json", "unitary", 1, 1, matrix=np.eye(1))
    assert cli.main(["witness", f, str(tmp_path / "nope.json"),
                     "--side", "left"]) == 2


@pytest.mark.parametrize("argv,cause", [
    (["momentum", "{list}", "--side", "left"], "{list}: not an instance file"),
    (["orbit", "{kind}"], "{kind}: unknown kind 'quaternionic'"),
    (["witness", "{u32}", "{u22}", "--side", "left"],
     "the two instances have different dimensions"),
    (["suite", "--trials", "0", "--out", "{out}"], "trials must be at least 1"),
    (["suite", "--pair", "u", "--pair", "quaternionic", "--out", "{out}"],
     "unknown pair 'quaternionic'; use unitary, symplectic or gl"),
    (["witness", "{u22}", "{gl22}", "--side", "left"],
     "{gl22}: holds a general_linear instance, expected unitary"),
])
def test_malformed_input_exits_2_naming_the_cause(tmp_path, capsys, argv, cause):
    paths = {key: str(tmp_path / f"{key}.json") for key in ("list", "kind", "out")}
    Path(paths["list"]).write_text("[1, 2]")
    Path(paths["kind"]).write_text(json.dumps({"kind": "quaternionic", "n": 1, "m": 1}))
    paths["u32"] = _write_instance(tmp_path / "u32.json", "unitary", 3, 2, matrix=np.ones((3, 2)))
    paths["u22"] = _write_instance(tmp_path / "u22.json", "unitary", 2, 2, matrix=np.eye(2))
    paths["gl22"] = _write_instance(tmp_path / "gl22.json", "general_linear", 2, 2,
                                    Q=np.eye(2), P=np.eye(2))
    assert cli.main([a.format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {cause.format(**paths)}\n"
    assert not Path(paths["out"]).exists()


def test_junk_arguments_use_argparse_exit():
    with pytest.raises(SystemExit) as exc:
        cli.main(["witness", "--side", "upside-down", "a", "b"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["suite", "--config", "c.json"],
                                  ["momentum", "a.json", "--pair", "u", "--side", "left"],
                                  ["witness", "a.json", "b.json", "--pair", "u", "--side", "left"],
                                  ["orbit", "a.json", "--pair", "u"],
                                  ["suite", "--tol", "0"]])
def test_file_commands_and_suite_take_no_second_source(argv, capsys):
    # suite reads flags only, and each check's own threshold alone decides
    # its records; the file commands take their pair from the file
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "error: unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# orbit

def test_orbit_unitary_reads_singular_values(tmp_path, capsys):
    f = _write_instance(tmp_path / "s.json", "unitary", 2, 2,
                        matrix=np.diag([2.0, 1.0]))
    code, out = _run(["orbit", f], capsys)
    assert code == 0
    payload = json.loads(out)
    np.testing.assert_allclose(payload["label"]["sigmas"], [2.0, 1.0],
                               atol=1e-12)


def test_orbit_symplectic_template_label(tmp_path, capsys):
    D = np.zeros((4, 2))
    D[0, 0] = 2.0
    D[2, 1] = 2.0
    f = _write_instance(tmp_path / "d.json", "symplectic", 2, 2, matrix=D)
    code, out = _run(["orbit", f], capsys)
    assert code == 0
    label = json.loads(out)["label"]
    assert label["p"] == 1 and label["q"] == 0 and label["r"] == 1
    np.testing.assert_allclose(label["sigmas"], [2.0], atol=1e-12)


def test_orbit_prints_no_signed_zeros(tmp_path, capsys):
    # the normal forms are momenta of a sparse canonical point, whose zero
    # products can come out as -0.0 (the symplectic template's do) before
    # the + 0.0 that clears their sign
    for pair, n, m in (("u", 3, 5), ("sp", 4, 3), ("gl", 5, 3)):
        base = tmp_path / pair
        code, _ = _run(["gen", pair, str(n), str(m), "--seed", "2", "--partner", "normal-form",
                        "--out", str(base)], capsys)
        assert code == 0
        for name in (f"{pair}.json", f"{pair}.partner.json"):
            code, out = _run(["orbit", str(tmp_path / name)], capsys)
            assert code == 0
            assert "-0.0" not in out


def test_orbit_gl_echoes_canonical_forms(tmp_path, capsys):
    from dualpairs import general_linear as gl
    jd = gl.JordanData(blocks=((3.0, 1),), nilpotent=(2,), n=3, m=2)
    pt = gl.build_qp_from_jordan(jd)
    f = _write_instance(tmp_path / "jd.json", "general_linear", 3, 2,
                        Q=pt.Q, P=pt.P)
    code, out = _run(["orbit", f], capsys)
    assert code == 0
    payload = json.loads(out)
    zeta, xi = gl.jordan_correspond(jd)
    np.testing.assert_array_equal(
        matrix_from_obj(payload["normal_form_left"]), zeta)
    np.testing.assert_array_equal(
        matrix_from_obj(payload["normal_form_right"]), xi)


def test_orbit_gl_rank_deficient_rejected(tmp_path, capsys):
    f = _write_instance(tmp_path / "r.json", "general_linear", 2, 2,
                        Q=np.zeros((2, 2)), P=np.eye(2))
    assert cli.main(["orbit", f]) == 2


def test_orbit_gl_refuses_like_the_module_orbit(tmp_path, capsys):
    from dualpairs import general_linear as gl, pairs
    Q = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    P = [[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
    f = _write_instance(tmp_path / "q.json", "general_linear", 3, 2, Q=Q, P=P)
    assert cli.main(["orbit", f]) == 2
    inst = pairs.DualPairInstance("general_linear", 3, 2,
                                  gl.CotangentPoint(np.array(Q), np.array(P)))
    with pytest.raises(ValueError) as exc:
        inst.module.orbit(inst.point)
    assert capsys.readouterr().err == f"error: {exc.value}\n"


@pytest.mark.parametrize("key,value", [("n", None), ("n", 2.7), ("m", "2"),
                                       ("m", True), ("n", [2])])
def test_non_integer_dimensions_exit_2(tmp_path, capsys, key, value):
    f = _write_instance(tmp_path / "bad.json", "unitary", 2, 2, matrix=np.eye(2))
    obj = json.loads(Path(f).read_text())
    obj[key] = value
    Path(f).write_text(json.dumps(obj))
    for argv in (["momentum", f, "--side", "left"], ["orbit", f],
                 ["witness", f, f, "--side", "left"]):
        assert cli.main(argv) == 2
        assert f"{key} must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("kind,field", [("unitary", "n"), ("unitary", "matrix"),
                                        ("general_linear", "P")])
def test_missing_instance_field_exits_2_naming_it(tmp_path, capsys, kind, field):
    mats = {"matrix": np.eye(2)} if kind == "unitary" else {"Q": np.eye(2), "P": np.eye(2)}
    f = _write_instance(tmp_path / "bad.json", kind, 2, 2, **mats)
    obj = json.loads(Path(f).read_text())
    del obj[field]
    Path(f).write_text(json.dumps(obj))
    for argv in (["momentum", f, "--side", "left"], ["orbit", f],
                 ["witness", f, f, "--side", "left"]):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {f}: missing field '{field}'\n"


@pytest.mark.parametrize("kind,n,m", [("unitary", 17, 1), ("general_linear", 2, 0)])
def test_instance_dimensions_outside_the_cli_range_exit_2(tmp_path, capsys, kind, n, m):
    # the dimension rule of gen holds for instance files too
    mats = ({"matrix": np.ones((n, m), dtype=complex)} if kind == "unitary"
            else {"Q": np.ones((n, m)), "P": np.ones((n, m))})
    f = _write_instance(tmp_path / "big.json", kind, n, m, **mats)
    for argv in (["momentum", f, "--side", "left"], ["orbit", f],
                 ["witness", f, f, "--side", "left"]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: dimensions must lie in 1..16\n"


def test_integral_float_dimensions_are_read(tmp_path, capsys):
    f = _write_instance(tmp_path / "ok.json", "unitary", 2.0, 2, matrix=np.eye(2))
    assert cli.main(["momentum", f, "--side", "left"]) == 0


# ---------------------------------------------------------------------------
# suite

def test_suite_single_pair_green_and_deterministic(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        code, text = _run(["suite", "--pair", "u", "--trials", "2",
                           "--seed", "5", "--out", str(out)], capsys)
        assert code == 0
        assert "checks passed" in text
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["summary"]["failed"] == 0
    assert report["summary"]["total"] > 0
    assert report["config"]["pairs"] == ["unitary"]


@pytest.mark.parametrize("scale,failed", [(1.0, 0), (2.0, 2)])
def test_suite_fails_exactly_the_records_over_their_threshold(scale, failed, tmp_path,
                                                               capsys, monkeypatch):
    # one unitary check's runner returns scale times its threshold: its
    # records pass at the threshold and fail over it, and no others fail
    rows = cli._build_registry()
    idx = next(i for i, row in enumerate(rows) if row[1] == "unitary")
    check, pair, threshold, _ = rows[idx]
    rows[idx] = (check, pair, threshold, lambda inst, seed, base: scale * threshold)
    monkeypatch.setattr(cli, "_build_registry", lambda: rows)
    out = tmp_path / "r.json"
    code, _ = _run(["suite", "--pair", "u", "--trials", "2", "--seed", "5",
                    "--out", str(out)], capsys)
    assert code == (1 if failed else 0)
    report = json.loads(out.read_text())
    bad = [r for r in report["records"] if not r["pass"]]
    assert [(r["check"], r["residual"]) for r in bad] == [(check, scale * threshold)] * failed
    assert report["summary"]["failed"] == failed


def test_suite_repeated_pairs_run_their_union(tmp_path, capsys):
    def report(*pairs):
        out = tmp_path / ("_".join(pairs) + ".json")
        argv = ["suite", "--trials", "2", "--seed", "12", "--out", str(out)]
        for pair in pairs:
            argv += ["--pair", pair]
        assert _run(argv, capsys)[0] == 0
        return out

    both = json.loads(report("u", "gl").read_text())
    singles = [json.loads(report(pair).read_text()) for pair in ("u", "gl")]
    assert both["config"]["pairs"] == ["general_linear", "unitary"]
    union = sorted(singles[0]["records"] + singles[1]["records"],
                   key=lambda r: (r["check"], r["pair"], str(r["dims"]), r["seed"]))
    assert both["records"] == union
    assert report("u", "u").read_bytes() == report("u").read_bytes()


# ---------------------------------------------------------------------------
# malformed matrices in instance files

def _matrix_cases():
    real = {"rows": 2, "cols": 2, "complex": False, "data": [[1.0, 0.0], [0.0, 1.0]]}
    cplx = {**real, "complex": True, "data": [[[1.0, 0.0], [0.0, 0.0]],
                                              [[0.0, 0.0], [1.0, 2.0]]]}
    return {
        "data null": {**real, "data": None},
        "row not a list": {**real, "data": [[1.0, 0.0], 5]},
        "scalar for a complex entry": {**cplx, "data": [[1.0, [0.0, 0.0]],
                                                        [[0.0, 0.0], [1.0, 0.0]]]},
        "rows not an integer": {**real, "rows": 2.7},
        "complex not a bool": {**real, "complex": "false"},
        "string entry": {**real, "data": [["1", 0.0], [0.0, 1.0]]},
        "bool entry": {**real, "data": [[True, 0.0], [0.0, 1.0]]},
        "missing cols": {k: v for k, v in real.items() if k != "cols"},
        "not an object": [[1.0, 0.0], [0.0, 1.0]],
    }


@pytest.mark.parametrize("case", sorted(_matrix_cases()))
def test_malformed_matrix_exits_2(tmp_path, capsys, case):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"kind": "unitary", "n": 2, "m": 2,
                             "matrix": _matrix_cases()[case]}))
    assert cli.main(["momentum", str(f), "--side", "left"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _nonfinite_argv(tmp_path, command):
    # json.dumps writes NaN and Infinity tokens, which json.loads reads back
    bad = np.eye(2)
    bad[1, 0] = np.inf if command == "orbit sp" else np.nan
    if command == "momentum":
        f = _write_instance(tmp_path / "u.json", "unitary", 1, 1, matrix=[[np.nan]])
        return ["momentum", f, "--side", "left"], "[0][0]", "nan"
    if command == "witness":
        good = _write_instance(tmp_path / "a.json", "symplectic", 1, 2, matrix=np.eye(2))
        f = _write_instance(tmp_path / "b.json", "symplectic", 1, 2, matrix=bad)
        return ["witness", good, f, "--side", "left"], "[1][0]", "nan"
    if command == "orbit gl":
        f = _write_instance(tmp_path / "g.json", "general_linear", 2, 2, Q=bad, P=np.eye(2))
        return ["orbit", f], "[1][0]", "nan"
    f = _write_instance(tmp_path / "s.json", "symplectic", 1, 2, matrix=bad)
    return ["orbit", f], "[1][0]", "inf"


@pytest.mark.parametrize("command", ["momentum", "witness", "orbit gl", "orbit sp"])
def test_nonfinite_matrix_entry_exits_2_naming_it(tmp_path, capsys, command):
    argv, where, value = _nonfinite_argv(tmp_path, command)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: matrix entry {where} must be a finite number, not {value}\n"


@pytest.mark.parametrize("argv", [["orbit"], ["momentum", "--side", "left"],
                                  ["momentum", "--side", "right"]])
def test_overflowing_gl_momentum_exits_2(tmp_path, capsys, argv):
    # finite entries whose momenta Q P^T and P^T Q overflow to inf: orbit
    # and momentum refuse in one line naming the momentum (orbit the left
    # one, which it checks first), and numpy warns of no overflow
    big = 1e200 * np.eye(2)
    f = _write_instance(tmp_path / "g.json", "general_linear", 2, 2, Q=big, P=big)
    side = argv[2] if len(argv) > 1 else "left"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([argv[0], f, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {f}: the {side} momentum overflows float64\n"


@pytest.mark.parametrize("scale", [1e12, 1e150])
def test_scaled_integral_gl_point_is_refused_in_one_line(tmp_path, capsys, scale):
    # the rounded left momentum of this 4 x 2 point is a whole-number
    # matrix of exact rank 4, not 2: its label is refused in one line,
    # where the exact path used to stall
    pt = cli._random_instance("general_linear", 4, 2, 0, 0).point
    f = _write_instance(tmp_path / "s.json", "general_linear", 4, 2,
                        Q=scale * pt.Q, P=scale * pt.P)
    start = time.perf_counter()
    assert cli.main(["orbit", f]) == 2
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_unconverged_root_evaluation_is_refused_in_one_line(tmp_path, capsys):
    pt = cli._random_instance("general_linear", 4, 2, 0, 0).point
    f = _write_instance(tmp_path / "s.json", "general_linear", 4, 2,
                        Q=1e100 * pt.Q, P=1e100 * pt.P)
    assert cli.main(["orbit", f]) == 2
    assert capsys.readouterr().err == \
        "error: exact Jordan label: the eigenvalues do not converge\n"


def test_matrix_to_obj_refuses_a_nonfinite_entry():
    M = np.eye(2, dtype=complex)
    M[1, 0] = complex(0.0, np.inf)
    with pytest.raises(ValueError, match=r"cannot write matrix entry \[1\]\[0\]: .* is not a finite"):
        matrix_to_obj(M)
    with pytest.raises(ValueError, match=r"cannot write matrix entry \[0\]\[1\]: nan is not a finite"):
        matrix_to_obj(np.array([[1.0, np.nan]]))


@pytest.mark.parametrize("kind,n,fields", [("symplectic", 1, ["matrix"]),
                                           ("general_linear", 2, ["Q", "P"])])
def test_real_pairs_refuse_complex_matrix_files(tmp_path, capsys, kind, n, fields):
    # a complex matrix would lose its imaginary parts on the way in
    mats = {key: np.eye(2) + 1j * np.eye(2)[::-1] for key in fields}
    f = _write_instance(tmp_path / "c.json", kind, n, 2, **mats)
    for argv in (["momentum", f, "--side", "left"], ["orbit", f]):
        assert cli.main(argv) == 2
        assert "real matri" in capsys.readouterr().err


def test_complex_matrix_file_round_trips_bits(tmp_path):
    E = np.array([[1.5 - 0.0j, complex(-0.0, 2.0)], [np.pi, complex(1e-300, -1e300)]])
    f = _write_instance(tmp_path / "u.json", "unitary", 2, 2, matrix=E)
    back = cli._load_instance(f).point
    assert back.dtype == complex and back.tobytes() == E.tobytes()


# ---------------------------------------------------------------------------
# entry points, in fresh interpreters

def _fresh_python(*args):
    src = str(Path(dualpairs.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point_has_no_runpy_warning():
    proc = _fresh_python("-W", "error::RuntimeWarning", "-m", "dualpairs.cli", "--help")
    assert proc.returncode == 0, proc.stderr


def test_package_import_leaves_cli_unloaded():
    proc = _fresh_python("-c", "import sys, dualpairs; print('dualpairs.cli' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# Exact Jordan labels of integral data with Gaussian-integer spectra are
# computed in integer arithmetic, so these callers never import sympy.
_SCATTERED_BLOCK = Path(__file__).parent / "data" / "scattered_jordan_block.json"
_SYMPY_FREE = {
    "suite": "assert cli.main(['suite', '--out', os.path.join(tmp, 'r.json')]) == 0",
    "orbit": ("assert cli.main(['gen', 'gl', '6', '4', '--seed', '2',"
              " '--partner', 'normal-form', '--out', os.path.join(tmp, 'g')]) == 0;"
              " assert cli.main(['orbit', os.path.join(tmp, 'g.json')]) == 0"),
    "gl_orbit": (
        "from dualpairs import general_linear as gl;"
        " jd = gl.JordanData(((1 + 1j, 4), (-2.0, 2)), (2, 3), 11, 9);"
        " pt = gl.build_qp_from_jordan(jd); label, canonical = gl.orbit(pt);"
        " assert label == jd.to_obj();"
        " assert (canonical.Q == pt.Q).all() and (canonical.P == pt.P).all()"),
    # one 16 x 16 block at -1 whose float eigenvalues scatter, so its chain
    # runs until it fills the block; det 1, though the float rank reads
    # less than 16
    "scattered_jordan_block": (
        "import json, numpy as np; from dualpairs import general_linear as gl;"
        f" M = np.array(json.load(open({str(_SCATTERED_BLOCK)!r}))['matrix'], dtype=float);"
        " assert gl.jordan_structure(M, side='left') == gl.JordanData(((-1.0, 16),), (), 16, 16)"),
}


@pytest.mark.parametrize("caller", sorted(_SYMPY_FREE))
def test_integral_gl_labels_leave_sympy_unloaded(caller, tmp_path):
    code = ("import os, sys; from dualpairs import cli; tmp = sys.argv[1]; "
            f"{_SYMPY_FREE[caller]}; print('sympy' in sys.modules)")
    proc = _fresh_python("-c", code, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False"


# The package runs on numpy alone: no command and no kernel loads scipy.
_GL_INSTANCE = ("assert cli.main(['gen', 'gl', '6', '4', '--seed', '2',"
                " '--partner', 'normal-form', '--out', os.path.join(tmp, 'g')]) == 0")


def _gen_and_witness(pair, partner, side):
    stem = f"os.path.join(tmp, '{pair}')"
    return (f"from dualpairs import cli;"
            f" assert cli.main(['gen', '{pair}', '6', '4', '--seed', '1',"
            f" '--partner', '{partner}', '--out', {stem}]) == 0;"
            f" assert cli.main(['witness', {stem} + '.json', {stem} + '.partner.json',"
            f" '--side', '{side}']) == 0")


_SCIPY_FREE = {
    "import": "import dualpairs",
    "import_cli": "import dualpairs.cli",
    "gen_fiber": (
        "from dualpairs import cli;"
        " assert cli.main(['gen', 'u', '6', '4', '--seed', '1',"
        " '--partner', 'fiber-left', '--out', os.path.join(tmp, 'u')]) == 0;"
        " assert cli.main(['gen', 'sp', '6', '4', '--seed', '1',"
        " '--partner', 'fiber-right', '--out', os.path.join(tmp, 's')]) == 0"),
    "gen_sp_gl_partners": (
        "from dualpairs import cli;"
        " assert all(cli.main(['gen', pair, '6', '4', '--seed', '1', '--partner', mode,"
        " '--out', os.path.join(tmp, pair + mode)]) == 0"
        " for pair in ('sp', 'gl') for mode in ('fiber-left', 'fiber-right', 'normal-form'))"),
    "gen_orbit": ("from dualpairs import cli; " + _GL_INSTANCE + ";"
                  " assert cli.main(['orbit', os.path.join(tmp, 'g.json')]) == 0"),
    "momentum_witness": (
        "from dualpairs import cli; " + _GL_INSTANCE + ";"
        " assert cli.main(['momentum', os.path.join(tmp, 'g.json'), '--side', 'left']) == 0;"
        " assert cli.main(['witness', os.path.join(tmp, 'g.json'),"
        " os.path.join(tmp, 'g.partner.json'), '--side', 'left']) == 0"),
    "witness_u_left": _gen_and_witness("u", "fiber-left", "left"),
    "witness_u_right": _gen_and_witness("u", "fiber-right", "right"),
    "witness_sp_right": _gen_and_witness("sp", "fiber-right", "right"),
    "suite": ("from dualpairs import cli;"
              " assert cli.main(['suite', '--out', os.path.join(tmp, 'r.json')]) == 0"),
    "linalg_kernels": (
        "from dualpairs import linalg;"
        " rng = linalg.stream_rng(5);"
        " A = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3));"
        " B = linalg.random_group_element('unitary', 5, 6) @ A;"
        " assert linalg.relative_diff(linalg.isometry_between(A, B) @ A, B) < 1e-12;"
        " linalg.random_group_element('symplectic', 6, 7);"
        " linalg.random_group_element('general_linear', 4, 8)"),
}


@pytest.mark.parametrize("caller", sorted(_SCIPY_FREE))
def test_cold_path_leaves_scipy_unloaded(caller, tmp_path):
    code = (f"import os, sys; tmp = sys.argv[1]; {_SCIPY_FREE[caller]};"
            " print('scipy' in sys.modules)")
    proc = _fresh_python("-c", code, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False"
