import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hessenbergian
from conftest import default_digit_limit, random_float_spec
from hessenbergian import (ComplexRational, FormatError, IntegerTooLargeForJson,
                           InvalidParams, LdevcSpec, expand_symbolic,
                           solve_forward)
from hessenbergian.cli import generate_spec, main, parse_scalar_token
from hessenbergian.formats import dump_text, parse_text, spec_from_json, spec_to_json
from hessenbergian.ldevc import GENERAL_METHODS

CR = ComplexRational


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env() -> dict:
    """Environment for a ``python -m hessenbergian`` child that imports
    this checkout from any cwd, installed or not: the absolute src
    directory of the imported package goes first on PYTHONPATH (a
    relative PYTHONPATH=src does not resolve from another cwd)."""
    src = str(Path(hessenbergian.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def strict_json(text: str):
    """json.loads that refuses the non-JSON tokens NaN and Infinity."""
    def refuse(token):
        raise ValueError(f"non-JSON token {token}")
    return json.loads(text, parse_constant=refuse)


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"order":2,"rows":[[1,2],[3,4]]}')
    return str(path)


@pytest.fixture
def alpha_spec_file(tmp_path, capsys):
    path = tmp_path / "alpha.json"
    code = main(["gen", "--family", "constant", "--N", "1", "--params", "2",
                 "--horizon", "5", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    return str(path)


# det ------------------------------------------------------------------------

@pytest.mark.parametrize("method", ["recurrence", "closed", "leibniz"])
def test_det_methods_agree(capsys, matrix_file, method):
    code, out, err = run_cli(capsys, "det", matrix_file, "--method", method)
    assert code == 0 and err == ""
    assert json.loads(out) == {"backend": "exact", "value": [-2, 1, 0, 1]}


def test_det_backend_override(capsys, matrix_file):
    code, out, _ = run_cli(capsys, "det", matrix_file, "--backend", "float")
    assert code == 0
    assert json.loads(out) == {"backend": "float", "value": [-2.0, 0.0]}


def test_det_float_file(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text('{"order":2,"rows":[[[0.5,0.0],[1.0,0.0]],[[1.0,0.0],[1.0,0.0]]]}')
    code, out, _ = run_cli(capsys, "det", str(path))
    assert code == 0
    assert json.loads(out) == {"backend": "float", "value": [-0.5, 0.0]}


def test_det_out_file(capsys, tmp_path, matrix_file):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(capsys, "det", matrix_file, "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == '{"backend":"exact","value":[-2,1,0,1]}\n'


@pytest.mark.parametrize("argv", [
    ("solve", "SPEC", "--init", "2/3", "--method", "ratio-closed"),
    ("expand", "--order", "4"),
    ("sep", "--order", "6", "--index", "11"),
], ids=["solve", "expand", "sep"])
def test_out_file_holds_the_stdout_bytes(capsys, tmp_path, alpha_spec_file,
                                         argv):
    argv = [alpha_spec_file if a == "SPEC" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == "" and out.endswith("\n")
    target = tmp_path / "result.txt"
    code, out_with_file, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 0 and out_with_file == "" and err == ""
    assert target.read_bytes() == out.encode()


def test_det_missing_file(capsys):
    code, out, err = run_cli(capsys, "det", "/nonexistent/m.json")
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_det_invalid_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    code, _, err = run_cli(capsys, "det", str(path))
    assert code == 2 and err.startswith("error: ")


def test_det_wrong_shape(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"order":2,"rows":[[1,2,9],[3,4]]}')
    code, _, err = run_cli(capsys, "det", str(path))
    assert code == 2 and err.startswith("error: ")


def test_det_cap_violations(capsys, tmp_path, matrix_file):
    import random

    from hessenbergian.cli import random_float_matrix
    from hessenbergian.formats import dump_text, matrix_to_json
    big = tmp_path / "m30.json"
    big.write_text(dump_text(matrix_to_json(
        random_float_matrix(30, random.Random(1)))))
    code, _, err = run_cli(capsys, "det", str(big), "--method", "closed")
    assert code == 3 and "closed_form_cap" in err
    code, _, err = run_cli(capsys, "det", str(big), "--method", "leibniz")
    assert code == 3 and "oracle_cap" in err
    # a lowered cap must be honored too
    code, _, err = run_cli(capsys, "det", matrix_file, "--method", "closed",
                           "--closed-form-cap", "1")
    assert code == 3 and "closed_form_cap=1" in err


def test_cap_errors_share_one_base():
    # main maps this base, and only it, to exit 3
    caps = (hessenbergian.OrderTooLargeForOracle,
            hessenbergian.OrderTooLargeForClosedForm,
            hessenbergian.OrderTooLargeForExpansion, IntegerTooLargeForJson)
    assert all(issubclass(cap, hessenbergian.SizeCapExceeded) for cap in caps)
    assert not issubclass(FormatError, hessenbergian.SizeCapExceeded)


@pytest.mark.filterwarnings("error")  # a leaked numpy warning fails
@pytest.mark.parametrize("method", ["recurrence", "closed"])
def test_det_non_finite_result_is_refused(capsys, tmp_path, method):
    path = tmp_path / "huge.json"
    path.write_text('{"order":2,"rows":[[[1e200,0.0],[1e200,0.0]],'
                    '[[1e200,0.0],[1e200,0.0]]]}')
    code, out, err = run_cli(capsys, "det", str(path), "--method", method)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not finite" in err


def test_det_closed_zero_entry_meets_overflowing_product(capsys, tmp_path):
    # the term h12 h23 h31 overflows before it meets the zero h31
    path = tmp_path / "zero.json"
    path.write_text('{"order":3,"rows":[[[2.0,0.0],[1e300,0.0]],'
                    '[[1e-300,0.0],[3.0,0.0],[1e300,0.0]],'
                    '[[0.0,0.0],[1e-300,1e-301],[5.0,0.0]]]}')
    code, out, err = run_cli(capsys, "det", str(path), "--method", "closed")
    assert code == 0 and err == ""
    re, im = strict_json(out)["value"]
    assert abs(complex(re, im) - (23 - 0.2j)) <= 1e-12 * 23


def assert_refused(code, out, err, want_code):
    assert code == want_code and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("entry", ["1e400", "NaN", "-Infinity"])
def test_det_exact_backend_refuses_non_finite_input(capsys, tmp_path, entry):
    path = tmp_path / "inf.json"
    path.write_text(f'{{"order":1,"rows":[[{entry}]]}}')
    code, out, err = run_cli(capsys, "det", str(path), "--backend", "exact")
    assert_refused(code, out, err, 2)


def test_solve_exact_backend_refuses_non_finite_input(capsys, tmp_path):
    path = tmp_path / "inf.json"
    path.write_text('{"N":0,"horizon":0,"coeffs":[[1e400]],"forcing":[1.0]}')
    code, out, err = run_cli(capsys, "solve", str(path), "--backend", "exact")
    assert_refused(code, out, err, 2)


@pytest.mark.parametrize("backend", [(), ("--backend", "float")],
                         ids=["default", "float"])
def test_overflowing_float_literal_is_refused(capsys, tmp_path, backend):
    # json reads 1e400 as inf; it is refused as input, not carried into a
    # non-finite result
    det = tmp_path / "inf.json"
    det.write_text('{"order":1,"rows":[[[1e400,0]]]}')
    spec = tmp_path / "spec.json"
    spec.write_text('{"N":0,"horizon":0,"coeffs":[[[1.0,0.0]]],'
                    '"forcing":[[-1e400,0.0]]}')
    for argv in (("det", str(det)), ("solve", str(spec))):
        code, out, err = run_cli(capsys, *argv, *backend)
        assert_refused(code, out, err, 2)
        assert err == "error: a scalar is beyond the double range\n"


def test_det_refuses_non_utf8_input(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"order":1,"rows":[[1]]}\xff')
    code, out, err = run_cli(capsys, "det", str(path))
    assert_refused(code, out, err, 2)
    assert "UTF-8" in err


def test_det_refuses_too_deeply_nested_json(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "det", str(path))
    assert_refused(code, out, err, 2)


BEYOND_DOUBLE = 10 ** 400  # 401 digits, well inside the int/str limit


def test_det_float_backend_refuses_exact_entry_beyond_double_range(
        capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(f'{{"order":1,"rows":[[[{BEYOND_DOUBLE},1,0,1]]]}}')
    code, out, err = run_cli(capsys, "det", str(path), "--backend", "float")
    assert_refused(code, out, err, 2)


def test_solve_float_backend_refuses_exact_value_beyond_double_range(
        capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(f'{{"N":0,"horizon":0,"coeffs":[[[{BEYOND_DOUBLE},1,0,1]]],'
                    f'"forcing":[[1,1,0,1]]}}')
    code, out, err = run_cli(capsys, "solve", str(path), "--backend", "float")
    assert_refused(code, out, err, 2)


@pytest.mark.parametrize("entry", [f"{BEYOND_DOUBLE}", f"[{BEYOND_DOUBLE},0]"],
                         ids=["bare", "pair"])
def test_det_float_document_refuses_integer_beyond_double_range(
        capsys, tmp_path, entry):
    path = tmp_path / "big.json"
    path.write_text(f'{{"order":2,"rows":[[1.5,{entry}],[1.0,2.0]]}}')
    code, out, err = run_cli(capsys, "det", str(path))
    assert_refused(code, out, err, 2)


def test_det_input_integer_above_digit_limit(capsys, tmp_path):
    path = tmp_path / "long.json"
    with default_digit_limit() as limit:
        digits = "7" * (limit + 700)
        path.write_text(f'{{"order":1,"rows":[[{digits}]]}}')
        code, out, err = run_cli(capsys, "det", str(path))
    assert_refused(code, out, err, 3)
    assert f"get_int_max_str_digits()={limit}" in err


def test_det_result_integer_above_digit_limit(capsys, tmp_path):
    # 10^250 on the diagonal of an order-30 matrix: det = 10^7500
    n = 30
    rows = [[10 ** 250 if j == i else 0 for j in range(min(i + 2, n))]
            for i in range(n)]
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({"order": n, "rows": rows}))
    with default_digit_limit() as limit:
        code, out, err = run_cli(capsys, "det", str(path))
    assert_refused(code, out, err, 3)
    assert f"get_int_max_str_digits()={limit}" in err


# expand / sep ----------------------------------------------------------------

def test_expand_golden(capsys):
    code, out, _ = run_cli(capsys, "expand", "--order", "3")
    assert code == 0
    assert out.splitlines() == [
        "+h(1,2)h(2,3)h(3,1)", "-h(1,2)h(2,1)h(3,3)",
        "-h(1,1)h(2,3)h(3,2)", "+h(1,1)h(2,2)h(3,3)"]


def test_expand_limit(capsys):
    code, out, _ = run_cli(capsys, "expand", "--order", "4", "--limit", "2")
    assert code == 0
    assert out.splitlines() == ["-h(1,2)h(2,3)h(3,4)h(4,1)",
                                "+h(1,2)h(2,3)h(3,1)h(4,4)"]


def test_expand_prints_the_rendered_terms(capsys):
    for order in range(1, 9):
        terms = [t.render() for t in expand_symbolic(order)]
        for limit in (None, 1, 3, len(terms), len(terms) + 5):
            argv = ["expand", "--order", str(order)]
            if limit is not None:
                argv += ["--limit", str(limit)]
            code, out, err = run_cli(capsys, *argv)
            assert code == 0 and err == ""
            assert out == "\n".join(terms[:limit]) + "\n"


@pytest.mark.parametrize("limit, digest", [
    ((), "c6bcb0e23f99f1445f5df25ed2e11eee52a39043c52ab1cdb5075ae4dbaa04c8"),
    (("--limit", "3"),
     "61b7a308fe1f91c5b1264cf388ebc00998bfe6e157ffbc0f845a2e983582d8a0"),
], ids=["all", "limit-3"])
def test_expand_order_16_bytes_are_pinned(capsys, limit, digest):
    # sha256 of the stdout, pinned byte for byte: every line of the
    # largest expansion under the cap, and its first three
    code, out, err = run_cli(capsys, "expand", "--order", "16", *limit)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_expand_cap_and_bad_order(capsys):
    code, _, err = run_cli(capsys, "expand", "--order", "17")
    assert code == 3 and err.startswith("error: ")
    code, _, err = run_cli(capsys, "expand", "--order", "0")
    assert code == 2 and err.startswith("error: ")
    # far above the cap: refused before any line is built
    code, out, err = run_cli(capsys, "expand", "--order", "1000000000")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sep_golden(capsys):
    code, out, _ = run_cli(capsys, "sep", "--order", "8", "--index", "81")
    assert code == 0
    assert json.loads(out) == {"bits": [1, 0, 1, 0, 0, 0, 1, 1],
                               "columns": [1, 3, 2, 5, 6, 7, 4, 8],
                               "sign": 1}


def test_sep_index_out_of_range(capsys):
    code, _, err = run_cli(capsys, "sep", "--order", "3", "--index", "4")
    assert code == 2 and err.startswith("error: ")


# solve ------------------------------------------------------------------------

def test_solve_alpha_spec(capsys, alpha_spec_file):
    expected = {"backend": "exact",
                "values": [[2 ** (n + 1), 1, 0, 1] for n in range(6)]}
    for method in ("forward", "ratio-recurrence", "ratio-closed",
                   "reduced-recurrence", "reduced-closed"):
        code, out, _ = run_cli(capsys, "solve", alpha_spec_file,
                               "--init", "1", "--method", method)
        assert code == 0
        assert json.loads(out) == expected


def test_solve_fraction_init(capsys, alpha_spec_file):
    code, out, _ = run_cli(capsys, "solve", alpha_spec_file, "--init", "3/2")
    assert code == 0
    assert json.loads(out)["values"][0] == [3, 1, 0, 1]


def test_solve_float_backend(capsys, alpha_spec_file):
    code, out, _ = run_cli(capsys, "solve", alpha_spec_file,
                           "--init", "0.5", "--backend", "float")
    assert code == 0
    doc = json.loads(out)
    assert doc["backend"] == "float"
    assert doc["values"][0] == [1.0, 0.0]


def test_solve_wrong_init_length(capsys, alpha_spec_file):
    code, _, err = run_cli(capsys, "solve", alpha_spec_file, "--init", "1,2")
    assert code == 2 and err.startswith("error: ")
    code, _, err = run_cli(capsys, "solve", alpha_spec_file)
    assert code == 2 and err.startswith("error: ")


def test_solve_bad_init_literal(capsys, alpha_spec_file):
    code, _, err = run_cli(capsys, "solve", alpha_spec_file, "--init", "1+2")
    assert code == 2 and err.startswith("error: ")


@pytest.mark.parametrize("literal", ["inf", "nan", "1e999"])
@pytest.mark.parametrize("method",
                         ["ratio-recurrence", "reduced-closed", "forward"])
def test_solve_float_init_refuses_non_finite_literal(
        capsys, tmp_path, literal, method):
    # refused by the literal parser for every method, not by the one
    # method whose arithmetic happens to meet the non-finite value
    path = tmp_path / "spec.json"
    path.write_text('{"N":1,"horizon":1,"coeffs":[[0,2],[0,4,5]],'
                    '"forcing":[1,1]}')
    code, out, err = run_cli(capsys, "solve", str(path), "--backend", "float",
                             "--init", literal, "--method", method)
    assert_refused(code, out, err, 2)
    assert "invalid scalar literal" in err


@pytest.mark.parametrize("argv", [
    ("solve", "SPEC", "--backend", "float", "--init", "1" * 5000),
    ("solve", "SPEC", "--init", "1/" + "x" * 3998),
    ("bench", "--orders", "1" * 4999 + "x"),
    ("gen", "--family", "periodic", "--N", "1", "--horizon", "3",
     "--params", "p" * 5000),
], ids=["float-init", "exact-init", "orders", "period"])
def test_long_bad_token_is_echoed_cut(capsys, alpha_spec_file, argv):
    # a token of thousands of characters is refused with a short error
    # line that says it was cut, not echoed in full
    argv = [alpha_spec_file if a == "SPEC" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert_refused(code, out, err, 2)
    assert len(err.encode()) < 200
    assert f"(cut, {len(argv[-1])} characters)" in err


@pytest.mark.parametrize("argv, cut", [
    (("sep", "--order", "3", "--index", "1", "--bogus\nsecond line"), False),
    (("det", "MATRIX", "--method", "m" * 3000), True),
    (("sep", "--order", "3", "--index", "9" * 5000), True),
    (("gen", "--family", "constant", "--N", "9" * 5000, "--horizon", "2"),
     True),
    (("det", "LIST_SCALAR"), True),
    (("det", "ZERO_DENOMINATOR"), True),
], ids=["newline-token", "method", "index", "N", "list-scalar",
        "zero-denominator"])
def test_every_error_is_one_bounded_line(capsys, tmp_path, matrix_file,
                                         argv, cut):
    # usage errors go through the same writer as every other error: one
    # line, and a message of thousands of characters is cut and marked
    paths = {"MATRIX": matrix_file}
    for name, text in (
            ("LIST_SCALAR", '{"order":1,"rows":[[%s]]}' % list(range(20000))),
            ("ZERO_DENOMINATOR",
             '{"order":1,"rows":[[[%s,0,0,1]]]}' % ("7" * 4000))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    argv = [str(paths.get(a, a)) for a in argv]
    with default_digit_limit():
        code, out, err = run_cli(capsys, *argv)
    assert_refused(code, out, err, 2)
    assert len(err.encode()) < 200
    assert ("... (cut, " in err) == cut
    if not cut:
        assert "--bogus second line" in err


def test_solve_sign_of_zero_matches_forward(capsys, tmp_path):
    # (-1)^n applied to a real float prefix keeps its +0.0 imaginary part,
    # so every Hessenbergian route prints the bytes forward prints
    path = tmp_path / "alpha.json"
    assert main(["gen", "--family", "constant", "--N", "1", "--params", "2",
                 "--horizon", "14", "--out", str(path)]) == 0
    outputs = {}
    for method in ("forward", "ratio-recurrence", "reduced-closed"):
        code, out, err = run_cli(capsys, "solve", str(path), "--backend",
                                 "float", "--init", "1.5", "--method", method)
        assert code == 0 and err == ""
        outputs[method] = out
    assert "-0.0" not in outputs["forward"]
    assert outputs["ratio-recurrence"] == outputs["forward"]
    assert outputs["reduced-closed"] == outputs["forward"]


def test_solve_zero_parts_print_alike_on_every_method(capsys, tmp_path):
    # forward substitution keeps the sign of a zero part that the
    # Hessenbergian routes do not; every written zero part is +0.0
    path = tmp_path / "zeros.json"
    path.write_text(json.dumps(
        {"N": 0, "horizon": 2,
         "coeffs": [[[2.0, 0.0]], [[-0.0, 0.0], [1.0, 0.0]],
                    [[1.0, 0.0], [-0.0, -0.0], [-4.0, 0.0]]],
         "forcing": [[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]]}))
    outputs = set()
    for method in ("forward", *GENERAL_METHODS):
        code, out, err = run_cli(capsys, "solve", str(path), "--method",
                                 method)
        assert (code, err) == (0, ""), method
        outputs.add(out)
    assert outputs == {
        '{"backend":"float","values":[[0.0,0.0],[0.0,0.0],[0.0,0.0]]}\n'}


@pytest.mark.parametrize("rows, value", [
    ([[[-0.0, 0.0]]], "[0.0,0.0]"),
    ([[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
      [[0.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]]], "[1.0,0.0]"),
], ids=["order-1", "order-3"])
def test_det_zero_parts_print_alike_on_every_method(capsys, tmp_path, rows,
                                                     value):
    # a zero part of a float determinant prints as 0.0 on every route
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"order": len(rows), "rows": rows}))
    for method in ("recurrence", "closed", "leibniz"):
        code, out, err = run_cli(capsys, "det", str(path), "--method", method)
        assert (code, err) == (0, ""), method
        assert out == f'{{"backend":"float","value":{value}}}\n', method


# sha256 of `solve --backend float --init 1,2` stdout on a gen spec
# (--N 2 --horizon 12, seed 0): the float solution rows reach the
# matrix constructor all complex, and every printed bit stays the same
_FLOAT_SOLVE_SHA256 = {
    ("random", "ratio-recurrence"):
        "81fe13c9a297062acded93fac19eb497452cd9cedb1a952a23042a799aad7206",
    ("random", "ratio-closed"):
        "ba85cc9827df23ff280cdc10f2d0a5cd4edcfb13965436c7f3d0d0c1a255841c",
    ("random", "reduced-recurrence"):
        "81fe13c9a297062acded93fac19eb497452cd9cedb1a952a23042a799aad7206",
    ("random", "reduced-closed"):
        "ba85cc9827df23ff280cdc10f2d0a5cd4edcfb13965436c7f3d0d0c1a255841c",
    ("random", "forward"):
        "459497ec629e98b47156a5194e6a92dc83dc3e32edef798324da973096ad5ffc",
    ("periodic", "ratio-recurrence"):
        "18f936bed769c27a1dda1a7986f34488c26f69b7eef9640e89dfa909a6e7214e",
    ("periodic", "ratio-closed"):
        "13e989036b8d4746bc4628fd4169a4e42ad9bf02c954138941438aaa76ef7e4b",
    ("periodic", "reduced-recurrence"):
        "18f936bed769c27a1dda1a7986f34488c26f69b7eef9640e89dfa909a6e7214e",
    ("periodic", "reduced-closed"):
        "13e989036b8d4746bc4628fd4169a4e42ad9bf02c954138941438aaa76ef7e4b",
    ("periodic", "forward"):
        "8b8ef2fc69b8f8464b5464fef680c2a989f0dff3a8db59ab752f04969b4a4b70",
    ("constant", "ratio-recurrence"):
        "0b49427b581735e6de814c729afa1a0d773f30236217187431807828dcbacbfb",
    ("constant", "ratio-closed"):
        "0b49427b581735e6de814c729afa1a0d773f30236217187431807828dcbacbfb",
    ("constant", "reduced-recurrence"):
        "0b49427b581735e6de814c729afa1a0d773f30236217187431807828dcbacbfb",
    ("constant", "reduced-closed"):
        "0b49427b581735e6de814c729afa1a0d773f30236217187431807828dcbacbfb",
    ("constant", "forward"):
        "0b49427b581735e6de814c729afa1a0d773f30236217187431807828dcbacbfb",
}


@pytest.mark.parametrize("family, method", list(_FLOAT_SOLVE_SHA256),
                         ids=[f"{f}-{m}" for f, m in _FLOAT_SOLVE_SHA256])
def test_float_solve_output_is_pinned(capsys, tmp_path, family, method):
    path = tmp_path / "spec.json"
    params = {"random": [], "periodic": ["--params", "3"],
              "constant": ["--params", "2,-1"]}[family]
    assert run_cli(capsys, "gen", "--family", family, "--N", "2",
                   "--horizon", "12", *params, "--out", str(path))[0] == 0
    code, out, err = run_cli(capsys, "solve", str(path), "--init", "1,2",
                             "--method", method, "--backend", "float")
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == _FLOAT_SOLVE_SHA256[family, method]


def test_solve_unbounded_spec_no_init(capsys, tmp_path):
    path = tmp_path / "n0.json"
    path.write_text(json.dumps(
        {"N": 0, "horizon": 2,
         "coeffs": [[[2, 1, 0, 1]], [[1, 1, 0, 1], [2, 1, 0, 1]],
                    [[0, 1, 0, 1], [1, 1, 0, 1], [2, 1, 0, 1]]],
         "forcing": [[2, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1]]}))
    code, out, _ = run_cli(capsys, "solve", str(path))
    assert code == 0
    values = json.loads(out)["values"]
    # y0 = 2/2 = 1; 1*y0 + 2*y1 = 0; 1*y1 + 2*y2 = 0
    assert values == [[1, 1, 0, 1], [-1, 2, 0, 1], [1, 4, 0, 1]]


def test_solve_closed_cap_is_checked_first(capsys, alpha_spec_file):
    # horizon 5 needs order 6; refused before any closed-form sum
    code, out, err = run_cli(capsys, "solve", alpha_spec_file, "--init", "1",
                             "--method", "ratio-closed", "--closed-form-cap", "5")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "closed_form_cap=5" in err


def test_solve_ill_scaled_float_spec(tmp_path):
    # det(G) and D_n overflow at this horizon; y_n does not
    spec = random_float_spec(2, 600, random.Random(89))
    scaled = LdevcSpec(2, 600, [[v * 1000 for v in row] for row in spec.coeffs],
                       [g * 1000 for g in spec.forcing])
    path = tmp_path / "scaled.json"
    path.write_text(dump_text(spec_to_json(scaled)))
    proc = subprocess.run(
        [sys.executable, "-m", "hessenbergian", "solve", str(path),
         "--backend", "float", "--init", "1,2"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert proc.stderr == ""
    doc = strict_json(proc.stdout)
    assert doc["backend"] == "float"
    forward = solve_forward(spec, (1 + 0j, 2 + 0j))
    assert len(doc["values"]) == len(forward)
    for (re, im), want in zip(doc["values"], forward):
        assert abs(complex(re, im) - want) <= 1e-9 * (1 + abs(want))


# gen --------------------------------------------------------------------------

def test_gen_constant_is_alpha_spec(capsys, alpha_spec_file):
    spec, backend = spec_from_json(parse_text(Path(alpha_spec_file).read_text()))
    assert backend == "exact"
    assert spec.index_N == 1 and spec.horizon == 5
    for n in range(6):
        assert spec.coeffs[n][n] == CR(-2)
        assert spec.coeffs[n][n + 1] == CR(1)
        assert all(not v for v in spec.coeffs[n][:n])
        assert not spec.forcing[n]


def test_gen_deterministic_bytes(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "gen", "--family", "random", "--N", "2",
                               "--horizon", "6", "--seed", "123")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    code, other, _ = run_cli(capsys, "gen", "--family", "random", "--N", "2",
                             "--horizon", "6", "--seed", "124")
    assert other != outputs[0]


def test_gen_random_bytes_are_pinned(capsys):
    # sha256 of the stdout, pinned byte for byte: the generator's draws,
    # their order and the canonical dump
    code, out, _ = run_cli(capsys, "gen", "--family", "random", "--N", "2",
                           "--horizon", "200", "--seed", "1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "856437b7533c615e826fed681f846d5fe50e82971b33d76f577f6f9ce79fbef5")


def test_gen_random_is_valid_spec(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "random", "--N", "3",
                           "--horizon", "5", "--seed", "9")
    assert code == 0
    spec, _ = spec_from_json(parse_text(out))
    assert spec.index_N == 3
    for n in range(6):
        assert spec.leading(n)


def test_gen_periodic_pattern(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "periodic", "--N", "2",
                           "--horizon", "9", "--params", "3", "--seed", "7")
    assert code == 0
    spec, _ = spec_from_json(parse_text(out))
    p = 3
    for n in range(10 - p):
        assert spec.forcing[n + p] == spec.forcing[n]
        for off in range(3):
            assert spec.coeffs[n + p][n + p + off] == spec.coeffs[n][n + off]
        assert all(not v for v in spec.coeffs[n][:n])


def test_gen_invalid_params(capsys):
    code, _, err = run_cli(capsys, "gen", "--family", "constant", "--N", "2",
                           "--horizon", "3", "--params", "1")
    assert code == 2 and err.startswith("error: ")
    code, _, err = run_cli(capsys, "gen", "--family", "periodic", "--N", "1",
                           "--horizon", "3", "--params", "zero")
    assert code == 2 and err.startswith("error: ")
    code, _, err = run_cli(capsys, "gen", "--family", "periodic", "--N", "1",
                           "--horizon", "3", "--params", "0")
    assert code == 2 and err.startswith("error: ")
    code, _, err = run_cli(capsys, "gen", "--family", "random", "--N", "1",
                           "--horizon", "3", "--params", "x")
    assert code == 2 and err.startswith("error: ")
    # an empty token is refused, as it is by solve --init
    code, _, err = run_cli(capsys, "gen", "--family", "constant", "--N", "2",
                           "--horizon", "3", "--params", "1,,2")
    assert code == 2 and err.startswith("error: ")
    # the CLI's choices never reach this; a direct caller does
    with pytest.raises(InvalidParams, match="unknown family 'bogus'"):
        generate_spec("bogus", "", 1, 3, 0)


# bench ------------------------------------------------------------------------

def test_bench_csv_shape(capsys):
    code, out, _ = run_cli(capsys, "bench", "--orders", "4,6", "--reps", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "order,method,median_ns"
    assert len(lines) == 5
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["4", "recurrence"], ["4", "closed"],
        ["6", "recurrence"], ["6", "closed"]]
    for line in lines[1:]:
        assert int(line.split(",")[2]) > 0


def test_bench_method_subset(capsys):
    code, out, _ = run_cli(capsys, "bench", "--orders", "5", "--reps", "2",
                           "--methods", "recurrence")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2 and lines[1].startswith("5,recurrence,")


def test_bench_times_no_first_call_imports():
    # the float closed form imports numpy in its first call; in a process
    # that has not loaded numpy yet, that import (~50 ms) must fall in
    # bench's untimed call, not in the one timed rep
    proc = subprocess.run(
        [sys.executable, "-m", "hessenbergian", "bench", "--orders", "1",
         "--reps", "1", "--methods", "closed"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    order, method, median_ns = proc.stdout.splitlines()[1].split(",")
    assert (order, method) == ("1", "closed")
    assert int(median_ns) < 10_000_000


def test_bench_bad_flags(capsys):
    code, _, err = run_cli(capsys, "bench", "--orders", "0")
    assert code == 2 and err.startswith("error: ")
    code, _, err = run_cli(capsys, "bench", "--orders", "4",
                           "--methods", "quantum")
    assert code == 2 and err.startswith("error: ")
    code, out, err = run_cli(capsys, "bench", "--orders", "3", "--reps", "x")
    assert_refused(code, out, err, 2)
    assert "expected an integer, got 'x'" in err


# plumbing ---------------------------------------------------------------------

def test_determinism_across_runs(capsys, matrix_file, alpha_spec_file):
    invocations = [
        ["det", matrix_file, "--method", "closed"],
        ["expand", "--order", "5"],
        ["sep", "--order", "6", "--index", "11"],
        ["solve", alpha_spec_file, "--init", "2/3"],
        ["gen", "--family", "periodic", "--N", "1", "--horizon", "4",
         "--params", "2", "--seed", "17"],
    ]
    for argv in invocations:
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second and first[0] == 0


def test_bad_usage(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2 and err.startswith("error: ")
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 2 and err.startswith("error: ")
    code, _, err = run_cli(capsys, "det")
    assert code == 2 and err.startswith("error: ")
    code, _, err = run_cli(capsys, "det", "x.json", "--method", "laplace")
    assert code == 2 and err.startswith("error: ")
    code, _, err = run_cli(capsys, "det", "x.json", "--closed-form-cap", "-3")
    assert code == 2 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "constant", "--N", "1", "--params", "2",
     "--horizon", "2", "--backend", "float"],
    ["expand", "--order", "3", "--oracle-cap", "5"],
], ids=["gen-backend", "expand-oracle-cap"])
def test_shared_option_a_subcommand_does_not_read_is_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert_refused(code, out, err, 2)


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0 and "det" in out


def test_module_entry_point(matrix_file):
    env = child_env()
    proc = subprocess.run(
        [sys.executable, "-m", "hessenbergian", "det", matrix_file],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"backend": "exact",
                                       "value": [-2, 1, 0, 1]}
    proc = subprocess.run(
        [sys.executable, "-m", "hessenbergian", "det", "missing.json"],
        capture_output=True, text=True, cwd="/", env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")



def _imported_modules(stderr: str) -> list:
    # the module column of each "import time:" line of -X importtime
    return [line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines()
            if line.startswith("import time:")]


# The start-up contract of each command: the modules it loads, in the
# columns statistics, ldevc, sep_codec, determinants, numpy, fractions
# and scalars, and stdout where it is pinned (None: the command must
# only exit 0).  No command loads dataclasses.
_EXPAND_3 = ("+h(1,2)h(2,3)h(3,1)\n-h(1,2)h(2,1)h(3,3)\n"
             "-h(1,1)h(2,3)h(3,2)\n+h(1,1)h(2,2)h(3,3)\n")
_EXACT_DET = '{"backend":"exact","value":[-2,1,0,1]}\n'
_FLOAT_DET = '{"backend":"float","value":[-2.0,0.0]}\n'
_SEP_3_2 = '{"bits":[1,0,1],"columns":[1,3,2],"sign":-1}\n'
_STARTUP = [
    # argv, stdout, statistics, ldevc, sep_codec, determinants, numpy,
    # fractions, scalars
    (["expand", "--order", "3"], _EXPAND_3, 0, 0, 1, 0, 0, 0, 0),
    (["sep", "--order", "3", "--index", "2"], _SEP_3_2, 0, 0, 1, 0, 0, 0, 0),
    (["gen", "--family", "random", "--N", "1", "--horizon", "3"], None,
     0, 1, 0, 0, 0, 1, 1),
    (["det", "{matrix}"], _EXACT_DET, 0, 0, 0, 1, 0, 1, 1),
    (["det", "{matrix}", "--method", "leibniz"], _EXACT_DET,
     0, 0, 0, 1, 0, 1, 1),
    (["det", "{matrix}", "--method", "closed"], _EXACT_DET,
     0, 0, 0, 0, 0, 1, 1),
    (["det", "{matrix}", "--backend", "float"], _FLOAT_DET,
     0, 0, 0, 1, 0, 0, 0),
    (["det", "{matrix}", "--backend", "float", "--method", "leibniz"],
     _FLOAT_DET, 0, 0, 0, 1, 0, 0, 0),
    (["det", "{matrix}", "--backend", "float", "--method", "closed"],
     _FLOAT_DET, 0, 0, 0, 0, 1, 0, 0),
    (["solve", "{spec}", "--init", "1"], None, 0, 1, 0, 1, 0, 1, 1),
    (["solve", "{spec}", "--init", "1", "--method", "ratio-closed"], None,
     0, 1, 0, 0, 0, 1, 1),
    (["solve", "{spec}", "--init", "1", "--method", "forward"], None,
     0, 1, 0, 0, 0, 1, 1),
    (["solve", "{spec}", "--init", "1", "--backend", "float"], None,
     0, 1, 0, 1, 0, 0, 0),
    (["solve", "{spec}", "--init", "1", "--backend", "float",
      "--method", "ratio-closed"], None, 0, 1, 0, 0, 1, 0, 0),
    (["solve", "{spec}", "--init", "1", "--backend", "float",
      "--method", "forward"], None, 0, 1, 0, 0, 0, 0, 0),
    (["bench", "--orders", "3", "--reps", "1"], None, 1, 0, 0, 1, 1, 1, 0),
    (["bench", "--orders", "3", "--reps", "1", "--methods", "recurrence"],
     None, 1, 0, 0, 1, 0, 1, 0),
]


def test_each_command_loads_only_the_modules_it_runs(matrix_file,
                                                     alpha_spec_file):
    env = child_env()
    for argv, stdout, *loads in _STARTUP:
        argv = [a.format(matrix=matrix_file, spec=alpha_spec_file)
                for a in argv]
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "hessenbergian",
             *argv], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, (argv, proc.stderr[-300:])
        assert stdout is None or proc.stdout == stdout, argv
        modules = set(_imported_modules(proc.stderr))
        assert "dataclasses" not in modules, argv
        assert [name in modules for name in (
            "statistics", "hessenbergian.ldevc", "hessenbergian.sep_codec",
            "hessenbergian.determinants", "numpy", "fractions",
            "hessenbergian.scalars")] == loads, argv


def test_numpy_free_commands_run_without_numpy(tmp_path):
    # the script that CI runs on an interpreter with no numpy, here with
    # numpy blocked in its sys.modules; it checks every output itself
    script = Path(__file__).with_name("numpy_free_commands.py")
    proc = subprocess.run([sys.executable, str(script), str(tmp_path)],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == proc.stderr == ""


def test_split_read_cases_pass():
    # the two-process determinant forks only in a process with one
    # thread, and numpy's BLAS pool gives this one more; the cases run
    # in a child pytest that imports no numpy
    tests = Path(__file__).parent
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(tests / "split_read_cases.py")],
        capture_output=True, text=True, cwd=tests.parent, env=child_env())
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-1000:]
    assert " passed" in proc.stdout and " failed" not in proc.stdout


def test_only_a_large_det_loads_split_read(tmp_path, matrix_file,
                                           alpha_spec_file):
    # below the threshold, and in every other command, the module that
    # forks is neither loaded nor compiled; the large det builds no
    # matrix, so it loads no hessenbergian.matrix
    from hessenbergian.cli import _SPLIT_READ_CHARS, random_float_matrix
    from hessenbergian.formats import matrix_to_json

    large = tmp_path / "large.json"
    large.write_text(dump_text(matrix_to_json(
        random_float_matrix(250, random.Random(250)))))
    assert large.stat().st_size >= _SPLIT_READ_CHARS
    env = child_env()
    for argv, loads in (
            (["det", matrix_file, "--backend", "float"], False),
            (["solve", alpha_spec_file, "--init", "1"], False),
            (["gen", "--family", "random", "--N", "1", "--horizon", "3"],
             False),
            (["expand", "--order", "3"], False),
            (["sep", "--order", "3", "--index", "2"], False),
            (["det", str(large)], True)):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "hessenbergian",
             *argv], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, (argv, proc.stderr[-300:])
        modules = _imported_modules(proc.stderr)
        assert ("hessenbergian.split_read" in modules) == loads, argv
        if loads:
            assert "hessenbergian.matrix" not in modules, argv


@pytest.fixture
def float_200_file(tmp_path):
    from hessenbergian.cli import random_float_matrix
    from hessenbergian.formats import matrix_to_json

    path = tmp_path / "m200.json"
    path.write_text(dump_text(matrix_to_json(
        random_float_matrix(200, random.Random(200)))))
    return str(path)


@pytest.fixture
def collector():
    # gives back the cyclic collector setting a test changes
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def test_det_starts_no_collection(capsys, collector, float_200_file):
    # json.loads builds ~20k pair lists here; with the collector on in
    # the command, each young-generation threshold would start a pass
    starts = []

    def on_gc(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.enable()
    gc.collect()  # the young generation starts empty, so no pass comes due
    gc.callbacks.append(on_gc)
    try:
        code, out, err = run_cli(capsys, "det", float_200_file)
    finally:
        gc.callbacks.remove(on_gc)
    assert code == 0 and err == "" and json.loads(out)["backend"] == "float"
    assert starts == []


@pytest.mark.parametrize("argv, exit_code", [
    (["det", "FLOAT"], 0),
    (["det", "BAD"], 2),
    (["det", "FLOAT", "--method", "leibniz", "--oracle-cap", "5"], 3),
    (["--help"], 0),
], ids=["ok", "bad-scalar", "oracle-cap", "help"])
@pytest.mark.parametrize("enabled", [True, False],
                         ids=["collecting", "disabled"])
def test_main_gives_back_the_callers_collector_setting(
        capsys, collector, tmp_path, float_200_file, argv, exit_code,
        enabled):
    bad = tmp_path / "bad.json"
    bad.write_text('{"order":1,"rows":[[[true,0.0]]]}')
    argv = [{"FLOAT": float_200_file, "BAD": str(bad)}.get(a, a)
            for a in argv]
    (gc.enable if enabled else gc.disable)()
    code, _, _ = run_cli(capsys, *argv)
    assert code == exit_code
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False],
                         ids=["collecting", "disabled"])
def test_an_interrupt_prints_one_error_line_and_exits_130(
        capsys, collector, monkeypatch, matrix_file, enabled):
    # an interrupt is not an input, so neither 2 nor 3; the caller's
    # collector setting comes back as on every other way out
    def interrupt(args):
        raise KeyboardInterrupt

    monkeypatch.setattr("hessenbergian.cli.cmd_det", interrupt)
    (gc.enable if enabled else gc.disable)()
    assert run_cli(capsys, "det", matrix_file) == (
        130, "", "error: interrupted\n")
    assert gc.isenabled() is enabled


# The exit path of `python -m hessenbergian`, run in a child: the
# collector stays off and everything is frozen before the interpreter's
# exit-time collection, which then walks nothing the command built, and
# the interpreter still exits normally, atexit handlers included.
_EXIT_PROBE = """
import atexit, gc, json, runpy, sys

starts = []
gc.callbacks.append(
    lambda phase, info: phase == "start" and starts.append(info))
atexit.register(lambda: print(json.dumps(
    [len(starts), gc.get_freeze_count(), gc.isenabled()]), file=sys.stderr))
import hessenbergian.cli
starts.clear()
sys.argv = ["hessenbergian", *sys.argv[1:]]
runpy.run_module("hessenbergian", run_name="__main__")
"""


@pytest.mark.parametrize("argv", [
    ["det", "{matrix}"],
    ["det", "{matrix}", "--backend", "float", "--method", "closed"],
    ["solve", "{spec}", "--init", "1"],
    ["expand", "--order", "3"],
], ids=["det", "det-float-closed", "solve", "expand"])
def test_the_process_entry_freezes_and_exits_normally(
        capsys, matrix_file, alpha_spec_file, argv):
    argv = [a.format(matrix=matrix_file, spec=alpha_spec_file) for a in argv]
    proc = subprocess.run([sys.executable, "-c", _EXIT_PROBE, *argv],
                          capture_output=True, text=True, env=child_env())
    assert (proc.returncode, proc.stdout) == run_cli(capsys, *argv)[:2]
    # no collection started, something is frozen, the collector is off,
    # and the atexit handler ran and wrote the last line
    starts, frozen, enabled = json.loads(proc.stderr.splitlines()[-1])
    assert starts == 0 and frozen > 0 and enabled is False


def test_the_process_entry_lets_a_profiler_report():
    # cProfile prints its report after the module returns; an os._exit
    # in the entry would end the process before it
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "hessenbergian", "sep",
         "--order", "3", "--index", "2"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(_SEP_3_2)
    assert "function calls" in proc.stdout[len(_SEP_3_2):]


# scalar literals ----------------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("3/2", CR(Fraction(3, 2))),
    ("-2", CR(-2)),
    ("1+i", CR(1, 1)),
    ("i", CR(0, 1)),
    ("-i", CR(0, -1)),
    ("2i", CR(0, 2)),
    ("3/2-1/3i", CR(Fraction(3, 2), Fraction(-1, 3))),
    ("1.5", CR(Fraction(3, 2))),
    ("1e-3", CR(Fraction(1, 1000))),
    (" 2/7+1/7i ", CR(Fraction(2, 7), Fraction(1, 7))),
])
def test_parse_scalar_token_exact(text, expected):
    assert parse_scalar_token(text, "exact") == expected


@pytest.mark.parametrize("text,expected", [
    ("0.5-0.25i", 0.5 - 0.25j),
    ("2", 2 + 0j),
    ("1.5e-2i", 0.015j),
    ("3/2", 1.5 + 0j),
    ("3/2-1/3i", complex(1.5, -1 / 3)),
])
def test_parse_scalar_token_float(text, expected):
    assert parse_scalar_token(text, "float") == expected


@pytest.mark.parametrize("text,backend", [
    *(pytest.param(text, "exact", id=text)
      for text in ["", "1+2", "1//2", "/2", "abc", "1+2j"]),
    # a float literal with no finite value
    *(pytest.param(text, "float", id=f"float-{text}")
      for text in ["inf", "nan", "1e999"]),
])
def test_parse_scalar_token_rejects(text, backend):
    with pytest.raises(FormatError):
        parse_scalar_token(text, backend)


@pytest.mark.parametrize("text,backend", [
    ("1e5000", "exact"),
    ("1e-5000", "exact"),
    ("1/" + "1" * 5000, "exact"),
    ("1" * 5000 + "/3", "float"),
], ids=["exponent", "negative-exponent", "denominator", "float-ratio"])
def test_parse_scalar_token_refuses_integer_above_digit_limit(text, backend):
    # refused before Fraction expands 10**5000 or parses 5000 digits
    with default_digit_limit() as limit:
        with pytest.raises(IntegerTooLargeForJson,
                           match=f"get_int_max_str_digits\\(\\)={limit}"):
            parse_scalar_token(text, backend)


def test_solve_init_integer_above_digit_limit(capsys, alpha_spec_file):
    with default_digit_limit() as limit:
        code, out, err = run_cli(capsys, "solve", alpha_spec_file,
                                 "--init", "1e10000000")
    assert_refused(code, out, err, 3)
    assert f"get_int_max_str_digits()={limit}" in err
