import json
import subprocess
import sys

import pytest

from segrechains.cli import build_parser, main
from segrechains.corpus import corpus


def data_path(name):
    return str(dict(corpus())[name])


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, _ = run_cli(capsys, "validate", data_path("heisenberg"))
    assert code == 0 and "valid manifold" in out


def test_validate_failure_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.mf"
    bad.write_text("m=1\nd=1\ntheta_bar_1 = i*w1*zeta1\n")
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "INVALID" in out and "monomial" in out


def test_usage_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "validate", "no_such_file.mf")
    assert code == 2
    bad_dir_code, _, _ = run_cli(capsys, "checkall", "/nonexistent_dir_xyz")
    assert bad_dir_code == 2


def test_minimality_command(capsys):
    code, out, _ = run_cli(
        capsys, "minimality", data_path("ex7_8"), "--format", "machine"
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["minimal"] is True
    assert report["results"]["mu"] == 3


def test_multitype_and_ranks(capsys):
    code, out, _ = run_cli(
        capsys, "multitype", data_path("c3_tube"), "--format", "machine"
    )
    report = json.loads(out)
    assert report["results"]["multitype"] == [1, 1, 1, 1]
    code, out, _ = run_cli(
        capsys, "ranks", data_path("c3_tube"), "--format", "machine"
    )
    assert json.loads(out)["results"]["r"][:4] == [1, 2, 3, 4]


def test_chains_command_emits_components(capsys):
    code, out, _ = run_cli(
        capsys, "chains", data_path("ex7_8"), "--kmax", "2", "--format", "machine"
    )
    report = json.loads(out)
    chains = report["results"]["chains"]
    assert chains[1]["components"]["xi1"] == "-i*u1_1^2*u2_1^2"


def test_witness_command(capsys):
    code, out, _ = run_cli(
        capsys, "witness", data_path("ex7_8"), "--format", "machine"
    )
    report = json.loads(out)
    assert report["results"]["returns_to_basepoint"] is True
    assert report["results"]["chain_length"] == 5


def test_witness_refuses_jets(tmp_path, capsys):
    # truncated chains cannot be evaluated at the witness's nonzero times
    jet = tmp_path / "jet.mf"
    jet.write_text("m=1\nd=1\norder=5\ntheta_bar_1 = w1*zeta1\n")
    for argv in (("witness", data_path("heisenberg"), "--order", "3"),
                 ("witness", str(jet))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err == ("error: witness search needs an EXACT manifold: a truncated "
                       "chain cannot be evaluated at nonzero times\n"), argv


def test_hormander_and_levi(capsys):
    code, out, _ = run_cli(
        capsys, "hormander", data_path("ex8_6"), "--format", "machine"
    )
    report = json.loads(out)
    assert [lvl[:2] for lvl in report["results"]["ladder"]] == [[2, 1], [3, 1], [4, 2]]
    code, out, _ = run_cli(capsys, "levi", data_path("heisenberg"), "--format", "machine")
    report = json.loads(out)
    assert report["results"]["levi_type"] == 1
    assert report["results"]["holomorphically_nondegenerate"] is True


def test_e1det_command(capsys):
    code, out, _ = run_cli(
        capsys, "e1det", data_path("quadric_elliptic"), "--format", "machine"
    )
    report = json.loads(out)
    assert report["results"]["nonzero"] is True
    assert report["results"]["determinant"] == "zeta1*zeta2"


def test_orbit_command_on_system_and_manifold(capsys):
    code, out, _ = run_cli(
        capsys, "orbit", data_path("orbit_heisenberg_like"), "--format", "machine"
    )
    report = json.loads(out)
    assert code == 0
    assert report["results"]["orbit_dim"] == 3
    assert report["results"]["certified"] is True
    code, out, _ = run_cli(
        capsys, "orbit", data_path("heisenberg"), "--format", "machine"
    )
    report = json.loads(out)
    assert report["results"]["orbit_dim"] == 3
    assert report["results"]["multitype_conjugate_start"] == report["results"]["multitype"]


def test_orbit_rank_deficit_names_the_point(tmp_path, capsys):
    path = tmp_path / "dependent.mf"
    path.write_text("kind=system\nn=2\nm=1\na=2\nfield_1_1_x1 = 1\nfield_2_1_x1 = 2\n")
    for fmt in ("human", "machine"):
        code, out, err = run_cli(capsys, "orbit", str(path), "--format", fmt)
        assert (code, out) == (1, "")
        assert err == ("error: the 2 component fields must be pointwise independent "
                       "(rank deficit at (0, 0))\n")


def test_base_generic_and_numeric(capsys):
    code, out, _ = run_cli(
        capsys, "ranks", data_path("ex8_10"), "--base", "generic",
        "--format", "machine",
    )
    assert json.loads(out)["results"]["e"][0] == 2
    # a valid numeric basepoint of the Heisenberg quadric: z = xi + i w zeta
    code, out, _ = run_cli(
        capsys, "minimality", data_path("heisenberg"),
        "--base", "1,i,1,0", "--format", "machine",
    )
    assert code == 0
    assert json.loads(out)["results"]["minimal"] is True
    # an off-manifold numeric basepoint is a verdict failure (exit 1)
    code, _, err = run_cli(
        capsys, "minimality", data_path("heisenberg"), "--base", "1,5,1,0",
    )
    assert code == 1


@pytest.mark.parametrize("command", ["levi", "hormander", "ranks", "chains",
                                     "minimality", "multitype", "witness"])
def test_truncated_manifold_refuses_a_nonzero_base(command, capsys):
    # jets evaluated at a nonzero point would answer for the wrong manifold:
    # one error: line and exit 1 (main raises nothing), as off the manifold
    code, out, err = run_cli(capsys, command, data_path("heisenberg"),
                             "--order", "5", "--base", "1,i,1,0")
    assert (code, out) == (1, "")
    assert err == ("error: a truncated manifold is not evaluated away from the "
                   "origin: a nonzero basepoint needs EXACT\n")


def test_corpus_command(capsys):
    code, out, _ = run_cli(capsys, "corpus", "--format", "machine")
    names = [e["name"] for e in json.loads(out)["results"]["manifests"]]
    assert "ex7_8" in names and len(names) >= 10


def test_machine_reports_byte_identical():
    cmd = [
        sys.executable, "-m", "segrechains.cli",
        "multitype", data_path("ex7_8"), "--format", "machine",
    ]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
    assert a.returncode == 0 and a.stdout == b.stdout


def test_checkall_bundled(capsys):
    code, out, _ = run_cli(capsys, "checkall", "--format", "machine")
    report = json.loads(out)
    assert code == 0
    assert report["results"]["failures"] == 0
    assert len(report["results"]["items"]) > 40


TRUNCATED_ORBIT = "m=1\nd=1\norder=3\ntheta_bar_1 = w1*zeta1 + w1^2*zeta1^2\n"
TRUNCATED_ORBIT_M2 = "m=2\nd=1\norder=3\ntheta_bar_1 = w1^2*zeta1^2 + w2^2*zeta2^2\n"


def test_orbit_of_a_truncated_manifest_uses_its_order(tmp_path, capsys):
    path = tmp_path / "jet.mf"
    path.write_text(TRUNCATED_ORBIT)
    reports = []
    for extra in ((), ("--order", "3")):
        code, out, err = run_cli(capsys, "orbit", str(path), *extra, "--format", "machine")
        assert code == 0 and err == "", extra
        reports.append(json.loads(out))
    assert reports[0] == reports[1]
    assert reports[0]["provenance"]["order"] == 3
    assert reports[0]["results"]["certified"] is True
    assert reports[0]["results"]["orbit_dim"] == 3
    # EXACT flows of a jet, or flows past its order, are refused, with one
    # error line; the m = 2 jet used to report order 5 and orbit_dim 4
    for text in (TRUNCATED_ORBIT, TRUNCATED_ORBIT_M2):
        path.write_text(text)
        for order in ("EXACT", "5"):
            code, out, err = run_cli(capsys, "orbit", str(path), "--order", order)
            assert code == 1 and out == "" and _single_error_line(err), (text, order)
            assert "truncated at order 3" in err


def test_manifold_commands_read_a_jet_at_most_at_its_order(tmp_path, capsys):
    # theta past a manifest's truncation is not known: hormander --order 5 on
    # the m = 2 jet used to read the unknown terms as zero and report minimal
    path = tmp_path / "jet.mf"
    path.write_text(TRUNCATED_ORBIT_M2)
    for command in ("validate", "ranks", "multitype", "hormander", "levi"):
        for order in ("EXACT", "4", "5"):
            code, out, err = run_cli(capsys, command, str(path), "--order", order)
            assert code == 1 and out == "" and _single_error_line(err), (command, order)
            assert "truncated at order 3" in err
    # its own order, or a lower one, is read as before
    reports = []
    for extra in ((), ("--order", "3"), ("--order", "2")):
        code, out, err = run_cli(capsys, "hormander", str(path), *extra, "--format", "machine")
        assert code == 0 and err == "", extra
        reports.append(json.loads(out))
    assert reports[0] == reports[1] and reports[0]["results"]["minimal"] is False
    assert reports[2]["provenance"]["order"] == 2


def test_checkall_orbits_of_truncated_manifests(tmp_path, capsys):
    (tmp_path / "jet.mf").write_text(TRUNCATED_ORBIT)
    (tmp_path / "jet.expected.json").write_text(json.dumps({"orbit_dim": 3}))
    (tmp_path / "jet_system.mf").write_text(
        "kind=system\nn=3\nm=1\na=2\norder=3\n"
        "field_1_1_x1 = 1\nfield_2_1_x2 = 1\nfield_2_1_x3 = x1\n")
    (tmp_path / "jet_system.expected.json").write_text(json.dumps({"orbit_dim": 3}))
    code, out, err = run_cli(capsys, "checkall", str(tmp_path), "--format", "machine")
    assert code == 0 and err == ""
    items = {(i["name"], i["check"]): i["ok"] for i in json.loads(out)["results"]["items"]}
    assert items == {("jet", "validate"): True, ("jet", "orbit_dim"): True,
                     ("jet_system", "orbit_dim"): True,
                     ("jet_system", "orbit_oracle_agreement"): True}


def test_checkall_detects_failure(tmp_path, capsys):
    (tmp_path / "wrong.mf").write_text("m=1\nd=1\ntheta_bar_1 = w1*zeta1\n")
    (tmp_path / "wrong.expected.json").write_text(json.dumps({"minimal": False}))
    code, out, _ = run_cli(capsys, "checkall", str(tmp_path))
    assert code == 1 and "FAIL" in out


def _single_error_line(err):
    lines = err.strip().splitlines()
    return len(lines) == 1 and lines[0].startswith("error:")


def test_trials_below_one_is_usage_error(capsys):
    for trials in ("0", "-3"):
        code, out, err = run_cli(
            capsys, "ranks", data_path("heisenberg"), "--trials", trials
        )
        assert code == 2 and out == "" and _single_error_line(err)


def test_max_length_below_two_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "hormander", data_path("heisenberg"), "--max-length", "1"
    )
    assert code == 2 and out == "" and _single_error_line(err)


def test_bad_manifests_are_usage_errors(tmp_path, capsys):
    zero_m = tmp_path / "zero_m.mf"
    zero_m.write_text("m=0\nd=1\ntheta_bar_1 = 0\n")
    deep = tmp_path / "deep.mf"
    deep.write_text("m=1\nd=1\ntheta_bar_1 = " + "(" * 2000 + "w1*zeta1" + ")" * 2000 + "\n")
    for path in (zero_m, deep):
        code, out, err = run_cli(capsys, "multitype", str(path))
        assert code == 2 and out == "" and _single_error_line(err)


def test_orbit_with_truncation_order_reports(tmp_path, capsys):
    # truncated flows used to crash the witness search (TruncationUnsound)
    code, out, err = run_cli(
        capsys, "orbit", data_path("heisenberg"), "--order", "3", "--format", "machine"
    )
    report = json.loads(out)
    assert code == 0 and err == ""
    assert report["results"]["orbit_dim"] == 3
    assert report["provenance"]["order"] == 3
    # degree-3 jets lose this manifold's length-4 bracket: an honest disagreement
    probe = tmp_path / "probe.mf"
    probe.write_text("m=2\nd=1\ntheta_bar_1 = w1^2*zeta1^2 + w2^3*zeta2^3\n")
    code, out, err = run_cli(capsys, "orbit", str(probe), "--order", "3",
                             "--format", "machine")
    results = json.loads(out)["results"]
    assert err == "" and code == (0 if results["certified"] else 1)
    assert results["flows_exact"] is False


def test_bad_order_is_usage_error(tmp_path, capsys):
    for command in ("ranks", "orbit", "levi"):
        for order in ("abc", "0", "-2", "3.5"):
            code, out, err = run_cli(
                capsys, command, data_path("heisenberg"), "--order", order
            )
            assert code == 2 and out == "" and _single_error_line(err), (command, order)
    for order in ("abc", "0"):
        bad = tmp_path / f"order_{order}.mf"
        bad.write_text(f"m=1\nd=1\norder={order}\ntheta_bar_1 = w1*zeta1\n")
        code, out, err = run_cli(capsys, "ranks", str(bad))
        assert code == 2 and out == "" and _single_error_line(err)
        assert f"{bad}:3:" in err


def test_bad_kmax_is_usage_error(capsys):
    for argv in (
        ("levi", data_path("heisenberg"), "--kmax", "0"),
        ("levi", data_path("heisenberg"), "--kmax", "-1"),
        ("chains", data_path("heisenberg"), "--kmax", "0"),
        ("ranks", data_path("heisenberg"), "--kmax", "2"),
        ("multitype", data_path("heisenberg"), "--kmax", "0"),
        ("orbit", data_path("heisenberg"), "--kmax", "1"),
        ("orbit", data_path("orbit_heisenberg_like"), "--kmax", "1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and _single_error_line(err), argv
    code, out, _ = run_cli(capsys, "levi", data_path("heisenberg"), "--kmax", "1")
    assert code == 0 and "Levi type at base = 1" in out


def test_argparse_errors_are_one_error_line(capsys):
    # type errors used to print a usage block before the error line
    for argv in (
        ("ranks", data_path("heisenberg"), "--kmax", "abc"),
        ("ranks", data_path("heisenberg"), "--seed", "x"),
        ("ranks", data_path("heisenberg"), "--trials", "x"),
        ("hormander", data_path("heisenberg"), "--max-length", "x"),
        ("ranks", data_path("heisenberg"), "--format", "xml"),
        ("no_such_command",),
        (),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and _single_error_line(err), argv
    for flag in ("-h", "--version"):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0 and capsys.readouterr().out


def test_oversized_expressions_are_usage_errors(tmp_path, capsys):
    for i, text in enumerate(("(1+w1+zeta1+xi1)^60", "w1^100000*zeta1")):
        path = tmp_path / f"big{i}.mf"
        path.write_text(f"m=1\nd=1\ntheta_bar_1 = {text}\n")
        code, out, err = run_cli(capsys, "ranks", str(path))
        assert code == 2 and out == "" and _single_error_line(err)


def test_flags_a_subcommand_ignores_are_usage_errors(capsys):
    # every subcommand declares only the flags it reads
    heis = data_path("heisenberg")
    for argv in (
        ("validate", heis, "--base", "junk", "--kmax", "99"),
        ("validate", heis, "--seed", "3"),
        ("e1det", data_path("quadric_elliptic"), "--base", "generic"),
        ("e1det", data_path("quadric_elliptic"), "--trials", "2"),
        ("corpus", "--order", "3"),
        ("corpus", "--seed", "1"),
        ("chains", heis, "--seed", "1"),
        ("hormander", heis, "--kmax", "4"),
        ("orbit", heis, "--base", "generic"),
        ("checkall", "--order", "3"),
        ("checkall", "--kmax", "3"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and _single_error_line(err), argv
        assert "unrecognized arguments" in err, argv
    # the refused flag keeps its value, which is not read as the manifest directory
    for argv in (("checkall", "--kmax", "3"), ("validate", heis, "--seed", "3")):
        _, _, err = run_cli(capsys, *argv)
        assert err == f"error: unrecognized arguments: {argv[-2]} 3\n", argv
    for argv in (
        ("validate", heis, "--order", "4"),
        ("e1det", data_path("quadric_elliptic"), "--order", "EXACT"),
        ("chains", heis, "--kmax", "2", "--base", "generic", "--parity", "Lbar"),
        ("hormander", heis, "--seed", "1", "--trials", "2", "--max-length", "3"),
        ("orbit", heis, "--kmax", "3", "--seed", "1", "--trials", "2"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 0 and err == "", argv


def test_cached_parser_answers_like_fresh_parsers(capsys):
    # build_parser runs once per process; calls in a row must not see each other
    heis = data_path("heisenberg")
    argvs = [
        ("validate", heis),
        ("checkall", "--kmax", "3"),
        ("ranks", heis, "--trials", "0"),
        ("validate", heis, "--seed", "3"),
        ("minimality", heis, "--trials", "2", "--format", "machine"),
        ("ranks", heis, "--kmax", "abc"),
        ("orbit", heis, "--base", "generic"),
        ("validate", heis),
        ("corpus",),
        ("hormander", heis, "--max-length", "1"),
    ]

    def run(argv):
        return run_cli(capsys, *argv)

    cached = [run(argv) for argv in argvs]
    assert build_parser() is build_parser()
    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(run(argv))
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 2, 2, 2, 0, 2, 2, 0, 0, 2]
    for code, out, err in cached:
        assert _single_error_line(err) if code else err == ""


def test_bundled_corpus_inside_an_archive_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # a package imported from a zip archive has no data directory to glob
    import zipfile

    corpus_module = sys.modules["segrechains.corpus"]  # the package re-exports corpus()
    archive = tmp_path / "segrechains.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        zf.write(data_path("heisenberg"), "segrechains/data/heisenberg.mf")
    monkeypatch.setattr(corpus_module.resources, "files",
                        lambda package: zipfile.Path(archive, "segrechains/"))
    for argv in (("checkall",), ("checkall", "--format", "machine"), ("corpus",)):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and _single_error_line(err), argv
        assert "checkall <dir>" in err, argv
    code, out, _ = run_cli(capsys, "checkall", str(tmp_path))
    assert code == 2 and out == ""  # no manifests in the archive's directory


def test_manifest_expression_errors_name_their_line(tmp_path, capsys):
    for text, message in (
        ("m=1\nd=1\n\ntheta_bar_1 = w1*zeta1 + q7\n", ":4: unknown variable 'q7'"),
        ("m=1\nd=1\ntheta_bar_1 = w1^100000*zeta1\n", ":3: exponent 100000 exceeds"),
        ("m=1\nd=1\ntheta_bar_1 = (1+w1+zeta1+xi1)^30\n", ":3: power could have"),
        ("kind=system\nn=2\nm=1\na=1\nfield_1_1_x1 = x1 +\n", ":5: unexpected end of input"),
        ("m=1\nd=1\ntheta_bar_1 =\n", ":3: unexpected end of input"),
        ("m=1\nd=1\ntheta_bar_1 = (w1*zeta1\n", ":3: expected ')', found end of input"),
        ("kind=system\nn=2\nm=1\na=1\nfield_1_1_y9 = 1\n", ":5: unknown variable 'y9'"),
        ("kind=system\nn=2\nm=1\na=1\n\nfield_2_1_x1 = 1\n", ":6: field_2_1_x1 out of range"),
    ):
        path = tmp_path / "located.mf"
        path.write_text(text)
        for command in ("validate", "orbit") if "theta" in text else ("orbit",):
            code, out, err = run_cli(capsys, command, str(path))
            assert code == 2 and out == "" and _single_error_line(err), text
            assert f"error: {path}{message}" in err, err


def test_base_at_the_end_of_input_is_a_usage_error(capsys):
    for base in (",,,", "1,i,1,", "1,(i,1,0"):
        code, out, err = run_cli(capsys, "ranks", data_path("heisenberg"), "--base", base)
        assert code == 2 and out == "" and _single_error_line(err), base
        assert err.startswith("error: --base: ") and "end of input" in err, err
        assert "None" not in err


def test_overlong_integer_literal_is_a_usage_error(tmp_path, capsys, digit_limit):
    digits = "3" * (digit_limit + 700)
    for expr in (f"{digits}*w1*zeta1", f"1/{digits}*w1*zeta1"):
        path = tmp_path / "long.mf"
        path.write_text(f"m=1\nd=1\ntheta_bar_1 = {expr}\n")
        code, out, err = run_cli(capsys, "ranks", str(path))
        assert code == 2 and out == "" and _single_error_line(err), expr
        assert err == f"error: {path}:3: {len(digits)}-digit integer is too long\n"


def test_duplicate_manifest_key_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "twice.mf"
    path.write_text("m=1\nd=1\ntheta_bar_1 = w1*zeta1\ntheta_bar_1 = w1^2*zeta1^2\n")
    for command in ("validate", "ranks", "levi", "orbit"):
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2 and out == "" and _single_error_line(err), command
        assert err == f"error: {path}:4: duplicate key 'theta_bar_1' (first given at line 3)\n"
    code, out, err = run_cli(capsys, "checkall", str(tmp_path))
    assert code == 2 and _single_error_line(err) and "duplicate key" in err


def test_unreadable_manifests_are_usage_errors(tmp_path, capsys):
    binary = tmp_path / "binary.mf"
    binary.write_bytes(b"m=1\nd=1\ntheta_bar_1 = w1*zeta1 \xff\n")
    code, out, err = run_cli(capsys, "validate", str(binary))
    assert code == 2 and out == "" and _single_error_line(err)
    assert err == f"error: {binary}: not UTF-8 text (byte 0xff at offset 31)\n"
    folder = tmp_path / "folder.mf"
    folder.mkdir()
    code, out, err = run_cli(capsys, "validate", str(folder))
    assert code == 2 and out == "" and _single_error_line(err)
    assert err.startswith(f"error: {folder}: cannot read")
    # checkall reaches the same loader through the directory's *.mf entries
    code, out, err = run_cli(capsys, "checkall", str(tmp_path))
    assert code == 2 and out == "" and _single_error_line(err)
    # a missing file keeps its message
    code, _, err = run_cli(capsys, "validate", str(tmp_path / "absent.mf"))
    assert code == 2 and "No such file or directory" in err


@pytest.mark.parametrize("text, message", [
    ('{"minimal": tru', "invalid JSON"),
    ("[1, 2]", "expected a JSON object"),
    ('{"minmal": true}', "unknown key 'minmal'"),
    ('{"reparam_upto": "3"}', "key 'reparam_upto' must be an integer"),
    ('{"gamma_components": [1]}', "key 'gamma_components' must be an object"),
    ('{"minimal": "yes"}', "key 'minimal' must be true or false"),
    ('{"sigma_symmetry_upto": true}', "key 'sigma_symmetry_upto' must be an integer"),
    ('{"gamma_components": {"0": ["u1_1"]}}', "key 'gamma_components' must be an object"),
    # chain lengths above the reparametrization bound would run without end
    ('{"gamma_components": {"400": ["x"]}}',
     "key 'gamma_components' must be an object from chain lengths 1 to 5"),
    pytest.param('{"gamma_components": {"%s": ["x"]}}' % ("9" * 5000),
                 "key 'gamma_components' must be an object", id="5000-digit-chain-length"),
    ('{"sigma_symmetry_upto": 6}', "key 'sigma_symmetry_upto' must be an integer from 1 to 5"),
    ('{"reparam_upto": 6}', "key 'reparam_upto' must be an integer from 1 to 5"),
    ('{"reparam_upto": 0}', "key 'reparam_upto' must be an integer from 1 to 5"),
])
def test_bad_checkall_sidecars_are_usage_errors(tmp_path, capsys, text, message):
    (tmp_path / "heis.mf").write_text("m=1\nd=1\ntheta_bar_1 = w1*zeta1\n")
    sidecar = tmp_path / "heis.expected.json"
    sidecar.write_text(text)
    code, out, err = run_cli(capsys, "checkall", str(tmp_path))
    assert code == 2 and out == "" and _single_error_line(err)
    assert err.startswith(f"error: {sidecar}: {message}")


@pytest.mark.parametrize("command, name, base, n", [
    ("levi", "heisenberg", "1,i,1", 2),
    ("witness", "heisenberg", "1,i,1,0,0", 2),
    ("hormander", "ex8_10", "0", 4),
], ids=["short", "long", "one-scalar"])
def test_base_with_the_wrong_number_of_scalars_is_a_usage_error(capsys, command, name, base, n):
    code, out, err = run_cli(capsys, command, data_path(name), "--base", base)
    assert (code, out) == (2, "")
    assert err == f"error: --base needs {2 * n} comma-separated scalars (w, z, zeta, xi)\n"
