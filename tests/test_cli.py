import hashlib
import json

from supercoh import catalog, cli

# sha256 of each catalog entry's `sixterm --json` payload without the
# `algebra` field (the input path), serialized with sorted keys and no spaces
SIXTERM_PAYLOAD_SHA256 = {
    "a1-null": "658ff3598eecf5118f102c0ca63b5c74fd717e3d09a1c9bc7c49fcf453d7c80b",
    "a2-torus": "39f5d649320460bb14e5026f4881ec67f568136b28b9d423436d06bd54af54ec",
    "a3-heisenberg": "1c2d45f69c39394b19734c9a89f2ae1847f2c0b962168f3138ca2bf8c2221571",
    "a4-borel": "d1c2c4eadf10fafc5430f4ee6e22a84702240067a98cb8892cb2c8aa5ce489bc",
    "a4-borel-adjoint": "40a5baafe998a811bb36edf2a198258dc962e1b130b0cd5ad6884f6c51451967",
    "a4-borel-dual": "35b7791f6e7899fc6feeb705814a3dce4db7154c6a8330124bead70fd05a5979",
    "a5-odd-line": "0167493cb31075d51e516f85ed0e66a1a8bf2530e38d3ef6756d5ac5b5278421",
    "a6-abelian-plane": "0ff452b13cf79f3cb0211b33768ab4498486e39a3b0c66d21fc02d0f38d84ddf",
    "a7-mixed-line": "39f5d649320460bb14e5026f4881ec67f568136b28b9d423436d06bd54af54ec",
    "a8-torus-null-plane": "4a6bb9ecfd9b16f492ac575dfe5d733b16551b0990a979f148e8bfa94f005154",
    "a9-borel-semidirect": "64f1b3d9674325c861455c42cde72a79ca280072f50c18ba9e3471d886d185b0",
    "a3-heisenberg-adjoint": "e800f3759e0f210f2f2abfec3c9e3778fcf8dadb3fdec823cf938ffa43cdb5a3",
    "a1-null-p5": "26f312fed3535f9f38e3d0719e1a79151636bd38a12f91009bcae2af2798703b",
    "a2-torus-p5": "4bee909d045e7501388cfa6e9a83537b3ea867338ec596bf97b77f941096c8f2",
    "a3-heisenberg-p5": "f64bcd8dbc9c0acd8394c056228028c0bd71fd304855ff025d98b18d849c5405",
}


def write_entry(tmp_path, entry_id, name="alg.json"):
    e = catalog.get_entry(entry_id)
    path = tmp_path / name
    path.write_text(json.dumps(e.data, indent=2, sort_keys=True))
    return path


def run(argv):
    return cli.main(argv)


def test_validate_ok(tmp_path, capsys):
    path = write_entry(tmp_path, "a4-borel")
    assert run(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "(2|0)" in out and "GF(3)" in out


def test_validate_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["validate", str(bad)]) == cli.EXIT_PARSE
    assert "parse error" in capsys.readouterr().err


def test_validate_missing_file(capsys):
    assert run(["validate", "/nonexistent/x.json"]) == cli.EXIT_PARSE


def test_p_must_be_odd_prime(tmp_path, capsys):
    f = tmp_path / "p2.json"
    f.write_text(json.dumps({"p": 2, "even": ["x"], "odd": []}))
    assert run(["validate", str(f)]) == cli.EXIT_PARSE
    assert "odd prime" in capsys.readouterr().err


def test_broken_jacobi_exits_3_with_indices(tmp_path, capsys):
    data = {
        "p": 3,
        "even": ["a", "b", "c"],
        "odd": [],
        "brackets": {"[a,b]": {"c": 1}, "[a,c]": {"a": 1}},
        "pmap": {},
    }
    f = tmp_path / "jacobi.json"
    f.write_text(json.dumps(data))
    assert run(["validate", str(f)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "jacobi" in err and "(" in err


def test_validate_p17_module_powers_reduced(tmp_path, capsys):
    """rho(t)^17 = rho(t) holds exactly for this matrix; an int64 power
    reduced only at the end wraps and reports a false violation."""
    data = {
        "p": 17, "even": ["t"], "odd": [], "brackets": {},
        "pmap": {"t": {"t": 1}},
        "modules": {"m": {"even": ["a", "b", "c"], "odd": [], "action": {
            "t": [[16, 6, 7], [14, 9, 16], [14, 12, 12]]}}},
    }
    f = tmp_path / "t17.json"
    f.write_text(json.dumps(data))
    assert run(["validate", str(f)]) == 0, capsys.readouterr().err


def test_size_warning_for_every_p(capsys):
    """A 5-dim torus at p = 3 has (3^5 - 1)^3 ~ 14.2M degree-3 bar cells;
    the estimate alone is checked, the complex is never built."""
    import numpy as np
    from supercoh.superalg import LieSuperAlgebra, SuperSpace, trivial_module

    g = LieSuperAlgebra(SuperSpace(tuple("abcde"), ()), 3,
                        np.zeros((5, 5, 5), dtype=np.int64))
    cli._size_warning(g, trivial_module(g))
    assert "~14172488 degree-3 cells" in capsys.readouterr().err
    small = LieSuperAlgebra(SuperSpace(("a", "b"), ()), 3,
                            np.zeros((2, 2, 2), dtype=np.int64))
    cli._size_warning(small, trivial_module(small))
    assert capsys.readouterr().err == ""


def test_restricted_cohomology_command_warns_on_size(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "_size_warning", lambda g, rep: seen.append(rep))
    path = write_entry(tmp_path, "a3-heisenberg")
    assert run(["cohomology", str(path), "--module", "k",
                "--degree", "1", "--kind", "lie"]) == 0
    assert seen == []
    assert run(["cohomology", str(path), "--module", "k",
                "--degree", "1", "--kind", "restricted"]) == 0
    assert len(seen) == 1


def test_duplicate_bracket_pair_rejected(tmp_path, capsys):
    data = {
        "p": 3,
        "even": ["h", "x"],
        "odd": [],
        "brackets": {"[h,x]": {"x": 1}, "[x,h]": {"x": -1}},
        "pmap": {"h": {"h": 1}},
    }
    f = tmp_path / "dup.json"
    f.write_text(json.dumps(data))
    assert run(["validate", str(f)]) == cli.EXIT_PARSE


def test_p_override_rules(tmp_path, capsys):
    pinned = write_entry(tmp_path, "a1-null", "pinned.json")
    assert run(["validate", str(pinned), "--p-override", "5"]) == cli.EXIT_PARSE
    free = tmp_path / "free.json"
    data = dict(catalog.get_entry("a1-null").data)
    del data["p"]
    free.write_text(json.dumps(data))
    assert run(["validate", str(free)]) == cli.EXIT_PARSE
    assert run(["validate", str(free), "--p-override", "5"]) == 0


def test_cohomology_command(tmp_path, capsys):
    path = write_entry(tmp_path, "a3-heisenberg")
    assert run(["cohomology", str(path), "--module", "k",
                "--degree", "1", "--kind", "lie"]) == 0
    assert "= 0" in capsys.readouterr().out
    assert run(["cohomology", str(path), "--module", "k",
                "--degree", "2", "--kind", "restricted"]) == 0
    assert "= 1" in capsys.readouterr().out
    assert run(["cohomology", str(path), "--module", "nope",
                "--degree", "1", "--kind", "lie"]) == cli.EXIT_VALIDATION


def test_module_pmap_warning(tmp_path, capsys):
    data = dict(catalog.get_entry("a1-null").data)
    data["modules"] = {"k": {"even": ["m"], "odd": [], "action": {},
                             "pmap": {"m": {"m": 1}}}}
    f = tmp_path / "warn.json"
    f.write_text(json.dumps(data))
    assert run(["validate", str(f)]) == 0
    assert "strongly abelian" in capsys.readouterr().err


def test_sixterm_command_and_report(tmp_path, capsys):
    path = write_entry(tmp_path, "a1-null")
    out = tmp_path / "report.json"
    assert run(["sixterm", str(path), "--module", "k", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["payload"]["dims"] == [1, 1, 1, 1, 0, 0]
    assert report["payload"]["all_exact"] is True
    assert report["schema_version"] == 1
    assert "exact_at_H2s" in report["payload"]["exactness"]


def test_report_determinism(tmp_path):
    path = write_entry(tmp_path, "a4-borel")
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(["sixterm", str(path), "--module", "k", "--json", str(out1)]) == 0
    assert run(["sixterm", str(path), "--module", "k", "--json", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    r1 = json.loads(out1.read_text())
    assert "timings" not in json.dumps(r1)  # telemetry stays out of the payload


def test_sixterm_payloads_golden(tmp_path, capsys):
    assert set(SIXTERM_PAYLOAD_SHA256) == set(catalog.entry_ids())
    for e in catalog.ENTRIES:
        path = write_entry(tmp_path, e.entry_id)
        out = tmp_path / "report.json"
        assert run(["sixterm", str(path), "--module", e.module_name,
                    "--json", str(out)]) == 0, e.entry_id
        payload = json.loads(out.read_text())["payload"]
        del payload["algebra"]
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == SIXTERM_PAYLOAD_SHA256[e.entry_id], e.entry_id


def test_examples_list_show(capsys):
    assert run(["examples", "list"]) == 0
    out = capsys.readouterr().out
    for e in catalog.ENTRIES:
        assert e.entry_id in out
    assert run(["examples", "show", "a5-odd-line"]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["odd"] == ["y"]
    assert run(["examples", "show"]) == cli.EXIT_PARSE


def test_examples_run_all(capsys):
    assert run(["examples", "run-all"]) == 0
    out = capsys.readouterr().out
    assert "all exact" in out
    for e in catalog.ENTRIES:
        assert e.entry_id in out


def test_exactness_failure_exit_code(tmp_path, monkeypatch, capsys):
    import supercoh.sixterm as sixterm_mod

    real = sixterm_mod.build_six_term

    def broken(g, rep, algebra_id="g", module_id="M", **kw):
        report = real(g, rep, algebra_id, module_id, **kw)
        report.exactness["exact_at_H1"] = False
        return report

    monkeypatch.setattr(sixterm_mod, "build_six_term", broken)
    path = write_entry(tmp_path, "a1-null")
    assert run(["sixterm", str(path), "--module", "k"]) == cli.EXIT_EXACTNESS


def test_selftest(capsys):
    assert run(["selftest", "--seed", "3"]) == 0
    assert "selftest: ok" in capsys.readouterr().out


def test_json_to_stdout(tmp_path, capsys):
    path = write_entry(tmp_path, "a1-null")
    assert run(["validate", str(path), "--json", "-"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert payload["payload"]["valid"] is True


def test_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    import supercoh.sixterm as sixterm_mod

    def boom(*a, **kw):
        raise RuntimeError("synthetic fault")

    monkeypatch.setattr(sixterm_mod, "build_six_term", boom)
    path = write_entry(tmp_path, "a1-null")
    assert run(["sixterm", str(path), "--module", "k"]) == cli.EXIT_INTERNAL
    assert "internal error" in capsys.readouterr().err
