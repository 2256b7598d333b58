import hashlib
import json
import pathlib
import time

import pytest

from supercoh import catalog, cli

DATA = pathlib.Path(__file__).parent / "data"

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


# sha256 of each catalog entry's `cohomology --json` payload, keyed
# entry/degree/kind, serialized with sorted keys and no spaces
COHOMOLOGY_PAYLOAD_SHA256 = {
    "a1-null/0/lie": "f59421f2cfdfe1ca13099c379f607f53f325ec8be6630813a4b18b32d25f69f1",
    "a1-null/0/restricted": "b009d2afa0bfdadcd6f76effdb38c276c996687c7f5f063b473e7acae824833a",
    "a1-null/1/lie": "b5919a92afbc776d1f60c7c32d8c5b511974380490c243623398a354db19c89f",
    "a1-null/1/restricted": "84749f918ade82c62b8631b7e9ebcc55b4be64061bfd48b25db195cdb722e21f",
    "a1-null/2/lie": "39b5c20c89e68c914b6301f75581644e87368107883c60013602c4d1f0238a83",
    "a1-null/2/restricted": "4de88f171ee9c8878346c2e7225df4164eff468a227ad8f1a14be30fbdcc4b96",
    "a2-torus/0/lie": "f59421f2cfdfe1ca13099c379f607f53f325ec8be6630813a4b18b32d25f69f1",
    "a2-torus/0/restricted": "b009d2afa0bfdadcd6f76effdb38c276c996687c7f5f063b473e7acae824833a",
    "a2-torus/1/lie": "b5919a92afbc776d1f60c7c32d8c5b511974380490c243623398a354db19c89f",
    "a2-torus/1/restricted": "6643f410a9655771682686a53ec7ad7294c165096d364f72d3e1b0d5d2d1ecf3",
    "a2-torus/2/lie": "39b5c20c89e68c914b6301f75581644e87368107883c60013602c4d1f0238a83",
    "a2-torus/2/restricted": "fe9a5abe60ba868d01c134123879cf3e7c8128601cd52fad46c3a90b3af7f5f0",
    "a3-heisenberg/0/lie": "f59421f2cfdfe1ca13099c379f607f53f325ec8be6630813a4b18b32d25f69f1",
    "a3-heisenberg/0/restricted": "b009d2afa0bfdadcd6f76effdb38c276c996687c7f5f063b473e7acae824833a",
    "a3-heisenberg/1/lie": "e81189b19fa02d9b07cedf5fb71f64f2447f871f1980a103c726c61c9622bfa8",
    "a3-heisenberg/1/restricted": "6643f410a9655771682686a53ec7ad7294c165096d364f72d3e1b0d5d2d1ecf3",
    "a3-heisenberg/2/lie": "860224aa42998062dabedf5959e8a04d43e5dca6d81f1d94cad7562c416d0544",
    "a3-heisenberg/2/restricted": "2f762756b8959589eaea1ce4805eb698de58260d8d6da44338154f0965c9df63",
    "a4-borel/0/lie": "f59421f2cfdfe1ca13099c379f607f53f325ec8be6630813a4b18b32d25f69f1",
    "a4-borel/0/restricted": "b009d2afa0bfdadcd6f76effdb38c276c996687c7f5f063b473e7acae824833a",
    "a4-borel/1/lie": "5f355c14780ad670ce2f53d77356463ede5a92f0db45c0ba59afbe6353e26025",
    "a4-borel/1/restricted": "19c3519cf8738d816c0ce7a9bb9e94ed67d28074ada1839b7765c6fc8c76e05f",
    "a4-borel/2/lie": "860224aa42998062dabedf5959e8a04d43e5dca6d81f1d94cad7562c416d0544",
    "a4-borel/2/restricted": "ae611488f84a82e3aea40acdbaa95b4df9bd38044ed4238d945fcb5cd73d9d8d",
    "a4-borel-adjoint/0/lie": "89e4b0232e1ec838959eaeca828122600dc1703a94d1bbd5268f1758eecb3060",
    "a4-borel-adjoint/0/restricted": "6f741f475c145bafcf5a969e9c0393aae731c1d07bbeace9a188e551035f0b40",
    "a4-borel-adjoint/1/lie": "8b128f70e2749dab546a781e570811835afd594ad4aa7b0b97982baf3fa0c18e",
    "a4-borel-adjoint/1/restricted": "fbf2b1c33794718418408319ee7903f241aac76da27da15eb9d165115066a37a",
    "a4-borel-adjoint/2/lie": "bb5f96864e5e2dde9b163e27fcdfdebeb1e83c69fbdb08856e8466ab83d2d59c",
    "a4-borel-adjoint/2/restricted": "bf466ab88723435880b8c7bb1763dacd2ccd649a3456369b2ede28c751889552",
    "a4-borel-dual/0/lie": "8fb224ab80cf98ceb1a8cd6b9cf31dae1036c840597644ae62b9ab6d4b0fb881",
    "a4-borel-dual/0/restricted": "9111d5d1133ee52ac8877e0bb490bcd90d29594c79a82308e01fe983bd79ecdf",
    "a4-borel-dual/1/lie": "6d0f76345f3f8333ddeb020cea4880917452a25240721bfee6adad486903562e",
    "a4-borel-dual/1/restricted": "def243393247add9de66f2c31cdadc44ef21a96e2b22267c3e04ba784e072ecf",
    "a4-borel-dual/2/lie": "f5833e3695b57e8cbd64c2b7a6d4837730042c3830ec0779bb266146394be19b",
    "a4-borel-dual/2/restricted": "48fd72527aa2fe8c07820f32201c9e0da478c38309a4270e09fd696196572d40",
    "a5-odd-line/0/lie": "f59421f2cfdfe1ca13099c379f607f53f325ec8be6630813a4b18b32d25f69f1",
    "a5-odd-line/0/restricted": "b009d2afa0bfdadcd6f76effdb38c276c996687c7f5f063b473e7acae824833a",
    "a5-odd-line/1/lie": "c8924fa00eb3096ca5b92eff41e4ea3df3f5b95d39b4e1e8dfe19d8628da8e60",
    "a5-odd-line/1/restricted": "13657081e3d54b53bc1100c4f3db8867b9c341abe9cca5cd4840d3e152df8c72",
    "a5-odd-line/2/lie": "6522b062a29d10f04909fe00b74400019c9ac234f2607fa00eac34d244957306",
    "a5-odd-line/2/restricted": "c57d4af272dc3cf06b334a79030baa81602dde0ff3519cf3252b47e2fa311427",
    "a6-abelian-plane/0/lie": "f59421f2cfdfe1ca13099c379f607f53f325ec8be6630813a4b18b32d25f69f1",
    "a6-abelian-plane/0/restricted": "b009d2afa0bfdadcd6f76effdb38c276c996687c7f5f063b473e7acae824833a",
    "a6-abelian-plane/1/lie": "aa5303509126cc1b5b0bd36cb3ee05a7f6e8f8f107ecd43b24be2a1bff4a7b7c",
    "a6-abelian-plane/1/restricted": "847f3a59034a18984e3076e330b51767c45f940dc8504aa5d0e946a75400dd51",
    "a6-abelian-plane/2/lie": "6522b062a29d10f04909fe00b74400019c9ac234f2607fa00eac34d244957306",
    "a6-abelian-plane/2/restricted": "02b311a480adb7de659a145c08a2c53d0513747f56cb441ec254ee436673e6ea",
    "a7-mixed-line/0/lie": "f59421f2cfdfe1ca13099c379f607f53f325ec8be6630813a4b18b32d25f69f1",
    "a7-mixed-line/0/restricted": "b009d2afa0bfdadcd6f76effdb38c276c996687c7f5f063b473e7acae824833a",
    "a7-mixed-line/1/lie": "b5919a92afbc776d1f60c7c32d8c5b511974380490c243623398a354db19c89f",
    "a7-mixed-line/1/restricted": "6643f410a9655771682686a53ec7ad7294c165096d364f72d3e1b0d5d2d1ecf3",
    "a7-mixed-line/2/lie": "e44d75bb9fde391efad129eeca77cdf89f64ceb480601d9c7cab8e8626d2e3f5",
    "a7-mixed-line/2/restricted": "6330e26f36caf407fb6129e08a57a463a897367611af34863a55f0661046b4d5",
    "a8-torus-null-plane/0/lie": "f59421f2cfdfe1ca13099c379f607f53f325ec8be6630813a4b18b32d25f69f1",
    "a8-torus-null-plane/0/restricted": "b009d2afa0bfdadcd6f76effdb38c276c996687c7f5f063b473e7acae824833a",
    "a8-torus-null-plane/1/lie": "aa5303509126cc1b5b0bd36cb3ee05a7f6e8f8f107ecd43b24be2a1bff4a7b7c",
    "a8-torus-null-plane/1/restricted": "deb36a4b7ceccc6901630f86eca7ea8f04fc6fc310b1f0d9997e28581963f67d",
    "a8-torus-null-plane/2/lie": "6522b062a29d10f04909fe00b74400019c9ac234f2607fa00eac34d244957306",
    "a8-torus-null-plane/2/restricted": "941e0963b95bcb4f18e02731d04f08503485ed17ee3b836ffef5775731b3815d",
    "a9-borel-semidirect/0/lie": "f59421f2cfdfe1ca13099c379f607f53f325ec8be6630813a4b18b32d25f69f1",
    "a9-borel-semidirect/0/restricted": "b009d2afa0bfdadcd6f76effdb38c276c996687c7f5f063b473e7acae824833a",
    "a9-borel-semidirect/1/lie": "873041876175658ab53d8b21b260a7070c82012497b7b14357d16d62c8d44b3a",
    "a9-borel-semidirect/1/restricted": "449f11ec018951dafd953ab19382adfc81678fcaa8ceabf55aff9cae3d46e553",
    "a9-borel-semidirect/2/lie": "5195a0d7dda71a887d8635dfea8abb581ad7121f976517e8ef2e6cce8ca90b2a",
    "a9-borel-semidirect/2/restricted": "074856ee02c699886cd84ad53d9f1aacd282229461dd526a0fb38f9a750eeed0",
    "a3-heisenberg-adjoint/0/lie": "597574effaffc7fe589ccee8ecd314b7911163a9d216792fd36b3722beebd89b",
    "a3-heisenberg-adjoint/0/restricted": "1f92640998545bc93c225591ed34e91af85ae2323af4becb4efc764724cc2d58",
    "a3-heisenberg-adjoint/1/lie": "1242a2d499bbbd7558e5369587fec158f9aaa6d7a84c552743c0a05cc99d5e73",
    "a3-heisenberg-adjoint/1/restricted": "3d53cf897210f3abefd51c809ff4db93639b5a7e0cb1671b61a7a06af40f5197",
    "a3-heisenberg-adjoint/2/lie": "be059b0ff58dd54ad65c3241ce5820a6282b881bc39d8a96adaac955f9532528",
    "a3-heisenberg-adjoint/2/restricted": "22bef5709833b481875cb6b5a03da3051138f4b07ca1d07f399e77c9a5afe793",
    "a1-null-p5/0/lie": "85fb5f23aa19e6b31550077e1a2fed7eb8a2939af77d6b2e3953f8877105955f",
    "a1-null-p5/0/restricted": "666530151798d0b182395007660f843b126c498c29fdf2dac97b8a9d9185de0d",
    "a1-null-p5/1/lie": "f0fbafe0e1f05de6a8cda4b59739269883646d4849ff6f9c16e9768cb7d0b5eb",
    "a1-null-p5/1/restricted": "8f2ea0d8b844865642a41f62ffabf38efcf8a9a96f6f2b02870db89c429bbb81",
    "a1-null-p5/2/lie": "d3faa41c000a0f844ec11ca7d48d97b0185d130a8c4557dbaa778dd2078c3000",
    "a1-null-p5/2/restricted": "b0e3b4aa90b21e5e4bbe55b9b1b40aa05ec0f9556ccd7ff8169999b2b3fe2e4b",
    "a2-torus-p5/0/lie": "85fb5f23aa19e6b31550077e1a2fed7eb8a2939af77d6b2e3953f8877105955f",
    "a2-torus-p5/0/restricted": "666530151798d0b182395007660f843b126c498c29fdf2dac97b8a9d9185de0d",
    "a2-torus-p5/1/lie": "f0fbafe0e1f05de6a8cda4b59739269883646d4849ff6f9c16e9768cb7d0b5eb",
    "a2-torus-p5/1/restricted": "592d73e561424be15e6ba703679111dfa7167d071136de33316936fe0e18ba6c",
    "a2-torus-p5/2/lie": "d3faa41c000a0f844ec11ca7d48d97b0185d130a8c4557dbaa778dd2078c3000",
    "a2-torus-p5/2/restricted": "9201390cac79afdde48e3a82d28142c10a225042953155dc7583b6f359f020fd",
    "a3-heisenberg-p5/0/lie": "85fb5f23aa19e6b31550077e1a2fed7eb8a2939af77d6b2e3953f8877105955f",
    "a3-heisenberg-p5/0/restricted": "666530151798d0b182395007660f843b126c498c29fdf2dac97b8a9d9185de0d",
    "a3-heisenberg-p5/1/lie": "cfa3e389e9e4966058eb3851d4b169954dbcc2266a02ff39bbdf98567c7af79c",
    "a3-heisenberg-p5/1/restricted": "592d73e561424be15e6ba703679111dfa7167d071136de33316936fe0e18ba6c",
    "a3-heisenberg-p5/2/lie": "657767a46cf49c82ec068ac65dbb77e24d18ca5e7911eb6be330e3d969b0057c",
    "a3-heisenberg-p5/2/restricted": "e7417efca041fd60cd268fb87a52dd5cf1c70cdb3d7366da252c1fab7b31f8a1",
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


def test_p_from_2_16_up_exits_2_at_once(tmp_path, capsys):
    """sl2 at p = 2^31 - 1 is refused before any trial division or p-map
    check runs (validating it took minutes, one Jacobson term per
    k < p)."""
    from conftest import SL2_P5

    f = tmp_path / "sl2-big-p.json"
    f.write_text(json.dumps(dict(SL2_P5, p=2147483647)))
    t0 = time.perf_counter()
    assert run(["validate", str(f)]) == cli.EXIT_PARSE
    assert time.perf_counter() - t0 < 5
    assert "below 2^16" in capsys.readouterr().err
    free = dict(SL2_P5)
    del free["p"]
    f.write_text(json.dumps(free))
    assert run(["validate", str(f), "--p-override", "65537"]) == cli.EXIT_PARSE
    assert "below 2^16" in capsys.readouterr().err


def _borel_file(tmp_path, h_action=None, hx_bracket=None):
    """a4-borel with its adjoint action of h, or its bracket [h, x],
    replaced."""
    data = json.loads(json.dumps(catalog.get_entry("a4-borel").data))
    if h_action is not None:
        data["modules"]["adjoint"]["action"]["h"] = h_action
    if hx_bracket is not None:
        data["brackets"]["[h,x]"] = hx_bracket
    f = tmp_path / "borel.json"
    f.write_text(json.dumps(data))
    return f


@pytest.mark.parametrize("change, message", [
    ({"h_action": [[0, 0], [0]]}, "action of 'h' must be a 2x2 matrix"),
    ({"h_action": [[0, 0], [0, 1.7]]}, "entry must be an integer, got 1.7"),
    ({"h_action": [[0, 0], [0, "1"]]}, "entry must be an integer, got '1'"),
    ({"h_action": [[0, 0], [0, True]]}, "entry must be an integer, got True"),
    ({"hx_bracket": {"x": True}},
     "coefficient of 'x' must be an integer, got True"),
], ids=["ragged", "float", "string", "bool", "bool-bracket"])
def test_malformed_numbers_are_parse_errors(tmp_path, capsys, change,
                                            message):
    """Every matrix entry and coefficient must be a JSON integer; a bool,
    float or string is not read as a number."""
    assert run(["validate", str(_borel_file(tmp_path, **change))]) == \
        cli.EXIT_PARSE
    assert message in capsys.readouterr().err


def test_huge_action_entry_is_reduced_mod_p(tmp_path):
    """10^20 = 1 mod 3, so the file is a4-borel's own adjoint module, and
    10^20 + 1 = 2 breaks it; 10^20 overflowed int64 before being
    reduced."""
    f = _borel_file(tmp_path, h_action=[[0, 0], [0, 10 ** 20]])
    assert run(["validate", str(f)]) == cli.EXIT_OK
    f = _borel_file(tmp_path, h_action=[[0, 0], [0, 10 ** 20 + 1]])
    assert run(["validate", str(f)]) == cli.EXIT_VALIDATION


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
    """The warning counts the degree-2 bar cells, (dim u - 1)^2 dim M, the
    largest space a bar route builds, and fires above 10^6: sl2 at p = 11
    with adjoint M (1330^2 * 3 ~ 5.3M) and W(1) at p = 5 with trivial M
    (3124^2 ~ 9.8M) warn, sl2 at p = 7 with adjoint M (342^2 * 3 ~ 0.35M)
    and a9-borel-semidirect |x ad with trivial M (728^2 ~ 0.53M) do not.
    The estimate alone is checked, the complex is never built."""
    from supercoh.algfile import parse_algebra_dict
    from supercoh.superalg import adjoint_module, semidirect, trivial_module

    sl2 = json.loads((DATA / "sl2.json").read_text())
    for p, want in ((11, "~5306700 degree-2 cells"), (7, None)):
        g, modules, _ = parse_algebra_dict(dict(sl2, p=p))
        cli._size_warning(g, modules["adjoint"])
        err = capsys.readouterr().err
        assert want in err if want else err == "", p
    g, modules, _ = parse_algebra_dict(
        json.loads((DATA / "witt-p5.json").read_text()))
    cli._size_warning(g, modules["trivial"])
    assert "~9759376 degree-2 cells" in capsys.readouterr().err
    g, _, _ = parse_algebra_dict(catalog.get_entry("a9-borel-semidirect").data)
    E, _ = semidirect(g, adjoint_module(g))
    cli._size_warning(E, trivial_module(E))
    assert capsys.readouterr().err == ""


def test_restricted_h2_of_sl2_p5_adjoint_under_a_3gb_cap():
    """``cohomology --kind restricted --degree 2`` spans H^2_* from B^2_*
    and the pair-class fills, so sl2 at p = 5 with adjoint M (46128 bar
    2-cochains) exits 0 in a child process whose address space is capped
    at 3 GB, where the nullspace of the full bar d2 ran out of memory.  Its
    H^2_* has the report's dimension: Z = B = 369, H = 0."""
    import os
    import resource
    import subprocess
    import sys

    import supercoh
    from supercoh.algfile import parse_algebra_dict
    from supercoh.sixterm import build_six_term

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 * 2 ** 30,) * 2)
    src = str(pathlib.Path(supercoh.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "supercoh.cli", "cohomology",
         str(DATA / "sl2.json"), "--kind", "restricted", "--p-override", "5",
         "--module", "adjoint", "--degree", "2", "--json", "-"],
        capture_output=True, text=True, preexec_fn=cap, timeout=120,
        env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr[-2000:]
    payload = json.loads(done.stdout[done.stdout.index("{"):])["payload"]
    g, modules, _ = parse_algebra_dict(
        dict(json.loads((DATA / "sl2.json").read_text()), p=5))
    report = build_six_term(g, modules["adjoint"])
    assert payload["dim_h"] == report.dims[3] == 0
    assert payload["dim_cocycles"] == payload["dim_coboundaries"] == 369


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


def test_cohomology_payloads_golden(tmp_path, capsys):
    assert {k.split("/")[0] for k in COHOMOLOGY_PAYLOAD_SHA256} == \
        set(catalog.entry_ids())
    for e in catalog.ENTRIES:
        path = write_entry(tmp_path, e.entry_id)
        out = tmp_path / "report.json"
        for n in (0, 1, 2):
            for kind in ("lie", "restricted"):
                assert run(["cohomology", str(path), "--module", e.module_name,
                            "--degree", str(n), "--kind", kind,
                            "--json", str(out)]) == 0, (e.entry_id, n, kind)
                payload = json.loads(out.read_text())["payload"]
                text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
                digest = hashlib.sha256(text.encode()).hexdigest()
                assert digest == COHOMOLOGY_PAYLOAD_SHA256[
                    f"{e.entry_id}/{n}/{kind}"], (e.entry_id, n, kind)


def test_examples_list_show(capsys):
    assert run(["examples", "list"]) == 0
    out = capsys.readouterr().out
    for e in catalog.ENTRIES:
        assert e.entry_id in out
    assert run(["examples", "show", "a5-odd-line"]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["odd"] == ["y"]
    assert run(["examples", "show"]) == cli.EXIT_PARSE
    capsys.readouterr()
    assert run(["examples", "show", "a0-nowhere"]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert "parse error" in err and "'a0-nowhere'" in err


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
