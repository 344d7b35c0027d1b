"""Pinned output bytes: the sha256 of every file eight CLI runs write at
`--seed 7 --out D`, and of what three runs print to stdout.

A refactor of the exact core must leave these files byte for byte as they
were.  A deliberate change to a report format or to the draws behind it
must update the digests here in the same change, and say so."""

import hashlib
from pathlib import Path

import pytest

from cigrid.cli import main
from cigrid.matroid import grid_circuit_family
from cigrid.verify import intersection_fixture, rank_two_fixture, three_lines_fixture

INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs"

RUNS = {
    "verify": ["verify", "all", "--trials", "5"],
    "secant": ["secant", "--m", "6", "--n", "6", "--k", "4"],
    "rigidity": ["rigidity", "--n", "8", "--d", "3"],
    "matroid": ["matroid", "--grid", "--k", "3", "--l", "4", "--s", "3", "--t", "3", "--d", "3"],
    "ideal": ["ideal", "--grid", "--k", "3", "--l", "4", "--s", "3", "--t", "3", "--d", "3"],
    "ideal-cas": ["ideal", "--grid", "--k", "3", "--l", "4", "--s", "3", "--t", "3", "--d", "3", "--format", "cas"],
    "ideal-ci": ["ideal", "--ci", str(INPUTS / "grid4x6.ci")],
    "ideal-hypergraph": ["ideal", "--hypergraph", str(INPUTS / "cyclic10.hg"), "--d", "5"],
}

DIGESTS = {
    "verify": {
        "example31/report.json": "1aaa4c8b9e438a155c24973d1cf480bd8db358c0af9f3f14c070565285ea1601",
        "example31/report.txt": "dde89998d6b9cf26dacb2850835f34ba2c96c60020bcabe550eee1c57b0e95dc",
        "example32/report.json": "a8ca88d93977459baf6d1800c8383608cc34b02178a23deb52c883d3dd549016",
        "example32/report.txt": "52416449d011e190230244fc0a49f6a552d9311c5fdcc5e5a61f89ab472d2aee",
        "intersection-axiom/report.json": "1459723d6874ab70d8261cda5577cbc4db84734fdfe801e4ed2652bd94c857b6",
        "intersection-axiom/report.txt": "9cde911ecaf58a2f7487150b4e897464a361d244d7474598ac04489602fd88e0",
        "rigidity/report.json": "495e46b82d26c524f14d86eb1c152d4691ed8a21479086c49b45b9c1a32422e9",
        "rigidity/report.txt": "235c3d87f6a1e672081227abaeb32ca961f1fd22c7b029e8dfe4d303af889fe6",
        "terracini/report.json": "f8e66fa28a8dbb2a86f3bca06d2ccc4369cbe132c1c51f0a2a2411a140aec273",
        "terracini/report.txt": "e973c715307217bc407b7d23c477ac0154133d2a2d962653aa950d4a8f16376a",
        "theorem32/report.json": "2d16c63d2b2d8ee5fc454e9d036d8a5ed9179cf7ce9ef7723e78e24964a9ccaa",
        "theorem32/report.txt": "9957d314fbabcade3e49b447794b4e5575dad0572ac8d6d98f99850c0706eb66",
    },
    "secant": {
        "secant.json": "56b30fb96f0280ca2b9ea7e94bba6e23b527f8432362ca6c29727c1fc9712833",
        "secant.txt": "fae5942f44e37db0894a663d3216e1a4a4ece53e6f13f745405fa4a710d5d69d",
    },
    "rigidity": {
        "report.json": "a5b9cdc36851eeb8790defa12aac2738ff3337636ec0a09f01f2246f681a9bf5",
        "report.txt": "1ec2c7b44466ec464c9ad85d59828d1b161527776880672b300ea90e94d4fc4c",
    },
    "ideal": {
        "generators.json": "c0fcaf413ec6aad04411356e924bc818d72a7ee203f36e727a709d81495b9c49",
        "generators.txt": "26aef06fc8fcd470a1205f918b1126b320e1af8bf69afbde4f0ed5d8ce061e58",
    },
    "ideal-cas": {
        "generators_cas.json": "c0fcaf413ec6aad04411356e924bc818d72a7ee203f36e727a709d81495b9c49",
        "generators_cas.txt": "5873215f54f2b4011ee6b85efe00eb8553432e68ba397751044524880e3db29e",
    },
    "ideal-ci": {
        "generators.json": "3ef94c44488755ab28d0b819bcba2ef7f7f001dd86b2cf5fec47a2c9f246fb1b",
        "generators.txt": "e75033ecfc7e817347730356f5ddea041a4a8a0359b6d63814c45cd0ec8c4bca",
    },
    "ideal-hypergraph": {
        "generators.json": "636a57df4dfc0b3034de6b27893ca1288061647060e561ea262891ea9ca5a9c4",
        "generators.txt": "7d1176dac7a3b29282c3659abdc915db95ceedd13f5a4076574f0c802aa84b8b",
    },
    "matroid": {
        "matroid.json": "f836f6688ac16afd383c7d1b5d71293d69497d6e916e56e04d2da1dbe8e46d32",
        "matroid.txt": "6476d5a5aa4b5b5f8d482822fa329c835d0ff36a48579d5ebfed45d30b86a35d",
    },
}


def written_digests(out: Path) -> dict[str, str]:
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.rglob("*")
        if path.is_file()
    }


@pytest.mark.parametrize("run", sorted(RUNS))
def test_output_bytes_are_pinned(tmp_path, run):
    assert main([*RUNS[run], "--seed", "7", "--out", str(tmp_path)]) == 0
    assert written_digests(tmp_path) == DIGESTS[run]


def test_a_repeated_verify_run_in_one_process_writes_the_pinned_bytes(tmp_path):
    """The campaigns' fixtures are cached per process; from cleared caches,
    a first and a second `verify all` both write the pinned bytes, so no
    state leaks from one run to the next through a cache."""
    for cached in (three_lines_fixture, rank_two_fixture, intersection_fixture, grid_circuit_family):
        cached.cache_clear()
    for run in ("first", "second"):
        assert main([*RUNS["verify"], "--seed", "7", "--out", str(tmp_path / run)]) == 0
        assert written_digests(tmp_path / run) == DIGESTS["verify"]


# A 3-row matrix file with a zero column (6), columns parallel to others (5 to
# 4, 8 to 1), fractional entries, and two collinear triples through column 1.
COLUMNS = "3 9\n1 0 0 1 2 0 1/2 -3 1\n0 1 0 1 2 0 1/3 0 0\n0 0 1 0 0 0 1 0 1\n"

MATRIX_DIGESTS = {
    "matroid.json": "5dd45e61fc9e46d488500adf74e7f3dfd878d014f47e43e0265c5814ef184a5f",
    "matroid.txt": "1f24ddfaf2f7eb3b2356117fcad89876545bd322b00f48c35f9e933063a5a928",
}


def test_matrix_matroid_bytes_are_pinned(tmp_path, monkeypatch):
    """`matroid --matrix` on a file written here: its circuits and its
    arrangement signature.  The run reads the file by a relative path, so the
    path the JSON records does not depend on `tmp_path`."""
    monkeypatch.chdir(tmp_path)
    Path("columns.mat").write_text(COLUMNS)
    assert main(["matroid", "--matrix", "columns.mat", "--seed", "7", "--out", "out"]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in Path("out").iterdir()}
    assert written == MATRIX_DIGESTS


ALGEBRAIC_DIGESTS = {
    "matroid.json": "d3daff89cb8f851e1efda04d7baea9427b58386bc4757fb2f8ae8a7fb8c944ef",
    "matroid.txt": "0ae8ed6a742c5f6e231ce893257c7294eb9f5a04dd164a9e489589093e02a64f",
}


def test_algebraic_matroid_bytes_are_pinned(tmp_path, monkeypatch):
    """`matroid --parametrization` on the Segre 3x4 map: the Jacobian
    matroid's rank and circuits.  The JSON records the path as given, so the
    run starts at the repository root and names the map relative to it."""
    monkeypatch.chdir(INPUTS.parent.parent)
    out = tmp_path / "out"
    assert main(["matroid", "--parametrization", "bench/inputs/segre3x4.map", "--seed", "7", "--out", str(out)]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert written == ALGEBRAIC_DIGESTS


STDOUT_DIGESTS = {
    ("verify", "all", "--trials", "5"): "4451182e8403de4a30b3d3e9bce2c262ad3b0be8396f609281c39c4d73850f1d",
    ("verify", "all", "--trials", "5", "--json"): "77246846e2cc02385a3ec728160ad273c1e896db1717c06e138c32b27ebb4acc",
    ("rigidity", "--n", "8", "--d", "3", "--json"): "a5b9cdc36851eeb8790defa12aac2738ff3337636ec0a09f01f2246f681a9bf5",
}


@pytest.mark.parametrize("argv", sorted(STDOUT_DIGESTS), ids=" ".join)
def test_stdout_bytes_are_pinned(capsys, argv):
    """Without --out, the same writer prints the text, or under --json the
    JSON (for `verify all`, one object keyed by campaign name)."""
    assert main([*argv, "--seed", "7"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == STDOUT_DIGESTS[argv]
