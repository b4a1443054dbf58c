"""Golden stdout digests of whole CLI runs.

Each case pins the sha256 of one invocation's stdout, so a refactor of the
engine, the term evaluator, the oracle or the searches that changes a single
byte fails here.
The audit output is 2.3 MB, which is why digests are kept instead of files.
"""

import hashlib

import pytest

from conftest import TWELVE_ATOM_NAMES, seeded_structure, twelve_atom_structure
from tensebench import relalg as ra
from tensebench.cli import main

GOLDEN = {
    ("audit", "all", "--format", "records"):
        "0b65c7013fadbe19af287936e974290e39cc840006499f7173a98c0a41baa576",
    # text adds the grid lines and the notes, which records leave out
    ("audit", "all"):
        "6cc857803cdd8d8b2ca3a8142dcab97f2d6edffd9a3600709adcb74882d383d8",
    ("audit", "4or5", "--s", "{3}", "--seed", "7"):
        "9bc2195e527c06d2237fe1955e1781fc51958bc6e311b8f634379ac14fc989d3",
    # past the default family's bound 7: rows with one tail, an all-in tail
    # at bound 41, and 400-bit row prefixes
    ("audit", "all", "--s", "{3,9,13,21,29} tail=out bound=33"):
        "07bae8a4e3446e05d4a4f71bbfef25e8b935733e9e2074cf0550a413f921a620",
    ("audit", "all", "--s", "O\\{5,9,41}"):
        "c9ed223cb039d06bc939de954090699828c2aae1477ad540f1cb44773e89077a",
    ("audit", "all", "--s", "{401}"):
        "90542f028d7ab899404c4617c366f783366e0a1de0ea5913f9b63f21d8bd92c8",
    ("distinguish", "--s", "{3}", "--t", "{5}", "--format", "records"):
        "7e5ccc3313879572d3c7e34b2b2fbaedfdf735c99e7473845dc04217032291b7",
    ("distinguish", "--s", "{3,9,41}", "--t", "{3,9}", "--format", "records"):
        "9db009175eb11f07fa934a83973358185f67c4acfee1c13c216cfdc5ce8d7456",
    ("distinguish", "--s", "O\\{5,41}", "--t", "O\\{5}", "--format", "records"):
        "d3c4729d878d281516f1e921a0240d448235475533935627db700605363ffc5c",
    ("distinguish", "--s", "{7,11,23,37}", "--t", "{7,11,37}", "--format", "records"):
        "cdd2d8e59f59e935a8c0e9bd2ba554393a0913c7089ad5e7c5a71558f2205156",
    ("eval", "--s", "{3,7}", "--term", "nu41", "--at", "A(0,1)"):
        "8aeb5093c72e177e92f6ba92d1a674900fbacf8b11f5dfafe1908fcfbd234782",
    ("eval", "--s", "{3,7}", "--term", "sigma", "--at", "A(0,1)"):
        "8ea7129d299c775ddfb730308ae44d69a2ca5fd52098e0000723c1f6d811e714",
    ("eval", "--s", "O\\{5}", "--term", "nu41", "--at", "A(0,1)"):
        "39e3462ee217cd7a98292d44ff6a5618ae63addfc13604cc2455510767e8f966",
    ("eval", "--s", "O\\{5}", "--term", "sigma", "--at", "A(0,1)"):
        "62de92faf073b532d88fbe4d5188891743316c289f9f5f696e10fe8ab9d48e81",
    ("search", "frames", "--k", "4"):
        "d72f7ab42b510d56286723c4654d8d6a2d742fbba02f564e44dc2fbccf43afeb",
    ("search", "frames", "--k", "5"):
        "fd3545761d291e023b83b6563cc2583df056d84d45f7eb8d1b3e222dcb548ffa",
    ("search", "frames", "--k", "4", "--emit", "frames"):
        "49bd8afaef02baaf6580fa231c8ea44e8cd4eb561be9f2eacdd62f6316fd2d76",
    ("search", "frames", "--k", "5", "--emit", "frames"):
        "b3e3358e98a6d99475c866d06ae3d50abda697676393d8ba92a3306d7809b9b5",
    ("search", "structures", "--k", "4", "--constraints", "sym,sa"):
        "e13dccc3893915b3571c67c6723c49e8c37051081c3a6716d4ebadf10cf0696a",
    ("search", "structures", "--k", "4", "--emit", "structures"):
        "e093c54d981906f32b4513040d95b7f1863ee1a16755614f0816ce35fba8138e",
    # non-symmetric converses under a filter
    ("search", "structures", "--k", "4", "--constraints", "sa", "--emit", "structures"):
        "0b81cc33eaf75f20b453af86bb00f001780b7b93255ad758f78a299c2436eca4",
    ("search", "structures", "--k", "4", "--constraints", "refl,subadd",
     "--emit", "structures"):
        "06fe40871247666fd6f74b6549304f8d42aa265cfd339cae02b80d9a8f63616c",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_stdout_digest(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]


# `tw relalg axioms --in structure.txt` on seeded structures (see
# `conftest.seeded_structure`), keyed by (k, seed, mode, p).  Between them the
# outputs print a witness line for every law that can fail.
AXIOMS_GOLDEN = {
    (1, 0, "closed", 0.1):
        "18291cec0a94f77c19f5e3bc65525ec9886275f157add61435920608db4356cb",
    (1, 0, "raw", 0.1):
        "2b0dd2185b880ef7e2e25b05474d55ef98260024b15d5bb305fe788d0d779d2a",
    (2, 0, "raw", 0.3):
        "8526a21cc03c7893cf27dbead5f397fc6c36db0112edae48b8e1588f9eff8694",
    (3, 0, "closed", 0.1):
        "e19a4fa5f8ddead1a1afce93a73d03af4ce8f0da20b6a105f5a459c78bfc394a",
    (3, 1, "raw", 0.3):
        "3126cec111eedb5de1b3810f1ddd0c68719d0b2fbe8376b6949fbff6f75fa911",
    (3, 3, "dropped", 0.3):
        "88e1dc9c7be90570faf901c3b7a1ac7df315d8bc097a3ad0f90fa98d2a67c941",
    (4, 0, "closed", 0.6):
        "e494869f983955029f9c7503f455cf9c7f7354ba704f62fbd2425cdfedba0ba0",
    (4, 1, "dropped", 0.6):
        "2ae9d0eaec565ce08aad43c7b1c94c8869858660b782a29e7d94785254572ee4",
    (4, 3, "closed", 0.1):
        "f4347b1d3c6ea3b0411c133fcace8f9705810952a74c9853943197390638d962",
    (5, 0, "dropped", 0.1):
        "5d8138cca292736f0d976f1912c775b1227696d124021d469f1d74f6df1b953b",
    (5, 1, "raw", 0.2):
        "c886749cf90f1066859ab296ae46eac02e09d67bdfac8da6c1efdbc9376aeba7",
    (5, 4, "closed", 0.3):
        "6a89eabd7786ab8aa774940af8d953cf3d7fad48f3ce873e2f141044fe2ebb32",
    (5, 5, "dropped", 0.3):
        "473528adbaadb11fc873d83a392756077d272f22815729aae9e83c772ffd31d3",
}


def relalg_stdout(capsys, monkeypatch, tmp_path, sub, structure):
    # a fixed relative path, so the echoed `infile=` is the same on every run
    monkeypatch.chdir(tmp_path)
    (tmp_path / "structure.txt").write_text(structure.to_text())
    code = main(["relalg", sub, "--in", "structure.txt"])
    assert code == 0
    return capsys.readouterr().out


def axioms_stdout(capsys, monkeypatch, tmp_path, case):
    return relalg_stdout(capsys, monkeypatch, tmp_path, "axioms", seeded_structure(*case))


@pytest.mark.parametrize("case", list(AXIOMS_GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_relalg_axioms_digest(capsys, monkeypatch, tmp_path, case):
    out = axioms_stdout(capsys, monkeypatch, tmp_path, case)
    assert hashlib.sha256(out.encode()).hexdigest() == AXIOMS_GOLDEN[case]


# `tw relalg axioms` at the 12-atom cap (see `conftest.twelve_atom_structure`),
# where the element-level triangle check is skipped
TWELVE_ATOM_GOLDEN = {
    "dense": "e8ee7f9dec64ead303fdfd9c74cd8d7f45cc5c383a26c8f826f793bebcb18e5d",
    "sparse": "479d21e101b0621307554dd2eeca53337e939168b878c11eb3fa6f3ff75af846",
    "subadditive": "f6fde43ca033186cf3cfa31a51e69808f152512341cb2fa79e38563a84a7f56b",
}


@pytest.mark.parametrize("name", TWELVE_ATOM_NAMES)
def test_relalg_axioms_twelve_atom_digest(capsys, monkeypatch, tmp_path, name):
    out = relalg_stdout(capsys, monkeypatch, tmp_path, "axioms", twelve_atom_structure(name))
    assert hashlib.sha256(out.encode()).hexdigest() == TWELVE_ATOM_GOLDEN[name]


# `tw relalg expand --in structure.txt` on the same seeded structures
EXPAND_GOLDEN = {
    (1, 0, "closed", 0.1):
        "67a0884f9308e2fa3a46b9e7523d4fdbf6fcee77b1b37fee48dce7af14b0764f",
    (1, 0, "raw", 0.1):
        "78b3cae0676f61236cc33bfd572e05820275dce44edbbb24d8863fcab896aac4",
    (2, 0, "raw", 0.3):
        "77fe6e23529527c4d1d62801fd1489d660e3fb8f0d65a09c463a1486be0757bc",
    (3, 0, "closed", 0.1):
        "dfa56fe4d3209ed7adb8c50b338a72df267408dd1f04ee03f9ef74a573d6e123",
    (3, 1, "raw", 0.3):
        "5d35fe2eab8f7376e11ed3b4ab1cc59d06f09ed2443287283e3c625481f26348",
    (3, 3, "dropped", 0.3):
        "88d89527288fb2dd06755f4f200803d90f34cbefc8f19f7fe378fe5814196cd8",
    (4, 0, "closed", 0.6):
        "790f7feb56f891d51161906ec311551a012e1515ccbbc4392da56efa57e63d6d",
    (4, 1, "dropped", 0.6):
        "b0b25a6c0765bd23735f18ab3c067141d4a06965a229b97f3d2950c8590daa4f",
    (4, 3, "closed", 0.1):
        "f18f3ab223877be56f850990b2fe6b30240b17b9295de3e7d09a43c65b3b8bcd",
    (5, 0, "dropped", 0.1):
        "e1bd799c9ccd6a11238c51474595e553c531c85627444e9a412d5cca4ecb6b51",
    (5, 1, "raw", 0.2):
        "f2d2bdee1b5a872a941d558dfeefaee33cb2e918a760f41a71c01352cfd48bb2",
    (5, 4, "closed", 0.3):
        "c70473b5fe7ac6fa30c55c052f774ff7d0ceb04bbc8850ba52fb3a93b0c098d1",
    (5, 5, "dropped", 0.3):
        "779b359825c60b842c9ed4b50a74d9a4075961faebcab1e92569f6cf708fbc7c",
}


@pytest.mark.parametrize("case", list(EXPAND_GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_relalg_expand_digest(capsys, monkeypatch, tmp_path, case):
    out = relalg_stdout(capsys, monkeypatch, tmp_path, "expand", seeded_structure(*case))
    assert hashlib.sha256(out.encode()).hexdigest() == EXPAND_GOLDEN[case]


def test_relalg_axioms_cases_print_every_witness_law(capsys, monkeypatch, tmp_path):
    laws = set()
    for case in AXIOMS_GOLDEN:
        out = axioms_stdout(capsys, monkeypatch, tmp_path, case)
        laws |= {line.split()[1] for line in out.splitlines() if line.startswith("witness")}
    assert laws == {
        f"law={law}" for law in (
            "identity", "triangle-atoms", "triangle-elements", "semiassociative",
            "associative", "reflexive", "symmetric", "subadditive",
        )
    }


# `tw relalg minsub --in structure.txt` on the seeded structures of
# AXIOMS_GOLDEN and on the full algebra of relations on a 2-element base
MINSUB_GOLDEN = {
    (1, 0, "closed", 0.1):
        "69eb16f74fca47dc66b549f71310da9c3000e534508f8903740a6fa0fb69f067",
    (1, 0, "raw", 0.1):
        "e2079584d2538519cdeb8ca1199e4b6b12ad9f69f31033191a0249fa3aad9a88",
    (2, 0, "raw", 0.3):
        "89456fdb9a8072f93c9963d00c303be4db7b57a9d9452199459254622089a1f0",
    (3, 0, "closed", 0.1):
        "6a74db5ccbf0aed7b10ed01ad65dcaa79351f5cf7e13fc67dfe13f8d2aff7da6",
    (3, 1, "raw", 0.3):
        "6f0fc2a00caa9681ffc5b4c3e1d7deeec6d76b37d4a1ab551e08c22558d456cf",
    (3, 3, "dropped", 0.3):
        "0f7a7160a799a2fe307955633e47ee359fd183e79fbcf9a1f0367f034e46f446",
    (4, 0, "closed", 0.6):
        "0f7a7160a799a2fe307955633e47ee359fd183e79fbcf9a1f0367f034e46f446",
    (4, 1, "dropped", 0.6):
        "0f7a7160a799a2fe307955633e47ee359fd183e79fbcf9a1f0367f034e46f446",
    (4, 3, "closed", 0.1):
        "0f7a7160a799a2fe307955633e47ee359fd183e79fbcf9a1f0367f034e46f446",
    (5, 0, "dropped", 0.1):
        "0f7a7160a799a2fe307955633e47ee359fd183e79fbcf9a1f0367f034e46f446",
    (5, 1, "raw", 0.2):
        "b8c2aa0c77f6468df6a3e1d74d0f1cfc96f0fb75f6bb6d931829aefb49179f8e",
    (5, 4, "closed", 0.3):
        "0f7a7160a799a2fe307955633e47ee359fd183e79fbcf9a1f0367f034e46f446",
    (5, 5, "dropped", 0.3):
        "0f7a7160a799a2fe307955633e47ee359fd183e79fbcf9a1f0367f034e46f446",
    ("proper", 2):
        "a7e5b95871fa23e1f460d599ba79b29a4dacf0ff40694c0f97a19ceabd1fe467",
}


@pytest.mark.parametrize("case", list(MINSUB_GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_relalg_minsub_digest(capsys, monkeypatch, tmp_path, case):
    if case == ("proper", 2):
        structure = ra.structure_of(ra.proper_algebra(2))
    else:
        structure = seeded_structure(*case)
    out = relalg_stdout(capsys, monkeypatch, tmp_path, "minsub", structure)
    assert hashlib.sha256(out.encode()).hexdigest() == MINSUB_GOLDEN[case]
