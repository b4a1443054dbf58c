"""Golden stdout digests of whole CLI runs.

Each case pins the sha256 of one invocation's stdout, so a refactor of the
engine, the term evaluator, the oracle or the searches that changes a single
byte fails here.
The audit output is 2.3 MB, which is why digests are kept instead of files.
"""

import hashlib

import pytest

from tensebench.cli import main

GOLDEN = {
    ("audit", "all", "--format", "records"):
        "0b65c7013fadbe19af287936e974290e39cc840006499f7173a98c0a41baa576",
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
    ("search", "structures", "--k", "4", "--constraints", "sym,sa"):
        "e13dccc3893915b3571c67c6723c49e8c37051081c3a6716d4ebadf10cf0696a",
    ("search", "structures", "--k", "4", "--emit", "structures"):
        "e093c54d981906f32b4513040d95b7f1863ee1a16755614f0816ce35fba8138e",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_stdout_digest(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]
