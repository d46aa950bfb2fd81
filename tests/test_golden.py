"""The CLI's output contract as a golden corpus: the exit code and the
SHA-256 of stdout of each invocation of CORPUS, run in process through
cli.main. `verify` reads the exact walk and decides every bound; `bounds`
over a dense list, ascending or not, reads the oracle through
analysis._exact. There is no regenerate mode: a change that alters what
these commands print edits the hashes it must, and says which and why."""

import hashlib

import pytest

from ballratio.cli import main

# dense lists of n, spelled out in place of their names below
_NS = {"1..300": range(1, 301), "2000..1": range(2000, 0, -1)}

# (arguments, exit code, SHA-256 of stdout); w's full catalog needs --partial
# below n = 2 (upper-merkle-q), and exits 3 with no stdout without it
CORPUS = [
    ("verify --n-max 1 --format text", 0,
     "bd6e62644ca97e9348036ebcd93e0cc7e0a808e8fac9e15bf29f646ebe344507"),
    ("verify --n-max 1 --format csv", 0,
     "6b03dd85b57a25acee428190ea9ae565a6936616b1a3eb229d58899d6de25f39"),
    ("verify --n-max 1 --format json", 0,
     "118f1f8a394e1d25624db7c7dcc06d7b7379c840bb244a76b0edcc2f91e1c3a6"),
    ("verify --n-max 300 --format text", 0,
     "b8440d6977cf36a57273b8b2a1fea5f10e8625b247ac3a55a42921ed38ef0d39"),
    ("verify --n-max 300 --format csv", 0,
     "aa0957ff426f6f5c8586e017cb93a5d90180afc94ab99314c52c36e64aaf49c5"),
    ("verify --n-max 300 --format json", 0,
     "9bdd0e13b7a8270d2c61f1978c555d625e9efd22e1b369ff0b229d40aebd63af"),
    ("verify --n-max 5000 --format text", 0,
     "ba467eaefd35576ed90440f48d910c757564180bed19ed24695da61ff4e9ec5d"),
    ("verify --n-max 5000 --format csv", 0,
     "1af99f04c700cbfbd629d3d714d01df44fe36799023f15d4a88f942cb69530ad"),
    ("verify --n-max 5000 --format json", 0,
     "dbee4cb41ee9cfc3586d881065cd742bdafbee5cbe0683252c46eb2853f341c7"),
    ("bounds --target v --n 1..300 --format text", 0,
     "cb59e52c0bd388631137672a158fd22e8e3d3ec886a2bc4462a38e8aae3cac4c"),
    ("bounds --target v --n 1..300 --format csv", 0,
     "d2b491140b020692a754369f06556775d1af92fcf719c054f66d5923689619c1"),
    ("bounds --target v --n 1..300 --format json", 0,
     "5e31da6c8a6087302362eab03c5e42e4f035283e12158fe8fdf2bf170c218f78"),
    ("bounds --target v --n 2000..1 --format text", 0,
     "289e8267ee96297d4ee6762ab67f8708e0fb6d57ede3b28ecfe85b489f7f674d"),
    ("bounds --target v --n 2000..1 --format csv", 0,
     "bbb61572a5b71ab4a4e2da2048f229f65df9227df2dffbab32899bbb73d21511"),
    ("bounds --target v --n 2000..1 --format json", 0,
     "e7fa5305843212f2c04f884fdb3db06c7c006abe1d5c25d7ee33c6c25a73552c"),
    ("bounds --target w --n 1..300 --format text --partial", 0,
     "bda1f3f26f18a4bd7cdf19ae9aea3441e95cc362f8ff1f2c4b4d9414aeeaba6d"),
    ("bounds --target w --n 1..300 --format csv --partial", 0,
     "f281661ac1181ebcf3e90b16a4d071a2290caddc8436b707a8dee7d4a78c769e"),
    ("bounds --target w --n 1..300 --format json --partial", 0,
     "9ab3107fbe9fa4fc8e38637f688e4775b2cbbc0f1f2dcbb71e3af0f62e12a85a"),
    ("bounds --target w --n 2000..1 --format text --partial", 0,
     "9c0052c2de3116ed1482a8e5edf301183a59cfc76932aeec3b079aab8e42031b"),
    ("bounds --target w --n 2000..1 --format csv --partial", 0,
     "dbd3e640e84a7451ba74199e42e0e2e55e501d48ca0f5ab4dc6e438bb2450995"),
    ("bounds --target w --n 2000..1 --format json --partial", 0,
     "eb6fda1463e9f3a2db2ed54f19af372325f9ad020ac317c2874bb6894940c0e0"),
    ("bounds --target w --n 1..300 --format text", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("args, code, digest", CORPUS, ids=[args for args, *_ in CORPUS])
def test_stdout_matches_the_golden_corpus(capsys, args, code, digest):
    argv = [",".join(map(str, _NS[a])) if a in _NS else a for a in args.split()]
    assert main(argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
