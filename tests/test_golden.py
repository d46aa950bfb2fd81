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
_NS = {"1..300": range(1, 301), "2000..1": range(2000, 0, -1), "odd..9999": range(1, 10_000, 2)}


def _argv(args):
    return [",".join(map(str, _NS[a])) if a in _NS else a for a in args.split()]

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
    # sparse tables, which read each oracle value and kernel at its point; the
    # crossover pairs of the benchmark's queries, the near tie first; the
    # truncates at the largest order; volume
    ("bounds --target v --n 30000,29999,12345 --format text", 0,
     "5ca8f733274d8308afffd7c1eb8a2b634de53264e5a7603501f04935ba66dc69"),
    ("bounds --target v --n 30000,29999,12345 --format csv", 0,
     "3ee8afdbc21b0c7c8bab431acc118d98f04f0930ffada05b8c0325332fd1dd6a"),
    ("bounds --target v --n 30000,29999,12345 --format json", 0,
     "21141e606f2eaca53a8cbdf12d7267d064281acaf5d589c0a4a332edf0f78235"),
    ("bounds --target v --n 30000,29999,12345 --format text --partial", 0,
     "5ca8f733274d8308afffd7c1eb8a2b634de53264e5a7603501f04935ba66dc69"),
    ("bounds --target v --n 30000,29999,12345 --format csv --partial", 0,
     "3ee8afdbc21b0c7c8bab431acc118d98f04f0930ffada05b8c0325332fd1dd6a"),
    ("bounds --target v --n 30000,29999,12345 --format json --partial", 0,
     "0f60e33894da2b5f4400dd9e74a1248df9dfc86cfc0cbf4465a617b5c3ed5f84"),
    ("bounds --target v --n 1,2,3,99999,5 --format text", 0,
     "2ce231815215ea15d04572817c4eac9cd5e6cf6f209fad89b1a478e55640d18b"),
    ("bounds --target v --n 1,2,3,99999,5 --format csv", 0,
     "db65afdec41c03c1fb5ec4e2747e2761b93ca7d18f643d2affac016fc0a5464e"),
    ("bounds --target v --n 1,2,3,99999,5 --format json", 0,
     "e8941c2ad6e19c138de35b09a632ec82bf514ec87f9cca78e2d38a061639830a"),
    ("bounds --target v --n 1,2,3,99999,5 --format text --partial", 0,
     "2ce231815215ea15d04572817c4eac9cd5e6cf6f209fad89b1a478e55640d18b"),
    ("bounds --target v --n 1,2,3,99999,5 --format csv --partial", 0,
     "db65afdec41c03c1fb5ec4e2747e2761b93ca7d18f643d2affac016fc0a5464e"),
    ("bounds --target v --n 1,2,3,99999,5 --format json --partial", 0,
     "0a0c194168600a3c4147f67123ec5193bf3d3c81c7e828d2cacb13528e97d304"),
    ("bounds --target w --n 30000,29999,12345 --format text", 0,
     "8f257ce043613a4594519eaca31e02e953acb3ab40f553cf8e58baf8885da384"),
    ("bounds --target w --n 30000,29999,12345 --format csv", 0,
     "fe973a6bb7e6c2db5a9cf320246e50a1c806165ba7f2ccb94518618a0587a79a"),
    ("bounds --target w --n 30000,29999,12345 --format json", 0,
     "6301b8cd6a3e7f215bba257ad1e987fd2e24dc7c6560a948d7d7d41fdc238d80"),
    ("bounds --target w --n 30000,29999,12345 --format text --partial", 0,
     "8f257ce043613a4594519eaca31e02e953acb3ab40f553cf8e58baf8885da384"),
    ("bounds --target w --n 30000,29999,12345 --format csv --partial", 0,
     "fe973a6bb7e6c2db5a9cf320246e50a1c806165ba7f2ccb94518618a0587a79a"),
    ("bounds --target w --n 30000,29999,12345 --format json --partial", 0,
     "fce6021617aa9fd51b470b5b409f1fd7e3dd21ae9b3c5c648dca54eed994a1b0"),
    ("bounds --target w --n 1,2,3,99999,5 --format text", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("bounds --target w --n 1,2,3,99999,5 --format csv", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("bounds --target w --n 1,2,3,99999,5 --format json", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("bounds --target w --n 1,2,3,99999,5 --format text --partial", 0,
     "878ebf7152b7c34a9315149494b08aa7381fc29b17fa0109ecf662015aac7cf5"),
    ("bounds --target w --n 1,2,3,99999,5 --format csv --partial", 0,
     "bb7c905b23e98ab716691dfe646dfd7a9c76d5f712f65ab267e638274d5b97dc"),
    ("bounds --target w --n 1,2,3,99999,5 --format json --partial", 0,
     "08ab507cd241b4ee163a3f7b4bdc196bd0609ec87a060c8232bdae6ed6193ff4"),
    ("crossover --target w --ids upper-refined:1,upper-51 --n-max 3000 --format text", 0,
     "f66c236fcc706164bf7e51c7c43152e2f08ba6a1675aa2615e15c76b4cc74bef"),
    ("crossover --target w --ids upper-refined:1,upper-51 --n-max 3000 --format csv", 0,
     "afe4e5da070e1dd5cfb738435b1a373706ec2b569ea29de6ea2d0e95a3367502"),
    ("crossover --target w --ids upper-refined:1,upper-51 --n-max 3000 --format json", 0,
     "f15edf1b5a475be837fb4bdca52e14bab08f1ace40c7853645edaa89031a5cf0"),
    ("crossover --target v --ids upper-h:2,upper-alzer --n-max 3000 --format text", 0,
     "33dfc3756c73b25eeb9c9a4f53c2a7e66ccc8f6835ad32a56e9c910c10f4c6cd"),
    ("crossover --target v --ids upper-h:2,upper-alzer --n-max 3000 --format csv", 0,
     "73243e3631244953ee2afb28049fe8b28c4727eece54bb9560cd9a53a25985f1"),
    ("crossover --target v --ids upper-h:2,upper-alzer --n-max 3000 --format json", 0,
     "009951215ee479c332e543222979a9f431e7baba3db37025bc069a18157f9f75"),
    ("crossover --target v --ids lower-d:1,lower-borgwardt --n-max 3000 --format text", 0,
     "2231aa4b7e90e3b7b248ed848c0cfbc0253830e6a173ac45a9f7f6d0faa146f2"),
    ("crossover --target v --ids lower-d:1,lower-borgwardt --n-max 3000 --format csv", 0,
     "a4d7324bbafe249e8571004ce2843d70b2c772e5a8df5bf0567ef038a21e68bd"),
    ("crossover --target v --ids lower-d:1,lower-borgwardt --n-max 3000 --format json", 0,
     "43eb17859ecc5205f5e5e7e589aed0ea12170dc50c76721788b0f187938f5628"),
    ("crossover --target v --ids upper-h:1,upper-borgwardt --n-max 3000 --format text", 0,
     "a80c20e34286f5db325d238a560781c822a113b0c42014a0a2a4fe493248606c"),
    ("crossover --target v --ids upper-h:1,upper-borgwardt --n-max 3000 --format csv", 0,
     "7abe7192979aef450fb6cc74c0924910d45451063e9a5560cae835c25589df32"),
    ("crossover --target v --ids upper-h:1,upper-borgwardt --n-max 3000 --format json", 0,
     "988ee0cbf25ba20e320f4284f98122c8e1b471c23002653894feafa3fe6dc086"),
    ("crossover --target v --ids lower-d:2,lower-alzer --n-max 3000 --format text", 0,
     "8f34aef641fc47dedc813cb5de368e43fd8427ac9ef0085e774fae8f8d669def"),
    ("crossover --target v --ids lower-d:2,lower-alzer --n-max 3000 --format csv", 0,
     "c21da31ee7487fb7ad3fa77395d0447a296969b47fb56e937009811a0a9264c5"),
    ("crossover --target v --ids lower-d:2,lower-alzer --n-max 3000 --format json", 0,
     "a97d70ba322e3841f9314555e08692ea325d3b7ef232edc9e79e901bc88cde8a"),
    ("crossover --target w --ids lower-p,lower-443 --n-max 3000 --format text", 0,
     "6ae338b47e7b03bc861a095089e1ffda1a5595dc4316e127e45b71512ba6db6e"),
    ("crossover --target w --ids lower-p,lower-443 --n-max 3000 --format csv", 0,
     "afe4e5da070e1dd5cfb738435b1a373706ec2b569ea29de6ea2d0e95a3367502"),
    ("crossover --target w --ids lower-p,lower-443 --n-max 3000 --format json", 0,
     "9244e8801dddd4016b62767655dc07203a84064dda2c2cf960e2d6d6cc01aeff"),
    ("crossover --target w --ids upper-merkle,upper-alzer --n-max 3000 --format text", 0,
     "3e06ad6e290f395aa9f323e5f94581e3abfe99faf0e663eb588a2149d339d196"),
    ("crossover --target w --ids upper-merkle,upper-alzer --n-max 3000 --format csv", 0,
     "afe4e5da070e1dd5cfb738435b1a373706ec2b569ea29de6ea2d0e95a3367502"),
    ("crossover --target w --ids upper-merkle,upper-alzer --n-max 3000 --format json", 0,
     "cc5e6896e336dbf6adfcaa644c3dfe62abb0abb014d9206da13bbe72935ff7dd"),
    ("crossover --target w --ids lower-trigamma,lower-classic --n-max 3000 --format text", 0,
     "b7a905428270ffed6e8b168c4139830b29c5f7d1ce4f8fc3ae3d1688b90db41f"),
    ("crossover --target w --ids lower-trigamma,lower-classic --n-max 3000 --format csv", 0,
     "afe4e5da070e1dd5cfb738435b1a373706ec2b569ea29de6ea2d0e95a3367502"),
    ("crossover --target w --ids lower-trigamma,lower-classic --n-max 3000 --format json", 0,
     "20aedecf10bc4ad9782f647a47a426efc5400717c0c294f88332f32f5f1acf73"),
    ("crossover --target w --ids upper-refined:3,upper-51 --n-max 3000 --format text", 0,
     "5402718a3167d7adf20d847ee9fc5a7935a7ecd515d9f6ac9ed0ea80cfab0518"),
    ("crossover --target w --ids upper-refined:3,upper-51 --n-max 3000 --format csv", 0,
     "afe4e5da070e1dd5cfb738435b1a373706ec2b569ea29de6ea2d0e95a3367502"),
    ("crossover --target w --ids upper-refined:3,upper-51 --n-max 3000 --format json", 0,
     "3a9670dc0d545bd169cf90e7491e663c42c523ac9db810fedb96495476d33edc"),
    ("crossover --target v --ids lower-trunc:1000,lower-trunc:999 --n-max 300 --format text", 0,
     "268108003ed463db9e31d9307f7f7052e04454df84fbee105cb530d9115fd507"),
    ("bounds --target v --ids lower-trunc:1000,upper-h:1000 --n 1..300 --format csv", 0,
     "73987bc16a1b0bcf522bdb98f9d26c343201fc5f906fc757b64c4eecbe7e58f5"),
    ("volume --n 0,1,2,9,10,2800 --format text", 0,
     "763972bae9f755b72a3690df59818e5a15a703e50701c5cf2fd9b5e667f07d0c"),
    ("volume --n 0,1,2,9,10,2800 --format csv", 0,
     "c947da471376c4d1d048d8942af1d709ff58c834bb4a7bcaaedea2b10c7e9bb7"),
    ("volume --n 0,1,2,9,10,2800 --format json", 0,
     "ae008d18d7b2771cc211873b5e4898d2fda01cdd3abf95a6da84648473f9bfc6"),
    # Omega_n across the subnormal range to its underflow (the last nonzero
    # double is at n = 452), and far past it
    ("volume --n 10,11,100,200,300,400,450,451,452,453,454,455,456,457,1000 --format text", 0,
     "0715294f76a828d85a7da34957defb4e6b4360801244e806092f52180aa885f9"),
    ("volume --n 10,11,100,200,300,400,450,451,452,453,454,455,456,457,1000 --format csv", 0,
     "216ea024f164ba1fff61eb9685a04c3e05458bf1c789f668004c6209664c89aa"),
    ("volume --n 10,11,100,200,300,400,450,451,452,453,454,455,456,457,1000 --format json", 0,
     "8d2183fb6d7fcb915c52f6adccd44087f98bcdcf6f0f3d7e99092eedd883dba7"),
    ("volume --n 20000 --format text", 0,
     "c81c3c0d977afb3c605cd96b68efd41a3c9066c39f79b4839b433d20fc727b14"),
    ("volume --n 20000 --format csv", 0,
     "f69f49b5bffaeea0ad21a25a0b512d44a3a02cae0e7721e7cdbeb506235e4d5a"),
    ("volume --n 20000 --format json", 0,
     "f0ad63b95a934394a3a7028d8dc807bc763480152071c3565523819e22e0ec8a"),
    # the dense odd-n table, whose csv test_analysis pins
    ("bounds --target v --n odd..9999 --format text", 0,
     "1d5be27a7de85ce3b19aba99f94e54bdba7b682e03a6ed5810a611402798a02f"),
    ("bounds --target v --n odd..9999 --format json", 0,
     "29da4ba3bec609c7760ea8744363e55b9af14cf256afdbd29bdf6d3982f796e3"),
]

# (arguments, exit code, the one stderr line) of refused invocations, which
# print nothing to stdout
ERRORS = [
    ("bounds --target v --ids lower-trunc:1001 --n 5", 3,
     "ballratio: truncation order m must be <= 1000, got 1001\n"),
    ("crossover --target w --ids upper-51 --n-max 10", 2,
     "ballratio: crossover needs exactly two bound ids\n"),
    ("verify --n-max 100001", 3,
     "ballratio: n_max must lie in [1, 100000], got 100001\n"),
]


@pytest.mark.parametrize("args, code, digest", CORPUS, ids=[args for args, *_ in CORPUS])
def test_stdout_matches_the_golden_corpus(capsys, args, code, digest):
    assert main(_argv(args)) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("args, code, message", ERRORS, ids=[args for args, *_ in ERRORS])
def test_refused_invocations_print_one_pinned_line(capsys, args, code, message):
    assert main(_argv(args)) == code
    assert capsys.readouterr() == ("", message)
