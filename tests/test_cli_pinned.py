"""Pin every CLI report byte for byte.

Each argv maps to the sha256 of json.dumps([exit code, stdout, stderr]),
run from a scratch directory with relative file names, because the
"inputs" digests of a --json report are keyed by the path string.  A
changed report shows up as the one argv whose hash moved.  --timing is
left out: its report carries wall time.
"""

import contextlib
import hashlib
import io
import json

import pytest

from colat import cli
from colat.catalog import co_chain, l_mn
from colat.lattice import direct_product, lattice_to_json
from colat.membership import certificate_to_json, decide_sub_lo
from colat.poset import poset_to_json
from colat.star import SeparationReport, load_pq_fixture
from colat.terms import CheckResult


def _files() -> dict[str, object]:
    pent = l_mn(1, 1)
    prod = direct_product(co_chain(3), co_chain(2))
    w = load_pq_fixture()
    return {
        "pent.json": lattice_to_json(pent),
        "m3.json": {
            "size": 5,
            "leq_pairs": [[0, 1], [0, 2], [0, 3], [0, 4], [1, 4], [2, 4], [3, 4]],
            "labels": ["0", "a", "b", "c", "1"],
        },
        "co2.json": lattice_to_json(co_chain(2)),
        "co3.json": lattice_to_json(co_chain(3)),
        "prod.json": lattice_to_json(prod),
        "pi.json": {"values": [i // 4 for i in range(prod.n)]},
        "const.json": {"values": [0] * prod.n},
        "cert.json": certificate_to_json(pent, decide_sub_lo(pent).certificate),
        "p.json": poset_to_json(w.P),
        "q.json": poset_to_json(w.Q),
        "c3.json": {"elements": ["0", "1", "2"], "covers": [["0", "1"], ["1", "2"]]},
        "c5.json": {"elements": ["0", "1", "2", "3", "4"],
                    "covers": [["0", "1"], ["1", "2"], ["2", "3"], ["3", "4"]]},
    }


# commands without report flags print their artifact
ARTIFACTS = [
    "co 3", "co c3.json", "co 17", "catalog co 3", "catalog lmn 1 2", "catalog co 1 2",
    "dot pent.json", "dot c3.json", "dot m3.json",
]
REPORTS = [
    "check co3.json --identity E", "check m3.json --identity HS",
    "check pent.json --identity P", "check nope.json --identity E",
    "check-sigma pent.json --which E", "check-sigma m3.json --which HS",
    "member pent.json", "member m3.json", "member pent.json --variety sub-2",
    "member pent.json --variety sub-3", "member co3.json --variety sub-lattices",
    "embed co2.json co3.json", "embed co3.json co2.json",
    "verify-cert pent.json cert.json", "verify-cert co3.json cert.json",
    "classify pent.json", "classify co2.json", "classify co3.json", "classify m3.json",
    "tracks pent.json --index 1 1", "tracks pent.json --index 1 1 --limit 1",
    "tracks co3.json --index 1 2",
    "retract prod.json --pi pi.json --target co:3",
    "retract prod.json --pi pi.json --target lmn:1,1",
    "retract prod.json --pi const.json --target co:3",
    "find-pq", "find-pq --limit 0",
    "verify-separation c3.json c5.json", "verify-separation p.json q.json",
    "invariants pent.json", "invariants m3.json",
]
ARGVS = ARTIFACTS + REPORTS + [a + " --json" for a in REPORTS]

PINNED = {
    "co 3":
        "60d70c0b3fc8cfc82d7e5d35407e9b3a053337b1776eb55d85dd221ee8cbfb9b",
    "co c3.json":
        "60d70c0b3fc8cfc82d7e5d35407e9b3a053337b1776eb55d85dd221ee8cbfb9b",
    "co 17":
        "ee253965535ff5a8e0266498487ebef3f1b6b80d83fd1d3a83ecd3caa0a0633f",
    "catalog co 3":
        "60d70c0b3fc8cfc82d7e5d35407e9b3a053337b1776eb55d85dd221ee8cbfb9b",
    "catalog lmn 1 2":
        "d5aaa1240dacc42556135c38a06463f880780567243f0597fb7de08394d0c755",
    "catalog co 1 2":
        "af49ad8164648bcb3760a864488a1f09eb6338f3a80178a42b2e581ea77e88a5",
    "dot pent.json":
        "6c28a24d63fc626134f4d165d4c19c3365b97ea4c8bc17b60a8a6cbde5386f10",
    "dot c3.json":
        "a702ca6527f0b25b58f679277cfa8e65d1e6bb60dc87a9ae22e8382d4d08b9de",
    "dot m3.json":
        "17091ddbb2d179702f8b3a051d238654a11489b8b46fcf86af94040398e33f53",
    "check co3.json --identity E":
        "aae55490fc0dc13fd336282cb5c4d6069d7837c8a81500b88f45020b741bfd72",
    "check m3.json --identity HS":
        "2de387fb9e85c9bfbcca0cb8677637e07325d79d0414f89dd3682395c5a393cd",
    "check pent.json --identity P":
        "d027a48c22cfc78a0518b66280b165e19a7896d734bdf571fb47db9b0dfede73",
    "check nope.json --identity E":
        "3c080b8f036ec2999677019c4377cf568e348a0269ff1cbf04a5ead92dfff320",
    "check-sigma pent.json --which E":
        "a8aebc3bfde0f00a4055f8f36bf59f556a48d89357c7d1960c5e009c56dd47d5",
    "check-sigma m3.json --which HS":
        "9f69384d590caa384a352edab5ec07ffd13c315f9b09e5ec318b4dd506aaf197",
    "member pent.json":
        "30a7e7c75010dc436b556cdd5cc100869dcb0b1bf538a0c35016926f9d6b3f9f",
    "member m3.json":
        "8705c839421547aa539486014a4e36248250410cf8efde4ace03e14d11a3cf54",
    "member pent.json --variety sub-2":
        "dd9098d1ad4431f313e8fed24ed59f62d3f76a7979a919e40c2157b450c0b7d1",
    "member pent.json --variety sub-3":
        "5a898a7344bf5db3bbb95df6d3e73d183a597f4a268ba512e730ce64b150145c",
    "member co3.json --variety sub-lattices":
        "31b7b87635ccd579c2eac923ad1a3265273c1aa66e1c3e4415be277496707392",
    "embed co2.json co3.json":
        "1975ecd7b1f215aa18230243108dcdef46c255c01d07a39cf6dba2a48a8f3abd",
    "embed co3.json co2.json":
        "26baae40147172366a88f768a3ca64ab4882b84f88f3cfadc70896ed4398d0b9",
    "verify-cert pent.json cert.json":
        "8a39bffff46e32aff883b6d86d2e0beda0b9b38d6fe70824856dfad32f9ca8e2",
    "verify-cert co3.json cert.json":
        "27f8ff95301023fad9527b2ada3de2f37bab3a39e608f53376be438ebe28a20a",
    "classify pent.json":
        "648585806dd33d3119909ce1f60f75a6beb19c1ea936a1767af4f65180b2ceff",
    "classify co2.json":
        "837431a0b85fcf5c1d70e6ebe58ed5f934f339f25371150da2029934b38c6a16",
    "classify co3.json":
        "90dde0d9f10d4bcf825bdaa914604bf99b4a9891551761d5708f4554cc23246c",
    "classify m3.json":
        "2436809a5866c077b1bb597c0d24956aaee215740d1eb6de2c0dc1def08e77f0",
    "tracks pent.json --index 1 1":
        "09e5a936727a85543d254f7c8c9799b198d87067cc760e8d6ed908f20e5fb950",
    "tracks pent.json --index 1 1 --limit 1":
        "3ace74a536cdbd019900f0e6a4773910ffaff928605bff5b258316eec20b73e8",
    "tracks co3.json --index 1 2":
        "e2cb8cdb2198725afa2abc1c1b97c062e4d6260587a6078961ed64769eee79ec",
    "retract prod.json --pi pi.json --target co:3":
        "f4f71873ca898bf6c656a974dac630fa927cabe1ee891b619456229009d7c57b",
    "retract prod.json --pi pi.json --target lmn:1,1":
        "189a70f3340c7b77b0ec6c9e68c2a3e44b96939cafcfe5140a7c8632724aa97c",
    "retract prod.json --pi const.json --target co:3":
        "d5cc0741451bca0d178044d4e56798464701ead9b2a7a67197fe4807ff8cc347",
    "find-pq":
        "124e713103efd3d7223846cdadee73adf13cdf2b11165f0035981f689b5b8a8e",
    "find-pq --limit 0":
        "124e713103efd3d7223846cdadee73adf13cdf2b11165f0035981f689b5b8a8e",
    "verify-separation c3.json c5.json":
        "614b771d7234a3af978dd2be21c05b8d6bf246042ec61a8e899ac4a480806f99",
    "verify-separation p.json q.json":
        "da771d867206007d2b526c7f11798db5685a1d461d9ad9dbdd2076409923b9d0",
    "invariants pent.json":
        "1439c7d4a64196748a17ae7ef18ab4d596ee307807a481d4c19c905d00df27a8",
    "invariants m3.json":
        "1439c7d4a64196748a17ae7ef18ab4d596ee307807a481d4c19c905d00df27a8",
    "check co3.json --identity E --json":
        "5f668e0fd2156ee58f0e5516ceaea1f9678cad0ba5649fc7affed515e1d8108e",
    "check m3.json --identity HS --json":
        "66f6b8f7c28fa292948e8c017e989a4cd89569a3908a8f8619ba2a59cba75661",
    "check pent.json --identity P --json":
        "31ff2ad19cd9234dfb478a69398d63059ef5004b947c720c0d1afc57287b5baf",
    "check nope.json --identity E --json":
        "3c080b8f036ec2999677019c4377cf568e348a0269ff1cbf04a5ead92dfff320",
    "check-sigma pent.json --which E --json":
        "c8774af8bb1e6348c872db63b33d0d94b24f909174a94e52f3fc278c8a5bddde",
    "check-sigma m3.json --which HS --json":
        "50ba9a37ccea82b50dad4d26095622a9992b8ac7d9b78ee247d543ac9861b734",
    "member pent.json --json":
        "27cf4ef494a225fb798e3d8fedac9aa6df708f9b470cb434130b11f9b0d8802e",
    "member m3.json --json":
        "1f661187193b9c296af199671e78d31e27d36e2cf1658cd8f91b76e422d08a0e",
    "member pent.json --variety sub-2 --json":
        "326d6a1071e6e7e3028617402af72aefb676204a93ccef8d23bdd1e82f77911b",
    "member pent.json --variety sub-3 --json":
        "907e8e1b3597b6c6c0be7eb4126ebda15d17a61e1d35b8ff581bb7bd86b6c7cc",
    "member co3.json --variety sub-lattices --json":
        "31b7b87635ccd579c2eac923ad1a3265273c1aa66e1c3e4415be277496707392",
    "embed co2.json co3.json --json":
        "ab74c68087a0ffe656787ede89ac844b4374a3c88757182d17c69938f02a0eb9",
    "embed co3.json co2.json --json":
        "81eca542d39c95e578a7febd6fadc1f3b1a7818189dc2713e5174c490b07f5b9",
    "verify-cert pent.json cert.json --json":
        "562a8349370c573ca693b37ae7233bf5a8305bce396554dc825d0cfcc7c5fada",
    "verify-cert co3.json cert.json --json":
        "2d048608b364e231169a2caf54693279ab93ac444326ed4ec34653a4949d96a8",
    "classify pent.json --json":
        "87fd94d7b44fbdd0e212df9a7ebba1c1679b5c4962eba428aa34284c143bfd7d",
    "classify co2.json --json":
        "a1b466029146f16f4bbcc5dc76dfdc976b25755fce5a3155a21e10fc6c3c6139",
    "classify co3.json --json":
        "d49aedebaa7f75e73569200d7fd308af3d89cefd9e6f818e4ab9602ef6313e27",
    "classify m3.json --json":
        "0e922b1e19e5593b89036bcf5849a3ea8a72e407e652219ad90a117b9db7d366",
    "tracks pent.json --index 1 1 --json":
        "3da67ea510d830455aef85c79929c042f426fa92aa9b856ee842b692004d5f43",
    "tracks pent.json --index 1 1 --limit 1 --json":
        "7ac017765faccf490fd8bd31d098cb54f01631728f0d0965d56810669079d8d7",
    "tracks co3.json --index 1 2 --json":
        "12b9ddc125ac2620fed22c9492bdd1fa62ee555b73859c1b0a7baa4326dc61fb",
    "retract prod.json --pi pi.json --target co:3 --json":
        "2e0e4e41103ab11dfd0524ecef7e924e684a7e718cc35fd59909c2b017d54fab",
    "retract prod.json --pi pi.json --target lmn:1,1 --json":
        "189a70f3340c7b77b0ec6c9e68c2a3e44b96939cafcfe5140a7c8632724aa97c",
    "retract prod.json --pi const.json --target co:3 --json":
        "d5cc0741451bca0d178044d4e56798464701ead9b2a7a67197fe4807ff8cc347",
    "find-pq --json":
        "bc4c8aaa54721d2daf80b2dbae3ac0d4da20455b68aba36ca52b3aea4db0f4ce",
    "find-pq --limit 0 --json":
        "bc4c8aaa54721d2daf80b2dbae3ac0d4da20455b68aba36ca52b3aea4db0f4ce",
    "verify-separation c3.json c5.json --json":
        "f054176ec4bda4acff0ac77b398600dbf403593c36061a9011f4cfac86e14ec5",
    "verify-separation p.json q.json --json":
        "89b61b1e7e5e08f780a71696a81f1e6948746ad0268616aedb2e3e5a9214ea93",
    "invariants pent.json --json":
        "e5dfb3af77eab2470a259039a890f03508e776a9f2156e6e239ac17cf7a10d0d",
    "invariants m3.json --json":
        "2fc90e841be5072dfc7aff3da9f9813580bc2ca505592b023bce28f5a0fe103d",
}


def _record(tmp) -> dict[str, str]:
    """Hash of every argv, run in the directory tmp."""
    fixture = load_pq_fixture()
    fake = SeparationReport(
        co_p=CheckResult("STAR", False, dict.fromkeys(
            ("x0", "x1", "x2", "x3", "xa", "xb"), 1), 31 ** 6),
        co_q=CheckResult("STAR", True, None, 40 ** 6),
        separated=True,
        note="n",
    )
    real = cli.verify_separation

    def separation(P, Q, workers, force):
        if Q.labels == fixture.Q.labels:
            return fake
        return real(P, Q, workers=workers, force=force)

    for name, data in _files().items():
        (tmp / name).write_text(json.dumps(data))
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp)
        mp.setattr(cli, "search_pq", lambda limit: [fixture])
        mp.setattr(cli, "verify_separation", separation)
        for argv in ARGVS:
            out[argv] = _run(argv.split())
    return out


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    return _record(tmp_path_factory.mktemp("pinned"))


def _run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(argv)
    blob = json.dumps([rc, stdout.getvalue(), stderr.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def test_every_argv_pinned():
    assert sorted(PINNED) == sorted(ARGVS)


@pytest.mark.parametrize("argv", ARGVS)
def test_report_bytes(record, argv):
    assert record[argv] == PINNED[argv]
