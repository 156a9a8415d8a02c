"""Golden reports: the exact bytes of ``analyze --format json``.

The digests were recorded from the implementation that walked each
callee body once per popped configuration; any faster closure must
reproduce them byte for byte.  The generated families also pin the
closed-form configuration counts.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from jeopardy_iaa.cli import main

from conftest import ALL_FIXTURES, diamond, ring

FIXTURE_DIGESTS = {
    "fib.jpd": "9c56d867c1f8146a190fed0c1cd8a59e1978e7537a7f6ade595dc2e935ab97ab",
    "first_match.jpd": "0840e2efe73e7738e053bcd0f640b5628b4033067ad0903be6d42876bddd2fcd",
    "identity.jpd": "4d7bf2744190ce356f0f94744a50ae18cf00d0091d6ea94db6554f6d5f818430",
    "invert_main.jpd": "bea65ef839c282ee2b6cdac9dbd8cbf0b1f6bc29137413a16fa6bd0aafd50fd4",
    "main_sum.jpd": "8d51fd1103caa0588fbf6c9063cca5dadb189fe4ceff94fd262ee83f25cf4aa8",
    "mutual.jpd": "f2e70c471bfc0fac548981855a87d210668cef13fcedb763050bffa4ef11dad4",
    "ring10.jpd": "1f187ebc21c077d0e94003bbc1cca06519e9ccd3ef90d464253764460c39361f",
    "selfrec.jpd": "e7fba3473874daf3aeb44f5b991054179cbdd1e7269ac95ce407c90c02989a0c",
    "sugar_soup.jpd": "1f35c52b0afccadaf84b210da87813fd3bfeb692b9b6f51bd801ae20291bfdda",
}

DIAMOND_DIGESTS = {
    1: "ebcd570c4fc3e9be8eb9ef1ad687a2bf35197fa57e53e30313977493d808d16b",
    2: "792ea94edcca4c07c8b283ba4b49eb66ed6e49b9397e0cd00ad1b4e1cba84f64",
    3: "f6a93fc9c68beaa1b14b316745c82e440cd80b1dc8f9a5da6900bb8a40a18e47",
    4: "fc95b92184209a2488a7a3876dfa56f1dc423546262c5fe3d087e39ef0161b5f",
    5: "e4ef0cb3bd78c21f2efabaca5b3b3f54495e6467a77bfb62834befd24268b649",
    6: "3cefff8860c635e80be00fd26edbd8464a351ff99f1135d3ce383dec1fef119c",
    7: "df6ccd9cfea26628799af44d503c9e258a1e9abf25d8e09e5e87fa567fd2f251",
    8: "2a46c35410dbdea5a879ad6a035966ed4669296bbcad6b939f08cb4017e88394",
    9: "b6531b9d28cfac1bd5bdb505e0b4ac6e359c3566a29cad605f7bd1e16c65aabb",
}

RING_DIGESTS = {
    1: "e009c0754972ad0dade37b949c72021b0736a841ce1b06c98bd010598193e9e5",
    2: "4aafdf0e043115cdfd06a9f53e320cf2f9a5460e67b98dc4946044a58f46807a",
    5: "04826dcb61eaaf0413a29fab328669c0618d3e7409b697c348831d559748d50d",
    40: "2854ce16c3d4fa231827194a8d17f560652d8a3315968b47f8be82a2a1fcd8e4",
}


def _report(path, capsys) -> bytes:
    assert main(["analyze", str(path), "--format", "json"]) == 0
    return capsys.readouterr().out.encode("utf-8")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_fixture_has_a_digest():
    assert sorted(FIXTURE_DIGESTS) == [f.name for f in ALL_FIXTURES]


@pytest.mark.parametrize("fixture", ALL_FIXTURES, ids=lambda p: p.name)
def test_fixture_report_bytes(fixture, capsys):
    assert _digest(_report(fixture, capsys)) == FIXTURE_DIGESTS[fixture.name]


@pytest.mark.parametrize("k", sorted(DIAMOND_DIGESTS))
def test_diamond_report_bytes(k, tmp_path, capsys):
    path = tmp_path / f"diamond{k}.jpd"
    path.write_text(diamond(k), encoding="utf-8")
    data = _report(path, capsys)
    assert len(json.loads(data)["configurations"]) == 2 ** k + 2 * k + 1
    assert _digest(data) == DIAMOND_DIGESTS[k]


@pytest.mark.parametrize("n", sorted(RING_DIGESTS))
def test_ring_report_bytes(n, tmp_path, capsys):
    path = tmp_path / f"ring{n}.jpd"
    path.write_text(ring(n), encoding="utf-8")
    data = _report(path, capsys)
    assert len(json.loads(data)["configurations"]) == 3 * n + 1
    assert _digest(data) == RING_DIGESTS[n]
