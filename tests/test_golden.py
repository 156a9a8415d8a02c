"""Golden outputs: the exact bytes of ``analyze --format json`` and of
the printing commands ``parse``, ``desugar`` and ``label``.

The report digests were recorded from the implementation that walked
each callee body once per popped configuration; any faster closure must
reproduce them byte for byte.  The generated families also pin the
closed-form configuration counts.  The printing commands' digests were
recorded from the parser that kept pair, list-cell and ``let`` terms as
node kinds of their own; reading them as the constructor terms and cases
they stand for left every one unchanged but a ``let``'s ``parse`` text.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from jeopardy_iaa.cli import main

from conftest import ALL_FIXTURES, FIXTURES, diamond, ring

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


# stdout of parse, desugar and label, by command and program: a fixture,
# or diamond-k / ring-n as generated by conftest
PRINTED_DIGESTS = {
    "parse": {
        "fib.jpd": "8ef85817d3a85f5bd210308e9ba913027f63f1bc61271eadd1f6cadec8f1ec84",
        "first_match.jpd": "a6ba440a28ff922e5c81cea605aa685b865bb3fc8b4e71d3361326b693398f9e",
        "identity.jpd": "4ab9c12a4f02a1dd8de949c6e92e01076a5a0b9adf70c197fc0338407ad0fc08",
        "invert_main.jpd": "803a5ee8b8fef0da155b46be25866b5f18a0cbf354c1159611eebc0d460bcde8",
        "main_sum.jpd": "16c6bb4d618c097e056c85dd7ecfe8913653058e0ef3201fb5c4f68355c2d55f",
        "mutual.jpd": "8eace83b05ccf2629788b54cc6cea3f800250430ae27c33548e94e311de80b13",
        "ring10.jpd": "bc4147c33d003da9b78e7a86c6966cc0d0c40cc58eac367dbcae696696007dbd",
        "selfrec.jpd": "e23d438550f840eec60602645ad33e7bacab6870769dac487fc5835507982d96",
        # the one fixture with a `let`: the parser reads it as the case it
        # stands for, so this digest is of the text that prints that case
        "sugar_soup.jpd": "f0a47720a0c89df76850b381be904ad2d59e1b48140c0b726e1f606c5d2a80cc",
    },
    "desugar": {
        "fib.jpd": "96e290063cdaeb841664df2ecd2f0f143d9e18de3800a478fa014f642cfb08ff",
        "first_match.jpd": "a6ba440a28ff922e5c81cea605aa685b865bb3fc8b4e71d3361326b693398f9e",
        "identity.jpd": "4ab9c12a4f02a1dd8de949c6e92e01076a5a0b9adf70c197fc0338407ad0fc08",
        "invert_main.jpd": "803a5ee8b8fef0da155b46be25866b5f18a0cbf354c1159611eebc0d460bcde8",
        "main_sum.jpd": "7f264183b6c9ca206dda1e26b9678f33e2c29c3a63fdfe62cc146599dd9d4bc2",
        "mutual.jpd": "8eace83b05ccf2629788b54cc6cea3f800250430ae27c33548e94e311de80b13",
        "ring10.jpd": "bc4147c33d003da9b78e7a86c6966cc0d0c40cc58eac367dbcae696696007dbd",
        "selfrec.jpd": "e23d438550f840eec60602645ad33e7bacab6870769dac487fc5835507982d96",
        "sugar_soup.jpd": "002f74ff3fc41ffe00b5be3faf95acd1bd5f9c0e1edd49f4da3f962f0d6d7441",
        "diamond-1": "0f0e000600ef42a746e4be900780c7b1384f115ad5574f43c08caf2da0f2981f",
        "diamond-2": "bb650d240f4bdc1ac081ef90c0e49ed28a423a9814601680472b702348657f1f",
        "diamond-3": "d44d0786369f328707f6d0d79edec8038648e7fb93b0577986fe00053e6122f3",
        "diamond-4": "e0eacd0c1acbd450e9d0d36f8800895da6e4fca2b0bd92c0a3a070768304a601",
        "diamond-5": "755e6d2354c9a058f2acb89cddba13bc8a2ce9109a1a631ffb4ac17b8e8593d9",
        "diamond-6": "58a8efbae9306cfc2d259906c9d661109e2f70052d55558bedd00b9b832bda8e",
        "diamond-7": "f2c3674ccd6fe9397f297bf780418a8461e72434860a4431f7c652b38cc18c27",
        "diamond-8": "0b964fe7ddb6bede9abe2c24f915864538bf5f4f2a52aa4ae9a495e16e0d5de8",
        "diamond-9": "a719e2c6b6d9ea2a29998df90091a53556c16fd6d8363795e52810740dbf5026",
        "ring-1": "a8ded4da446638422e06dba351cc4238fc21bebec58db998292ab8c516a658ed",
        "ring-2": "df227e44feb4dc14874f8a9409b0cf71c524dd9cc92087f7d9b86a496713970d",
        "ring-5": "293d7d1299a9987ca5964120562bb1feba5c2480f89d8020ca3902f644a9d6bb",
        "ring-40": "61be1db1dad9b985b1435c62eb849c308bc0c5826d0958a3e264958ae7219eb5",
    },
    "label": {
        "fib.jpd": "9e6fe670f229370a6ab942dc245bddf90d0ed83388bc1cfec91f3ef7ed322552",
        "first_match.jpd": "aa24462ad996eed29adc77ecbf9aec591e54fb63e8547b16174b2a05f70a3b47",
        "identity.jpd": "56851354c48b16c89ed00888afe1ec131351a9002fea199970ae7cc5ca7958fc",
        "invert_main.jpd": "c4ad769c8a5bf88b5dfa00edda07e1cf186e18e223675a98bbdab540b1e3b405",
        "main_sum.jpd": "f4b526a869d5a1520480174f12bd2abe9fb667a80ea8145d3fbf8e75c3d20577",
        "mutual.jpd": "0cd1988b15c4084bed29a985fbc778993aa3bf50588bc32e8adc3b5c9b1fdaf0",
        "ring10.jpd": "d5e6112fb1aca6e3e4a308f70d647e67e099cb20522e511142e567922edbb6c9",
        "selfrec.jpd": "a541ee287e8620535d3c683670cab0bc36e81489d2675ff655cee82184f3e703",
        "sugar_soup.jpd": "fbbf8a74057d05c5e78edb0c49efeb42ded9047f9056968d3e9dc9c7904b852d",
        "diamond-1": "9a5101f37a188b02c681043fae97d4e18c594eeeceb0180997489ed7b36171bc",
        "diamond-2": "f1ad4d39c6b461ba3169d37f222116dde514e6398aa62305f714a0281ac86302",
        "diamond-3": "97e8620e5f686fe1e17edc1c91c93155df46dbfee1ef05e55f4f67398815f437",
        "diamond-4": "b50a228bb385ec2e1b5f2b5696c2611776a9de986a2f55bc5d1fa87a02fe3519",
        "diamond-5": "024020563e7207453dfe24a9650f42eecfd504c260b81edf4e3698cd1e28cd46",
        "diamond-6": "06630d592adb2d3fa1bf541ba30fa74ddad6f4e4709ef5d80129478a854c28b1",
        "diamond-7": "cd6db0a170fc4d8eeff9aa95341755a9fd9c06f1da9311f393cbc271440e9e92",
        "diamond-8": "27f2f0a700197eac576f1ea1fbe389ef8144273c755bd24c9cea423a5f43a231",
        "diamond-9": "168ebff90e8fcf3009c4d908ec1bec48f239db7cfb6093e659f69b22ef4bc6a1",
        "ring-1": "38801f0db2c694aa473eee5d8d2284218a42d0ae76dc026b3292a029ab5ef942",
        "ring-2": "1c270452abdfdf525d2b04c6d6ea4248b416daa34d697241bd3e4b171155e7d3",
        "ring-5": "cc26fa08f4749f0b10bf93d2f66c719f221528a81ed6eb4ade83ed669d6bdb43",
        "ring-40": "3ca67f265b3dbd23228eb067ff8a074d17a30094ecab395d4f09a6961c8d161d",
    },
}


def _report(path, capsys) -> bytes:
    assert main(["analyze", str(path), "--format", "json"]) == 0
    return capsys.readouterr().out.encode("utf-8")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_fixture_has_a_digest():
    assert sorted(FIXTURE_DIGESTS) == [f.name for f in ALL_FIXTURES]
    for digests in PRINTED_DIGESTS.values():
        assert sorted(n for n in digests if n.endswith(".jpd")) == [f.name for f in ALL_FIXTURES]


def _program(name: str, tmp_path):
    if name.endswith(".jpd"):
        return FIXTURES / name
    family, size = name.split("-")
    path = tmp_path / f"{name}.jpd"
    path.write_text({"diamond": diamond, "ring": ring}[family](int(size)), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "command, name", [(c, n) for c, digests in PRINTED_DIGESTS.items() for n in digests]
)
def test_printed_program_bytes(command, name, tmp_path, capsys):
    assert main([command, str(_program(name, tmp_path))]) == 0
    data = capsys.readouterr().out.encode("utf-8")
    assert _digest(data) == PRINTED_DIGESTS[command][name]


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
