"""Golden outputs: the exact bytes of ``analyze --format json`` and of
the printing commands ``parse``, ``desugar`` and ``label``, of
``analyze``'s text format, and of ``run`` with and without ``--trace``.

The report digests were recorded from the implementation that walked
each callee body once per popped configuration; any faster closure must
reproduce them byte for byte.  The generated families also pin the
closed-form configuration counts.  The printing commands' digests were
recorded from the parser that kept pair, list-cell and ``let`` terms as
node kinds of their own; reading them as the constructor terms and cases
they stand for left every one unchanged but a ``let``'s ``parse`` text.
The text-format reports and the JSON reports of diamond-10 and ring-140
were recorded before the report got a JSON writer of its own, and the
``run`` outputs before its trace reused the text of shared values.
The exit code and stderr of each error path, and of ``parse`` on every
fixture with one token deleted, were recorded at 234a325, whose nodes
carried a source span from start to end; a location prints its start.
One message has changed since: an input value in parentheses whose first
value is followed by neither ',' nor ':' now names both tokens.
"""

from __future__ import annotations

import hashlib
import json
import random
import re

import pytest

from jeopardy_iaa.cli import main
from jeopardy_iaa.parser import tokenize

from conftest import (
    ALL_FIXTURES,
    FIXTURES,
    diamond,
    fixture_source,
    nested_scrutinees,
    ring,
    sugar_library,
)

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


# the largest sizes the benchmark analyzes
LARGE_REPORT_DIGESTS = {
    "diamond-10": "8e2acbdb20ded0900e131ee1e931b71b8e19e710a54a3cd332ff286bae946cd3",
    "ring-140": "7c8713dc7b73c4bec6294c4246709cd8e8812cf0229637a0752e382e81b46358",
}

# stdout of analyze in its text format, by program as in PRINTED_DIGESTS
TEXT_REPORT_DIGESTS = {
    "fib.jpd": "12e254b22e8e55f0ded6db0a54a218be3eedace2acd0c56933e11a1fa488d308",
    "first_match.jpd": "e1c062d9cbd8a0e1930276421347aca4353ca7dce4beb07c03d509e5c4a7a444",
    "identity.jpd": "01b93097a0fe9df9d16d87d48e9d7847009a62c0cb21ff8e34d8e4be86e3526c",
    "invert_main.jpd": "19300fb4521b6d2613c16f0f6c9694029750cbbcbe9fc824a3e96682fb34c993",
    "main_sum.jpd": "6baedce1ee6d30fe2af00d2e906bcd1014a74459d83875ba4c7fad37e005fdd8",
    "mutual.jpd": "8e9d0da057e5ded401ebc3d2c8b66df926f395ae4230ffff09ae21b670a3e7b8",
    "ring10.jpd": "5cdd8a0ef5277af434759e97d34f8e240d45abde0728b533472f50fb39c0f672",
    "selfrec.jpd": "44c696afddea899b13eb6b5bd358a60c6f4838cdaadaa97a2bfcc7d0d8096329",
    "sugar_soup.jpd": "79316f4bae42ad7a467d0c8c01c0744eba8b71477cc230f9ea49b6a825eb43ae",
    "diamond-1": "053ffdde12ade71517ad326796a59acaabcb2762036b2e6284f37f53e343c000",
    "diamond-2": "1ba7f91ae3e1571cc1717744d7d6f35037d074756edfe9f26ad9c79dcdd8cf0b",
    "diamond-3": "93bb9a07072cb24a0e0f03f7c1fba5b7af0547b4dd6acd1bd16fd8f8fab76646",
    "diamond-4": "7bfe971a9b3cdb084fd88bea7f514aff4173003a50094b46f1e1cf97b920a6fc",
    "diamond-5": "6c4400dafb6bdda3a355348ef59297b0ed7d359a3bcf5326df702faee00d3e8e",
    "diamond-6": "99f386b7e0368a63cf45a8b9915e90ba41859e6fc6b9bba88a9502e57a3f7ec6",
    "diamond-7": "187809ddd5b1b61b7885f44d3ff4433031ad85d0b31cda06906da9013c0e37a9",
    "diamond-8": "f3422b8537d8bc9c5e760389af43075374802b0fb1b252dfd1dc9272439eac76",
    "diamond-9": "2f23341347e6e685716b4b7a12976b91cfcf67ce2c24709f041fd97e96263222",
    "ring-1": "33f663c01e62994bf1b0a19e5b8817fc055a5a3f36f6fef00db30493f2a1e29b",
    "ring-2": "a051675e4479c3cfff331588da974165106f3fe7bacf645e2c267a28cbd4f484",
    "ring-5": "6944278e8d6a0493a6ce31249a6377a46df34f8c72dd29acedcc936d718c41ad",
    "ring-40": "344b534ecffe1121df240061ac1b247944787ec6c4ce5e9028eb7e716cca0536",
}

# analyze's JSON and text reports of a fixture whose main is wrapped in one
# (invert ...) marker.  The backward entry point wraps main once more, so
# with two markers the reports are those of the fixture as it is.
INVERTED_MAIN_DIGESTS = {
    "fib.jpd": (
        "8cd0172a2008e418951920fed1e2b501f6bf7243d7ffb68c79ec416ae111c36a",
        "9588c3f7e73cd125bf20f8d9216f01c98fa9ca63832ef16f987833437c22dd36",
    ),
    "invert_main.jpd": (
        "79430dd83bb6d75e62a7f53f075e7343bb0ea535c903953b467c2d5e147b2112",
        "90dbdb37a9d36834a3c61d089fb707d385f2642aa676498e6ffbdda186d29a27",
    ),
    "mutual.jpd": (
        "e9aaee82aa985a9812c756857034cfa8df9a3cbcec9338b872f6d32d2b3946ce",
        "2bfc29e1214e873ea56b07f807610bcef4e936f085ccd1a59ebea3caa20f7419",
    ),
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

# stdout of run, by program and input, with --trace unless the entry says
# otherwise.  Recorded at 6bfcb61, whose trace printed each argument whole;
# the trace's value writer reuses the text of nodes met before, keyed by
# their id, so these also show that its bytes depend on no address.
TRACE_DIGESTS = {
    ("fib.jpd", "0", True): "b516420c2ddad263c40ff346a7ee08b8583eba57c3b8e5e7e1b821a190da7c2a",
    ("fib.jpd", "1", True): "d743610f556816eb419258334f926d5ea01e8b9621339e417b60b1ddb0d5a409",
    ("fib.jpd", "2", True): "e2574b78d53882d87f074560d78b80a9ab73496eeb81b556f8b424ec9bbf06f1",
    ("fib.jpd", "3", True): "9981ce29e884448a7225f1f2b3cb0d3b21675a3a24b0a24962aeb48f2fc614f1",
    ("fib.jpd", "4", True): "66f724e0d35d8c571be2dc4093b9f8bb8ee5b8bf9a5ac47c0938bcdb316db1ee",
    ("fib.jpd", "5", True): "7bf19edb0dd84d5f36abc1085d98cee7248d1e690d9114aa4e02e9f81df8cede",
    ("fib.jpd", "6", True): "c0aae7481b7a9e8da16029adcedeb8300732fc7500e522eb735b04a961386930",
    ("fib.jpd", "7", True): "8461ce38e975d27a00527f45b1ecf0bcf64546af2f483793383da9f4f1c68e0f",
    ("fib.jpd", "8", True): "7e6456c812e1d5179a7122a29d40a06018e62f3dd14eca640a39e4fdc1d40877",
    ("fib.jpd", "9", True): "b86a24a54e576bdf2fbbe6bf19a1e7faaf47a314e0aa03fc3924002c707d32ae",
    ("fib.jpd", "10", True): "d2ff4f44dc0d634266667e6be5bd6d05c98ec1f15599ba83e07d472e20de08bc",
    ("fib.jpd", "11", True): "9db4afd21f995f1c5bbeb66237151ff3d8c28c1a228c9661c58ebeb8c8f5f2f2",
    ("fib.jpd", "12", True): "051c6de0eb92870746ca2bdf917036f2727259ec67d554b2c95e22193814e942",
    ("fib.jpd", "13", True): "88c48364f564d91436185cb5049589472895835cfe90699fc3c83a817a9da115",
    ("fib.jpd", "14", True): "c5cea1ac9a4baa009dbaf4ce748ee15f9c1e31093554cdead65eaa0c3732e8e8",
    ("main_sum.jpd", "(140, 15)", True): "8875ced794c42c8bed60fd57d2e0dc47dcb35cee4db084c50ee135d950503ef5",
    ("main_sum.jpd", "(399, 29)", True): "3a10e42547eb5a05058a112d7e372225174938189dd7c22d66960d13446fe90a",
    ("main_sum.jpd", "(140, 15)", False): "37df031475e64cd9501ca6ea8f5fd357a6507084ab90eb84b82c2ea707a90f34",
}


# one digest over the stdout of parse, desugar, label and analyze --format
# json --show-labels, in that order for each generated source in turn:
# sugar_library(12, random.Random(s)) for s = 0..39, then
# nested_scrutinees(1..5).  Recorded at commit feb0a57, whose parser still
# wrapped a pattern used as a term in a node of its own.
GENERATED_FRONT_END_DIGEST = "86ea62aeafa4180d4b03c24d6306b6f26aa2dc88b776dca90b67f65a68401900"


# exit code and stderr lines of a failing command, by command (with its
# options), source and run input; a source is a program's text or a
# fixture's name, and the source file's path reads FILE
ERRORS = {
    # validate's diagnostics: one of each kind, then many in one program,
    # in the order validate finds them, and after each command
    ("parse", "data t = [c] [c].\nf x = x.\nmain f.\n", None):
        (1, ["FILE:1:1: duplicate-constructor: constructor 'c' declared more than once"]),
    ("parse", "data t = [c].\nf x = [d].\nmain f.\n", None):
        (1, ["FILE:2:7: undefined-constructor: constructor 'd' is not declared"]),
    ("parse", "data t = [c t] [z].\nf x = [c].\nmain f.\n", None):
        (1, ["FILE:2:7: arity-mismatch: constructor 'c' takes 1 argument(s), got 0"]),
    ("parse", "data t = [c t] [z].\nf x = [c (f x) x].\nmain f.\n", None):
        (1, ["FILE:2:7: arity-mismatch: constructor 'c' takes 1 argument(s), got 2"]),
    ("parse", "data t = [c t t] [z].\nf [c x x] = x.\nmain f.\n", None):
        (1, ["FILE:2:8: nonlinear-pattern: variable 'x' bound twice in one pattern"]),
    ("parse", "data t = [z].\nf x = y.\nmain f.\n", None):
        (1, ["FILE:2:7: unbound-variable: variable 'y' is not in scope"]),
    ("parse", "data t = [z].\nf x = x.\nf y = y.\nmain f.\n", None):
        (1, ["FILE:3:1: duplicate-function: function 'f' defined more than once"]),
    ("parse", "data t = [z].\nf x = g x.\nmain f.\n", None):
        (1, ["FILE:2:7: undefined-function: function 'g' is not defined"]),
    ("parse", "data t = [z].\nf x = (invert g) (f x).\nmain f.\n", None):
        (1, ["FILE:2:7: undefined-function: function 'g' is not defined"]),
    ("parse", "data t = [z].\nf x = x.\nmain (invert g).\n", None):
        (1, ["FILE:3:6: undefined-function: function 'g' is not defined"]),
    ("parse", "f x = 2.\nmain f.\n", None):
        (1, [
            "FILE:1:7: undefined-constructor: constructor 'successor' is not declared",
            "FILE:1:7: undefined-constructor: constructor 'zero' is not declared",
        ]),
    (
        "desugar",
        "data t = [c] [c].\nf [c x x] = case y of ; [d] -> g (h w) ; [c z z] -> [c z].\nf x = x.\nmain k.\n",
        None,
    ):
        (1, [
            "FILE:1:1: duplicate-constructor: constructor 'c' declared more than once",
            "FILE:3:1: duplicate-function: function 'f' defined more than once",
            "FILE:2:3: arity-mismatch: constructor 'c' takes 0 argument(s), got 2",
            "FILE:2:8: nonlinear-pattern: variable 'x' bound twice in one pattern",
            "FILE:2:18: unbound-variable: variable 'y' is not in scope",
            "FILE:2:25: undefined-constructor: constructor 'd' is not declared",
            "FILE:2:32: undefined-function: function 'g' is not defined",
            "FILE:2:35: undefined-function: function 'h' is not defined",
            "FILE:2:37: unbound-variable: variable 'w' is not in scope",
            "FILE:2:42: arity-mismatch: constructor 'c' takes 0 argument(s), got 2",
            "FILE:2:47: nonlinear-pattern: variable 'z' bound twice in one pattern",
            "FILE:2:53: arity-mismatch: constructor 'c' takes 0 argument(s), got 1",
            "FILE:4:6: undefined-function: function 'k' is not defined",
        ]),
    ("analyze", "data t = [pair t] [z].\nf (x, y) = x.\nmain f.\n", None):
        (1, ["FILE:2:3: arity-mismatch: constructor 'pair' takes 1 argument(s), got 2"]),
    ("run", "data t = [z].\nf x = y.\nmain f.\n", "[z]"):
        (1, ["FILE:2:7: unbound-variable: variable 'y' is not in scope"]),
    # parse errors: one of each message family
    ("parse", "f _x = x.\nmain f.\n", None):
        (1, ["FILE:1:3: parse error: identifiers must start with a letter"]),
    ("parse", "f x = x $.\nmain f.\n", None):
        (1, ["FILE:1:9: parse error: unexpected character '$'"]),
    ("parse", "f x = x\nmain f.\n", None):
        (1, ["FILE:2:1: parse error: expected '.' after function body, found 'main'"]),
    ("parse", "f x = x.\nmain f.\nf y = ", None):
        (1, ["FILE:3:7: parse error: expected a term, found 'end of input'"]),
    ("parse", "data t = [c. main f.", None):
        (1, ["FILE:1:12: parse error: expected ']', found '.'"]),
    ("parse", "data t = [z].\nf x = x.\nmain f.\nmain f.\n", None):
        (1, ["FILE:4:1: parse error: duplicate main declaration"]),
    ("parse", "f x = x.\n) main f.\n", None):
        (1, ["FILE:2:1: parse error: expected a definition, found ')'"]),
    ("parse", "data t = [z].\nf x = x.\n", None):
        (1, ["FILE:3:1: parse error: missing main declaration"]),
    ("parse", "data t = .\nmain f.\n", None):
        (1, ["FILE:1:10: parse error: a data definition needs at least one constructor"]),
    ("parse", "f x = x.\nmain (invert [c]).\n", None):
        (1, ["FILE:2:14: parse error: expected a function reference"]),
    ("parse", "f x = x.\nmain (f).\n", None):
        (1, ["FILE:2:7: parse error: expected 'invert', found 'f'"]),
    ("parse", "f x = case x of ; case -> x.\nmain f.\n", None):
        (1, ["FILE:1:19: parse error: expected a pattern, found 'case'"]),
    ("parse", "f x = case x of ; g y -> x.\nmain f.\n", None):
        (1, ["FILE:1:19: parse error: expected a pattern, found 'g'"]),
    ("parse", "f x = let (g x) = x in x.\nmain f.\n", None):
        (1, ["FILE:1:11: parse error: expected a pattern, found '('"]),
    ("parse", "f x = ).\nmain f.\n", None):
        (1, ["FILE:1:7: parse error: expected a term, found ')'"]),
    ("parse", "f x = (x, x, x).\nmain f.\n", None):
        (1, ["FILE:1:12: parse error: expected ')' after pair, found ','"]),
    ("parse", "f x = let y = x.\nmain f.\n", None):
        (1, ["FILE:1:16: parse error: expected 'in', found '.'"]),
    ("parse", "f x = " + "[c " * 500 + "x" + "]" * 500 + ".\nmain f.\n", None):
        (1, ["FILE:1:1204: parse error: nesting too deep"]),
    ("parse", "f x = " + " : ".join(["x"] * 1000) + ".\nmain f.\n", None):
        (1, ["FILE:1:1603: parse error: nesting too deep"]),
    ("parse", "main " + "(invert " * 450 + "f" + ")" * 450 + ".\n", None):
        (1, ["FILE:1:3206: parse error: nesting too deep"]),
    ("parse", "f x = 401.\nmain f.\n", None):
        (1, ["FILE:1:7: parse error: numeral too large"]),
    ("parse", "f x = ².\nmain f.\n", None):
        (1, ["FILE:1:7: parse error: unexpected character '²'"]),
    ("label", "f x = [c\n", None):
        (1, ["FILE:2:1: parse error: expected a term, found 'end of input'"]),
    ("analyze", "\n\nf x =\n  [c x\n", None):
        (1, ["FILE:5:1: parse error: expected a term, found 'end of input'"]),
    # sources with CRLF and CR line ends, read as with LF
    ("parse", "data t = [z].\r\nf x = y.\r\nmain f.\r\n", None):
        (1, ["FILE:2:7: unbound-variable: variable 'y' is not in scope"]),
    ("parse", "data t = [z].\r\nf x = x\r\nmain f.\r\n", None):
        (1, ["FILE:3:1: parse error: expected '.' after function body, found 'main'"]),
    ("parse", "data t = [z].\rf x =\r  x $.\rmain f.\r", None):
        (1, ["FILE:3:5: parse error: unexpected character '$'"]),
    # run's runtime errors, located at their label: a case, an application,
    # a parameter's tuple and an application rebuilt around a hoisted term
    ("run", "data nat = [zero] [successor nat].\nf n =\n  case n of\n  ; [zero] -> [zero].\nmain f.\n", "3"):
        (3, [
            "FILE:3:3: runtime error: no-branch-matched at 1: no case branch matched value"
            " [successor [successor [successor [zero]]]]",
        ]),
    ("run --max-calls 5", "data d = [c].\nspin x =\n  spin x.\nmain spin.\n", "[c]"):
        (3, ["FILE:3:3: runtime error: call-budget-exceeded at 1: more than 5 calls; looping program?"]),
    ("run", "data d = [c].\n\nf x = (invert f) x.\n\nmain f.\n", "[c]"):
        (3, ["FILE:3:7: runtime error: inverted-call at 1: backward execution is not supported"]),
    ("run", "data d = [a].\ng (x, y) = x.\nf v = g v.\nmain f.\n", "[a]"):
        (3, ["FILE:2:3: runtime error: no-branch-matched at 1: no case branch matched value [a]"]),
    ("run", "main_sum.jpd", "[zero]"):
        (3, ["FILE:3:5: runtime error: no-branch-matched at 1: no case branch matched value [zero]"]),
    ("run --max-calls 2", "data t = [c].\nid x = x.\nf x = f (id x).\nmain f.\n", "[c]"):
        (3, ["FILE:3:7: runtime error: call-budget-exceeded at 7: more than 2 calls; looping program?"]),
    ("run", "data t = [c].\nid x = x.\nf x = (invert id) (id x).\nmain f.\n", "[c]"):
        (3, ["FILE:3:7: runtime error: inverted-call at 7: backward execution is not supported"]),
    ("run", "data t = [c].\r\nid x = x.\r\nf x =\r\n  (invert id) x.\r\nmain f.\r\n", "[c]"):
        (3, ["FILE:4:3: runtime error: inverted-call at 3: backward execution is not supported"]),
    # runtime errors at the input, which has no place in the source
    ("run --max-calls 0", "fib.jpd", "3"):
        (3, ["runtime error: call-budget-exceeded at input: more than 0 calls; looping program?"]),
    ("run", "data d = [c].\nf x = x.\nmain (invert f).\n", "[c]"):
        (3, ["runtime error: inverted-call at input: backward execution is not supported"]),
    # invalid input values: parse errors, then diagnostics
    ("run", "fib.jpd", "[zero"):
        (1, ["invalid input value at 1:6: expected a value, found 'end of input'"]),
    ("run", "fib.jpd", "(1)"):
        (1, ["invalid input value at 1:3: expected ',' or ':' in a pair or list value, found ')'"]),
    ("run", "fib.jpd", "[zero] x"):
        (1, ["invalid input value at 1:8: unexpected input after value: 'x'"]),
    ("run", "fib.jpd", ""):
        (1, ["invalid input value at 1:1: expected a value, found 'end of input'"]),
    ("run", "fib.jpd", "x"):
        (1, ["invalid input value at 1:1: expected a value, found 'x'"]),
    ("run", "fib.jpd", "  $"):
        (1, ["invalid input value at 1:3: unexpected character '$'"]),
    ("run", "fib.jpd", "_x"):
        (1, ["invalid input value at 1:1: identifiers must start with a letter"]),
    ("run", "fib.jpd", "(0, 401)"):
        (1, ["invalid input value at 1:5: numeral too large"]),
    ("run", "fib.jpd", "٣"):
        (1, ["invalid input value at 1:1: unexpected character '٣'"]),
    ("run", "fib.jpd", "[successor " * 400 + "[zero]" + "]" * 400):
        (1, ["invalid input value at 1:4401: nesting too deep"]),
    ("run", "fib.jpd", "[succ [zero]]"):
        (1, ["invalid input value at 1:1: undefined-constructor: constructor 'succ' is not declared"]),
    ("run", "fib.jpd", "([zero], [successor])"):
        (1, [
            "invalid input value at 1:10: arity-mismatch: constructor 'successor' takes 1 argument(s), got 0",
        ]),
    ("run", "fib.jpd", "\n ([zero],\n  [pair [zero]])"):
        (1, ["invalid input value at 3:3: arity-mismatch: constructor 'pair' takes 2 argument(s), got 1"]),
    ("run", "data t = [c].\nf x = x.\nmain f.\n", "([c], 1)"):
        (1, [
            "invalid input value at 1:7: undefined-constructor: constructor 'successor' is not declared",
            "invalid input value at 1:7: undefined-constructor: constructor 'zero' is not declared",
        ]),
    ("run", "first_match.jpd", "400"):
        (1, [
            "invalid input value at 1:1: undefined-constructor: constructor 'successor' is not declared",
            "invalid input value at 1:1: undefined-constructor: constructor 'zero' is not declared",
        ]),
}

# for each fixture, one digest over parse's exit code and stderr on every
# source that is the fixture with one token deleted, in token order
PARSE_MUTANT_DIGESTS = {
    "fib.jpd": "2e3edf4c50b10b4519aa2975708db80bb3c6162bf35f168387b119ca9b296b95",
    "first_match.jpd": "3b7f48ac227290c2766523c9bed93ac12b056d487405544c4b1f55d3777d68d4",
    "identity.jpd": "dcc72c5d06408e65ef3c5fc7c094d549abcd211ca044872d898c7b91e58f2e4f",
    "invert_main.jpd": "327a268b6e022edd10ba7ca1a80971223732dac640aa378e3e1cdc834a429e60",
    "main_sum.jpd": "969c476054abddaadd12e72ea0ff39e97a60ef3145185944d33dc68a2385b42c",
    "mutual.jpd": "bfffdafd268d40daee734d7afd7c74ba91674aa94159d50a052cdc026a96bc2d",
    "ring10.jpd": "8b7c02c22600188448b3bb128decd8c3bc62a54855182ffc600a1f418dab73a4",
    "selfrec.jpd": "e530a2a8f58a025b810206e6311779a84bfd1d72deef3f962ea674c0b9e59e36",
    "sugar_soup.jpd": "972ee0c7083fd658d1903336015040ddde665bacf4fde994fbbb45cfcb993221",
}

def _report(path, capsys) -> bytes:
    assert main(["analyze", str(path), "--format", "json"]) == 0
    return capsys.readouterr().out.encode("utf-8")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_fixture_has_a_digest():
    assert sorted(FIXTURE_DIGESTS) == [f.name for f in ALL_FIXTURES]
    for digests in [*PRINTED_DIGESTS.values(), TEXT_REPORT_DIGESTS, PARSE_MUTANT_DIGESTS]:
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


@pytest.mark.parametrize("name", sorted(LARGE_REPORT_DIGESTS))
def test_large_report_bytes(name, tmp_path, capsys):
    assert _digest(_report(_program(name, tmp_path), capsys)) == LARGE_REPORT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(TEXT_REPORT_DIGESTS))
def test_text_report_bytes(name, tmp_path, capsys):
    assert main(["analyze", str(_program(name, tmp_path))]) == 0
    data = capsys.readouterr().out.encode("utf-8")
    assert _digest(data) == TEXT_REPORT_DIGESTS[name]


@pytest.mark.parametrize("inversions", [1, 2])
@pytest.mark.parametrize("name", sorted(INVERTED_MAIN_DIGESTS))
def test_wrapped_main_report_bytes(name, inversions, tmp_path, capsys):
    wrapped = r"main " + "(invert " * inversions + r"\1" + ")" * inversions + "."
    source, count = re.subn(r"^main (\w+)\.$", wrapped, fixture_source(name), flags=re.M)
    assert count == 1
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    json_report = _report(path, capsys)
    assert main(["analyze", str(path)]) == 0
    text_report = capsys.readouterr().out.encode("utf-8")
    if inversions == 1:
        expected = INVERTED_MAIN_DIGESTS[name]
    else:
        expected = (FIXTURE_DIGESTS[name], TEXT_REPORT_DIGESTS[name])
    assert (_digest(json_report), _digest(text_report)) == expected


def test_generated_front_end_bytes(tmp_path, capsys):
    sources = [sugar_library(12, random.Random(seed)) for seed in range(40)]
    sources += [nested_scrutinees(depth) for depth in range(1, 6)]
    commands = (["parse"], ["desugar"], ["label"], ["analyze", "--format", "json", "--show-labels"])
    path = tmp_path / "generated.jpd"
    digest = hashlib.sha256()
    for source in sources:
        path.write_text(source, encoding="utf-8")
        for command, *options in commands:
            assert main([command, str(path), *options]) == 0
            digest.update(capsys.readouterr().out.encode("utf-8"))
    assert digest.hexdigest() == GENERATED_FRONT_END_DIGEST


@pytest.mark.parametrize("name, value, traced", sorted(TRACE_DIGESTS))
def test_trace_bytes(name, value, traced, capsys):
    assert main(["run", str(FIXTURES / name), value, *["--trace"] * traced]) == 0
    data = capsys.readouterr().out.encode("utf-8")
    assert _digest(data) == TRACE_DIGESTS[name, value, traced]


def _failure(command: str, source: str, value: str | None, tmp_path, capsys) -> tuple[int, str]:
    """The exit code and stderr of ``command`` on ``source`` (and ``value``),
    with the source file's path written FILE."""
    if source.endswith(".jpd"):
        path = FIXTURES / source
    else:
        path = tmp_path / "source.jpd"
        path.write_bytes(source.encode("utf-8"))
    code = main([*command.split(), str(path), *([] if value is None else [value])])
    captured = capsys.readouterr()
    return code, captured.err.replace(str(path), "FILE")


@pytest.mark.parametrize(
    "command, source, value", ERRORS, ids=[f"{i}-{key[0].split()[0]}" for i, key in enumerate(ERRORS)]
)
def test_error_bytes(command, source, value, tmp_path, capsys):
    code, lines = ERRORS[command, source, value]
    expected = code, "".join(f"{line}\n" for line in lines)
    assert _failure(command, source, value, tmp_path, capsys) == expected


@pytest.mark.parametrize("fixture", ALL_FIXTURES, ids=lambda p: p.name)
def test_one_token_deleted_parse_bytes(fixture, tmp_path, capsys):
    source = fixture.read_text(encoding="utf-8")
    digest = hashlib.sha256()
    for token in tokenize(source)[:-1]:
        mutant = source[: token.start] + source[token.start + len(token.text) :]
        code, err = _failure("parse", mutant, None, tmp_path, capsys)
        digest.update(f"{code}\n{err}".encode("utf-8"))
    assert digest.hexdigest() == PARSE_MUTANT_DIGESTS[fixture.name]
