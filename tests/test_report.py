"""The report's JSON text is the standard library's ``json.dumps(indent=2)``
of the report dict, and the JSON and text outputs of a large closure keep
their bytes."""

import hashlib
import json

from finevo import MappingLaw, analyze_law
from finevo.cli import main
from finevo.report import build_report, report_to_json
from fuzzlaws import group_kernel_laws

# 21,954 elements and a 7-element kernel: a closure of the size the
# closure-scaled benchmark analyzes
BIG = {"n": 7, "generators": [[5, 3, 7, 2, 6, 3, 7], [2, 3, 4, 3, 5, 1, 6]],
       "weights": ["1/2", "1/2"]}
N300 = {"n": 300, "generators": [[2, 1, *range(3, 301)], [1] * 300],
        "weights": ["1/2", "1/2"]}
# sha256 of `analyze --law BIG --no-timestamp` and of its `--text` output,
# from the encoder that wrote every element through json.dumps
BIG_JSON_SHA = "1a5b3fb8dbce1e1db8af19d4fd348634c5ecec391ff262945321f2a0e680bc44"
BIG_TEXT_SHA = "57c5bfc0cad826cd948cd8acfa0a914bb0bc69524c3173e9ba5a9df06d2ec56c"
# ... and of `example --replications 1000 --seed 42 --no-timestamp`, whose
# verification block renders lists of dicts, which BIG's report has not
EXAMPLE_JSON_SHA = "f7c696e16b19de963090deb87d39ccd3c35cee61d26b360f53793a77dc261891"
EXAMPLE_TEXT_SHA = "8c465b275c9662ee57dc56b14ab213269285babbd9b7b7e3dd289a178404d829"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_report_to_json_is_the_stdlib_encoding(example_analysis, cyclic3_analysis,
                                               p3h2_analysis, fuzz_analyses):
    analyses = [example_analysis, cyclic3_analysis, p3h2_analysis, *fuzz_analyses[0],
                *map(analyze_law, group_kernel_laws()),
                *(analyze_law(MappingLaw.from_dict(law)) for law in (N300, BIG))]
    for i, a in enumerate(analyses):
        report = build_report(a, seed=i if i % 3 else None, timestamp=i % 2 == 0)
        assert report_to_json(report) == json.dumps(report, indent=2)


def test_report_to_json_keeps_a_verification_block(capsys):
    assert main(["example", "--replications", "1000", "--no-timestamp"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert "verification" in report
    assert report_to_json(report) + "\n" == json.dumps(report, indent=2) + "\n" == out


def test_a_large_closure_keeps_its_json_and_text_bytes(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(BIG))
    for argv, shas in [(["analyze", "--law", str(path)], [BIG_JSON_SHA, BIG_TEXT_SHA]),
                       (["example", "--replications", "1000", "--seed", "42"],
                        [EXAMPLE_JSON_SHA, EXAMPLE_TEXT_SHA])]:
        digests = []
        for fmt in ([], ["--text"]):
            assert main([*argv, "--no-timestamp", *fmt]) == 0
            digests.append(_sha256(capsys.readouterr().out))
        assert digests == shas, argv[0]
