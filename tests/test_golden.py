"""Golden digests of the command line output.

Each case runs `segdisc` in-process on tests/fixtures/sample20.txt, or
on recombined120.txt (those 20 utterances followed by 100 drawn from their
words, so that later utterances are segmented with a learned lexicon), and
records the exit code plus sha256 digests of stdout, stderr and the
`--out` file (null when the case writes none).  The digests pin every
command's output byte for byte, so a refactor that changes any of it
fails here.  After an intended output change, regenerate the digests with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/fixtures/golden_cli.json.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"
SAMPLE = str(FIXTURES / "sample20.txt")
RECOMBINED = str(FIXTURES / "recombined120.txt")
GOLDEN = FIXTURES / "golden_cli.json"


def _cases():
    """(name, argv, writes --out, extra environment) for every case."""
    cases = []
    for label, corpus in (("", SAMPLE), ("recombined-", RECOMBINED)):
        for order in (1, 2, 3):
            for mode in ("uniform", "lexicon", "speech"):
                for vowel in (False, True):
                    argv = ["segment", "--corpus", corpus, "--order", str(order),
                            "--phoneme-mode", mode] + (["--require-vowel"] if vowel else [])
                    name = f"segment-{label}o{order}-{mode}{'-vowel' if vowel else ''}"
                    cases.append((name, argv, False, {}))
    cases.append(("segment-o2-out", ["segment", "--corpus", SAMPLE, "--order", "2"],
                  True, {}))
    for order in (1, 2, 3):
        cases.append((f"eval-o{order}", ["eval", "--corpus", SAMPLE, "--order", str(order)],
                      False, {}))
        cases.append((f"eval-recombined-o{order}",
                      ["eval", "--corpus", RECOMBINED, "--order", str(order),
                       "--block-size", "30"], True, {}))
    cases += [
        ("eval-o1-out", ["eval", "--corpus", SAMPLE, "--block-size", "7"], True, {}),
        ("eval-train-half", ["eval", "--corpus", SAMPLE, "--train-frac", "0.5",
                             "--block-size", "4"], True, {}),
        ("eval-baseline", ["eval", "--corpus", SAMPLE, "--baseline-random",
                           "--seed", "3", "--block-size", "6"], False, {}),
        ("eval-seen-only-speech-vowel",
         ["eval", "--corpus", SAMPLE, "--order", "2", "--block-size", "5",
          "--lexicon-seen-only", "--phoneme-mode", "speech", "--require-vowel"], False, {}),
        ("permute-o1", ["permute-average", "--corpus", SAMPLE, "--runs", "3",
                        "--block-size", "5"], False, {}),
        ("permute-o1-out", ["permute-average", "--corpus", SAMPLE, "--runs", "3",
                            "--block-size", "5"], True, {}),
        ("permute-o1-out-pool", ["permute-average", "--corpus", SAMPLE, "--runs", "3",
                                 "--block-size", "5"], True, {"SEGDISC_THREADS": "2"}),
        ("permute-o2-seed", ["permute-average", "--corpus", SAMPLE, "--order", "2",
                             "--runs", "2", "--seed", "11", "--lexicon-seen-only"], True, {}),
        ("permute-baseline", ["permute-average", "--corpus", SAMPLE, "--runs", "3",
                              "--block-size", "8", "--baseline-random"], True, {}),
        ("permute-no-permute", ["permute-average", "--corpus", SAMPLE, "--runs", "2",
                                "--no-permute", "--order", "3"], False, {}),
        ("sweep-o1", ["train-sweep", "--corpus", SAMPLE, "--runs", "2",
                      "--sweep-step", "5"], False, {}),
        ("sweep-o1-out", ["train-sweep", "--corpus", SAMPLE, "--runs", "2",
                          "--sweep-step", "5"], True, {}),
        ("sweep-o2-cap", ["train-sweep", "--corpus", SAMPLE, "--runs", "2", "--order", "2",
                          "--sweep-step", "3", "--sweep-cap", "0.5", "--seed", "4"], True, {}),
    ]
    for order in (1, 2, 3):
        cases.append((f"fully-trained-o{order}",
                      ["fully-trained", "--corpus", SAMPLE, "--order", str(order)], False, {}))
        cases.append((f"fully-trained-recombined-o{order}",
                      ["fully-trained", "--corpus", RECOMBINED, "--order", str(order)],
                      False, {}))
    cases += [
        ("fully-trained-out", ["fully-trained", "--corpus", SAMPLE, "--order", "2"], True, {}),
        ("damn-british", ["scenario-damn-british"], False, {}),
        ("damn-british-out", ["scenario-damn-british"], True, {}),
        ("damn-british-o3", ["scenario-damn-british", "--order", "3"], False, {}),
        ("growth", ["lexicon-growth", "--corpus", SAMPLE, "--runs", "2"], False, {}),
        ("growth-out", ["lexicon-growth", "--corpus", SAMPLE, "--runs", "2"], True, {}),
        ("growth-no-permute", ["lexicon-growth", "--corpus", SAMPLE, "--order", "2",
                               "--no-permute"], True, {}),
        ("phoneme-modes", ["phoneme-modes", "--corpus", SAMPLE], False, {}),
        ("phoneme-modes-out", ["phoneme-modes", "--corpus", SAMPLE], True, {}),
        ("phoneme-modes-vowel", ["phoneme-modes", "--corpus", SAMPLE, "--require-vowel",
                                 "--lexicon-seen-only"], False, {}),
        ("error-missing-corpus", ["eval", "--corpus", "no-such-corpus.txt"], False, {}),
        ("error-zero-runs", ["permute-average", "--corpus", SAMPLE, "--runs", "0"], False, {}),
    ]
    return cases


CASES = _cases()


def _digest(data: bytes | None):
    return None if data is None else hashlib.sha256(data).hexdigest()


def run_case(argv, with_out, env):
    """Run one command in-process; return its exit code and output digests."""
    from segdisc.harness import main

    saved = {name: os.environ.get(name) for name in ("SEGDISC_THREADS", *env)}
    os.environ.pop("SEGDISC_THREADS", None)
    os.environ.update(env)
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            out_path = Path(tmp) / "out"
            if with_out:
                argv = argv + ["--out", str(out_path)]
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            out = out_path.read_bytes() if out_path.exists() else None
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    return {"exit": code,
            "stdout": _digest(stdout.getvalue().encode("utf-8")),
            "stderr": _digest(stderr.getvalue().encode("utf-8")),
            "out": _digest(out)}


def test_golden_covers_every_case():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(name for name, *_ in CASES)


@pytest.mark.parametrize("name,argv,with_out,env", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(name, argv, with_out, env):
    golden = json.loads(GOLDEN.read_text())
    assert run_case(argv, with_out, env) == golden[name]


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    digests = {name: run_case(argv, with_out, env) for name, argv, with_out, env in CASES}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} cases to {GOLDEN}")
