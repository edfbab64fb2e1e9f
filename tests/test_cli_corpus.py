"""The CLI's output on the sealed corpus of ``tests/cli_corpus.py``."""

from .cli_corpus import cases, load, mismatches


def test_cli_output_matches_the_sealed_corpus():
    # a case listed here changed its exit code, stdout or stderr; reseal
    # with `python tests/cli_corpus.py --seal` only for a deliberate change
    assert mismatches() == []


def test_sealed_corpus_holds_every_generated_case():
    # a graph added to graphs/ or a case added to the generator needs a reseal
    assert [case["argv"] for case in load()] == cases()
