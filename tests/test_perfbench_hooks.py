"""The benchmark harness under perfbench/ reaches into websift by name: its
tracer patches module attributes and its input generator imports functions.
These tests fail when a rename or deletion in websift would break
`perfbench/run.py --trace 1` or input generation."""

import ast
import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def perfbench_path(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)


def test_tracer_patches_resolve(perfbench_path):
    import measure

    assert measure.install_tracer(False) is None
    tracer = measure.install_tracer(True)
    try:
        assert tracer is not None
    finally:
        tracer.unpatch()


def test_classifier_calls_the_harness_makes(perfbench_path):
    """child.py reads token_hash.cache_info() on every repetition, traced or
    not, and the traced featurize observer reads the result's size."""
    import numpy as np

    import measure
    from websift import classifier

    info = classifier.token_hash.cache_info()
    assert info.hits >= 0 and info.misses >= 0
    vocab = classifier.Vocabulary.from_rows(["a"], [1])
    config = classifier.ClassifierConfig(dim=2, bucket=7, min_count=1, word_ngrams=2)
    tracer = measure.install_tracer(True)
    try:
        out = classifier.featurize(["a", "b"], vocab, config)
    finally:
        tracer.unpatch()
    assert isinstance(out, np.ndarray)
    assert out.size == 2


def test_traced_scoring_records_the_document_layer_spans(perfbench_path, tmp_path, tokenizer):
    """score_corpus must keep reading shards through the filtering names the
    tracer patches; otherwise documents.decode_us, documents.read_us and the
    digest metrics of a traced run silently read 0."""
    import measure
    from websift import classifier
    from websift.filtering import score_corpus

    model = classifier.train(
        [classifier.LabeledExample("positive", "good text"),
         classifier.LabeledExample("negative", "bad text")],
        classifier.ClassifierConfig(dim=4, bucket=16, min_count=1, epochs=1),
        tokenizer,
    )
    shards = []
    for k in range(2):
        path = tmp_path / f"s{k}.jsonl"
        path.write_text('{"text": "good"}\n\n{not json\n{"text": "bad text"}\n', encoding="utf-8")
        shards.append(str(path))
    tracer = measure.install_tracer(True)
    try:
        score_corpus(model, shards, 0.5, tokenizer, str(tmp_path / "out"), workers=1)
    finally:
        tracer.unpatch()
    names = [span[1] for span in tracer.spans]
    assert names.count("documents.decode_record") == 3 * len(shards)   # non-blank lines
    assert names.count("documents.iter_shard_lines") >= 1
    assert names.count("documents.shard_digest") == len(shards)


def websift_imports(path):
    """(module, name) for every `from websift... import name` in a file."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "websift"
        for alias in node.names
    ]


@pytest.mark.parametrize("script", ["gen.py", "child.py", "measure.py"])
def test_websift_names_imported_by_the_harness_exist(perfbench_path, script):
    importlib.import_module(script[:-3])
    names = websift_imports(os.path.join(PERFBENCH, script))
    assert names
    for module, name in names:
        owner = importlib.import_module(module)
        if not hasattr(owner, name):
            importlib.import_module(f"{module}.{name}")   # a submodule
