import os
import random

import pytest
from hypothesis import HealthCheck, settings

from websift.tokenizers import TokenizerSpec, load_tokenizer

settings.register_profile(
    "websift",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("websift")


@pytest.fixture(scope="session")
def tokenizer():
    return load_tokenizer(TokenizerSpec())


@pytest.fixture
def zero_model_file(tmp_path) -> str:
    """A model file of about 8.4 MB, nearly all logit table, made without training."""
    import numpy as np

    from websift.classifier import ClassifierConfig, ClassifierModel, Vocabulary, save_model

    config = ClassifierConfig(dim=64, bucket=1 << 20, min_count=1)
    vocab = Vocabulary(["a", "b"])
    path = str(tmp_path / "zero.bin")
    save_model(ClassifierModel(config, vocab, np.zeros(len(vocab) + config.bucket)), path)
    return path


def make_texts(rng: random.Random, words, n: int, lo: int = 20, hi: int = 60) -> list[str]:
    return [
        " ".join(rng.choice(words) for _ in range(rng.randint(lo, hi))) for _ in range(n)
    ]


def _file_id(path_or_fd) -> tuple[int, int]:
    st = os.stat(path_or_fd)
    return st.st_dev, st.st_ino


class DurabilityTrace:
    """os.fsync, os.replace and os.mkdir calls in the order they happened."""

    def __init__(self):
        self.events: list[tuple] = []

    def assert_artifacts_durable_before_appends(self, log_path, named):
        """named[k] lists the artifact paths the k-th append to log_path
        names. Each must have been fsynced, renamed into place and had its
        directory fsynced before that append was fsynced, and each directory
        made on the way to it must have had its parent fsynced after it was
        made and before that append."""
        log_id = ("fsync", _file_id(log_path))
        appends = [i for i, event in enumerate(self.events) if event == log_id]
        assert len(appends) == len(named)
        for k, (at, paths) in enumerate(zip(appends, named)):
            before = self.events[:at]
            for path in paths:
                path = os.path.abspath(path)
                renames = [i for i, event in enumerate(before) if event == ("replace", path)]
                assert renames, f"append {k}: {path} was not renamed into place first"
                renamed = renames[-1]
                assert ("fsync", _file_id(path)) in before[:renamed], \
                    f"append {k}: {path} was not fsynced before its rename"
                assert ("fsync", _file_id(os.path.dirname(path))) in before[renamed:], \
                    f"append {k}: the directory of {path} was not fsynced after the rename"
                made_dir = os.path.dirname(path)
                while ("mkdir", made_dir) in before:
                    made = max(i for i, event in enumerate(before) if event == ("mkdir", made_dir))
                    parent = os.path.dirname(made_dir)
                    assert ("fsync", _file_id(parent)) in before[made:], \
                        f"append {k}: {parent} was not fsynced after {made_dir} was made"
                    made_dir = parent


@pytest.fixture
def durability_trace(monkeypatch):
    trace = DurabilityTrace()
    real_fsync, real_replace, real_mkdir = os.fsync, os.replace, os.mkdir

    def fsync(fd):
        trace.events.append(("fsync", _file_id(fd)))
        real_fsync(fd)

    def replace(src, dst, **kwargs):
        real_replace(src, dst, **kwargs)
        trace.events.append(("replace", os.path.abspath(dst)))

    def mkdir(path, *args, **kwargs):
        real_mkdir(path, *args, **kwargs)
        trace.events.append(("mkdir", os.path.abspath(path)))

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(os, "mkdir", mkdir)
    return trace
