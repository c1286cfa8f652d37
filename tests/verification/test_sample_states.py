"""The co-simulation samples are pinned, sample for sample.

``sample_states`` draws every stateful verdict's ``(args, state)``
samples from one seeded generator per function.  Its digests are
committed in ``sample_digests.json`` beside this file, one per
(arch, seed, function): a change that builds the samples differently
(fewer argument tuples, fewer map reads) must keep every draw in its
place, so every sample stays the same.  Regenerate the file only for a
change meant to move the samples, and say why::

    PYTHONPATH=src python -m tests.verification.test_sample_states
"""

import functools
import hashlib
import json
import os

import pytest

from repro.hyperenclave.constants import ARCH_CONFIGS
from repro.hyperenclave.mir_model import build_model
from repro.verification import sample_states, stateful_function_names

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "sample_digests.json")
SEEDS = (0, 1, 2)


@functools.cache
def _model(arch):
    return build_model(ARCH_CONFIGS[arch])


def sample_digest(arch, seed, name):
    """blake2b-128 of the ``repr`` of ``name``'s default samples."""
    samples = sample_states(_model(arch), name, seed=seed)
    return hashlib.blake2b(repr(samples).encode(),
                           digest_size=16).hexdigest()


def _cases():
    return [(arch, seed, name) for arch in sorted(ARCH_CONFIGS)
            for seed in SEEDS for name in stateful_function_names()]


def _key(arch, seed, name):
    return f"{arch}:{seed}:{name}"


@functools.cache
def _pinned():
    with open(DIGESTS) as fh:
        return json.load(fh)


def test_every_case_is_pinned():
    assert sorted(_pinned()) == sorted(_key(*case) for case in _cases())


@pytest.mark.parametrize("arch,seed,name", _cases())
def test_samples_match_pinned_digest(arch, seed, name):
    assert sample_digest(arch, seed, name) == \
        _pinned()[_key(arch, seed, name)]


if __name__ == "__main__":
    with open(DIGESTS, "w") as fh:
        json.dump({_key(*case): sample_digest(*case) for case in _cases()},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
