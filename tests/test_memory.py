"""What the package holds: its import's resident growth and a client step's tape.

Both readings are module functions so that CI can print them beside the
bounds the tests set:

    PYTHONPATH=src:tests python -c "import test_memory as m; print(m.import_delta_mb())"
"""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from fedfairprompt import tensor as T
from fedfairprompt.config import Config
from fedfairprompt.encoder import EncoderConfig, PromptSet
from fedfairprompt.federation import PromptedModel, encoder_config

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# The package imports numpy.random itself; the delta is what it adds.
# VmHWM, not ru_maxrss: a child's ru_maxrss starts at the RSS of the
# process that forked it, here the whole test session.
_IMPORT_PROBE = """
import numpy.random

def peak_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

before = peak_kb()
import fedfairprompt
print(peak_kb() - before)
"""

STEP_CLIENTS = 2  # a default synthetic walk's clients: 640 // (16 * 19)
# 3% over the 5,340,280 bytes (8.58 KB a row) measured on CPython 3.11
# with numpy 2.4; keeping GELU's input and CDF, and block 1's state-side
# arrays, read 6,492,680 (10.43 KB a row).
TAPE_BYTES = 5_500_000


def import_delta_mb() -> float:
    """The rise of a fresh process's peak resident memory when ``import
    fedfairprompt`` follows ``import numpy.random``, in MB (Linux)."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
                          timeout=60, check=True)
    return int(proc.stdout) / 1024


def client_step_tape() -> tuple[int, int]:
    """(bytes, sequence rows) of one default lockstep client step's tape:
    what ``tracemalloc`` sees left alive by the forward of
    ``STEP_CLIENTS`` stacked clients' default batches of patch rows,
    until their backward. A first step warms every cache."""
    config = Config()
    model = PromptedModel.for_config(config)
    prompts = PromptSet.initialize(encoder_config(config)).map(
        lambda a: np.stack([a] * STEP_CLIENTS))
    rng = np.random.Generator(np.random.PCG64(0))
    lead = (STEP_CLIENTS, config.batch_size)
    rows = rng.standard_normal(lead + (EncoderConfig.patch_count, EncoderConfig.embed_dim))
    targets = model.encoder.class_text[rng.integers(0, 2, lead)]

    def step():
        return model.local_loss(prompts, rows, targets, config.mu, config.lambda1)

    T.backward(step())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = step()
        kept = tracemalloc.get_traced_memory()[0] - before
        T.backward(loss)
    finally:
        tracemalloc.stop()
    seq = 1 + config.prompt_tokens + EncoderConfig.patch_count
    return kept, STEP_CLIENTS * config.batch_size * seq


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_import_adds_little_resident_memory():
    # 6.6 MB while GELU's table was built from one Python float list and
    # full-length temporaries; 3.4-3.6 MB with the table built in chunks.
    delta = import_delta_mb()
    assert delta <= 4.5, delta


def test_client_step_tape_is_pinned():
    # The tape holds only what the VJPs read: GELU's slope, not its input
    # and CDF, and no state-side arrays in block 1, whose state is constant.
    kept, rows = client_step_tape()
    assert rows == 608
    assert kept <= TAPE_BYTES, (kept, kept / rows / 1024)
