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

# (stacked clients, sequence rows per sample) of the two walk shapes:
# a default synthetic walk, 640 // (16 * 19) clients of CLS, 2 prompt
# and 16 patch rows; and an ingest-shaped walk of one feature row.
SYNTH_STEP = (2, 19)
INGEST_STEP = (5, 4)
# Bytes, measured on CPython 3.11 with numpy 2.4: 4,347,168 synthetic
# (6.98 KB a row) and 1,561,632 ingest-shaped (4.77 KB a row). Each bound
# lies under the reading plus one kept block output (139,264 B; 40,960
# B), so keeping one again fails. Keeping every stage output and block
# 1's state read 5,339,776 and 1,890,624; keeping GELU's input and CDF
# and block 1's state-side arrays as well, 6,492,680 synthetic.
TAPE_BYTES = {SYNTH_STEP: 4_420_000, INGEST_STEP: 1_585_000}


def import_delta_mb() -> float:
    """The rise of a fresh process's peak resident memory when ``import
    fedfairprompt`` follows ``import numpy.random``, in MB (Linux)."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
                          timeout=60, check=True)
    return int(proc.stdout) / 1024


def client_step_tape(clients: int, seq_rows: int) -> tuple[int, int]:
    """(bytes, sequence rows) of one default lockstep client step's tape:
    what ``tracemalloc`` sees left alive by the forward of ``clients``
    stacked clients' default batches of ``seq_rows``-row sequences (CLS,
    the prompt rows and the rest patch rows), until their backward. A
    first step warms every cache."""
    config = Config()
    model = PromptedModel.for_config(config)
    prompts = PromptSet.initialize(encoder_config(config)).map(
        lambda a: np.stack([a] * clients))
    rng = np.random.Generator(np.random.PCG64(0))
    lead = (clients, config.batch_size)
    rows = rng.standard_normal(lead + (seq_rows - 1 - config.prompt_tokens,
                                       EncoderConfig.embed_dim))
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
    return kept, clients * config.batch_size * seq_rows


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_import_adds_little_resident_memory():
    # 6.6 MB while GELU's table was built from one Python float list and
    # full-length temporaries; 3.4-3.6 MB with the table built in chunks.
    delta = import_delta_mb()
    assert delta <= 4.5, delta


def test_client_step_tape_is_pinned():
    # The tape holds only what the VJPs read: GELU's slope, not its input
    # and CDF; no state-side arrays in block 1, whose state is constant;
    # and no stage's output, each released once the next stage read it.
    for shape, seq_rows in ((SYNTH_STEP, 608), (INGEST_STEP, 320)):
        kept, rows = client_step_tape(*shape)
        assert rows == seq_rows
        assert kept <= TAPE_BYTES[shape], (shape, kept, kept / rows / 1024)
