"""Host-speed calibration for timed trials, independent of antsim.

The host's speed drifts by 15-30% over seconds to minutes, and the drift
follows the memory system more than the core: a slice of work on a small
buffer barely moves while a trial slows. ``Calibrator`` therefore does a fixed
slice of Python work with random reads and writes over a 32 MiB buffer, about
the size of a trial's heap. trial.py runs slices between chunks of the event
loop and around the output phase, so they sample the host at the same moments
as the program.

A trial's times are divided by a speed factor, its mean slice time over
REF_SLICE_S, and so read as seconds on a host where one slice takes
REF_SLICE_S. The calibration code never changes with the program, so a change
to antsim moves the normalized times and not the factor.

This module imports nothing, so creating a ``Calibrator`` before a trial's
set-up starts loads no module that the program would otherwise load itself.
"""

BUFFER_BYTES = 32 << 20
PAGE_BYTES = 4096
SLICE_STEPS = 8000
# Median slice time on the host the benchmark was defined on (2-vCPU shared
# Intel Xeon VM, CPython 3.11); it only sets the scale of normalized times.
REF_SLICE_S = 0.0065

_MUL = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


class Calibrator:
    """A fixed amount of memory-bound work per ``run_slice`` call.

    The buffer is made resident when the calibrator is created, so its memory
    is a fixed amount from then on. A slice allocates no container objects,
    so it neither adds to what the garbage collector walks nor brings the
    program's collections forward.
    """

    def __init__(self):
        self.buffer = bytearray(BUFFER_BYTES)
        self.buffer[::PAGE_BYTES] = b"\1" * (BUFFER_BYTES // PAGE_BYTES)
        self.state = 12345
        self.checksum = 0

    def run_slice(self) -> None:
        buffer, state, checksum = self.buffer, self.state, self.checksum
        for _ in range(SLICE_STEPS):
            state = (state * _MUL + _INC) & _MASK
            index = (state >> 24) % BUFFER_BYTES
            value = (buffer[index] + (state & 0xFF)) & 0xFF
            buffer[index] = value
            checksum = (checksum * 31 + value) & 0xFFFFFFFF
        self.state, self.checksum = state, checksum


def speed_factor(slice_s: float) -> float:
    """How much slower than the reference host this host ran the slices."""
    return slice_s / REF_SLICE_S
