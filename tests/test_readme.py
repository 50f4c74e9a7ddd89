"""The README is a reference, not a log.

It states each contract once: what a mechanism guarantees, the constant
that sets it, and the perfbench command that measures it.  Measurement
history (before/after timings, interleaved pairs, refuted attempts)
belongs in CHANGES.md, and later in BENCH_*.json, so a size bound keeps
it from growing back into the README.
"""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
# half of the 39,600 bytes the README held when its timing narratives
# moved out
MAX_README_BYTES = 19_800


def test_the_readme_stays_a_reference():
    size = len(README.read_bytes())
    assert size <= MAX_README_BYTES, (
        f"README.md holds {size} bytes, more than {MAX_README_BYTES}: move "
        f"measurements to CHANGES.md and keep one paragraph per contract")
