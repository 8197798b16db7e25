"""Time one set-up of the program in a fresh interpreter.

    python3 bench/setup_probe.py scan SRC_DIR PACK...
    python3 bench/setup_probe.py simulate SRC_DIR SCENARIO

``scan`` times importing ``tracerecon.cli`` plus loading and compiling the
signature packs.  ``simulate`` times ``parse_scenario`` plus
``derive_signatures`` (the import is done first and not timed).  A fresh
interpreter per sample keeps module and regex caches from earlier samples
out of the measurement.  The last line printed holds the set-up time and then
the median of three runs of the reference kernel (``reference.py``) made
right after it, both in seconds.
"""

import sys
import time
from pathlib import Path


def main() -> None:
    mode, src, *files = sys.argv[1:]
    sys.path.insert(0, src)
    texts = [Path(f).read_text(encoding="utf-8") for f in files]
    if mode == "scan":
        start = time.perf_counter()
        import tracerecon.cli  # noqa: F401  (the import is what is timed)
        from tracerecon.signatures import merge_packs, parse_signature_pack

        merge_packs(parse_signature_pack(text) for text in texts)
    else:
        from tracerecon.simulator import derive_signatures, parse_scenario

        start = time.perf_counter()
        derive_signatures(parse_scenario(texts[0]).specs)
    elapsed = time.perf_counter() - start
    import reference  # after the timed region, so its imports do not warm the set-up

    kernel = sorted(reference.kernel_seconds() for _ in range(3))[1]
    print(repr(elapsed), repr(kernel))


if __name__ == "__main__":
    main()
