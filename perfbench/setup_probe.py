"""Set-up probe: import noisycache and build the slotted trace, nothing more.

Usage: python3 perfbench/setup_probe.py CONFIG.ini

Goes through the same public calls a `noisycache run` makes before its
first slot: `cli.load_config`, then `generate_zipf` or `read_trace_file`,
then `batch_trace`. It prints one JSON line holding the CLOCK_MONOTONIC
reading at the moment the slotted trace is ready, so the parent can take
set-up time from its own reading just before it started this process.
"""

import json
import sys
import time

from noisycache import cli, traces


def main(config_path: str) -> None:
    config, _ = cli.load_config(config_path)
    source = config.trace
    if isinstance(source, traces.ZipfConfig):
        trace = traces.generate_zipf(source)
    else:
        trace = traces.read_trace_file(source.path, source.remap, source.n_files)
    slotted = traces.batch_trace(trace, config.batch_size)
    ready = time.monotonic()
    horizon = getattr(slotted, "horizon", None)
    print(json.dumps({
        "ready": ready,
        "horizon": int(len(slotted) if horizon is None else horizon),
        "module": cli.__file__,
    }))


if __name__ == "__main__":
    main(sys.argv[1])
