"""Print the seconds a fresh interpreter takes to import seqparity and build
the CLI parser, then the seconds of one calibration job right after.
Nothing else is imported first, so the standard-library modules seqparity
pulls in are part of the figure."""

import time

started = time.perf_counter()
import seqparity  # noqa: E402
from seqparity import cli  # noqa: E402

cli.build_parser()
elapsed = time.perf_counter() - started

from worker import calibrate  # noqa: E402  (after the timed part)

print(elapsed, calibrate())
