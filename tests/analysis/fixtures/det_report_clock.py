"""DET001 severity-split fixture: a wall-clock value flowing into a
schema'd report payload.

The call itself is the usual error (this module is outside the
runtime allowlist); the flow into a *non-timing* report field is
the additional warning.  Timing keys (``created_at``) and schema-less
dicts stay clean.
"""

import time


def build_report():
    stamp = time.time()  # EXPECT[DET001]
    return {
        "schema": "repro.fixture/v1",
        "created_at": stamp,
        "run_id": stamp,  # EXPECT[DET001]
        "seed": 7,
    }


def fine_unschema_dict():
    started = time.monotonic()  # EXPECT[DET001]
    return {"handle": started}
