"""Decomposition files in the form that also gives each part's embedded
image.  The writer writes deviators only; the reader still takes this form,
checks each image against its deviator's embedding and drops it."""

import json

import numpy as np


def json_with_images(d) -> str:
    """The decomposition JSON text of ``d`` with every part's ``embedded``
    image, each float written by ``repr`` so that it reads back exactly."""
    parts = [
        {
            "s": p.s,
            "J": p.J,
            "deviator": {"order": p.s, "components": np.ravel(p.deviator).tolist()},
            "embedded": {"order": d.order, "components": np.ravel(p.embedded).tolist()},
        }
        for p in d.parts
    ]
    return json.dumps({"order": d.order, "parts": parts})
