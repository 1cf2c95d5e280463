"""Settings shared by the test modules.

On continuous integration (``CI`` set), hypothesis runs under the ``ci``
profile: a failing property prints the ``@reproduce_failure`` blob that
replays it, and no example database is kept between runs.  Each test keeps
its own ``max_examples``.
"""

import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
