"""DEBUG records that cost nothing in a process that never imported logging.

Such a process has no handler for the record to reach, and importing
logging here would add to every command's start-up; so the record is
dropped unless some caller has already imported the module.
"""

import sys


def debug(name: str, msg: str, *args) -> None:
    """Log msg % args at DEBUG on the logger called name, if logging is loaded."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(name).debug(msg, *args)
