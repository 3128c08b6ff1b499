#!/usr/bin/env python3
"""Run the curated example corpus and print one JSON record per case,
plus a trailing summary; exits nonzero if any case fails.  The same as
``apxval corpus``; accepts its ``--filter`` option."""

import sys

from apxval.cli import main

if __name__ == "__main__":
    sys.exit(main(["corpus", *sys.argv[1:]]))
