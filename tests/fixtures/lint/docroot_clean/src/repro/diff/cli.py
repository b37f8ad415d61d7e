"""CLI001 clean fixture: every flag of the diff CLI is documented."""

import argparse


def build_parser():
    parser = argparse.ArgumentParser(prog="python -m repro.diff")
    parser.add_argument("--worlds", type=int, default=20)
    parser.add_argument("--check-every", type=int, default=0)
    return parser
