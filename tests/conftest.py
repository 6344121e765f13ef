"""Shared pytest plumbing: collects one verdict line per acceptance
criterion and prints them in the terminal summary, and keeps hypothesis's
files out of the checkout."""

import shutil
import tempfile
from typing import List

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

_HYPOTHESIS_HOME = pytest.StashKey[str]()

_verdicts: List[str] = []


def record_verdict(line: str) -> None:
    _verdicts.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _verdicts:
        terminalreporter.section("acceptance criteria")
        for line in _verdicts:
            terminalreporter.write_line(line)


def pytest_configure(config):
    # hypothesis caches constants read from local sources under its home
    # directory (./.hypothesis by default) while tests are collected
    home = tempfile.mkdtemp(prefix="seqstop-hypothesis-")
    config.stash[_HYPOTHESIS_HOME] = home
    set_hypothesis_home_dir(home)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(config.stash[_HYPOTHESIS_HOME], ignore_errors=True)
