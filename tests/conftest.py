"""Shared fixtures."""

import concurrent.futures
import multiprocessing
from functools import partial

import pytest

from c4book import _orderly

from oracles import all_extension_masks


@pytest.fixture
def enumerate_graphs(monkeypatch):
    """``enumerate_c4_free`` with every vertex set as an extension.

    The engine then lists one graph per isomorphism class of all graphs,
    through the same ``_children``.  A pool's workers are forked, so they
    see the swapped lister whatever the platform's default start method.
    """
    monkeypatch.setattr(_orderly, "_c4_extension_masks", all_extension_masks)
    forking = partial(concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork"))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forking)
    return _orderly.enumerate_c4_free
