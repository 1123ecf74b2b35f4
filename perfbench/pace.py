"""The host's pace: a fixed reference task timed next to the measured work.

A small VM on a shared host runs its vCPUs in a fast phase and a ~1.6x
slower one.  The phases alternate over seconds, and slow stretches last
from half a minute to minutes, so the wall time of the same work moves
by up to half between runs a few minutes apart: fine-tune epochs of one
fixed fit read 0.101 to 0.160 s within three minutes on a 2-vCPU VM.

The benchmark times a reference task right after each unit of measured
work (a loader batch, a predict request, a micro-batch), outside that
unit's timer.  The task uses numpy and Python only, none of the
program's code, so a change to the program does not change it.  Its time
over ``REFERENCE_S`` is the host's slowdown at that moment.  A paced time
is a wall time divided by the mean slowdown of the probes taken with it:
what the work takes at the reference pace.  A faster program lowers the
wall time and leaves the probes alone; a slower host raises both.

The task streams arithmetic and a segment reduction over 100 000 values
(0.8 MB).  Of the tasks tried, this kind tracks the training loop's
slowdown most closely: with per-sweep probes, per-fit paced fine-tune
time varied 4% (coefficient of variation over 42 fits) where wall time
varied 12%.  Tasks on small arrays, small GEMMs or pure-Python objects
slow down more than the training loop under contention and over-correct.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

#: Seconds one reference task takes in the host's fast phase on a 2-vCPU
#: VM (lower decile of its probe times): the pace that paced times are
#: stated at.
REFERENCE_S = 0.6e-3

_VALUES = np.linspace(0.0, 1.0, 100_000)
_SCALED = np.empty_like(_VALUES)
_STARTS = np.arange(0, 100_000, 7)
_SUMS = np.empty(len(_STARTS))


def reference_task() -> float:
    # Into preallocated buffers: temporaries of this size would come from
    # mmap in a fresh process and from the heap in a long-running one, and
    # the page faults would make the task's time depend on the process.
    total = 0.0
    for _ in range(2):
        np.multiply(_VALUES, 1.5, out=_SCALED)
        np.add(_SCALED, _VALUES, out=_SCALED)
        np.add.reduceat(_SCALED, _STARTS, out=_SUMS)
        total += float(_SUMS.sum())
    return total


reference_task()  # touch the buffers' pages before any probe is timed


class Pace:
    """Probes the host's pace and keeps every probe's end (``stamps``, on
    the system-wide monotonic clock) and slowdown; ``spent`` is the wall
    time probing took, so a timer that spans probes can take it out."""

    def __init__(self, task=reference_task, clock=time.monotonic):
        self.task, self.clock = task, clock
        self.spent = 0.0
        self.stamps, self.slowdowns = array("d"), array("d")

    def probe(self) -> float:
        """Run the reference task once; returns the slowdown against
        ``REFERENCE_S``."""
        start = self.clock()
        self.task()
        end = self.clock()
        self.spent += end - start
        slowdown = (end - start) / REFERENCE_S
        self.stamps.append(end)
        self.slowdowns.append(slowdown)
        return slowdown
