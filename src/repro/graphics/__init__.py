"""Display pipeline substrate: VSync, buffering, frame rendering and FPS.

The paper's QoS signal is the frame rate produced by Android's display
pipeline: applications render into two back buffers, the panel scans out the
front buffer at every VSync (16.67 ms on the 60 Hz Note 9 panel), and a frame
that misses its VSync is a dropped frame the user perceives as stutter.

This package models that pipeline at frame granularity:

* :class:`~repro.graphics.vsync.VsyncClock` produces VSync edges,
* :class:`~repro.graphics.pipeline.FrameQueue` steps one device's frames
  through the CPU and GPU stages, the back buffers and the VSync latch,
* :class:`~repro.graphics.pipeline.FramePipeline` renders frames through a
  CPU stage and a GPU stage whose speed follows the cluster frequencies, and
* :class:`~repro.graphics.display.Display` accounts displayed frames into the
  per-second FPS numbers the agent observes.
"""

from repro.graphics.vsync import VsyncClock
from repro.graphics.pipeline import (
    FramePipeline,
    FrameQueue,
    FrameSpec,
    PipelineConfig,
    TickResult,
)
from repro.graphics.display import Display, FpsCounter

__all__ = [
    "VsyncClock",
    "FrameQueue",
    "FrameSpec",
    "PipelineConfig",
    "FramePipeline",
    "TickResult",
    "Display",
    "FpsCounter",
]
