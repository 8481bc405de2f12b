"""Event-camera simulation, exposure-event imaging, and differentiable
3D Gaussian splatting reconstruction."""

__version__ = "0.1.0"
