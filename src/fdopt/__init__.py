"""Frechet-distance training loss with decoupled population statistics.

The package turns the Frechet distance between Gaussian moment summaries
into a differentiable training signal: reference statistics come from a
large sample of the target once, generated statistics come from a queue
or EMA estimator that decouples the measured population from the training
batch, and a stop-gradient-normalized ensemble of feature spaces forms
the loss. A small manual-backprop MLP trainer, normalized-ratio metrics
(FDr / FDr^K), binary file formats, and a CLI sit on top.
"""

__version__ = "0.1.0"
