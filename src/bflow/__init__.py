"""Bayesian-flow generative modelling library.

Subpackages by role:

* ``numerics``   -- splittable RNG and stable numeric primitives
* ``schedule``   -- accuracy schedules and per-step accuracies
* ``continuous`` -- Gaussian-belief instantiation (real-valued data)
* ``discretised``-- K-bin instantiation (quantised real data)
* ``discrete``   -- categorical instantiation (class-valued data)
* ``predictor``  -- MLP with manual gradients, and the analytic predictors
* ``training``   -- AdamW loop, EMA, checkpoints, evaluation tables
* ``harness``    -- executable verification of the model's analytic claims
* ``data``       -- dataset file format, text/byte ingestion, bundled toys
* ``cli``        -- command-line entry point
"""

__version__ = "0.1.0"

from .numerics import use_one_blas_thread

use_one_blas_thread()
