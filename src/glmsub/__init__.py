"""Optimal and model-robust subsampling for generalized linear models.

Large-N GLM datasets are analyzed on an informative subsample: a pilot
draw yields rough parameter estimates, optimality-based selection
probabilities are evaluated at the pilot, and a second draw plus a
weighted maximum-likelihood fit produce the final estimates with a
sandwich variance.  Selection probabilities can target a single assumed
model (A-optimal ``mMSE`` or L-optimal ``mVc``) or average over a set of
candidate models to stay robust to model choice.
"""

__version__ = "0.1.0"

# Each public name is declared once, in the ``__all__`` of the module that
# defines it; the package re-publishes those lists.  Importing the package
# does not import the CLI.
from .errors import *
from .families import *
from .fitting import *
from .models import *
from .probabilities import *
from .twostage import *
from .simulate import *
from .datasets import *
from .config import *
from .realdata import *
from ._artifacts import *

__all__ = [
    "__version__",
    *errors.__all__,
    *families.__all__,
    *fitting.__all__,
    *models.__all__,
    *probabilities.__all__,
    *twostage.__all__,
    *simulate.__all__,
    *datasets.__all__,
    *config.__all__,
    *realdata.__all__,
    *_artifacts.__all__,
]
