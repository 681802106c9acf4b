"""Extended probabilities for histories of finite closed quantum systems.

Core objects: states, projector sets, history sets built from
Heisenberg-picture alternatives, the decoherence functional, records,
coarse grainings, tensor-product composites, and the fine-grained
fundamental distribution. Worked examples (two-slit, three-box, bet
gains) live in their own modules, and a line-oriented model-file format
plus CLI drive everything from text files.
"""

__version__ = "0.1.0"

# each module lists its own public names in __all__
from .errors import *
from .hilbert import *
from .histories import *
from .records import *
from .coarsegrain import *
from .composite import *
from .finegrained import *
from .twoslit import *
from .threebox import *
from .dutchbook import *
from .modelfile import *

__all__ = (errors.__all__ + hilbert.__all__ + histories.__all__ + records.__all__
           + coarsegrain.__all__ + composite.__all__ + finegrained.__all__ + twoslit.__all__
           + threebox.__all__ + dutchbook.__all__ + modelfile.__all__)
