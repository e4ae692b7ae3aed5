"""modradon: high-dynamic-range tomography with folded projections.

Forward model (analytic projections, digital anti-aliasing, centered modulo
fold), difference-based unfolding of the folded samples, and discrete
filtered back projection, plus batch experiment harnesses.
"""

from .core import (
    SampleSeq,
    Threshold,
    anti_diff,
    anti_diff_bilateral,
    modulo_fold,
)
from .errors import (
    ConditionError,
    ConfigError,
    DomainError,
    MarginError,
    ModRadonError,
    NumericError,
    ParseError,
    SizeError,
)
from .fbp import (
    FilterSpec,
    back_project,
    fbp_reconstruct,
    filter_kernel,
    filter_projections,
    rmse,
    write_pgm16,
    write_raw_f64,
)
from .forward import (
    RandomBandlimitedSignal,
    SamplingParams,
    Sinogram,
    fold_sinogram,
    load_sinogram,
    save_sinogram,
    scan_forward,
)
from .phantom import (
    Ellipse,
    ImageGrid,
    Phantom,
    load_phantom,
    radon_phantom,
    rasterize,
    save_phantom,
    shepp_logan,
    walnut_standin,
)
from .unfold import (
    UnfoldConfig,
    UnfoldReport,
    required_margin,
    samples_compact,
    samples_general,
    select_order,
    unfold_compact,
    unfold_sinogram,
)

__version__ = "0.1.0"
