"""Multimodal word-embedding fusion through composable motifs.

Build textual and visual vector tables separately, post-process them
through up to three layers (PCA, then CCA / residual CCA, then
concatenation or score interpolation), and search the configuration space
for the composition that best matches human word-similarity judgments.

``apply_configuration`` returns a ``ScoringModel``: its one or two tables
(``first``, ``second``), its layer-c motif (``layer_c``) and, for score
interpolation, ``alpha``. ``evaluate`` scores it on one benchmark, and
``concat_table`` stacks a concatenation's two blocks into one table.
"""

from .composition import (
    Configuration,
    ScoringModel,
    apply_configuration,
    concat_table,
    describe_configuration,
    enumerate_configurations,
    format_configuration,
    load_configuration,
    output_dimension,
    parse_configuration,
    used_motifs,
    validate_configuration,
)
from .embeddings import (
    EmbeddingTable,
    align_vocabularies,
    load_embeddings,
    save_embeddings,
)
from .errors import (
    AlignmentError,
    ConfigurationError,
    DimensionError,
    DuplicateEntryError,
    EmptyInputError,
    GridError,
    InputError,
    MMFuseError,
    MissingReductionError,
    NoResultError,
    NumericalError,
    ParseError,
    UndefinedCorrelationError,
    WordLookupError,
    WriteError,
)
from .evaluation import (
    Benchmark,
    EvaluationResult,
    cosine,
    evaluate,
    filter_coverage,
    load_benchmark,
    pair_score,
    save_benchmark,
    spearman,
)
from .numerics import (
    DEFAULT_RIDGE,
    CcaModel,
    PcaModel,
    cca_fit,
    cca_transform,
    pca_fit,
    pca_transform,
    rcca_residual,
)
from .search import (
    GridSpec,
    SearchEntry,
    SearchReport,
    render_reports,
    select_best,
    sweep,
)

__version__ = "0.1.0"
