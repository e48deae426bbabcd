"""Malware/benign classification of Windows Native API system-call traces.

The pipeline: parse raw call logs into call-name sequences, vectorize them
as L2-normalized tf-idf counts of call n-grams, then train a linear SVM on
the hinge loss with either stochastic subgradient descent or dual
coordinate descent.
"""

from .dual_cd import DualConfig, DualState, dual_objective, train_dual_cd
from .errors import (
    ConfigError,
    DegenerateLabelsError,
    DimensionMismatchError,
    EmptyTraceError,
    EmptyVocabularyError,
    GridCellError,
    InsufficientDataError,
    LengthMismatchError,
    ManifestError,
    ModelFormatError,
    NonConvergenceWarning,
    SingleClassError,
    TraceSvmError,
    VersionMismatchError,
)
from .evaluation import (
    ClassScores,
    ConfusionCounts,
    EvaluationReport,
    RocCurve,
    accuracy_score,
    classification_report,
    confusion,
    f1_score,
    format_report_text,
    precision_score,
    recall_score,
    report_to_csv,
    roc_curve,
    roc_to_csv,
    top_features,
    write_report_csv,
    write_roc_csv,
)
from .ingest import (
    LABEL_BENIGN,
    LABEL_MALICIOUS,
    CorpusManifest,
    SyscallTrace,
    extract_call_name,
    load_corpus,
    parse_trace,
    read_manifest,
    read_trace_file,
    write_manifest,
    write_processed,
)
from .linear_model import LinearModel, decision_many, predict_many
from .model_io import ModelArtifact, load_model, save_model
from .selection import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_TOL_GRID,
    TRAINER_DUAL_CD,
    TRAINER_SGD,
    TRAINERS,
    GridSearchResult,
    SplitSpec,
    grid_search,
    train_cell,
    train_test_split,
    write_grid_csv,
)
from .sgd import (
    SgdConfig,
    hinge_loss,
    learning_rate,
    objective,
    regularizer_value,
    train_sgd,
)
from .synthetic import (
    DEFAULT_BACKGROUND_VOCAB,
    DEFAULT_MOTIFS,
    GeneratorConfig,
    generate,
    generate_corpus,
    write_corpus,
)
from .vectorize import (
    FeatureMatrix,
    IdfModel,
    SparseVector,
    Vocabulary,
    build_vocabulary,
    count_matrix,
    fit_idf,
    fit_transform,
    normalize_matrix,
    tfidf_transform,
    transform,
)

__version__ = "0.1.0"
