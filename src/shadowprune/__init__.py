"""shadowprune: rate tree pruning quality from canopy shadow photos.

Pipeline: grayscale -> Otsu threshold -> patch pooling (p = 1 is off)
-> two features (black pixel rate, grid uniformity) -> min-max scaling
-> SVM.  Extracted features live only in a FeatureTable: (n, 2) float64
rows with their ids and labels, one row per photo from extract_dataset,
one per tree from FeatureTable.per_tree.  Normalizer.transform is the
one scaling step.
"""

from .errors import (
    ConstantFeature,
    CorruptModel,
    DataError,
    DegenerateHistogram,
    DimensionMismatch,
    DuplicatePhotoId,
    EmptyImage,
    EmptyList,
    ImageTooSmall,
    InsufficientData,
    InvalidConfig,
    InvalidLabel,
    IoError,
    LabelConflict,
    MalformedFile,
    MissingImage,
    NonConvergence,
    NumericError,
    SchemaVersionMismatch,
    ShadowPruneError,
    SingleClassData,
    UnsupportedFormat,
)
from .features import (
    GridConfig,
    Normalizer,
    black_pixel_rate,
    extract_features,
    fit_normalizer,
    grid_white_counts,
    uniformity,
)
from .imgcore import (
    BinaryImage,
    GrayImage,
    RgbImage,
    decode_image,
    encode_pgm,
    encode_ppm,
    load_image,
    save_pgm,
    to_gray,
)
from .pipeline import (
    EvalReport,
    FeatureTable,
    SamplePoint,
    SplitSpec,
    TreeRecord,
    extract_dataset,
    ingest,
    read_features_csv,
    run_experiment,
    split,
    write_features_csv,
)
from .pooling import PoolConfig, binarize_pooled, pool
from .svm import (
    SvmModel,
    TrainConfig,
    TrainingSet,
    decision_value,
    decision_values,
    load_model,
    predict,
    save_model,
    train,
)
from .synth import SynthConfig, generate, generate_dataset
from .threshold import (
    Histogram,
    OtsuResult,
    binarize,
    histogram,
    otsu_threshold,
)

__version__ = "0.1.0"
