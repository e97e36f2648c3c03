"""Persistent-homology toolkit for tunnel block clouds under repeated blasts.

Pipeline: point-cloud snapshots -> Vietoris-Rips barcodes -> 14 scalar
features -> least-squares SVM evolution prediction -> collapse early-warning
on the longest dim-1 bar, plus the equivalent-uniform blast load calculator.
"""

from .blastload import (BlastConfig, CalibratedLoad, LoadProfile, equivalent_uniform_peak,
                        load_at, paper_preset, peak_pressure, shape_factor,
                        uniform_peak_direct)
from .dataio import (FixtureTable5, FixtureTable6, SnapshotSequence, fixtures,
                     load_sequence, load_snapshot, read_barcode, read_features,
                     read_model, write_barcode, write_features, write_model,
                     write_sequence, write_snapshot)
from .errors import ConditioningWarning, InputError, NumericalError
from .features import FeatureVector, extract_features, feature_matrix, feature_series
from .lssvm import (KernelSpec, LssvmModel, TrainingSet, gram_matrix, kkt_residual,
                    predict, predict_batch, select_hyperparameters, train_classifier,
                    train_regressor)
from .pipeline import (ExperimentReport, FeaturePredictor, WarningReport,
                       compute_barcodes, detect_warning, run_all,
                       run_feature_experiment, run_table6_experiment)
from .synth import ScenarioConfig, generate_sequence
from .topology import (Barcode, DistanceMatrix, FiltSimplex, Filtration, PersistencePair,
                       PointCloud, barcode_from_cloud, betti_numbers, boundary,
                       boundary_of_chain, build_vr_filtration, compute_distance_matrix,
                       compute_persistence)

__version__ = "0.1.0"
