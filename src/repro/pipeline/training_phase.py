"""Training phase of the score-predictor workflow (Figure 4-I).

Workloads are executed both on the instruction-accurate simulator and natively
on the target CPU; the paired records train one score predictor per
architecture and kernel type.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.pipeline.dataset import DatasetConfig, load_or_generate_dataset
from repro.predictor.training import PredictorDataset, ScorePredictor


@dataclass
class TrainingPhaseResult:
    """Outputs of one training phase."""

    dataset: PredictorDataset
    predictor: ScorePredictor
    arch: str
    kernel_type: str


class TrainingPhase:
    """Generates (or loads) training data and trains a score predictor."""

    def __init__(
        self,
        config: DatasetConfig,
        predictor_name: str = "xgboost",
        cache_dir: Optional[str | Path] = None,
        seed: int = 0,
    ):
        self.config = config
        self.predictor_name = predictor_name
        self.cache_dir = cache_dir
        self.seed = seed

    def run(self, verbose: bool = False) -> TrainingPhaseResult:
        """Execute the training phase end to end."""
        dataset = load_or_generate_dataset(self.config, cache_dir=self.cache_dir, verbose=verbose)
        predictor = ScorePredictor(model_name=self.predictor_name, seed=self.seed)
        predictor.fit(dataset)
        return TrainingPhaseResult(
            dataset=dataset,
            predictor=predictor,
            arch=self.config.arch,
            kernel_type=self.config.kernel_type,
        )
