"""Genetic-algorithm tuner (AutoTVM's ``GATuner`` equivalent)."""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.autotune.measure import MeasureInput, MeasureResult
from repro.autotune.space import ConfigEntity
from repro.autotune.task import Task
from repro.autotune.tuner.tuner import Tuner


class GATuner(Tuner):
    """Evolves a population of configurations by selection, crossover and mutation.

    Genomes are the per-knob candidate indices; fitness is the negative
    measured cost.
    """

    def __init__(
        self,
        task: Task,
        population_size: int = 32,
        elite_fraction: float = 0.25,
        mutation_probability: float = 0.1,
        seed: int = 0,
    ):
        super().__init__(task, seed)
        if not 0.0 < elite_fraction <= 1.0:
            raise ValueError("elite_fraction must be in (0, 1]")
        self.population_size = population_size
        self.elite_fraction = elite_fraction
        self.mutation_probability = mutation_probability
        self._knob_names = task.config_space.knob_names()
        self._knob_sizes = [len(task.config_space.candidates(name)) for name in self._knob_names]
        self._fitness: Dict[int, float] = {}

    # -- genome helpers -----------------------------------------------------
    def _genome_to_index(self, genome: Sequence[int]) -> int:
        index = 0
        for gene, size in zip(genome, self._knob_sizes):
            index = index * size + int(gene)
        return index

    def _index_to_genome(self, index: int) -> List[int]:
        genome = [0] * len(self._knob_sizes)
        remaining = index
        for position in range(len(self._knob_sizes) - 1, -1, -1):
            size = self._knob_sizes[position]
            genome[position] = remaining % size
            remaining //= size
        return genome

    # -- tuner interface -------------------------------------------------------
    def next_batch(self, batch_size: int) -> List[ConfigEntity]:
        if len(self._fitness) < self.population_size:
            return self._sample_unvisited(batch_size)

        ranked = sorted(self._fitness.items(), key=lambda item: item[1], reverse=True)
        elite_count = max(2, int(len(ranked) * self.elite_fraction))
        elite_genomes = [self._index_to_genome(index) for index, _ in ranked[:elite_count]]

        offspring: List[ConfigEntity] = []
        attempts = 0
        while len(offspring) < batch_size and attempts < 50 * batch_size:
            attempts += 1
            parent_a, parent_b = (
                elite_genomes[int(self.rng.integers(0, len(elite_genomes)))],
                elite_genomes[int(self.rng.integers(0, len(elite_genomes)))],
            )
            crossover_point = int(self.rng.integers(0, len(parent_a) + 1))
            child = parent_a[:crossover_point] + parent_b[crossover_point:]
            for position, size in enumerate(self._knob_sizes):
                if self.rng.random() < self.mutation_probability:
                    child[position] = int(self.rng.integers(0, size))
            index = self._genome_to_index(child)
            if index in self.visited or any(c.index == index for c in offspring):
                continue
            offspring.append(self.task.config_space.get(index))
        if len(offspring) < batch_size:
            offspring.extend(self._sample_unvisited(batch_size - len(offspring)))
        return offspring

    def update(self, inputs: Sequence[MeasureInput], results: Sequence[MeasureResult]) -> None:
        for measure_input, result in zip(inputs, results):
            cost = result.mean_cost if result.ok else float("inf")
            fitness = -cost if np.isfinite(cost) else -1e30
            self._fitness[measure_input.config.index] = fitness
        if len(self._fitness) > 4 * self.population_size:
            ranked = sorted(self._fitness.items(), key=lambda item: item[1], reverse=True)
            self._fitness = dict(ranked[: 2 * self.population_size])
