"""Shared fixtures: small kernels, programs and datasets used across the suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import te
from repro.codegen import Target, build_program
from repro.pipeline.dataset import generate_group_samples
from repro.predictor.training import PredictorDataset
from repro.sim.cpu import AtomicSimpleCPU, TraceOptions
from repro.sim.hierarchy import CacheHierarchy
from repro.te import topi
from repro.workloads.conv2d import Conv2DParams


def make_matmul_func(n=8, l=6, m=10, tile_x=None, tile_k=None, vectorize=False, unroll=False,
                     name="matmul"):
    """A lowered matmul with an optional simple schedule."""
    a = te.placeholder((n, l), name="A")
    b = te.placeholder((l, m), name="B")
    c = topi.matmul(a, b, name="C")
    schedule = te.create_schedule(c)
    stage = schedule[c]
    y, x = c.op.axis
    (k,) = c.op.reduce_axis
    if tile_x:
        x_outer, x_inner = stage.split(x, factor=tile_x)
        if vectorize:
            stage.vectorize(x_inner)
    if tile_k:
        stage.split(k, factor=tile_k)
    if unroll:
        stage.unroll(stage.leaf_iter_vars[-1])
    return te.lower(schedule, [a, b, c], name=name), (a, b, c)


def make_conv_func(params: Conv2DParams | None = None, vectorize=True, name="conv"):
    """A lowered Conv2D+Bias+ReLU kernel with a small tiled schedule."""
    params = params or Conv2DParams(1, 8, 8, 4, 3, 3, 3, (1, 1), (1, 1))
    ifm = te.placeholder((params.n, params.ci, params.h, params.w), name="ifm")
    weights = te.placeholder((params.co, params.ci, params.kh, params.kw), name="weights")
    bias = te.placeholder((params.n, params.co, 1, 1), name="bias")
    conv = topi.conv2d_nchw(ifm, weights, stride=params.stride, padding=params.padding)
    out = topi.relu(topi.bias_add(conv, bias))
    schedule = te.create_schedule(out)
    for stage in schedule.compute_stages():
        if stage.op.name.endswith(".pad"):
            stage.compute_inline()
    conv_stage = schedule[conv]
    n, co, oh, ow = conv.op.axis
    ci, kh, kw = conv.op.reduce_axis
    co_outer, co_inner = conv_stage.split(co, factor=min(2, params.co))
    ow_outer, ow_inner = conv_stage.split(ow, factor=min(4, params.output_spatial[1]))
    conv_stage.reorder(n, co_outer, oh, ow_outer, ci, kh, kw, co_inner, ow_inner)
    if vectorize:
        conv_stage.vectorize(ow_inner)
    args = [ifm, weights, bias, out]
    return te.lower(schedule, args, name=name), args


def expanded_walk_stats(hierarchy_config, program, options: TraceOptions) -> dict:
    """Flat statistics of ``program``'s expanded trace fed straight into a
    vectorized hierarchy, ``sim.host_seconds`` left out.

    No simulator takes this route (the vectorized engine walks descriptors),
    so it is a further reference for the descriptor walk and for the
    reference engine.
    """
    hierarchy = CacheHierarchy(hierarchy_config, engine="vectorized", rng_seed=options.rng_seed)
    accesses = 0
    for addresses, writes in program.memory_trace(
        chunk_iterations=options.chunk_iterations,
        max_accesses=options.max_accesses,
        sample_fraction=options.sample_fraction,
        seed=options.seed,
    ):
        hierarchy.access_data_batch(addresses, writes)
        accesses += int(addresses.size)
    cpu = AtomicSimpleCPU(hierarchy)
    counts = program.instruction_counts()
    cpu._model_instruction_fetches(program, counts)
    flat = cpu.assemble_stats(counts, accesses, 0.0).as_dict()
    del flat["sim.host_seconds"]
    return flat


@pytest.fixture(scope="session")
def matmul_func():
    return make_matmul_func()[0]


@pytest.fixture(scope="session")
def conv_func():
    return make_conv_func()[0]


@pytest.fixture(scope="session")
def conv_program_x86(conv_func):
    return build_program(conv_func, Target.x86())


@pytest.fixture(scope="session")
def conv_program_riscv(conv_func):
    return build_program(conv_func, Target.riscv())


@pytest.fixture(scope="session")
def tiny_dataset() -> PredictorDataset:
    """A tiny two-group training dataset (shared; generation costs ~2 s)."""
    dataset = PredictorDataset(arch="arm", kernel_type="conv2d_bias_relu")
    trace = TraceOptions(max_accesses=20_000)
    for group_id, params in {
        1: Conv2DParams(1, 8, 8, 8, 8, 3, 3, (1, 1), (1, 1)),
        2: Conv2DParams(1, 6, 6, 12, 8, 3, 3, (2, 2), (1, 1)),
    }.items():
        dataset.extend(
            generate_group_samples(
                "arm", group_id, params, n_implementations=14, seed=7, trace_options=trace
            )
        )
    return dataset


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
