"""Optional compiled kernels for the cache engine, the trace cut and the boosted trees.

Five entry points are built from one C translation unit, compiled once per
interpreter installation with the system compiler and loaded via ctypes:

* ``repro_run_events`` — the per-set event walk on the engine's array tag
  store (rank-round replacement; see :mod:`repro.sim.engine`).  The GIL is
  released for the duration, which also helps the ``threads`` pool backend.
* ``repro_chunk_heads`` — the descriptor **head pipeline**: consumes one
  packed chunk of grid run batches ``(base, strides[], counts[], grid
  levels)`` directly from a :class:`~repro.codegen.program.DescriptorArena`
  and produces the collapsed, set-sorted, segment-split, adjacency-merged
  head arrays — bit-identical to :func:`repro.sim.engine.chunk_heads`,
  which stays as the pure-NumPy fallback and the equivalence oracle.
* ``repro_descriptor_batch`` — the cross-chunk batch driver: runs the head
  pipeline, the LRU stack-distance pre-resolution and the event walk for a
  whole arena of chunks in **one foreign call per cache level**, emitting
  aggregated statistics plus the program-ordered fill/write-back stream for
  the next level, which walks that stream as a one-chunk arena in one more
  call.  Scratch buffers are caller-owned and reused across batches
  (``repro_scratch_len`` sizes them).
* ``repro_cut_chunk`` — the ``max_accesses`` cut of one packed chunk:
  :meth:`~repro.codegen.program.DescriptorChunk.truncate`'s member count,
  cutoff search and grid-keeping clip in one call, bit-identical to the
  Python ``_MemberCounter``/``_search_cutoff``/``_clip_batch``, which stay
  as the fallback.  Each cut passes in its own outputs.
* ``repro_grow_tree`` — one regression tree of
  :class:`~repro.predictor.xgboost.GradientBoostedTrees` per call,
  bit-identical to ``_TreeGrower._grow``, which stays as the NumPy
  fallback.  Each fit passes in its own scratch and node buffers.

Availability is strictly optional: if no compiler is present, compilation
fails, or ``REPRO_SIM_NATIVE=0`` is set, every loader returns ``None`` and
the engine, the trace cut and the tree grower keep their Python and NumPy
paths.  A failed
compile is cached for the process — the compiler is invoked at most once per
interpreter, never per call.  The library is cached under a hash of the C
source and the compiler flags, so a change to either rebuilds it once, and
a fresh build deletes the libraries of older sources.  All implementations
are bit-identical; the equivalence suites run against whichever is active.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import subprocess
import sys
import tempfile
import warnings
from typing import Dict, Optional

import numpy as np

from repro.reliability import NativeKernelDemotionWarning
from repro.reliability import faults

#: ``int64`` slots in the ``stats_out`` array of ``repro_descriptor_batch``:
#: hits, read_hits, write_hits, read_misses, write_misses,
#: read_replacements, write_replacements, writebacks, sequential_misses,
#: last_miss_line, tick, forwarded count, final hash stamp.
BATCH_STATS_SLOTS = 13

_SOURCE = r"""
#include <errno.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* ------------------------------------------------------------------ *
 * Shared helpers
 * ------------------------------------------------------------------ */

/* Python floor division (the C `/` truncates toward zero). */
static int64_t repro_fdiv(int64_t a, int64_t b)
{
    int64_t q = a / b;
    if ((a % b) != 0 && ((a < 0) != (b < 0))) q -= 1;
    return q;
}

/* Python -(-a // b): ceiling division for any non-zero divisor. */
static int64_t repro_cdiv(int64_t a, int64_t b)
{
    return -repro_fdiv(-a, b);
}

static uint64_t repro_victim_hash(uint64_t key)
{
    key = (key ^ (key >> 30)) * 0xBF58476D1CE4E5B9ULL;
    key = (key ^ (key >> 27)) * 0x94D049BB133111EBULL;
    return key ^ (key >> 31);
}

/* ------------------------------------------------------------------ *
 * Replacement-policy dispatch
 *
 * Wire ids are the stable integers of repro.sim.policies (PolicySpec
 * .wire_id): 0 = fifo, 1 = lru, 2 = random, 3 = plru, 4 = rrip.  The
 * traits table mirrors the registry's behavioural flags:
 *  - touch_hit_recency: hits re-touch the recency tick (LRU only; every
 *    policy writes the insertion tick on fills);
 *  - exact_stack: a re-touch within `assoc` set events is a guaranteed
 *    hit, enabling the stack-distance pre-resolution in the batch driver.
 * ------------------------------------------------------------------ */
typedef struct {
    int32_t touch_hit_recency;
    int32_t exact_stack;
} repro_policy_traits;

static const repro_policy_traits REPRO_POLICIES[5] = {
    {0, 0},  /* 0 fifo */
    {1, 1},  /* 1 lru */
    {0, 0},  /* 2 random */
    {0, 0},  /* 3 plru */
    {0, 0},  /* 4 rrip */
};

/* Tree-PLRU over next_pow2(assoc) leaves: one int64 of node bits per set
 * (node i's children are 2i+1 / 2i+2; bit 1 points the victim walk right).
 * Mirrors repro.sim.policies._plru_touch_bits / _plru_victim_way. */
static int64_t repro_plru_leaves(int64_t assoc)
{
    int64_t size = 1;
    while (size < assoc) size <<= 1;
    return size;
}

static void repro_plru_touch(int64_t *bits_slot, int64_t way, int64_t assoc)
{
    int64_t bits = *bits_slot;
    int64_t size = repro_plru_leaves(assoc);
    int64_t node = 0, lo = 0;
    while (size > 1) {
        const int64_t half = size >> 1;
        if (way < lo + half) {
            bits |= (int64_t)1 << node;
            node = 2 * node + 1;
        } else {
            bits &= ~((int64_t)1 << node);
            node = 2 * node + 2;
            lo += half;
        }
        size = half;
    }
    *bits_slot = bits;
}

static int64_t repro_plru_victim(int64_t bits, int64_t assoc)
{
    int64_t size = repro_plru_leaves(assoc);
    int64_t node = 0, lo = 0;
    while (size > 1) {
        const int64_t half = size >> 1;
        int64_t dir = (bits >> node) & 1;
        if (dir && lo + half >= assoc) dir = 0;  /* empty right half */
        node = 2 * node + 1 + dir;
        if (dir) lo += half;
        size = half;
    }
    return lo;
}

/* SRRIP victim: age the whole set in closed form until a way reaches
 * RRPV 3, then take the lowest-index such way.  Mirrors
 * repro.sim.policies._RripSpec.victim_way (insert 2, hit promotes to 0). */
static int64_t repro_rrip_victim(int64_t *arow, int64_t assoc)
{
    int64_t highest = arow[0];
    for (int64_t w = 1; w < assoc; w++) {
        if (arow[w] > highest) highest = arow[w];
    }
    if (highest < 3) {
        const int64_t inc = 3 - highest;
        for (int64_t w = 0; w < assoc; w++) arow[w] += inc;
    }
    for (int64_t w = 0; w < assoc; w++) {
        if (arow[w] == 3) return w;
    }
    return 0;  /* unreachable: aging leaves a way at 3 */
}

/* ------------------------------------------------------------------ *
 * Event walk core
 *
 * Sequential per-set event walk on the engine's array tag store.  Events
 * must arrive grouped so that events of one set appear in trace order (any
 * interleaving across sets is fine).  Mirrors
 * VectorCacheState._run_events / _scalar_chain semantics exactly:
 *  - hit: mark, OR the dirty flag in, update the recency tick (LRU only);
 *  - miss with a free way: fill it;
 *  - miss in a full set: evict a victim, reporting its line and dirty
 *    state.  LRU/FIFO evict the minimum-tick way (ticks are unique);
 *    random draws a rank from the replayable victim stream -- the SplitMix64
 *    finalizer over the (seed, set, per-set eviction ordinal) key, the same
 *    constants as repro.sim.engine.victim_rank -- and evicts the way holding
 *    the rank-th most recently inserted line.
 *
 * policy: 0 = fifo, 1 = lru, 2 = random, 3 = plru, 4 = rrip (the stable
 * wire ids of repro.sim.policies).  `aux` is the registry's auxiliary
 * state plane: PLRU tree bits (one int64 per set) or RRIP re-reference
 * counters (one int64 per way); unused by the other policies.
 * `event_retouch` marks events standing for a collapsed multi-access run
 * (the later members are guaranteed hits, so RRIP leaves the line
 * promoted, not at the insertion RRPV).  hit_out / victim_line /
 * victim_wb must arrive initialised to 0 / -1 / 0.
 * ------------------------------------------------------------------ */
static void repro_events_core(
    int64_t n_events,
    const int64_t *event_sets,
    const int64_t *event_lines,
    const uint8_t *event_dirty,
    const int64_t *event_age,
    const uint8_t *event_retouch,
    uint8_t *hit_out,
    int64_t *victim_line,
    uint8_t *victim_wb,
    int64_t assoc,
    int32_t policy,
    uint64_t seed_term,
    int64_t *tags,
    uint8_t *dirty,
    int64_t *recency,
    int64_t *aux,
    int64_t *occupancy,
    int64_t *evictions)
{
    const int32_t touch_hit = REPRO_POLICIES[policy].touch_hit_recency;
    for (int64_t i = 0; i < n_events; i++) {
        const int64_t set = event_sets[i];
        const int64_t line = event_lines[i];
        int64_t *row = tags + set * assoc;
        uint8_t *drow = dirty + set * assoc;
        int64_t *rrow = recency + set * assoc;
        const int64_t occ = occupancy[set];
        int64_t way = -1;
        for (int64_t w = 0; w < occ; w++) {
            if (row[w] == line) { way = w; break; }
        }
        if (way >= 0) {
            hit_out[i] = 1;
            drow[way] |= event_dirty[i];
            if (touch_hit) rrow[way] = event_age[i];
            else if (policy == 3) repro_plru_touch(aux + set, way, assoc);
            else if (policy == 4) aux[set * assoc + way] = 0;
            continue;
        }
        if (occ < assoc) {
            way = occ;
            occupancy[set] = occ + 1;
        } else {
            if (policy == 2) {
                const uint64_t key = seed_term
                    ^ ((uint64_t)set * 0xC2B2AE3D27D4EB4FULL)
                    ^ ((uint64_t)evictions[set] * 0x165667B19E3779F9ULL);
                const int64_t rank = (int64_t)(repro_victim_hash(key) % (uint64_t)assoc);
                evictions[set] += 1;
                way = 0;
                for (int64_t w = 0; w < assoc; w++) {
                    int64_t newer = 0;
                    for (int64_t v = 0; v < assoc; v++) newer += rrow[v] > rrow[w];
                    if (newer == rank) { way = w; break; }
                }
            } else if (policy == 3) {
                way = repro_plru_victim(aux[set], assoc);
            } else if (policy == 4) {
                way = repro_rrip_victim(aux + set * assoc, assoc);
            } else {
                way = 0;
                for (int64_t w = 1; w < assoc; w++) {
                    if (rrow[w] < rrow[way]) way = w;
                }
            }
            victim_line[i] = row[way];
            victim_wb[i] = drow[way];
        }
        row[way] = line;
        drow[way] = event_dirty[i];
        rrow[way] = event_age[i];
        if (policy == 3) repro_plru_touch(aux + set, way, assoc);
        else if (policy == 4) aux[set * assoc + way] = event_retouch[i] ? 0 : 2;
    }
}

void repro_run_events(
    int64_t n_events,
    const int64_t *event_sets,
    const int64_t *event_lines,
    const uint8_t *event_dirty,
    const int64_t *event_age,
    const uint8_t *event_retouch,
    uint8_t *hit_out,
    int64_t *victim_line,
    uint8_t *victim_wb,
    int64_t assoc,
    int32_t policy,
    uint64_t rng_seed,
    int64_t *tags,
    uint8_t *dirty,
    int64_t *recency,
    int64_t *aux,
    int64_t *occupancy,
    int64_t *evictions)
{
    repro_events_core(
        n_events, event_sets, event_lines, event_dirty, event_age, event_retouch,
        hit_out, victim_line, victim_wb, assoc, policy,
        rng_seed * 0x9E3779B97F4A7C15ULL,
        tags, dirty, recency, aux, occupancy, evictions);
}

/* ------------------------------------------------------------------ *
 * Workspace
 *
 * One caller-owned int64 block carved into regions.  `cap` bounds the
 * head count of any single chunk (heads never outnumber members, and
 * segment splitting conserves member coverage, so `cap = max chunk total`
 * is exact).  Arrays with a `cl_` prefix are per conflict cluster
 * (clusters never outnumber heads).
 *
 * Regions with disjoint lifetimes alias each other, keeping the block --
 * and, more importantly, the pages actually touched -- small: the event
 * arrays overlay the head ping-pong sides (dead once the merged heads
 * are final), and the merged heads plus the chain aggregates overlay the
 * conflict-pass block (dead once the split loop exits).  The caller owns
 * the block across calls; `init_tables` must be 1 exactly when the
 * memory is new (or the layout changed), which seeds the two stateful
 * tables: the position scatter table (kept all -1 between uses) and the
 * hash stamps (call-unique via the caller's monotone `stamp_base`, so
 * they are never cleared again).
 * ------------------------------------------------------------------ */
#define REPRO_SENTINEL (INT64_MAX / 2)

typedef struct {
    int64_t cap;
    int64_t hash_cap;
    /* head ping-pong sides: line, run length, first position, write flag */
    int64_t *a_line, *a_len, *a_orig, *a_write;
    int64_t *b_line, *b_len, *b_orig, *b_write;
    /* final merged heads (alias the conflict block) */
    int64_t *f_set, *f_line, *f_fw, *f_wc, *f_orig, *f_last;
    /* radix sort machinery */
    int64_t *key_a, *key_b, *idx_a, *idx_b, *radix_count;
    /* conflict pass */
    int64_t *last_key, *cluster_of, *target;
    int64_t *cl_min_line, *cl_max_line;
    int64_t *cl_min1, *cl_min2, *cl_min_count;
    int64_t *cl_max1, *cl_max2, *cl_max_count;
    /* chains (alias the conflict block) and events (alias the sides) */
    int64_t *chain_write, *chain_last;
    int64_t *ev_set, *ev_line, *ev_age, *ev_orig, *ev_fw, *ev_victim;
    uint8_t *ev_dirty, *ev_hit, *ev_vwb, *ev_retouch;
    /* line hash (LRU pre-resolution); probed within a per-segment
     * power-of-two window so touched pages track real segment sizes */
    int64_t *h_line, *h_rank, *h_chain, *h_stamp;
    /* position scatter table (dense sorts); kept all -1 between uses */
    int64_t *slot_of;
    int64_t pos_cap;
} repro_ws;

int64_t repro_scratch_len(int64_t cap, int64_t pos_cap)
{
    if (cap < 1) cap = 1;
    if (pos_cap < 1) pos_cap = 1;
    int64_t hash_cap = 16;
    while (hash_cap < 2 * cap) hash_cap <<= 1;
    return 23 * cap + 65536 + 4 * ((cap + 7) / 8) + 4 * hash_cap + pos_cap + 8;
}

static int repro_ws_init(
    repro_ws *ws, int64_t *scratch, int64_t scratch_len,
    int64_t cap, int64_t pos_cap, int32_t init_tables)
{
    if (cap < 1) cap = 1;
    if (pos_cap < 1) pos_cap = 1;
    if (scratch_len < repro_scratch_len(cap, pos_cap)) return -1;
    int64_t hash_cap = 16;
    while (hash_cap < 2 * cap) hash_cap <<= 1;
    ws->cap = cap;
    ws->pos_cap = pos_cap;
    ws->hash_cap = hash_cap;
    int64_t *p = scratch;
    ws->a_line = p; p += cap;
    ws->a_len = p; p += cap;
    ws->a_orig = p; p += cap;
    ws->a_write = p; p += cap;
    ws->b_line = p; p += cap;
    ws->b_len = p; p += cap;
    ws->b_orig = p; p += cap;
    ws->b_write = p; p += cap;
    /* events overlay the sides: sides are dead once merged heads exist */
    ws->ev_set = ws->a_line;
    ws->ev_line = ws->a_len;
    ws->ev_age = ws->a_orig;
    ws->ev_orig = ws->a_write;
    ws->ev_fw = ws->b_line;
    ws->ev_victim = ws->b_len;
    ws->key_a = p; p += cap;
    ws->key_b = p; p += cap;
    ws->idx_a = p; p += cap;
    ws->idx_b = p; p += cap;
    ws->radix_count = p; p += 65536;
    /* conflict block; merged heads and chain aggregates overlay it
     * (conflict machinery is dead once the split loop exits) */
    ws->last_key = p; p += cap;
    ws->cluster_of = p; p += cap;
    ws->target = p; p += cap;
    ws->cl_min_line = p; p += cap;
    ws->cl_max_line = p; p += cap;
    ws->cl_min1 = p; p += cap;
    ws->cl_min2 = p; p += cap;
    ws->cl_min_count = p; p += cap;
    ws->cl_max1 = p; p += cap;
    ws->cl_max2 = p; p += cap;
    ws->cl_max_count = p; p += cap;
    ws->f_set = ws->last_key;
    ws->f_line = ws->cluster_of;
    ws->f_fw = ws->target;
    ws->f_wc = ws->cl_min_line;
    ws->f_orig = ws->cl_max_line;
    ws->f_last = ws->cl_min1;
    ws->chain_write = ws->cl_min2;
    ws->chain_last = ws->cl_min_count;
    ws->h_line = p; p += hash_cap;
    ws->h_rank = p; p += hash_cap;
    ws->h_chain = p; p += hash_cap;
    ws->h_stamp = p; p += hash_cap;
    ws->slot_of = p; p += pos_cap;
    ws->ev_dirty = (uint8_t *)p; p += (cap + 7) / 8;
    ws->ev_hit = (uint8_t *)p; p += (cap + 7) / 8;
    ws->ev_vwb = (uint8_t *)p; p += (cap + 7) / 8;
    ws->ev_retouch = (uint8_t *)p; p += (cap + 7) / 8;
    if (init_tables) {
        for (int64_t i = 0; i < pos_cap; i++) ws->slot_of[i] = -1;
        memset(ws->h_stamp, 0, (size_t)hash_cap * sizeof(int64_t));
    }
    return 0;
}

/* Ascending stable LSD radix sort of 0..n-1 by the non-negative keys the
 * caller placed in ws->key_a; returns the sorted index array (ws-owned).
 * Keys here are unique (trace positions / set-position composites), so
 * stability never matters for bit-identity -- only determinism does. */
static int64_t *repro_sort_indices(repro_ws *ws, int64_t n)
{
    int64_t *key = ws->key_a, *key_alt = ws->key_b;
    int64_t *idx = ws->idx_a, *idx_alt = ws->idx_b;
    int64_t maxk = 0;
    for (int64_t i = 0; i < n; i++) {
        idx[i] = i;
        if (key[i] > maxk) maxk = key[i];
    }
    /* Wide digits amortise passes on big chunks; narrow digits keep the
     * counter clear cheap on small ones.  Digit width never affects the
     * result -- keys are unique, the order is their total order. */
    const int64_t bits = n >= (1 << 14) ? 16 : 8;
    const int64_t radix = (int64_t)1 << bits;
    const int64_t mask = radix - 1;
    int64_t shift = 0;
    while (maxk >> shift) {
        int64_t *cnt = ws->radix_count;
        memset(cnt, 0, (size_t)radix * sizeof(int64_t));
        for (int64_t i = 0; i < n; i++) cnt[(key[i] >> shift) & mask]++;
        int64_t run = 0;
        for (int64_t d = 0; d < radix; d++) {
            const int64_t c = cnt[d];
            cnt[d] = run;
            run += c;
        }
        for (int64_t i = 0; i < n; i++) {
            const int64_t d = (key[i] >> shift) & mask;
            const int64_t at = cnt[d]++;
            key_alt[at] = key[i];
            idx_alt[at] = idx[i];
        }
        int64_t *swap = key; key = key_alt; key_alt = swap;
        swap = idx; idx = idx_alt; idx_alt = swap;
        shift += bits;
    }
    return idx;
}

/* Permutation ordering heads (or members) by (set, position), mirroring
 * repro.sim.engine._head_order: positions are unique and bounded, so a
 * dense chunk recovers trace order with a counting scatter (the table is
 * reset while it is scanned, preserving the all -1 invariant) followed by
 * one stable counting pass by set; sparse chunks -- and set counts beyond
 * the counter block -- fall back to the composite-key radix sort.  Both
 * branches produce the identical unique-key ascending order. */
static int64_t *repro_order_by_set_pos(
    repro_ws *ws, int64_t n, int64_t pos_bound, int64_t bound,
    int64_t set_mask, const int64_t *L, const int64_t *O)
{
    const int64_t n_sets = set_mask + 1;
    if (n * 16 < pos_bound || n_sets > 65536 || pos_bound > ws->pos_cap) {
        for (int64_t i = 0; i < n; i++) {
            ws->key_a[i] = (L[i] & set_mask) * bound + O[i];
        }
        return repro_sort_indices(ws, n);
    }
    int64_t *slot = ws->slot_of;
    for (int64_t i = 0; i < n; i++) slot[O[i]] = i;
    int64_t *by_pos = ws->idx_b;
    int64_t k = 0;
    for (int64_t p = 0; p < pos_bound; p++) {
        const int64_t h = slot[p];
        if (h >= 0) {
            by_pos[k++] = h;
            slot[p] = -1;
        }
    }
    int64_t *cnt = ws->radix_count;
    memset(cnt, 0, (size_t)n_sets * sizeof(int64_t));
    for (int64_t i = 0; i < n; i++) cnt[L[by_pos[i]] & set_mask]++;
    int64_t run = 0;
    for (int64_t s = 0; s < n_sets; s++) {
        const int64_t c = cnt[s];
        cnt[s] = run;
        run += c;
    }
    int64_t *idx = ws->idx_a;
    for (int64_t i = 0; i < n; i++) {
        const int64_t h = by_pos[i];
        idx[cnt[L[h] & set_mask]++] = h;
    }
    return idx;
}

/* ------------------------------------------------------------------ *
 * Grid odometer: advance the per-level digits of a grid batch (outermost
 * level slowest), accumulating the address/position offsets of the next
 * grid point into *oaddr / *opos.  Returns 0 when the grid is exhausted.
 * Shared by both emitters so the replication semantics live in one place.
 * ------------------------------------------------------------------ */
static int repro_grid_advance(
    int64_t *d, const int64_t *grids, int64_t g0, int64_t levels,
    int64_t *oaddr, int64_t *opos)
{
    int64_t l = levels - 1;
    for (; l >= 0; l--) {
        const int64_t *g = grids + (g0 + l) * 3;
        d[l] += 1;
        *oaddr += g[0];
        *opos += g[2];
        if (d[l] < g[1]) return 1;
        *oaddr -= g[0] * d[l];
        *opos -= g[2] * d[l];
        d[l] = 0;
    }
    return 0;
}

/* ------------------------------------------------------------------ *
 * Head emission: one packed chunk -> raw per-line heads.
 *
 * Grid batches are walked with an odometer over the replication levels
 * (outermost slowest), one stored run at a time -- the transient degrid of
 * the NumPy path without ever materialising the expanded run list.  Each
 * 1-D run collapses to line heads in closed form exactly like
 * repro.sim.engine._batch_heads: zero stride is one head, |stride| below
 * the line size walks the monotone line staircase with interval
 * arithmetic, |stride| at or above the line size is one head per access.
 * ------------------------------------------------------------------ */
static int64_t repro_emit_heads(
    const int64_t *cm,
    const int64_t *batch_meta,
    const int64_t *bases,
    const int64_t *counts,
    const int64_t *first_pos,
    const int64_t *grids,
    int64_t offset_bits,
    int64_t *L, int64_t *RL, int64_t *O, int64_t *W)
{
    const int64_t line_bytes = (int64_t)1 << offset_bits;
    int64_t n = 0;
    for (int64_t b = cm[2]; b < cm[3]; b++) {
        const int64_t *bm = batch_meta + b * 7;
        const int64_t is_write = bm[0];
        const int64_t stride = bm[1];
        const int64_t bps = bm[2];
        const int64_t r0 = bm[3], r1 = bm[4];
        const int64_t g0 = bm[5];
        const int64_t levels = bm[6] - g0;
        if (levels > 62) return -2;
        int64_t d[64];
        for (int64_t l = 0; l < levels; l++) d[l] = 0;
        int64_t oaddr = 0, opos = 0;
        for (;;) {
            for (int64_t r = r0; r < r1; r++) {
                const int64_t base = bases[r] + oaddr;
                const int64_t cnt = counts[r];
                const int64_t fpos = first_pos[r] + opos;
                if (stride == 0) {
                    L[n] = base >> offset_bits;
                    RL[n] = cnt;
                    O[n] = fpos;
                    W[n] = is_write;
                    n++;
                } else if ((stride < 0 ? -stride : stride) < line_bytes) {
                    const int64_t first_line = base >> offset_bits;
                    const int64_t last_line = (base + (cnt - 1) * stride) >> offset_bits;
                    if (stride > 0) {
                        for (int64_t line = first_line; line <= last_line; line++) {
                            int64_t i_first = repro_cdiv(line * line_bytes - base, stride);
                            if (i_first < 0) i_first = 0;
                            int64_t i_last =
                                repro_fdiv((line + 1) * line_bytes - 1 - base, stride);
                            if (i_last > cnt - 1) i_last = cnt - 1;
                            L[n] = line;
                            RL[n] = i_last - i_first + 1;
                            O[n] = fpos + i_first * bps;
                            W[n] = is_write;
                            n++;
                        }
                    } else {
                        for (int64_t line = first_line; line >= last_line; line--) {
                            int64_t i_first =
                                repro_cdiv((line + 1) * line_bytes - 1 - base, stride);
                            if (i_first < 0) i_first = 0;
                            int64_t i_last = repro_fdiv(line * line_bytes - base, stride);
                            if (i_last > cnt - 1) i_last = cnt - 1;
                            L[n] = line;
                            RL[n] = i_last - i_first + 1;
                            O[n] = fpos + i_first * bps;
                            W[n] = is_write;
                            n++;
                        }
                    }
                } else {
                    for (int64_t k = 0; k < cnt; k++) {
                        L[n] = (base + stride * k) >> offset_bits;
                        RL[n] = 1;
                        O[n] = fpos + bps * k;
                        W[n] = is_write;
                        n++;
                    }
                }
            }
            if (levels == 0) break;
            if (!repro_grid_advance(d, grids, g0, levels, &oaddr, &opos)) break;
        }
    }
    return n;
}

/* ------------------------------------------------------------------ *
 * Head pipeline: emission, (set, position) sort, conflicted-head segment
 * splitting and the adjacent same-(set, line) merge -- bit-identical to
 * repro.sim.engine.chunk_heads (see its docstring for the algorithm).
 * Writes the merged heads to the out_* arrays and returns their count.
 * ------------------------------------------------------------------ */
static int64_t repro_chunk_head_pipeline(
    const int64_t *cm,
    const int64_t *batch_meta,
    const int64_t *bases,
    const int64_t *counts,
    const int64_t *first_pos,
    const int64_t *grids,
    int64_t offset_bits,
    int64_t set_mask,
    int64_t split_passes,
    repro_ws *ws,
    int64_t *out_set, int64_t *out_line, int64_t *out_fw,
    int64_t *out_wc, int64_t *out_orig, int64_t *out_last)
{
    int64_t *L = ws->a_line, *RL = ws->a_len, *O = ws->a_orig, *W = ws->a_write;
    int64_t n = repro_emit_heads(
        cm, batch_meta, bases, counts, first_pos, grids, offset_bits, L, RL, O, W);
    if (n < 0) return n;
    const int64_t bound = cm[1] > 1 ? cm[1] : 1;
    const int64_t ps = cm[4];
    int collapsed_any = 0;
    for (int64_t i = 0; i < n; i++) {
        if (RL[i] > 1) { collapsed_any = 1; break; }
    }
    for (;;) {
        /* sort by (set, position); positions are unique so the composite
         * key is a strict total order */
        int64_t *idx = repro_order_by_set_pos(ws, n, cm[1], bound, set_mask, L, O);
        int64_t *L2, *RL2, *O2, *W2;
        if (L == ws->a_line) {
            L2 = ws->b_line; RL2 = ws->b_len; O2 = ws->b_orig; W2 = ws->b_write;
        } else {
            L2 = ws->a_line; RL2 = ws->a_len; O2 = ws->a_orig; W2 = ws->a_write;
        }
        for (int64_t i = 0; i < n; i++) {
            const int64_t h = idx[i];
            L2[i] = L[h]; RL2[i] = RL[h]; O2[i] = O[h]; W2[i] = W[h];
        }
        L = L2; RL = RL2; O = O2; W = W2;
        if (!collapsed_any) break;

        /* clean flags and conflict clusters over the sorted heads */
        int64_t run_max = 0;
        int64_t cluster = -1;
        int any_unclean = 0;
        for (int64_t i = 0; i < n; i++) {
            const int64_t key = (L[i] & set_mask) * bound + O[i];
            const int64_t last_key = key + (RL[i] - 1) * ps;
            const int clean = (i == 0) || (key > run_max);
            if (!clean) any_unclean = 1;
            cluster += clean ? 1 : 0;
            ws->cluster_of[i] = cluster;
            ws->key_a[i] = key;
            ws->last_key[i] = last_key;
            if (i == 0 || last_key > run_max) run_max = last_key;
        }
        if (!any_unclean) break;
        const int64_t n_clusters = cluster + 1;
        for (int64_t c = 0; c < n_clusters; c++) {
            ws->cl_min_line[c] = INT64_MAX;
            ws->cl_max_line[c] = INT64_MIN;
            ws->cl_min1[c] = REPRO_SENTINEL;
            ws->cl_min2[c] = REPRO_SENTINEL;
            ws->cl_min_count[c] = 0;
            ws->cl_max1[c] = -REPRO_SENTINEL;
            ws->cl_max2[c] = -REPRO_SENTINEL;
            ws->cl_max_count[c] = 0;
        }
        for (int64_t i = 0; i < n; i++) {
            const int64_t c = ws->cluster_of[i];
            if (L[i] < ws->cl_min_line[c]) ws->cl_min_line[c] = L[i];
            if (L[i] > ws->cl_max_line[c]) ws->cl_max_line[c] = L[i];
            const int64_t k = ws->key_a[i];
            if (k < ws->cl_min1[c]) {
                ws->cl_min2[c] = ws->cl_min1[c];
                ws->cl_min1[c] = k;
                ws->cl_min_count[c] = 1;
            } else if (k == ws->cl_min1[c]) {
                ws->cl_min_count[c] += 1;
            } else if (k < ws->cl_min2[c]) {
                ws->cl_min2[c] = k;
            }
            const int64_t lk = ws->last_key[i];
            if (lk > ws->cl_max1[c]) {
                ws->cl_max2[c] = ws->cl_max1[c];
                ws->cl_max1[c] = lk;
                ws->cl_max_count[c] = 1;
            } else if (lk == ws->cl_max1[c]) {
                ws->cl_max_count[c] += 1;
            } else if (lk > ws->cl_max2[c]) {
                ws->cl_max2[c] = lk;
            }
        }
        int any_target = 0;
        for (int64_t i = 0; i < n; i++) {
            const int64_t c = ws->cluster_of[i];
            ws->target[i] =
                (ws->cl_min_line[c] != ws->cl_max_line[c]) && (RL[i] > 1);
            if (ws->target[i]) any_target = 1;
        }
        if (!any_target) break;  /* conflicted heads are all singletons */
        const int use_split = split_passes > 0;
        if (use_split) split_passes -= 1;

        /* rebuild: clean prefix/suffix sub-runs stay collapsed, the covered
         * middle is exploded into singleton members */
        if (L == ws->a_line) {
            L2 = ws->b_line; RL2 = ws->b_len; O2 = ws->b_orig; W2 = ws->b_write;
        } else {
            L2 = ws->a_line; RL2 = ws->a_len; O2 = ws->a_orig; W2 = ws->a_write;
        }
        int64_t m = 0;
        collapsed_any = 0;
        for (int64_t i = 0; i < n; i++) {
            if (!ws->target[i]) {
                L2[m] = L[i]; RL2[m] = RL[i]; O2[m] = O[i]; W2[m] = W[i];
                if (RL[i] > 1) collapsed_any = 1;
                m++;
                continue;
            }
            int64_t prefix = 0, suffix = 0;
            if (use_split) {
                const int64_t c = ws->cluster_of[i];
                const int64_t other_start =
                    (ws->key_a[i] == ws->cl_min1[c] && ws->cl_min_count[c] == 1)
                        ? ws->cl_min2[c] : ws->cl_min1[c];
                const int64_t other_end =
                    (ws->last_key[i] == ws->cl_max1[c] && ws->cl_max_count[c] == 1)
                        ? ws->cl_max2[c] : ws->cl_max1[c];
                prefix = repro_cdiv(other_start - ws->key_a[i], ps);
                if (prefix < 0) prefix = 0;
                if (prefix > RL[i]) prefix = RL[i];
                suffix = RL[i] - 1 - repro_fdiv(other_end - ws->key_a[i], ps);
                if (suffix < 0) suffix = 0;
                if (suffix > RL[i]) suffix = RL[i];
            }
            if (prefix > 0) {
                L2[m] = L[i]; RL2[m] = prefix; O2[m] = O[i]; W2[m] = W[i];
                if (prefix > 1) collapsed_any = 1;
                m++;
            }
            if (suffix > 0) {
                L2[m] = L[i]; RL2[m] = suffix;
                O2[m] = O[i] + (RL[i] - suffix) * ps;
                W2[m] = W[i];
                if (suffix > 1) collapsed_any = 1;
                m++;
            }
            for (int64_t k = prefix; k < RL[i] - suffix; k++) {
                L2[m] = L[i]; RL2[m] = 1; O2[m] = O[i] + k * ps; W2[m] = W[i];
                m++;
            }
        }
        L = L2; RL = RL2; O = O2; W = W2;
        n = m;
    }

    /* adjacent same-(set, line) merge on the sorted heads */
    int64_t m = 0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t set = L[i] & set_mask;
        const int64_t wc = W[i] ? RL[i] : 0;
        const int64_t last = O[i] + (RL[i] - 1) * ps;
        if (m > 0 && out_set[m - 1] == set && out_line[m - 1] == L[i]) {
            out_wc[m - 1] += wc;
            if (last > out_last[m - 1]) out_last[m - 1] = last;
        } else {
            out_set[m] = set;
            out_line[m] = L[i];
            out_fw[m] = W[i];
            out_wc[m] = wc;
            out_orig[m] = O[i];
            out_last[m] = last;
            m++;
        }
    }
    return m;
}

/* Pre-explosion head-count estimate of one packed chunk -- the C
 * counterpart of repro.sim.engine.estimated_heads, used to pick the
 * per-chunk processing mode (closed-form head collapse vs member
 * expansion).  The choice only affects throughput, never statistics. */
static int64_t repro_estimate_heads(
    const int64_t *cm,
    const int64_t *batch_meta,
    const int64_t *bases,
    const int64_t *counts,
    const int64_t *grids,
    int64_t offset_bits)
{
    const int64_t line_bytes = (int64_t)1 << offset_bits;
    int64_t est = 0;
    for (int64_t b = cm[2]; b < cm[3]; b++) {
        const int64_t *bm = batch_meta + b * 7;
        const int64_t stride = bm[1];
        const int64_t r0 = bm[3], r1 = bm[4];
        int64_t mult = 1;
        for (int64_t g = bm[5]; g < bm[6]; g++) mult *= grids[g * 3 + 1];
        if (stride == 0) {
            est += (r1 - r0) * mult;
        } else if ((stride < 0 ? -stride : stride) >= line_bytes) {
            int64_t members = 0;
            for (int64_t r = r0; r < r1; r++) members += counts[r];
            est += members * mult;
        } else {
            int64_t per_row = r1 - r0;
            for (int64_t r = r0; r < r1; r++) {
                const int64_t first = bases[r] >> offset_bits;
                const int64_t last =
                    (bases[r] + (counts[r] - 1) * stride) >> offset_bits;
                per_row += last > first ? last - first : first - last;
            }
            est += per_row * mult;
        }
    }
    return est;
}

/* Expansion-mode emission: one record per *member* (run length 1), walked
 * with the same grid odometer as repro_emit_heads.  The dense route writes
 * `(line << 1) | write` straight into the position table (the member's
 * trace position is the slot, recovered for free by the compaction scan);
 * the sparse route fills the L/O/W arrays for a composite-key sort. */
static int64_t repro_emit_members(
    const int64_t *cm,
    const int64_t *batch_meta,
    const int64_t *bases,
    const int64_t *counts,
    const int64_t *first_pos,
    const int64_t *grids,
    int64_t offset_bits,
    int64_t *pos_table,
    int64_t *L, int64_t *O, int64_t *W)
{
    int64_t n = 0;
    for (int64_t b = cm[2]; b < cm[3]; b++) {
        const int64_t *bm = batch_meta + b * 7;
        const int64_t is_write = bm[0];
        const int64_t stride = bm[1];
        const int64_t bps = bm[2];
        const int64_t r0 = bm[3], r1 = bm[4];
        const int64_t g0 = bm[5];
        const int64_t levels = bm[6] - g0;
        if (levels > 62) return -2;
        int64_t d[64];
        for (int64_t l = 0; l < levels; l++) d[l] = 0;
        int64_t oaddr = 0, opos = 0;
        for (;;) {
            for (int64_t r = r0; r < r1; r++) {
                const int64_t base = bases[r] + oaddr;
                const int64_t cnt = counts[r];
                const int64_t fpos = first_pos[r] + opos;
                if (pos_table) {
                    for (int64_t k = 0; k < cnt; k++) {
                        pos_table[fpos + bps * k] =
                            (((base + stride * k) >> offset_bits) << 1) | is_write;
                    }
                    n += cnt;
                } else {
                    for (int64_t k = 0; k < cnt; k++) {
                        L[n] = (base + stride * k) >> offset_bits;
                        O[n] = fpos + bps * k;
                        W[n] = is_write;
                        n++;
                    }
                }
            }
            if (levels == 0) break;
            if (!repro_grid_advance(d, grids, g0, levels, &oaddr, &opos)) break;
        }
    }
    return n;
}

/* Expansion-mode pipeline: member emission, (set, position) sort and the
 * maximal adjacent same-(set, line) collapse.  Produces the same merged
 * head arrays as repro_chunk_head_pipeline (the segment-splitting loop
 * exists precisely to make the closed-form route land on this collapse).
 *
 * The dense route keeps every pass sequential except three scattered
 * writes per member (position-table emission and the set placement):
 * members are compacted from the position table in trace order, counted
 * by set on the contiguous copy, and placed once into (set, position)
 * order.  Sparse chunks (members far below the position bound) take the
 * composite-key radix sort instead; both orders are identical. */
static int64_t repro_chunk_expand_pipeline(
    const int64_t *cm,
    const int64_t *batch_meta,
    const int64_t *bases,
    const int64_t *counts,
    const int64_t *first_pos,
    const int64_t *grids,
    int64_t offset_bits,
    int64_t set_mask,
    repro_ws *ws,
    int64_t *out_set, int64_t *out_line, int64_t *out_fw,
    int64_t *out_wc, int64_t *out_orig, int64_t *out_last)
{
    const int64_t pos_bound = cm[1];
    const int64_t n_sets = set_mask + 1;
    const int64_t total = cm[0];
    const int dense =
        total * 16 >= pos_bound && n_sets <= 65536 && pos_bound <= ws->pos_cap;
    if (dense) {
        const int64_t n = repro_emit_members(
            cm, batch_meta, bases, counts, first_pos, grids, offset_bits,
            ws->slot_of, (int64_t *)0, (int64_t *)0, (int64_t *)0);
        if (n < 0) return n;
        /* compact the table into trace order (restoring the -1 invariant) */
        int64_t *tagged = ws->a_line, *pos = ws->a_orig;
        int64_t k = 0;
        for (int64_t p = 0; p < pos_bound; p++) {
            const int64_t v = ws->slot_of[p];
            if (v >= 0) {
                tagged[k] = v;
                pos[k] = p;
                ws->slot_of[p] = -1;
                k++;
            }
        }
        /* stable counting sort by set over the contiguous copy */
        int64_t *cnt = ws->radix_count;
        memset(cnt, 0, (size_t)n_sets * sizeof(int64_t));
        for (int64_t i = 0; i < k; i++) cnt[(tagged[i] >> 1) & set_mask]++;
        int64_t run = 0;
        for (int64_t s = 0; s < n_sets; s++) {
            const int64_t c = cnt[s];
            cnt[s] = run;
            run += c;
        }
        int64_t *tagged_s = ws->b_line, *pos_s = ws->b_orig;
        for (int64_t i = 0; i < k; i++) {
            const int64_t at = cnt[(tagged[i] >> 1) & set_mask]++;
            tagged_s[at] = tagged[i];
            pos_s[at] = pos[i];
        }
        /* maximal adjacent same-(set, line) collapse */
        int64_t m = 0;
        for (int64_t i = 0; i < k; i++) {
            const int64_t line = tagged_s[i] >> 1;
            const int64_t write = tagged_s[i] & 1;
            if (m > 0 && out_line[m - 1] == line
                && out_set[m - 1] == (line & set_mask)) {
                out_wc[m - 1] += write;
                out_last[m - 1] = pos_s[i];
            } else {
                out_set[m] = line & set_mask;
                out_line[m] = line;
                out_fw[m] = write;
                out_wc[m] = write;
                out_orig[m] = pos_s[i];
                out_last[m] = pos_s[i];
                m++;
            }
        }
        return m;
    }
    int64_t *L = ws->a_line, *O = ws->a_orig, *W = ws->a_write;
    const int64_t n = repro_emit_members(
        cm, batch_meta, bases, counts, first_pos, grids, offset_bits,
        (int64_t *)0, L, O, W);
    if (n < 0) return n;
    const int64_t bound = pos_bound > 1 ? pos_bound : 1;
    for (int64_t i = 0; i < n; i++) {
        ws->key_a[i] = (L[i] & set_mask) * bound + O[i];
    }
    int64_t *idx = repro_sort_indices(ws, n);
    int64_t m = 0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t h = idx[i];
        const int64_t line = L[h];
        const int64_t set = line & set_mask;
        const int64_t write = W[h];
        if (m > 0 && out_set[m - 1] == set && out_line[m - 1] == line) {
            out_wc[m - 1] += write;
            out_last[m - 1] = O[h];
        } else {
            out_set[m] = set;
            out_line[m] = line;
            out_fw[m] = write;
            out_wc[m] = write;
            out_orig[m] = O[h];
            out_last[m] = O[h];
            m++;
        }
    }
    return m;
}

int64_t repro_chunk_heads(
    const int64_t *chunk_meta,
    int64_t chunk_index,
    const int64_t *batch_meta,
    const int64_t *bases,
    const int64_t *counts,
    const int64_t *first_pos,
    const int64_t *grids,
    int64_t offset_bits,
    int64_t set_mask,
    int64_t split_passes,
    int64_t cap,
    int64_t pos_cap,
    int64_t *scratch,
    int64_t scratch_len,
    int64_t *out_set, int64_t *out_line, int64_t *out_fw,
    int64_t *out_wc, int64_t *out_orig, int64_t *out_last)
{
    repro_ws ws;
    if (repro_ws_init(&ws, scratch, scratch_len, cap, pos_cap, 1)) return -1;
    /* split_passes < 0 selects the expansion-mode pipeline: member
     * emission plus maximal collapse, which must land on the same merged
     * heads -- the equivalence tests drive both entries. */
    if (split_passes < 0) {
        return repro_chunk_expand_pipeline(
            chunk_meta + chunk_index * 5, batch_meta, bases, counts, first_pos,
            grids, offset_bits, set_mask,
            &ws, out_set, out_line, out_fw, out_wc, out_orig, out_last);
    }
    return repro_chunk_head_pipeline(
        chunk_meta + chunk_index * 5, batch_meta, bases, counts, first_pos,
        grids, offset_bits, set_mask, split_passes,
        &ws, out_set, out_line, out_fw, out_wc, out_orig, out_last);
}

/* ------------------------------------------------------------------ *
 * Line hash for the LRU pre-resolution: open addressing with stamps, so
 * reuse needs no clearing -- the caller passes a process-monotone stamp
 * per probe generation, and only the first `hmask + 1` entries (a
 * power-of-two window sized to the current set segment) are ever probed,
 * keeping touched pages proportional to real segment sizes.  Returns the
 * slot of `line`, inserting it if absent; *found reports which.
 * ------------------------------------------------------------------ */
static int64_t repro_hash_slot(
    repro_ws *ws, int64_t line, int64_t stamp, int64_t hmask, int *found)
{
    uint64_t mix = (uint64_t)line * 0x9E3779B97F4A7C15ULL;
    int64_t slot = (int64_t)((mix ^ (mix >> 31)) & (uint64_t)hmask);
    for (;;) {
        if (ws->h_stamp[slot] != stamp) {
            ws->h_stamp[slot] = stamp;
            ws->h_line[slot] = line;
            *found = 0;
            return slot;
        }
        if (ws->h_line[slot] == line) {
            *found = 1;
            return slot;
        }
        slot = (slot + 1) & hmask;
    }
}

/* ------------------------------------------------------------------ *
 * Cross-chunk batch driver: head pipeline -> LRU stack-distance
 * pre-resolution -> event walk -> statistics and the program-ordered
 * forwarded stream, for every chunk of a packed arena in one call.
 *
 * stats_out (int64[13]): hits, read_hits, write_hits, read_misses,
 * write_misses, read_replacements, write_replacements, writebacks,
 * sequential_misses, last_miss_line, tick, forwarded count, final hash
 * stamp (feed back as the next call's stamp_base).  Returns the
 * forwarded count, or a negative error (-1 scratch too small, -2 grid
 * nesting too deep).
 * ------------------------------------------------------------------ */
int64_t repro_descriptor_batch(
    int64_t n_chunks,
    const int64_t *chunk_meta,
    const int64_t *batch_meta,
    const int64_t *bases,
    const int64_t *counts,
    const int64_t *first_pos,
    const int64_t *grids,
    int64_t offset_bits,
    int64_t n_sets,
    int64_t assoc,
    int32_t policy,
    uint64_t rng_seed,
    int64_t split_passes,
    int64_t head_fraction_millis,
    int64_t cap,
    int64_t pos_cap,
    int32_t init_tables,
    int64_t stamp_base,
    int64_t tick,
    int64_t last_miss_line,
    int64_t *tags,
    uint8_t *dirty,
    int64_t *recency,
    int64_t *aux,
    int64_t *occupancy,
    int64_t *evictions,
    int64_t *scratch,
    int64_t scratch_len,
    int64_t *stats_out,
    int64_t *fwd_lines,
    uint8_t *fwd_writes)
{
    repro_ws ws;
    if (repro_ws_init(&ws, scratch, scratch_len, cap, pos_cap, init_tables)) return -1;
    const int64_t set_mask = n_sets - 1;
    const uint64_t seed_term = rng_seed * 0x9E3779B97F4A7C15ULL;
    const int exact_stack = REPRO_POLICIES[policy].exact_stack;
    int64_t stamp = stamp_base;
    int64_t fwd = 0;
    int64_t hits = 0, read_hits = 0, write_hits = 0;
    int64_t read_misses = 0, write_misses = 0;
    int64_t read_repl = 0, write_repl = 0, writebacks = 0, seq = 0;
    for (int64_t c = 0; c < n_chunks; c++) {
        const int64_t *cm = chunk_meta + c * 5;
        const int64_t total = cm[0];
        /* Per-chunk mode: closed-form head collapse when the estimate says
         * runs really collapse, member expansion otherwise (same fraction
         * gate as the per-chunk Python path; both modes produce identical
         * merged heads, so the choice is throughput-only). */
        const int64_t estimate = repro_estimate_heads(
            cm, batch_meta, bases, counts, grids, offset_bits);
        int64_t n_heads;
        if (estimate * 1000 <= head_fraction_millis * total) {
            n_heads = repro_chunk_head_pipeline(
                cm, batch_meta, bases, counts, first_pos, grids,
                offset_bits, set_mask, split_passes,
                &ws, ws.f_set, ws.f_line, ws.f_fw, ws.f_wc, ws.f_orig, ws.f_last);
        } else {
            n_heads = repro_chunk_expand_pipeline(
                cm, batch_meta, bases, counts, first_pos, grids,
                offset_bits, set_mask,
                &ws, ws.f_set, ws.f_line, ws.f_fw, ws.f_wc, ws.f_orig, ws.f_last);
        }
        if (n_heads < 0) return n_heads;

        /* build the event list: exact-stack policies (LRU) fold guaranteed
         * re-touches into chains (see VectorCacheState.process_heads);
         * FIFO/random/PLRU/RRIP make every head an event */
        int64_t n_events = 0;
        if (exact_stack) {
            int64_t i = 0;
            while (i < n_heads) {
                const int64_t set = ws.f_set[i];
                int64_t j = i;
                while (j < n_heads && ws.f_set[j] == set) j++;
                int64_t hmask = 15;
                while (hmask + 1 < 2 * (j - i)) hmask = (hmask << 1) | 1;
                stamp++;
                int64_t distinct = 0;
                for (int64_t h = i; h < j; h++) {
                    int found;
                    repro_hash_slot(&ws, ws.f_line[h], stamp, hmask, &found);
                    if (!found) distinct++;
                }
                const int compliant = distinct <= assoc;
                stamp++;
                const int64_t ev_base = n_events;
                for (int64_t h = i; h < j; h++) {
                    const int64_t rank = h - i;
                    const int64_t line = ws.f_line[h];
                    const int64_t any_write = ws.f_wc[h] > 0;
                    int found;
                    const int64_t slot = repro_hash_slot(&ws, line, stamp, hmask, &found);
                    if (found && (compliant || rank - ws.h_rank[slot] <= assoc)) {
                        /* guaranteed re-touch: join the previous chain */
                        const int64_t ch = ws.h_chain[slot];
                        ws.chain_write[ch] |= any_write;
                        if (ws.f_last[h] > ws.chain_last[ch])
                            ws.chain_last[ch] = ws.f_last[h];
                        ws.h_rank[slot] = rank;
                        continue;
                    }
                    ws.h_rank[slot] = rank;
                    ws.h_chain[slot] = n_events;
                    ws.chain_write[n_events] = any_write;
                    ws.chain_last[n_events] = ws.f_last[h];
                    ws.ev_set[n_events] = set;
                    ws.ev_line[n_events] = line;
                    ws.ev_orig[n_events] = ws.f_orig[h];
                    ws.ev_fw[n_events] = ws.f_fw[h];
                    n_events++;
                }
                for (int64_t e = ev_base; e < n_events; e++) {
                    ws.ev_dirty[e] = ws.chain_write[e] ? 1 : 0;
                    ws.ev_age[e] = ws.chain_last[e] + tick;
                    ws.ev_retouch[e] = 0;  /* re-touches folded into chains */
                }
                i = j;
            }
        } else {
            for (int64_t h = 0; h < n_heads; h++) {
                ws.ev_set[h] = ws.f_set[h];
                ws.ev_line[h] = ws.f_line[h];
                ws.ev_dirty[h] = ws.f_wc[h] > 0;
                ws.ev_age[h] = ws.f_orig[h] + tick;
                ws.ev_orig[h] = ws.f_orig[h];
                ws.ev_fw[h] = ws.f_fw[h];
                ws.ev_retouch[h] = ws.f_last[h] > ws.f_orig[h];
            }
            n_events = n_heads;
        }
        for (int64_t e = 0; e < n_events; e++) {
            ws.ev_hit[e] = 0;
            ws.ev_victim[e] = -1;
            ws.ev_vwb[e] = 0;
        }
        repro_events_core(
            n_events, ws.ev_set, ws.ev_line, ws.ev_dirty, ws.ev_age, ws.ev_retouch,
            ws.ev_hit, ws.ev_victim, ws.ev_vwb, assoc, policy, seed_term,
            tags, dirty, recency, aux, occupancy, evictions);
        tick += cm[1];

        /* statistics (mirrors VectorCacheState.process_heads step 5) */
        int64_t head_write = 0, sum_wc = 0;
        for (int64_t h = 0; h < n_heads; h++) {
            head_write += ws.f_fw[h] ? 1 : 0;
            sum_wc += ws.f_wc[h];
        }
        int64_t ev_fw_count = 0, n_misses = 0, w_miss = 0, ev_w_hits = 0;
        for (int64_t e = 0; e < n_events; e++) {
            if (ws.ev_fw[e]) ev_fw_count++;
            if (!ws.ev_hit[e]) {
                n_misses++;
                if (ws.ev_fw[e]) w_miss++;
                if (ws.ev_victim[e] >= 0) {
                    if (ws.ev_fw[e]) write_repl++;
                    else read_repl++;
                }
                if (ws.ev_vwb[e]) writebacks++;
            } else if (ws.ev_fw[e]) {
                ev_w_hits++;
            }
        }
        const int64_t chunk_hits = total - n_misses;
        const int64_t w_hits = (sum_wc - head_write) + ev_w_hits
            + (head_write - ev_fw_count);
        hits += chunk_hits;
        write_hits += w_hits;
        read_hits += chunk_hits - w_hits;
        write_misses += w_miss;
        read_misses += n_misses - w_miss;

        /* forwarded stream and sequential misses, in trace order */
        if (n_misses) {
            int64_t nm = 0;
            for (int64_t e = 0; e < n_events; e++) {
                if (!ws.ev_hit[e]) {
                    ws.key_a[nm] = ws.ev_orig[e];
                    ws.cluster_of[nm] = e;
                    nm++;
                }
            }
            int64_t *ord = repro_sort_indices(&ws, nm);
            for (int64_t t = 0; t < nm; t++) {
                const int64_t e = ws.cluster_of[ord[t]];
                const int64_t line = ws.ev_line[e];
                if (line == last_miss_line + 1) seq++;
                last_miss_line = line;
                fwd_lines[fwd] = line;
                fwd_writes[fwd] = 0;
                fwd++;
                if (ws.ev_vwb[e]) {
                    fwd_lines[fwd] = ws.ev_victim[e];
                    fwd_writes[fwd] = 1;
                    fwd++;
                }
            }
        }
    }
    stats_out[0] = hits;
    stats_out[1] = read_hits;
    stats_out[2] = write_hits;
    stats_out[3] = read_misses;
    stats_out[4] = write_misses;
    stats_out[5] = read_repl;
    stats_out[6] = write_repl;
    stats_out[7] = writebacks;
    stats_out[8] = seq;
    stats_out[9] = last_miss_line;
    stats_out[10] = tick;
    stats_out[11] = fwd;
    stats_out[12] = stamp;
    return fwd;
}

/* ------------------------------------------------------------------ *
 * Trace cut: the first `keep` accesses of one packed chunk, still as run
 * batches -- repro.codegen.program.DescriptorChunk.truncate in one call:
 * _MemberCounter's per-batch levels, _search_cutoff's probe sequence and
 * _clip_batch's output.
 *
 * Each batch is prepared once along the descent _clip_batch takes.  Grid
 * level d keeps, in levels[3 * row], the position span [lo, hi] of one
 * slab relative to the slab's start (the stored runs' first and last
 * positions, each widened by the steps of the levels inside d, added by
 * their sign) and its members per slab.  The first level whose position
 * stride does not exceed its span interleaves: the count and the clip
 * walk it and every level inside it with the grid odometer, run by run,
 * as _clip_batch clips the degridded runs.  A batch's info row holds the
 * number of levels above that walk, the stored runs' own span and
 * members, whether their first positions ascend, the longest run's span
 * and the offset of the runs' member prefix sums in the scratch.  With
 * those a count settles a whole grid point, or every run of it but the
 * few whose members straddle the probe, without a division.  Divisions
 * are Python floor divisions.
 * ------------------------------------------------------------------ */
#define REPRO_CUT_INFO 7

static int64_t repro_cut_prepare(
    const int64_t *cm,
    const int64_t *batch_meta,
    const int64_t *counts,
    const int64_t *first_pos,
    const int64_t *grids,
    int64_t *levels,
    int64_t *info,
    int64_t *prefix)
{
    int64_t chunk_members = 0;
    int64_t at = 0;
    for (int64_t b = cm[2]; b < cm[3]; b++) {
        const int64_t *bm = batch_meta + b * 7;
        const int64_t pos_stride = bm[2];
        const int64_t r0 = bm[3], r1 = bm[4], g0 = bm[5], g1 = bm[6];
        if (r1 <= r0 || pos_stride == 0) return -1;
        if (g1 - g0 > 62) return -2;
        int64_t lo = first_pos[r0];
        int64_t hi = first_pos[r0] + (counts[r0] - 1) * pos_stride;
        int64_t members = 0, span = 0, ascending = 1;
        int64_t *sums = prefix + at;
        for (int64_t r = r0; r < r1; r++) {
            const int64_t run_span = (counts[r] - 1) * pos_stride;
            const int64_t last = first_pos[r] + run_span;
            if (first_pos[r] < lo) lo = first_pos[r];
            if (last > hi) hi = last;
            if (run_span > span) span = run_span;
            if (r > r0 && first_pos[r] < first_pos[r - 1]) ascending = 0;
            sums[r - r0] = members;
            if (counts[r] > INT64_MAX - members) return -3;
            members += counts[r];
        }
        sums[r1 - r0] = members;
        int64_t *row = info + REPRO_CUT_INFO * (b - cm[2]);
        row[1] = lo;
        row[2] = hi;
        row[3] = members;
        row[4] = ascending;
        row[5] = span;
        row[6] = at;
        at += r1 - r0 + 1;
        /* innermost level first: members and span of one slab of level g */
        for (int64_t g = g1 - 1; g >= g0; g--) {
            const int64_t count = grids[g * 3 + 1];
            if (count < 1 || grids[g * 3 + 2] == 0) return -1;
            levels[g * 3] = lo;
            levels[g * 3 + 1] = hi;
            levels[g * 3 + 2] = members;
            if (members > INT64_MAX / count) return -3;
            members *= count;
            const int64_t step = (count - 1) * grids[g * 3 + 2];
            if (step < 0) lo += step;
            else hi += step;
        }
        if (members > INT64_MAX - chunk_members) return -3;
        chunk_members += members;
        int64_t d = 0;
        while (d < g1 - g0
               && grids[(g0 + d) * 3 + 2] > levels[(g0 + d) * 3 + 1] - levels[(g0 + d) * 3])
            d++;
        row[0] = d;
    }
    return 0;
}

/* Slabs of grid level g fully below `below` (a position relative to the
 * level's first slab), clamped to the level's count. */
static int64_t repro_cut_full(const int64_t *grids, const int64_t *levels, int64_t g,
                              int64_t below)
{
    int64_t full = repro_fdiv(below - 1 - levels[g * 3 + 1], grids[g * 3 + 2]) + 1;
    if (full < 0) full = 0;
    if (full > grids[g * 3 + 1]) full = grids[g * 3 + 1];
    return full;
}

/* Members of run r below `below`, its first member at position `first`:
 * _clip_runs' np.clip(-((first - below) // pos_stride), 0, count). */
static int64_t repro_cut_run(int64_t first, int64_t count, int64_t pos_stride, int64_t below)
{
    if (pos_stride > 0) {
        if (first >= below) return 0;
        if (first + (count - 1) * pos_stride < below) return count;
        return (below - first + pos_stride - 1) / pos_stride;
    }
    const int64_t kept = -repro_fdiv(first - below, pos_stride);
    return kept < 0 ? 0 : kept > count ? count : kept;
}

/* First index in [lo, hi) of the ascending first_pos at or above `value`. */
static int64_t repro_cut_search(const int64_t *first_pos, int64_t lo, int64_t hi,
                                int64_t value)
{
    while (lo < hi) {
        const int64_t mid = lo + (hi - lo) / 2;
        if (first_pos[mid] < value) lo = mid + 1;
        else hi = mid;
    }
    return lo;
}

/* Members of one grid point's stored runs below `below`, the grid point's
 * position offset being `opos`. */
static int64_t repro_cut_point(
    const int64_t *bm,
    const int64_t *row,
    const int64_t *counts,
    const int64_t *first_pos,
    const int64_t *prefix,
    int64_t opos,
    int64_t below)
{
    const int64_t pos_stride = bm[2], r0 = bm[3], r1 = bm[4];
    int64_t counted = 0;
    if (pos_stride > 0) {
        if (row[2] + opos < below) return row[3];
        if (row[1] + opos >= below) return 0;
        if (row[4]) {
            /* runs from `stop` on start at or past the probe; runs before
             * `start` end more than one run span before it */
            const int64_t stop = repro_cut_search(first_pos, r0, r1, below - opos);
            const int64_t start = repro_cut_search(first_pos, r0, stop, below - opos - row[5]);
            counted = prefix[row[6] + start - r0];
            for (int64_t r = start; r < stop; r++)
                counted += repro_cut_run(first_pos[r] + opos, counts[r], pos_stride, below);
            return counted;
        }
    }
    for (int64_t r = r0; r < r1; r++)
        counted += repro_cut_run(first_pos[r] + opos, counts[r], pos_stride, below);
    return counted;
}

/* Members of the chunk below `cutoff`: _MemberCounter.__call__. */
static int64_t repro_cut_count(
    const int64_t *cm,
    const int64_t *batch_meta,
    const int64_t *counts,
    const int64_t *first_pos,
    const int64_t *grids,
    const int64_t *levels,
    const int64_t *info,
    const int64_t *prefix,
    int64_t cutoff)
{
    int64_t counted = 0;
    for (int64_t b = cm[2]; b < cm[3]; b++) {
        const int64_t *bm = batch_meta + b * 7;
        const int64_t *row = info + REPRO_CUT_INFO * (b - cm[2]);
        const int64_t g0 = bm[5], deep = row[0];
        int64_t below = cutoff;
        int64_t d = 0;
        for (; d < deep; d++) {
            const int64_t g = g0 + d;
            const int64_t full = repro_cut_full(grids, levels, g, below);
            counted += full * levels[g * 3 + 2];
            if (full == grids[g * 3 + 1]
                || levels[g * 3] + full * grids[g * 3 + 2] >= below)
                break;  /* no partially-kept slab, so nothing deeper counts */
            below -= full * grids[g * 3 + 2];
        }
        if (d < deep) continue;
        const int64_t walked = bm[6] - g0 - deep;
        int64_t digit[64];
        for (int64_t l = 0; l < walked; l++) digit[l] = 0;
        int64_t oaddr = 0, opos = 0;
        for (;;) {
            counted += repro_cut_point(bm, row, counts, first_pos, prefix, opos, below);
            if (walked == 0
                || !repro_grid_advance(digit, grids, g0 + deep, walked, &oaddr, &opos))
                break;
        }
    }
    return counted;
}

/* rows_out[k] = (source batch, depth, new outer count or -1 for a batch of
 * clipped runs, address offset, position offset, run start, run end), in
 * _clip_batch's order.  Clipped runs go to runs_out, three rows of
 * run_cap (bases, counts, first positions), ordered by grid point, then
 * stored run; cut_out = (cutoff, clipped runs).  Returns the row count, or
 * a negative value where the cut is declined: -1 for a batch with no runs
 * or a zero position stride, or a grid level that is empty or has a zero
 * position stride; -2 for a grid deeper than 62 levels; -3 where a count
 * or a probe would leave int64; -4 where the outputs would not fit.
 * `levels` holds 3 int64 per grid row, REPRO_CUT_INFO per batch, and one
 * more than its stored runs per batch. */
int64_t repro_cut_chunk(
    const int64_t *chunk_meta,
    const int64_t *batch_meta,
    const int64_t *bases,
    const int64_t *counts,
    const int64_t *first_pos,
    const int64_t *grids,
    int64_t n_grid_rows,
    int64_t keep,
    int64_t *levels,
    int64_t *rows_out,
    int64_t row_cap,
    int64_t *runs_out,
    int64_t run_cap,
    int64_t *cut_out)
{
    const int64_t *cm = chunk_meta;
    int64_t *info = levels + 3 * n_grid_rows;
    int64_t *prefix = info + REPRO_CUT_INFO * (cm[3] - cm[2]);
    const int64_t err = repro_cut_prepare(cm, batch_meta, counts, first_pos, grids,
                                          levels, info, prefix);
    if (err < 0) return err;

    /* _search_cutoff: interpolating probes, a bisection step after any
     * probe that fails to halve the bracket */
    int64_t low = 0, high = cm[1] > 1 ? cm[1] : 1;
    int64_t below_low = 0, below_high = cm[0];
    int bisect_next = 0;
    while (low + 1 < high) {
        const int64_t width = high - low;
        int64_t probe;
        if (bisect_next) {
            probe = low + width / 2;
        } else {
            const int64_t wanted = keep - below_low;
            if (wanted > 0 && width > INT64_MAX / wanted) return -3;
            probe = low + repro_fdiv(wanted * width, below_high - below_low);
            if (probe < low + 1) probe = low + 1;
            if (probe > high - 1) probe = high - 1;
        }
        const int64_t counted = repro_cut_count(
            cm, batch_meta, counts, first_pos, grids, levels, info, prefix, probe);
        if (counted >= keep) {
            high = probe;
            below_high = counted;
        } else {
            low = probe;
            below_low = counted;
        }
        bisect_next = !bisect_next && 2 * (high - low) > width;
    }
    const int64_t cutoff = high;

    /* _clip_batch at the cutoff */
    int64_t *run_bases = runs_out, *run_counts = runs_out + run_cap;
    int64_t *run_first = runs_out + 2 * run_cap;
    int64_t n_rows = 0, n_runs = 0;
    for (int64_t b = cm[2]; b < cm[3]; b++) {
        const int64_t *bm = batch_meta + b * 7;
        const int64_t *info_row = info + REPRO_CUT_INFO * (b - cm[2]);
        const int64_t g0 = bm[5], deep = info_row[0];
        int64_t below = cutoff, addr_off = 0, pos_off = 0;
        int64_t d = 0;
        for (; d < deep; d++) {
            const int64_t g = g0 + d;
            const int64_t full = repro_cut_full(grids, levels, g, below);
            if (full > 0) {
                if (n_rows >= row_cap) return -4;
                int64_t *row = rows_out + 7 * n_rows++;
                row[0] = b - cm[2];
                row[1] = d;
                row[2] = full;
                row[3] = addr_off;
                row[4] = pos_off;
                row[5] = row[6] = 0;
            }
            if (full == grids[g * 3 + 1]
                || levels[g * 3] + full * grids[g * 3 + 2] >= below)
                break;
            below -= full * grids[g * 3 + 2];
            addr_off += full * grids[g * 3];
            pos_off += full * grids[g * 3 + 2];
        }
        if (d < deep) continue;
        const int64_t pos_stride = bm[2];
        const int64_t walked = bm[6] - g0 - deep;
        const int64_t start = n_runs;
        int64_t digit[64];
        for (int64_t l = 0; l < walked; l++) digit[l] = 0;
        int64_t oaddr = 0, opos = 0;
        for (;;) {
            if (pos_stride < 0 || info_row[1] + opos < below) {
                for (int64_t r = bm[3]; r < bm[4]; r++) {
                    const int64_t kept =
                        repro_cut_run(first_pos[r] + opos, counts[r], pos_stride, below);
                    if (kept == 0) continue;
                    if (n_runs >= run_cap) return -4;
                    run_bases[n_runs] = bases[r] + oaddr + addr_off;
                    run_counts[n_runs] = kept;
                    run_first[n_runs] = first_pos[r] + opos + pos_off;
                    n_runs++;
                }
            }
            if (walked == 0
                || !repro_grid_advance(digit, grids, g0 + deep, walked, &oaddr, &opos))
                break;
        }
        if (n_runs > start) {
            if (n_rows >= row_cap) return -4;
            int64_t *row = rows_out + 7 * n_rows++;
            row[0] = b - cm[2];
            row[1] = deep;
            row[2] = -1;
            row[3] = addr_off;
            row[4] = pos_off;
            row[5] = start;
            row[6] = n_runs;
        }
    }
    cut_out[0] = cutoff;
    cut_out[1] = n_runs;
    return n_rows;
}

/* ------------------------------------------------------------------ *
 * Regression tree grower
 *
 * Grows one tree of repro.predictor.xgboost._TreeGrower bit for bit:
 * XGBoost's exact greedy split finder (Chen & Guestrin, KDD 2016,
 * Algorithm 1) on the node's rows, depth first, nodes in preorder.  Every
 * floating-point step is the one the NumPy grower takes, in its order
 * (the library is built with -ffp-contract=off, so no step is fused):
 *  - node sums are NumPy's pairwise sum over the node's rows in input
 *    order, added to 0.0 as np.add.reduce does;
 *  - each column is visited in stable ascending order with NaN last, and
 *    its prefix sums start from the first element, as np.cumsum does;
 *  - per-cut scores square with w * w (NumPy's weights**2), the parent's
 *    score with libm pow, as CPython's float ** does;
 *  - the pick is the first column that reaches the largest gain, at the
 *    first position of np.argmax, which stops at a NaN gain (that column
 *    then loses), and only a positive gain splits;
 *  - rows with value <= threshold go left, NaN goes right.
 * A child keeps its parent's row order, so each column's order of a
 * child is a stable partition of its parent's: the columns are sorted
 * once per tree.
 * ------------------------------------------------------------------ */

/* Read at run time, so the compiler cannot turn pow(w, 2) into w * w. */
static volatile double repro_gbt_two = 2.0;

/* NumPy's pairwise summation over v[idx[0..n)]: eight accumulators over
 * blocks of up to 128, longer runs halved at a multiple of 8. */
static double repro_gbt_pairwise_sum(const double *v, const int64_t *idx, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++) res += v[idx[i]];
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int j = 0; j < 8; j++) r[j] = v[idx[j]];
        int64_t i = 8;
        for (; i < n - (n % 8); i += 8) {
            for (int j = 0; j < 8; j++) r[j] += v[idx[i + j]];
        }
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) res += v[idx[i]];
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return repro_gbt_pairwise_sum(v, idx, half)
        + repro_gbt_pairwise_sum(v, idx + half, n - half);
}

/* _TreeGrower._leaf_weight; -1 where Python raises ZeroDivisionError. */
static int repro_gbt_leaf_weight(
    double grad, double hess, double reg_lambda, double reg_alpha, double *weight)
{
    double numerator;
    if (grad > reg_alpha) numerator = grad - reg_alpha;
    else if (grad < -reg_alpha) numerator = grad + reg_alpha;
    else {
        *weight = 0.0;
        return 0;
    }
    const double denominator = hess + reg_lambda;
    if (denominator == 0.0) return -1;
    *weight = -numerator / denominator;
    return 0;
}

/* CPython's float w ** 2.0: libm pow on |w|, except that an infinity
 * squares to infinity; -1 where it raises OverflowError, which is where
 * CPython's _Py_ADJUST_ERANGE1 finds an infinite result or an errno other
 * than an underflow to zero. */
static int repro_gbt_py_square(double w, double *square)
{
    if (isinf(w)) {
        *square = INFINITY;
        return 0;
    }
    errno = 0;
    const double result = pow(fabs(w), repro_gbt_two);
    if (errno == 0 ? isinf(result) : !(errno == ERANGE && result == 0.0)) return -1;
    *square = result;
    return 0;
}

/* _TreeGrower._score, the parent's score; -1 where Python raises. */
static int repro_gbt_node_score(
    double grad, double hess, double reg_lambda, double reg_alpha, double *score)
{
    double weight, square;
    if (repro_gbt_leaf_weight(grad, hess, reg_lambda, reg_alpha, &weight)) return -1;
    if (repro_gbt_py_square(weight, &square)) return -1;
    *score = -(grad * weight + 0.5 * (hess + reg_lambda) * square);
    return 0;
}

/* One element of _TreeGrower._score_vector, the score of a cut's side. */
static double repro_gbt_cut_score(double grad, double hess, double reg_lambda, double reg_alpha)
{
    const double numerator = grad > reg_alpha ? grad - reg_alpha
        : (grad < -reg_alpha ? grad + reg_alpha : 0.0);
    const double weight = -numerator / (hess + reg_lambda);
    return -(grad * weight + 0.5 * (hess + reg_lambda) * (weight * weight));
}

/* np.sort's order: NaN after every number. */
static int repro_gbt_before(double a, double b)
{
    return a < b || (b != b && a == a);
}

/* Stable sort of idx[0..n) by key[idx[i]]: insertion-sorted runs of 16,
 * then bottom-up merges through tmp (n slots). */
static void repro_gbt_sort(int64_t *idx, int64_t *tmp, int64_t n, const double *key)
{
    const int64_t run = 16;
    for (int64_t lo = 0; lo < n; lo += run) {
        const int64_t hi = lo + run < n ? lo + run : n;
        for (int64_t i = lo + 1; i < hi; i++) {
            const int64_t row = idx[i];
            const double value = key[row];
            int64_t j = i;
            while (j > lo && repro_gbt_before(value, key[idx[j - 1]])) {
                idx[j] = idx[j - 1];
                j--;
            }
            idx[j] = row;
        }
    }
    int64_t *src = idx, *dst = tmp;
    for (int64_t width = run; width < n; width *= 2) {
        for (int64_t lo = 0; lo < n; lo += 2 * width) {
            const int64_t mid = lo + width < n ? lo + width : n;
            const int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            int64_t a = lo, b = mid, out = lo;
            while (a < mid && b < hi) {
                if (repro_gbt_before(key[src[b]], key[src[a]])) {
                    dst[out++] = src[b++];
                } else {
                    dst[out++] = src[a++];
                }
            }
            while (a < mid) dst[out++] = src[a++];
            while (b < hi) dst[out++] = src[b++];
        }
        int64_t *swap = src; src = dst; dst = swap;
    }
    if (src != idx) memcpy(idx, src, (size_t)n * sizeof(int64_t));
}

/* Stable partition of seg[0..n): rows with goes_left[row] first. */
static void repro_gbt_partition(
    int64_t *seg, int64_t n, const uint8_t *goes_left, int64_t *tmp)
{
    int64_t left = 0, right = 0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t row = seg[i];
        if (goes_left[row]) seg[left++] = row;
        else tmp[right++] = row;
    }
    memcpy(seg + left, tmp, (size_t)right * sizeof(int64_t));
}

/* A node still to grow: its rows lo..hi, its depth, and its parent's
 * index times two plus one for a right child (-1 at the root). */
static void repro_gbt_push(
    int64_t *stack, int64_t *top, int64_t lo, int64_t hi, int64_t depth, int64_t link)
{
    int64_t *entry = stack + 4 * (*top)++;
    entry[0] = lo;
    entry[1] = hi;
    entry[2] = depth;
    entry[3] = link;
}

/* Grow one tree on n_rows rows of the n_cols sampled columns (`columns`
 * holds one column after another; feature_ids maps a column to its
 * feature).  Writes up to `capacity` nodes in preorder -- feature (-1 at
 * a leaf), threshold, left, right (a leaf points at itself) and value --
 * plus the deepest node's depth, and returns the node count.  Returns -1,
 * having grown nothing usable, when the scratch is short, when the tree
 * needs more than `capacity` nodes, or where the NumPy grower would
 * raise, so the caller can grow the tree there instead.  Scratch:
 * (n_cols + 3) * n_rows + 4 * capacity int64 words. */
int64_t repro_grow_tree(
    int64_t n_rows,
    int64_t n_cols,
    const double *columns,
    const int64_t *feature_ids,
    const double *gradients,
    const double *hessians,
    int64_t max_depth,
    double min_child_weight,
    double reg_lambda,
    double reg_alpha,
    double gamma,
    int64_t capacity,
    int64_t *scratch,
    int64_t scratch_len,
    int64_t *out_feature,
    double *out_threshold,
    int64_t *out_left,
    int64_t *out_right,
    double *out_value,
    int64_t *out_depth)
{
    if (n_rows < 0 || n_cols < 0 || capacity < 1
            || scratch_len < (n_cols + 3) * n_rows + 4 * capacity) {
        return -1;
    }
    int64_t *order = scratch;                  /* per column: its rows, sorted */
    int64_t *rows = order + n_cols * n_rows;   /* the rows in input order */
    int64_t *tmp = rows + n_rows;
    uint8_t *goes_left = (uint8_t *)(tmp + n_rows);
    int64_t *stack = tmp + 2 * n_rows;         /* the nodes still to grow */

    for (int64_t r = 0; r < n_rows; r++) rows[r] = r;
    for (int64_t c = 0; c < n_cols; c++) {
        int64_t *sorted = order + c * n_rows;
        memcpy(sorted, rows, (size_t)n_rows * sizeof(int64_t));
        repro_gbt_sort(sorted, tmp, n_rows, columns + c * n_rows);
    }

    int64_t count = 0, top = 0, deepest = 0;
    repro_gbt_push(stack, &top, 0, n_rows, 0, -1);
    while (top > 0) {
        top--;
        const int64_t lo = stack[4 * top], hi = stack[4 * top + 1];
        const int64_t depth = stack[4 * top + 2], link = stack[4 * top + 3];
        const int64_t node = count++;
        if (link >= 0) {
            if (link & 1) out_right[link >> 1] = node;
            else out_left[link >> 1] = node;
        }
        const int64_t n = hi - lo;
        const double grad_sum = 0.0 + repro_gbt_pairwise_sum(gradients, rows + lo, n);
        const double hess_sum = 0.0 + repro_gbt_pairwise_sum(hessians, rows + lo, n);
        double value;
        if (repro_gbt_leaf_weight(grad_sum, hess_sum, reg_lambda, reg_alpha, &value)) return -1;
        out_feature[node] = -1;
        out_threshold[node] = 0.0;
        out_left[node] = node;
        out_right[node] = node;
        out_value[node] = value;
        if (depth > deepest) deepest = depth;
        if (depth >= max_depth || n < 2 || hess_sum < 2.0 * min_child_weight) continue;

        double parent_score;
        if (repro_gbt_node_score(grad_sum, hess_sum, reg_lambda, reg_alpha, &parent_score)) {
            return -1;
        }
        double best_gain = -INFINITY;
        int64_t best_col = 0, best_pos = 0;
        for (int64_t c = 0; c < n_cols; c++) {
            const int64_t *sorted = order + c * n_rows + lo;
            const double *key = columns + c * n_rows;
            double grad_left = 0.0, hess_left = 0.0, col_gain = -INFINITY;
            int64_t col_pos = 0;
            for (int64_t p = 0; p + 1 < n; p++) {
                const int64_t row = sorted[p];
                if (p == 0) {
                    grad_left = gradients[row];
                    hess_left = hessians[row];
                } else {
                    grad_left += gradients[row];
                    hess_left += hessians[row];
                }
                const double hess_right = hess_sum - hess_left;
                double gain = -INFINITY;
                if (key[sorted[p + 1]] - key[row] > 1e-12
                        && hess_left >= min_child_weight && hess_right >= min_child_weight) {
                    gain = repro_gbt_cut_score(grad_left, hess_left, reg_lambda, reg_alpha)
                        + repro_gbt_cut_score(grad_sum - grad_left, hess_right,
                                              reg_lambda, reg_alpha)
                        - parent_score - gamma;
                }
                if (p == 0 || !(gain <= col_gain)) {
                    col_gain = gain;
                    col_pos = p;
                    if (gain != gain) break;
                }
            }
            if (col_gain != col_gain) col_gain = -INFINITY;
            if (c == 0 || col_gain > best_gain) {
                best_gain = col_gain;
                best_col = c;
                best_pos = col_pos;
            }
        }
        if (!(best_gain > 0.0)) continue;

        const double *key = columns + best_col * n_rows;
        const int64_t *sorted = order + best_col * n_rows + lo;
        const double threshold = 0.5 * (key[sorted[best_pos]] + key[sorted[best_pos + 1]]);
        int64_t n_left = 0;
        for (int64_t i = lo; i < hi; i++) {
            const int64_t row = rows[i];
            goes_left[row] = key[row] <= threshold;
            n_left += goes_left[row];
        }
        repro_gbt_partition(rows + lo, n, goes_left, tmp);
        for (int64_t c = 0; c < n_cols; c++) {
            repro_gbt_partition(order + c * n_rows + lo, n, goes_left, tmp);
        }
        out_feature[node] = feature_ids[best_col];
        out_threshold[node] = threshold;
        if (count + top + 2 > capacity) return -1;
        /* the left child pops first: preorder */
        repro_gbt_push(stack, &top, lo + n_left, hi, depth + 1, 2 * node + 1);
        repro_gbt_push(stack, &top, lo, lo + n_left, depth + 1, 2 * node);
    }
    *out_depth = deepest;
    return count;
}
"""


#: The compiler flags.  ``-ffp-contract=off`` keeps ``a * b + c`` two
#: roundings where the baseline instruction set has fused multiply-add
#: (aarch64), as NumPy's and CPython's arithmetic is; the tree grower's
#: bit-identity rests on it.  The command adds ``-lm`` after the source,
#: for ``pow``.
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def _library_path() -> str:
    digest = hashlib.sha256(" ".join((*_CFLAGS, _SOURCE)).encode("utf-8")).hexdigest()[:16]
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        cache_root = os.path.join(xdg, "repro")
    else:
        uid = os.getuid() if hasattr(os, "getuid") else 0
        cache_root = os.path.join(tempfile.gettempdir(), f"repro-native-{uid}")
    return os.path.join(cache_root, f"repro-sim-{digest}-{_python_tag()}.so")


def _python_tag() -> str:
    return f"py{sys.version_info[0]}{sys.version_info[1]}"


def _prune_superseded(path: str) -> None:
    """Delete this Python's libraries of other sources, and their stamps.

    Every source change compiles a new library next to the old ones.  A
    process still running an old library keeps its mapping: unlinking a
    loaded library is safe on POSIX.  Libraries of other Python versions
    are left alone.
    """
    for stale in glob.glob(os.path.join(glob.escape(os.path.dirname(path)),
                                        f"repro-sim-*-{_python_tag()}.so")):
        if stale == path:
            continue
        for name in (stale, stale + ".ok"):
            try:
                os.unlink(name)
            except OSError:
                pass


#: Process-wide compile memo: ``None`` means "not attempted yet"; ``(path,)``
#: holds the outcome (``path`` is ``None`` after a failed compile, so the
#: compiler is invoked at most once per interpreter, never per call).
_compile_memo: Optional[tuple] = None


def _compile() -> Optional[str]:
    global _compile_memo
    if _compile_memo is not None:
        return _compile_memo[0]
    _compile_memo = (None,)
    path = _library_path()
    if os.path.exists(path):
        _compile_memo = (path,)
        return path
    compiler = os.environ.get("CC", "cc")
    directory = os.path.dirname(path)
    source_path = None
    try:
        os.makedirs(directory, exist_ok=True)
        with tempfile.NamedTemporaryFile(
            "w", suffix=".c", dir=directory, delete=False
        ) as handle:
            handle.write(_SOURCE)
            source_path = handle.name
        scratch = source_path + ".so"
        command = [compiler, *_CFLAGS, "-o", scratch, source_path, "-lm"]
        result = subprocess.run(command, capture_output=True, timeout=60)
        if result.returncode != 0:
            return None
        os.replace(scratch, path)  # atomic: concurrent builders agree on content
        _compile_memo = (path,)
        _prune_superseded(path)
        return path
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        if source_path is not None:
            try:
                os.unlink(source_path)
            except OSError:
                pass


_functions: Optional[Dict[str, object]] = None


def _bind(library: ctypes.CDLL) -> Dict[str, object]:
    pointer = np.ctypeslib.ndpointer
    p64 = pointer(np.int64, flags="C_CONTIGUOUS")
    p64f = pointer(np.float64, flags="C_CONTIGUOUS")
    pbool = pointer(np.bool_, flags="C_CONTIGUOUS")

    run_events = library.repro_run_events
    run_events.restype = None
    run_events.argtypes = [
        ctypes.c_int64,
        p64, p64, pbool, p64, pbool,  # event sets / lines / dirty / age / retouch
        pbool, p64, pbool,  # hit / victim line / victim writeback
        ctypes.c_int64,  # associativity
        ctypes.c_int32,  # policy
        ctypes.c_uint64,  # rng seed
        p64, pbool, p64, p64, p64, p64,  # tags / dirty / recency / aux / occupancy / evictions
    ]

    chunk_heads = library.repro_chunk_heads
    chunk_heads.restype = ctypes.c_int64
    chunk_heads.argtypes = [
        p64, ctypes.c_int64,  # chunk_meta, chunk index
        p64, p64, p64, p64, p64,  # batch_meta, bases, counts, first_pos, grids
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,  # offset bits, set mask, split passes
        ctypes.c_int64, ctypes.c_int64,  # cap, position-table capacity
        p64, ctypes.c_int64,  # scratch, scratch length
        p64, p64, p64, p64, p64, p64,  # out: set, line, first_write, write_counts, orig, last
    ]

    descriptor_batch = library.repro_descriptor_batch
    descriptor_batch.restype = ctypes.c_int64
    descriptor_batch.argtypes = [
        ctypes.c_int64,  # n_chunks
        p64, p64, p64, p64, p64, p64,  # chunk_meta, batch_meta, bases, counts, first_pos, grids
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,  # offset bits, n_sets, associativity
        ctypes.c_int32, ctypes.c_uint64, ctypes.c_int64,  # policy, rng seed, split passes
        ctypes.c_int64,  # head-fraction gate (thousandths)
        ctypes.c_int64, ctypes.c_int64,  # cap, position-table capacity
        ctypes.c_int32, ctypes.c_int64,  # init tables flag, stamp base
        ctypes.c_int64, ctypes.c_int64,  # tick, last_miss_line
        p64, pbool, p64, p64, p64, p64,  # tags / dirty / recency / aux / occupancy / evictions
        p64, ctypes.c_int64,  # scratch, scratch length
        p64,  # stats_out
        p64, pbool,  # forwarded lines / writes
    ]

    scratch_len = library.repro_scratch_len
    scratch_len.restype = ctypes.c_int64
    scratch_len.argtypes = [ctypes.c_int64, ctypes.c_int64]

    grow_tree = library.repro_grow_tree
    grow_tree.restype = ctypes.c_int64
    grow_tree.argtypes = [
        ctypes.c_int64, ctypes.c_int64,  # rows, sampled columns
        p64f, p64,  # the sampled columns, one after another; their feature ids
        p64f, p64f,  # gradients, hessians
        ctypes.c_int64, ctypes.c_double,  # max depth, min child weight
        ctypes.c_double, ctypes.c_double, ctypes.c_double,  # lambda, alpha, gamma
        ctypes.c_int64,  # node capacity
        p64, ctypes.c_int64,  # scratch, scratch length
        p64, p64f, p64, p64, p64f, p64,  # out: feature, threshold, left, right, value, depth
    ]

    cut_chunk = library.repro_cut_chunk
    cut_chunk.restype = ctypes.c_int64
    cut_chunk.argtypes = [
        p64, p64, p64, p64, p64, p64,  # chunk_meta, batch_meta, bases, counts, first_pos, grids
        ctypes.c_int64, ctypes.c_int64,  # grid rows, keep
        p64,  # level scratch
        p64, ctypes.c_int64,  # out: rows, row capacity
        p64, ctypes.c_int64,  # out: clipped runs, run capacity
        p64,  # out: cutoff, clipped run count
    ]

    return {
        "run_events": run_events,
        "chunk_heads": chunk_heads,
        "descriptor_batch": descriptor_batch,
        "scratch_len": scratch_len,
        "grow_tree": grow_tree,
        "cut_chunk": cut_chunk,
    }


def _probe(path: str) -> bool:
    """One-time subprocess sanity check of the compiled library.

    A fresh interpreter loads the library and calls its simplest entry
    point, so a binary that would crash or fail to resolve takes down the
    probe child instead of the first simulation worker.  Success is
    recorded in a ``<library>.ok`` stamp next to the binary, so the probe
    runs once per compiled artefact, not once per process.  The
    ``native_probe`` fault-injection site simulates a probe failure.
    """
    if faults.should_inject("native_probe"):
        return False
    stamp = path + ".ok"
    if os.path.exists(stamp):
        return True
    code = (
        "import ctypes\n"
        f"library = ctypes.CDLL({path!r})\n"
        "library.repro_scratch_len.restype = ctypes.c_int64\n"
        "library.repro_scratch_len.argtypes = [ctypes.c_int64, ctypes.c_int64]\n"
        "assert library.repro_scratch_len(1, 1) > 0\n"
    )
    try:
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, timeout=60
        )
        if result.returncode != 0:
            return False
        with open(stamp, "w", encoding="utf-8"):
            pass
        return True
    except (OSError, subprocess.SubprocessError):
        return False


def demote(reason: str) -> None:
    """Demote this process to the NumPy fallback paths (with a warning).

    Called when a bound kernel misbehaves at runtime; every subsequent
    ``*_kernel()`` accessor returns ``None``, so the Python and NumPy
    implementations of the engine, the trace cut and the tree grower —
    bit-identical by construction — take over for the rest of the process.
    """
    global _functions
    previously_active = bool(_functions)
    _functions = {}
    if previously_active:
        warnings.warn(NativeKernelDemotionWarning(reason), stacklevel=3)


def _reset_for_tests(remove_stamp: bool = False) -> None:
    """Forget load/compile state so tests can exercise probe and demotion."""
    global _functions, _compile_memo
    _functions = None
    _compile_memo = None
    if remove_stamp:
        try:
            os.unlink(_library_path() + ".ok")
        except OSError:
            pass


def _load() -> Dict[str, object]:
    """Compile (once), probe, load and bind the kernels; cached per process."""
    global _functions
    if _functions is not None:
        return _functions
    _functions = {}
    if os.environ.get("REPRO_SIM_NATIVE", "1") == "0":
        return _functions
    path = _compile()
    if path is None:
        return _functions
    if not _probe(path):
        warnings.warn(
            NativeKernelDemotionWarning(
                f"library probe failed for {path}; using NumPy fallback"
            ),
            stacklevel=3,
        )
        return _functions
    try:
        library = ctypes.CDLL(path)
        _functions = _bind(library)
    except (OSError, AttributeError):
        _functions = {}
    return _functions


def event_kernel():
    """The compiled event-chain kernel, or ``None`` when unavailable."""
    return _load().get("run_events")


def chunk_heads_kernel():
    """The compiled descriptor head pipeline, or ``None`` when unavailable."""
    return _load().get("chunk_heads")


def descriptor_batch_kernel():
    """The compiled cross-chunk batch driver, or ``None`` when unavailable."""
    return _load().get("descriptor_batch")


def tree_grower_kernel():
    """The compiled regression tree grower, or ``None`` when unavailable."""
    return _load().get("grow_tree")


def cut_chunk_kernel():
    """The compiled trace cut, or ``None`` when unavailable."""
    return _load().get("cut_chunk")


def scratch_len(cap: int, pos_cap: int) -> Optional[int]:
    """int64 scratch words the kernels need for per-chunk capacity ``cap``
    and position-table capacity ``pos_cap``."""
    function = _load().get("scratch_len")
    if function is None:
        return None
    return int(function(cap, pos_cap))
