/*
 * Native event kernel: the simulator's cache / MSHR / DRAM / stride
 * substrate, replaying the scalar reference engine
 * (repro.sim.engine._RunState) operation for operation.
 *
 * The kernel runs the reference's record-by-record (clock, core)
 * interleaving.  It owns the private L1s, victim FIFOs, shared L2, MSHR
 * file, DRAM channel, stride prefetcher, per-core miss windows and the
 * measured-phase accounting (coverage, MLP, demand/write-back traffic,
 * miss log).  A temporal prefetcher stays in Python: nk_run() returns
 * NK_CONSUME where the reference calls temporal.consume() and NK_MISS
 * where it calls temporal.on_demand_miss(), and the driver resumes the
 * event with the next nk_run() call.
 *
 * Containers keep the reference's dict orders: every cache set, victim
 * FIFO, stride tracker and stride buffer is an array ordered oldest
 * first (LRU/FIFO head at index 0), so the driver can write the state
 * back into the Python objects in the same order.  Float math follows
 * the reference's expression order; the build disables FP contraction.
 *
 * Everything between the cdef markers is also parsed by cffi.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* cdef-begin */
typedef struct {
    int64_t *blk;          /* sets * ways, set-major, oldest first */
    uint8_t *dirty;
    int32_t *count;        /* resident lines per set */
    int64_t mask;
    int32_t sets, ways;
    int64_t hits, misses, fills, evictions, dirty_evictions, invalidations;
} nk_cache;

typedef struct {
    int64_t *blk;          /* capacity entries, oldest first */
    uint8_t *dirty;
    int32_t count, capacity;
    int64_t hits;
} nk_fifo;

typedef struct {
    int64_t region, last, stride, conf;
} nk_tracker;

typedef struct {
    int64_t block;
    double issued, arrival;
} nk_prefetch;

typedef struct {
    int64_t block;
    double done;
    int64_t waiters;
} nk_mshr;

/* _IntervalAccumulator */
typedef struct {
    double total, merged, start, end;
    int64_t count;
} nk_mlp;

/* DramChannel state; the driver moves it in two bulk copies. */
typedef struct {
    double busy_high, busy_all, busy_cycles, queue_cycles;
    int64_t requests, high, low;
} nk_dram;

/* One trace core: its columns, clock, window, stride state, tallies. */
typedef struct {
    const int64_t *blocks;
    const double *work;
    const uint8_t *dep, *write;
    int64_t limit, cursor;
    double clock;
    int32_t prio_high;
    double *window;        /* completion times of outstanding misses */
    int32_t window_len;
    nk_tracker *trackers;  /* LRU order */
    int32_t trackers_len;
    nk_prefetch *buffer;   /* stride prefetch buffer, FIFO order */
    int32_t buffer_len;
    int64_t cov[4];        /* fully, partially, uncovered, stride */
    int64_t demand_bytes, writeback_bytes;   /* since the last export */
    nk_mlp mlp;
    int64_t *miss_log;     /* since the last export */
    int64_t miss_len, miss_cap;
} nk_core;

typedef struct {
    /* ---- configuration (set by the driver before nk_init) ---- */
    int32_t cores;         /* machine cores: L1s and victim FIFOs */
    int32_t tcores;        /* trace cores: scheduled, accounted */
    int32_t l1_sets, l1_ways, l2_sets, l2_ways, victim_capacity;
    int32_t mshr_capacity, miss_window;
    int32_t use_stride, track_mlp, log_misses, has_temporal;
    double t_l1_hit, t_victim, t_l2_dep, t_l2_indep;
    double t_stride_dep, t_stride_indep, t_pf_dep, t_pf_indep;
    double t_miss_overhead;
    double dram_transfer, dram_latency;
    int32_t st_entries, st_buffer, st_degree, st_confirm, st_shift;
    double st_backlog;

    /* ---- machine state ---- */
    nk_core *core;         /* [tcores] */
    nk_cache *l1;          /* [cores] */
    nk_fifo *victim;       /* [cores] */
    nk_cache l2;
    nk_mshr *mshr;
    int32_t mshr_count;
    int64_t mshr_allocations, mshr_merges, mshr_stalls, mshr_peak;
    nk_dram dram;
    int64_t st_trained, st_issued, st_useful, st_erroneous, st_dropped;
    int32_t measuring;
    int64_t measured_records, demand_accesses, off_chip_reads;

    /* ---- hand-off to the temporal prefetcher ---- */
    int32_t h_core;
    int64_t h_index, h_block;
    double h_time;         /* consume: demand time; miss: issue time */
    int32_t r_hit;
    double r_arrival;

    /* ---- the event paused at a hand-off ---- */
    int32_t pending;
    int32_t e_core, e_dep, e_write;
    int64_t e_block;
    double e_t;
} nk_kernel;

static nk_kernel *nk_new(void);
static int nk_init(nk_kernel *k);
static void nk_free(nk_kernel *k);
static int nk_run(nk_kernel *k);
static int nk_l2_contains(nk_kernel *k, int64_t block);
static const char *nk_source_hash(void);
/* cdef-end */

enum { NK_DONE = 0, NK_CONSUME = 1, NK_MISS = 2 };
enum { P_NONE = 0, P_CONSUME = 1, P_MISS = 2 };
enum { COV_FULL = 0, COV_PARTIAL = 1, COV_UNCOVERED = 2, COV_STRIDE = 3 };

#define NK_BLOCK_BYTES 64

/* ------------------------------------------------------------------ */
/* Allocation.                                                         */
/* ------------------------------------------------------------------ */

static nk_kernel *nk_new(void)
{
    return calloc(1, sizeof(nk_kernel));
}

static void *nk_zalloc(int64_t count, size_t size)
{
    return calloc(count > 0 ? (size_t)count : 1, size);
}

static int nk_cache_init(nk_cache *cache, int32_t sets, int32_t ways)
{
    cache->sets = sets;
    cache->ways = ways;
    cache->mask = (int64_t)sets - 1;
    cache->blk = nk_zalloc((int64_t)sets * ways, sizeof(int64_t));
    cache->dirty = nk_zalloc((int64_t)sets * ways, sizeof(uint8_t));
    cache->count = nk_zalloc(sets, sizeof(int32_t));
    return cache->blk && cache->dirty && cache->count;
}

static void nk_cache_free(nk_cache *cache)
{
    free(cache->blk);
    free(cache->dirty);
    free(cache->count);
}

/* Allocate every array the configuration sizes; 0 when out of memory. */
static int nk_init(nk_kernel *k)
{
    int32_t i;
    k->core = nk_zalloc(k->tcores, sizeof(nk_core));
    k->l1 = nk_zalloc(k->cores, sizeof(nk_cache));
    k->victim = nk_zalloc(k->cores, sizeof(nk_fifo));
    k->mshr = nk_zalloc(k->mshr_capacity, sizeof(nk_mshr));
    if (!k->core || !k->l1 || !k->victim || !k->mshr
        || !nk_cache_init(&k->l2, k->l2_sets, k->l2_ways))
        return 0;
    for (i = 0; i < k->cores; i++) {
        nk_fifo *fifo = &k->victim[i];
        fifo->capacity = k->victim_capacity;
        fifo->blk = nk_zalloc(fifo->capacity, sizeof(int64_t));
        fifo->dirty = nk_zalloc(fifo->capacity, sizeof(uint8_t));
        if (!nk_cache_init(&k->l1[i], k->l1_sets, k->l1_ways)
            || !fifo->blk || !fifo->dirty)
            return 0;
    }
    for (i = 0; i < k->tcores; i++) {
        nk_core *c = &k->core[i];
        c->window = nk_zalloc(k->miss_window, sizeof(double));
        c->trackers = nk_zalloc(k->st_entries, sizeof(nk_tracker));
        c->buffer = nk_zalloc(k->st_buffer, sizeof(nk_prefetch));
        if (!c->window || !c->trackers || !c->buffer)
            return 0;
        /* _IntervalAccumulator's "no interval open" sentinels. */
        c->mlp.start = -1.0;
        c->mlp.end = -1.0;
    }
    return 1;
}

static void nk_free(nk_kernel *k)
{
    int32_t i;
    if (k == NULL)
        return;
    for (i = 0; k->core != NULL && i < k->tcores; i++) {
        free(k->core[i].window);
        free(k->core[i].trackers);
        free(k->core[i].buffer);
        free(k->core[i].miss_log);
    }
    for (i = 0; k->l1 != NULL && i < k->cores; i++)
        nk_cache_free(&k->l1[i]);
    for (i = 0; k->victim != NULL && i < k->cores; i++) {
        free(k->victim[i].blk);
        free(k->victim[i].dirty);
    }
    nk_cache_free(&k->l2);
    free(k->core);
    free(k->l1);
    free(k->victim);
    free(k->mshr);
    free(k);
}

static const char *nk_source_hash(void)
{
    return NK_SOURCE_HASH;
}

/* Remove element ``j`` of an ``n``-element array, keeping the order. */
static void nk_remove(void *array, size_t size, int32_t n, int32_t j)
{
    char *base = array;
    memmove(base + (size_t)j * size, base + (size_t)(j + 1) * size,
            (size_t)(n - j - 1) * size);
}

/* ------------------------------------------------------------------ */
/* Set-associative cache (Cache with LRU replacement).                 */
/* ------------------------------------------------------------------ */

static int32_t nk_cache_find(const nk_cache *cache, int64_t base,
                             int32_t count, int64_t block)
{
    int32_t w;
    for (w = 0; w < count; w++)
        if (cache->blk[base + w] == block)
            return w;
    return -1;
}

static void nk_cache_remove(nk_cache *cache, int64_t base, int32_t count,
                            int32_t w)
{
    nk_remove(cache->blk + base, sizeof(int64_t), count, w);
    nk_remove(cache->dirty + base, sizeof(uint8_t), count, w);
}

/* Move a resident line to the MRU end, merging ``dirty`` into it. */
static void nk_cache_refresh(nk_cache *cache, int64_t base, int32_t count,
                             int32_t w, int dirty)
{
    int64_t block = cache->blk[base + w];
    uint8_t merged = (uint8_t)(cache->dirty[base + w] | (dirty != 0));
    nk_cache_remove(cache, base, count, w);
    cache->blk[base + count - 1] = block;
    cache->dirty[base + count - 1] = merged;
}

/* Cache.access: on a hit refresh recency, dirty |= write; 1 when hit. */
static int nk_cache_access(nk_cache *cache, int64_t block, int write)
{
    int64_t set = block & cache->mask;
    int64_t base = set * cache->ways;
    int32_t count = cache->count[set];
    int32_t w = nk_cache_find(cache, base, count, block);
    if (w < 0)
        return 0;
    nk_cache_refresh(cache, base, count, w, write);
    return 1;
}

/*
 * Cache.fill_pair: insert ``block`` (or refresh it when resident).
 * Returns 1 and sets *victim / *victim_dirty when a line was evicted.
 */
static int nk_cache_fill(nk_cache *cache, int64_t block, int dirty,
                         int64_t *victim, int *victim_dirty)
{
    int64_t set = block & cache->mask;
    int64_t base = set * cache->ways;
    int32_t count = cache->count[set];
    int32_t w = nk_cache_find(cache, base, count, block);
    int evicted = 0;
    if (w >= 0) {
        nk_cache_refresh(cache, base, count, w, dirty);
        return 0;
    }
    if (count >= cache->ways) {
        *victim = cache->blk[base];
        *victim_dirty = cache->dirty[base];
        nk_cache_remove(cache, base, count, 0);
        count--;
        cache->evictions++;
        if (*victim_dirty)
            cache->dirty_evictions++;
        evicted = 1;
    }
    cache->blk[base + count] = block;
    cache->dirty[base + count] = (uint8_t)(dirty != 0);
    cache->count[set] = count + 1;
    cache->fills++;
    return evicted;
}

/* Cache.invalidate; returns the dropped line's dirty bit, -1 if absent. */
static int nk_cache_invalidate(nk_cache *cache, int64_t block)
{
    int64_t set = block & cache->mask;
    int64_t base = set * cache->ways;
    int32_t count = cache->count[set];
    int32_t w = nk_cache_find(cache, base, count, block);
    int dirty;
    if (w < 0)
        return -1;
    dirty = cache->dirty[base + w];
    nk_cache_remove(cache, base, count, w);
    cache->count[set] = count - 1;
    cache->invalidations++;
    return dirty;
}

static int nk_l2_contains(nk_kernel *k, int64_t block)
{
    const nk_cache *l2 = &k->l2;
    int64_t set = block & l2->mask;
    return nk_cache_find(l2, set * l2->ways, l2->count[set], block) >= 0;
}

/* ------------------------------------------------------------------ */
/* DRAM channel (DramChannel.request / peek_completion).               */
/* ------------------------------------------------------------------ */

static double nk_dram_request(nk_kernel *k, double now, int high)
{
    nk_dram *dram = &k->dram;
    double service = k->dram_transfer;
    double busy, start;
    if (high) {
        busy = dram->busy_high;
        start = now > busy ? now : busy;
        busy = start + service;
        dram->busy_high = busy;
        if (busy > dram->busy_all)
            dram->busy_all = busy;
        dram->high++;
    } else {
        busy = dram->busy_all;
        start = now > busy ? now : busy;
        dram->busy_all = start + service;
        dram->low++;
    }
    dram->requests++;
    dram->busy_cycles += service;
    dram->queue_cycles += start - now;
    return start + k->dram_latency + service;
}

static double nk_dram_peek(const nk_kernel *k, double now, int high)
{
    double busy = high ? k->dram.busy_high : k->dram.busy_all;
    double start = now >= busy ? now : busy;
    return start + k->dram_latency + k->dram_transfer;
}

/* ------------------------------------------------------------------ */
/* Hierarchy fills (CmpHierarchy._l2_fill / _fill_l1_into).            */
/* ------------------------------------------------------------------ */

/*
 * Inclusive L2 eviction: invalidate every L1 copy (the reference's
 * _l1_copies mask holds exactly the cores whose L1 has the block),
 * merge their dirty state, and charge the write-back to ``core``.
 */
static void nk_l2_evicted(nk_kernel *k, int64_t block, int dirty,
                          int32_t core, int32_t *writebacks)
{
    int32_t c;
    for (c = 0; c < k->cores; c++)
        if (nk_cache_invalidate(&k->l1[c], block) > 0)
            dirty = 1;
    if (dirty) {
        k->core[core].writeback_bytes += NK_BLOCK_BYTES;
        (*writebacks)++;
    }
}

static void nk_l2_fill(nk_kernel *k, int64_t block, int dirty,
                       int32_t core, int32_t *writebacks)
{
    int64_t victim = 0;
    int victim_dirty = 0;
    if (nk_cache_fill(&k->l2, block, dirty, &victim, &victim_dirty))
        nk_l2_evicted(k, victim, victim_dirty, core, writebacks);
}

static void nk_fill_l1(nk_kernel *k, int32_t core, int64_t block,
                       int dirty, int32_t *writebacks)
{
    nk_fifo *fifo = &k->victim[core];
    int64_t victim = 0;
    int victim_dirty = 0;
    int32_t j;
    if (!nk_cache_fill(&k->l1[core], block, dirty, &victim, &victim_dirty))
        return;
    /* VictimBuffer insert (FIFO over evicted L1 blocks). */
    if (fifo->capacity <= 0) {
        if (victim_dirty)
            nk_l2_fill(k, victim, 1, core, writebacks);
        return;
    }
    for (j = 0; j < fifo->count; j++)
        if (fifo->blk[j] == victim) {
            fifo->dirty[j] = (uint8_t)(fifo->dirty[j] | (victim_dirty != 0));
            return;
        }
    if (fifo->count >= fifo->capacity) {
        int64_t displaced = fifo->blk[0];
        int displaced_dirty = fifo->dirty[0];
        nk_remove(fifo->blk, sizeof(int64_t), fifo->count, 0);
        nk_remove(fifo->dirty, sizeof(uint8_t), fifo->count, 0);
        fifo->count--;
        if (displaced_dirty)
            nk_l2_fill(k, displaced, 1, core, writebacks);
    }
    fifo->blk[fifo->count] = victim;
    fifo->dirty[fifo->count] = (uint8_t)(victim_dirty != 0);
    fifo->count++;
}

static int nk_victim_extract(nk_fifo *fifo, int64_t block)
{
    int32_t j;
    for (j = 0; j < fifo->count; j++)
        if (fifo->blk[j] == block) {
            nk_remove(fifo->blk, sizeof(int64_t), fifo->count, j);
            nk_remove(fifo->dirty, sizeof(uint8_t), fifo->count, j);
            fifo->count--;
            fifo->hits++;
            return 1;
        }
    return 0;
}

static void nk_drain(nk_kernel *k, int32_t writebacks, double now)
{
    while (writebacks-- > 0)
        nk_dram_request(k, now, 1);
}

/* _RunState._fill: off-chip fill into L2 then L1, write-backs at now. */
static void nk_fill(nk_kernel *k, int32_t core, int64_t block, int write,
                    double now)
{
    int32_t writebacks = 0;
    nk_l2_fill(k, block, 0, core, &writebacks);
    nk_fill_l1(k, core, block, write, &writebacks);
    nk_drain(k, writebacks, now);
}

/* ------------------------------------------------------------------ */
/* Stride prefetcher (StridePrefetcher).                               */
/* ------------------------------------------------------------------ */

static int32_t nk_buffer_find(const nk_core *c, int64_t block)
{
    int32_t j;
    for (j = 0; j < c->buffer_len; j++)
        if (c->buffer[j].block == block)
            return j;
    return -1;
}

/* StridePrefetcher.probe: consume a buffered stride prefetch. */
static int nk_stride_take(nk_kernel *k, nk_core *c, int64_t block)
{
    int32_t j = nk_buffer_find(c, block);
    if (j < 0)
        return 0;
    nk_remove(c->buffer, sizeof(nk_prefetch), c->buffer_len--, j);
    k->st_useful++;
    return 1;
}

static int32_t nk_tracker_find(const nk_core *c, int64_t region)
{
    int32_t j;
    for (j = 0; j < c->trackers_len; j++)
        if (c->trackers[j].region == region)
            return j;
    return -1;
}

/* Insert at the MRU end, evicting the LRU tracker when full. */
static void nk_tracker_append(nk_kernel *k, nk_core *c, nk_tracker entry)
{
    if (c->trackers_len >= k->st_entries)
        nk_remove(c->trackers, sizeof(nk_tracker), c->trackers_len--, 0);
    c->trackers[c->trackers_len++] = entry;
}

static void nk_run_ahead(nk_kernel *k, nk_core *c, int64_t block,
                         int64_t stride, double now)
{
    int64_t last_target = block;
    int64_t region;
    int32_t i;
    for (i = 1; i <= k->st_degree; i++) {
        int64_t target = block + stride * i;
        nk_prefetch entry;
        if (target < 0 || nk_buffer_find(c, target) >= 0)
            continue;
        if (k->dram.busy_all - now > k->st_backlog) {
            k->st_dropped++;
            break;
        }
        entry.block = target;
        entry.issued = now;
        entry.arrival = nk_dram_request(k, now, 0);
        if (c->buffer_len >= k->st_buffer) {
            nk_remove(c->buffer, sizeof(nk_prefetch), c->buffer_len--, 0);
            k->st_erroneous++;
        }
        c->buffer[c->buffer_len++] = entry;
        k->st_issued++;
        last_target = target;
    }
    /* _seed_continuation: carry a confirmed stream into the next region. */
    region = last_target >> k->st_shift;
    if (region != (block >> k->st_shift) && nk_tracker_find(c, region) < 0) {
        nk_tracker seeded = {region, last_target, stride, k->st_confirm - 1};
        nk_tracker_append(k, c, seeded);
    }
}

static void nk_stride_train(nk_kernel *k, int32_t core, int64_t block,
                            double now)
{
    nk_core *c = &k->core[core];
    int64_t region = block >> k->st_shift;
    int32_t j = nk_tracker_find(c, region);
    int64_t stride;
    nk_tracker entry;
    if (j < 0) {
        nk_tracker fresh = {region, block, 0, 0};
        nk_tracker_append(k, c, fresh);
        k->st_trained++;
        return;
    }
    /* LRU refresh: the entry moves to the MRU end. */
    entry = c->trackers[j];
    nk_remove(c->trackers, sizeof(nk_tracker), c->trackers_len, j);
    stride = block - entry.last;
    if (stride != 0) {
        if (stride == entry.stride) {
            entry.conf++;
        } else {
            entry.stride = stride;
            entry.conf = 1;
        }
        entry.last = block;
    }
    c->trackers[c->trackers_len - 1] = entry;
    if (stride != 0 && entry.conf >= k->st_confirm)
        nk_run_ahead(k, c, block, stride, now);
}

/* ------------------------------------------------------------------ */
/* Events.                                                             */
/* ------------------------------------------------------------------ */

static void nk_cover(nk_kernel *k, int32_t core, int kind)
{
    if (k->measuring)
        k->core[core].cov[kind]++;
}

/* Event tail shared by the L2 and off-chip paths: stride train, clock. */
static void nk_finish(nk_kernel *k, int32_t core, int64_t block, double t)
{
    if (k->use_stride)
        nk_stride_train(k, core, block, t);
    k->core[core].clock = t;
}

/* A temporal prefetch-buffer hit (the consume hand-off said yes). */
static void nk_prefetch_hit(nk_kernel *k)
{
    int32_t core = k->e_core;
    double t = k->e_t;
    double arrival = k->r_arrival;
    if (arrival <= t) {
        nk_cover(k, core, COV_FULL);
        t += k->e_dep ? k->t_pf_dep : k->t_pf_indep;
    } else {
        nk_cover(k, core, COV_PARTIAL);
        if (k->e_dep) {
            /* A demand hit on an in-flight prefetch waits no longer
               than a fresh demand fetch would. */
            double peek = nk_dram_peek(k, t, k->core[core].prio_high);
            if (peek < arrival)
                arrival = peek;
            t = arrival + k->t_pf_dep;
        } else {
            t += k->t_pf_indep;
        }
    }
    nk_fill(k, core, k->e_block, k->e_write, t);
    nk_finish(k, core, k->e_block, t);
}

/* MshrFile.retire_complete: drop every entry done by ``now``. */
static void nk_mshr_retire(nk_kernel *k, double now)
{
    int32_t j = 0;
    while (j < k->mshr_count) {
        if (k->mshr[j].done <= now)
            k->mshr[j] = k->mshr[--k->mshr_count];
        else
            j++;
    }
}

/* Uncovered off-chip read: coverage, MLP interval, miss log. */
static void nk_account_miss(nk_kernel *k, nk_core *c, int64_t block,
                            double issue, double completion)
{
    c->cov[COV_UNCOVERED]++;
    if (k->track_mlp) {
        nk_mlp *mlp = &c->mlp;
        mlp->total += completion - issue;
        mlp->count++;
        if (mlp->end < 0) {
            mlp->start = issue;
            mlp->end = completion;
        } else if (issue <= mlp->end) {
            if (completion > mlp->end)
                mlp->end = completion;
        } else {
            mlp->merged += mlp->end - mlp->start;
            mlp->start = issue;
            mlp->end = completion;
        }
    }
    if (k->log_misses) {
        if (c->miss_len == c->miss_cap) {
            int64_t cap = c->miss_cap ? 2 * c->miss_cap : 256;
            int64_t *grown = realloc(c->miss_log,
                                     (size_t)cap * sizeof(int64_t));
            if (grown == NULL)
                abort();
            c->miss_log = grown;
            c->miss_cap = cap;
        }
        c->miss_log[c->miss_len++] = block;
    }
}

/* Demand fetch from main memory; returns the issue time, e_t = clock. */
static double nk_demand_fetch(nk_kernel *k)
{
    int32_t core = k->e_core;
    nk_core *c = &k->core[core];
    int64_t block = k->e_block;
    double issue = k->e_t;
    double completion;
    int32_t j, n = c->window_len;

    /* Per-core miss window: the core runs ahead of a bounded number of
       outstanding misses. */
    if (n) {
        int32_t keep = 0;
        for (j = 0; j < n; j++)
            if (c->window[j] > issue)
                c->window[keep++] = c->window[j];
        n = keep;
        while (n >= k->miss_window) {
            int32_t first = 0;
            for (j = 1; j < n; j++)
                if (c->window[j] < c->window[first])
                    first = j;
            issue = c->window[first];
            nk_remove(c->window, sizeof(double), n--, first);
        }
    }
    nk_mshr_retire(k, issue);
    for (j = 0; j < k->mshr_count; j++)
        if (k->mshr[j].block == block)
            break;
    if (j < k->mshr_count) {
        /* Another core is already fetching this block: merge. */
        k->mshr[j].waiters++;
        k->mshr_merges++;
        completion = k->mshr[j].done;
    } else {
        if (k->mshr_count >= k->mshr_capacity) {
            double earliest = k->mshr[0].done;
            for (j = 1; j < k->mshr_count; j++)
                if (k->mshr[j].done < earliest)
                    earliest = k->mshr[j].done;
            if (earliest > issue)
                issue = earliest;
            nk_mshr_retire(k, issue);
        }
        completion = nk_dram_request(k, issue, c->prio_high);
        c->demand_bytes += NK_BLOCK_BYTES;
        k->mshr[k->mshr_count].block = block;
        k->mshr[k->mshr_count].done = completion;
        k->mshr[k->mshr_count].waiters = 1;
        k->mshr_count++;
        k->mshr_allocations++;
        if (k->mshr_count > k->mshr_peak)
            k->mshr_peak = k->mshr_count;
    }
    if (k->measuring)
        nk_account_miss(k, c, block, issue, completion);
    if (k->e_dep) {
        k->e_t = completion;
        n = 0;
    } else {
        k->e_t = issue + k->t_miss_overhead;
        c->window[n++] = completion;
    }
    c->window_len = n;
    nk_fill(k, core, block, k->e_write, k->e_t);
    return issue;
}

/*
 * One trace record of ``core`` (the reference's _step + _off_chip).
 * Returns NK_CONSUME when the event waits on the temporal prefetcher.
 */
static int nk_step(nk_kernel *k, int32_t core)
{
    nk_core *c = &k->core[core];
    int64_t i = c->cursor++;
    int64_t block = c->blocks[i];
    int dep = c->dep[i];
    int write = c->write[i];
    double t = c->clock + c->work[i];
    int32_t writebacks = 0;

    if (k->measuring)
        k->measured_records++;
    k->demand_accesses++;
    if (nk_cache_access(&k->l1[core], block, write)) {
        k->l1[core].hits++;
        c->clock = t + k->t_l1_hit;
        return NK_DONE;
    }
    k->l1[core].misses++;
    if (nk_victim_extract(&k->victim[core], block)) {
        nk_fill_l1(k, core, block, write, &writebacks);
        t += k->t_victim;
        nk_drain(k, writebacks, t);
        c->clock = t;
        return NK_DONE;
    }
    if (nk_cache_access(&k->l2, block, 0)) {
        k->l2.hits++;
        nk_fill_l1(k, core, block, write, &writebacks);
        t += dep ? k->t_l2_dep : k->t_l2_indep;
        nk_drain(k, writebacks, t);
        nk_finish(k, core, block, t);
        return NK_DONE;
    }
    k->l2.misses++;
    k->off_chip_reads++;

    /* 1. Stride prefetcher buffer (part of the base system). */
    if (k->use_stride && nk_stride_take(k, c, block)) {
        c->demand_bytes += NK_BLOCK_BYTES;
        nk_cover(k, core, COV_STRIDE);
        t += dep ? k->t_stride_dep : k->t_stride_indep;
        nk_fill(k, core, block, write, t);
        nk_finish(k, core, block, t);
        return NK_DONE;
    }

    k->e_core = core;
    k->e_block = block;
    k->e_dep = dep;
    k->e_write = write;
    k->e_t = t;
    /* 2. Temporal prefetcher buffer: the driver answers in r_hit. */
    if (k->has_temporal) {
        k->h_core = core;
        k->h_index = i;
        k->h_block = block;
        k->h_time = t;
        k->pending = P_CONSUME;
        return NK_CONSUME;
    }
    /* 3. Demand fetch from main memory. */
    nk_demand_fetch(k);
    nk_finish(k, core, block, k->e_t);
    return NK_DONE;
}

/*
 * Advance every trace core to its limit in the reference's global
 * (clock, core) order, pausing at temporal-prefetcher hand-offs.
 */
static int nk_run(nk_kernel *k)
{
    int32_t i, core;
    int code;

    if (k->pending == P_CONSUME) {
        k->pending = P_NONE;
        if (!k->r_hit) {
            /* No prefetch: fetch on demand, then on_demand_miss. */
            k->h_time = nk_demand_fetch(k);
            k->pending = P_MISS;
            return NK_MISS;
        }
        nk_prefetch_hit(k);
    } else if (k->pending == P_MISS) {
        k->pending = P_NONE;
        nk_finish(k, k->e_core, k->e_block, k->e_t);
    }
    for (;;) {
        /* The reference's heap pops the minimum (clock, core). */
        core = -1;
        for (i = 0; i < k->tcores; i++)
            if (k->core[i].cursor < k->core[i].limit
                && (core < 0 || k->core[i].clock < k->core[core].clock))
                core = i;
        if (core < 0)
            return NK_DONE;
        code = nk_step(k, core);
        if (code != NK_DONE)
            return code;
    }
}
