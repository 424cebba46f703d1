/* Section 5.2's map-based intersection as the scalar loop the paper runs:
 * the transcription of core/kernels/rowwise.py, counter for counter.
 *
 * Per live task row: one hash build of the row's U fragment into a
 * generation-stamped table (direct bitmask when `modified_hashing` and
 * the slots are pairwise distinct, else Fibonacci hash + linear probing),
 * reused by every task of the row; per task: the L column walked
 * backwards, breaking at the first id below the fragment's minimum when
 * `early_stop`.  Steps are counted the way hashing/hashmap.py counts
 * them: one per insert or lookup plus one per collision hop, a lookup
 * capped at cap + 1 rounds.
 *
 * Every index is range-checked right before it is used, so a malformed
 * block ends in a status code, never in an out-of-bounds read:
 *   0 ok; -1 an indptr range is not 0 <= lo <= hi <= nnz (or a live row
 *   id is outside the block); -2 a task column is outside L; -3 a U row
 *   is longer than the table.
 *
 * Built on first use by compiled.py: cc -O2 -shared -fPIC.
 */
#include <stdint.h>

#define FIB 0x9E3779B97F4A7C15ULL
enum { TASKS, BUILDS, FAST_BUILDS, INS_FAST, INS_SLOW, PROBE_FAST,
       PROBE_SLOW, SKIPPED, TRIANGLES, N_OUT };

static int bad(int64_t lo, int64_t hi, int64_t nnz)
{
    return lo < 0 || hi < lo || hi > nnz;
}

int64_t tck_count(
    const int64_t *t_ptr, const int64_t *t_idx, int64_t n_rows, int64_t t_nnz,
    const int64_t *live, int64_t n_live, /* NULL: visit every row */
    const int64_t *u_ptr, const int64_t *u_idx, int64_t u_nnz,
    const int64_t *l_ptr, const int64_t *l_idx, int64_t l_rows, int64_t l_nnz,
    int64_t cap, int64_t modified_hashing, int64_t early_stop,
    int64_t *table,   /* 2 * cap words, zeroed: stamps, then keys */
    int64_t *support, /* t_nnz words to accumulate into, or NULL */
    int64_t *out)     /* N_OUT counters, zeroed */
{
    int64_t *stamp = table, *keys = table + cap;
    const uint64_t mask = (uint64_t)cap - 1;
    const int shift = 64 - __builtin_ctzll((uint64_t)cap);
    int64_t gen = 0;

    for (int64_t r = 0; r < (live ? n_live : n_rows); r++) {
        const int64_t j = live ? live[r] : r;
        if (j < 0 || j >= n_rows) return -1;
        const int64_t t_lo = t_ptr[j], t_hi = t_ptr[j + 1];
        const int64_t u_lo = u_ptr[j], u_hi = u_ptr[j + 1];
        if (bad(t_lo, t_hi, t_nnz) || bad(u_lo, u_hi, u_nnz)) return -1;
        if (t_lo == t_hi || u_lo == u_hi) continue;

        int64_t ntasks = 0;
        for (int64_t t = t_lo; t < t_hi; t++) {
            const int64_t c = t_idx[t];
            if (c < 0 || c >= l_rows) return -2;
            if (bad(l_ptr[c], l_ptr[c + 1], l_nnz)) return -1;
            ntasks += l_ptr[c + 1] > l_ptr[c];
        }
        if (ntasks == 0) continue;
        out[TASKS] += ntasks;

        const int64_t n = u_hi - u_lo;
        if (n > cap) return -3;
        int fast = modified_hashing != 0;
        if (fast) { /* direct-mask attempt: abandoned at the first clash */
            gen++;
            for (int64_t k = u_lo; k < u_hi && fast; k++) {
                const uint64_t s = (uint64_t)u_idx[k] & mask;
                if (stamp[s] == gen) fast = 0;
                stamp[s] = gen;
                keys[s] = u_idx[k];
            }
        }
        if (!fast) {
            gen++;
            for (int64_t k = u_lo; k < u_hi; k++) {
                uint64_t s = ((uint64_t)u_idx[k] * FIB) >> shift;
                int64_t steps = 1;
                while (stamp[s] == gen) { s = (s + 1) & mask; steps++; }
                stamp[s] = gen;
                keys[s] = u_idx[k];
                out[INS_SLOW] += steps;
            }
        } else {
            out[INS_FAST] += n;
        }
        out[BUILDS]++;
        out[FAST_BUILDS] += fast;

        const int64_t u_min = u_idx[u_lo];
        for (int64_t t = t_lo; t < t_hi; t++) {
            const int64_t c = t_idx[t], l_lo = l_ptr[c];
            int64_t hits = 0;
            for (int64_t k = l_ptr[c + 1] - 1; k >= l_lo; k--) {
                const int64_t q = l_idx[k];
                if (early_stop && q < u_min) { /* sorted: the rest is lower */
                    out[SKIPPED] += k - l_lo + 1;
                    break;
                }
                if (fast) {
                    const uint64_t s = (uint64_t)q & mask;
                    out[PROBE_FAST]++;
                    hits += (stamp[s] == gen) & (keys[s] == q);
                    continue;
                }
                uint64_t s = ((uint64_t)q * FIB) >> shift;
                for (int64_t round = 0; round <= cap; round++) {
                    out[PROBE_SLOW]++;
                    if (stamp[s] != gen) break;
                    if (keys[s] == q) { hits++; break; }
                    s = (s + 1) & mask;
                }
            }
            out[TRIANGLES] += hits;
            if (support) support[t] += hits;
        }
    }
    return 0;
}
