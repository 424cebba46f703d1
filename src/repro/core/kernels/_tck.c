/* Section 5.2's map-based intersection as the scalar loop the paper runs:
 * the transcription of core/kernels/rowwise.py, counter for counter.
 *
 * The entry takes the (task, U, L) triple as the three wire blobs the
 * blocks already are (core/blocks.py):
 *   [kind, fixed_residue, inner_residue, n_rows, n_cols, nnz, crc32]
 *   ++ indptr (n_rows + 1 words) ++ indices (nnz words),
 * and reads them in place.  The crc is the receiver's business
 * (Block.from_blob checks it on every arrival); this file checks shape.
 *
 * Per task row with work: one hash build of the row's U fragment into a
 * generation-stamped table (direct bitmask when `modified_hashing` and
 * the slots are pairwise distinct, else Fibonacci hash + linear probing),
 * reused by every task of the row; per task: the L column walked
 * backwards, breaking at the first id below the fragment's minimum when
 * `early_stop`.  Steps are counted the way hashing/hashmap.py counts
 * them: one per insert or lookup plus one per collision hop, a lookup
 * capped at cap + 1 rounds.  The table holds max(4, longest U row)
 * rounded up to a power of two (kernel_capacity + table_capacity) and is
 * allocated here.  Row visits are the nonempty task rows, or every row
 * when `doubly_sparse` is off.
 *
 * Every blob is checked before the loop reads it, so a malformed one
 * ends in a status code, never in an out-of-bounds read:
 *   0 ok; -1 a malformed blob (shorter than its header, a negative
 *   field, a header that disagrees with the length, an indptr that does
 *   not run monotonically from 0 to nnz) or task and U row counts that
 *   differ; -2 a task column is outside L; -3 the table allocation failed.
 *
 * Built on first use by compiled.py: cc -O2 -shared -fPIC.
 */
#include <stdint.h>
#include <stdlib.h>

#define FIB 0x9E3779B97F4A7C15ULL
enum { ROW_VISITS, TASKS, BUILDS, FAST_BUILDS, INS_FAST, INS_SLOW,
       PROBE_FAST, PROBE_SLOW, SKIPPED, TRIANGLES, N_OUT };
enum { HEADER = 7 };

typedef struct {
    int64_t n_rows, nnz;
    const int64_t *ptr, *idx;
} csr_t;

/* 1 when `blob` is a well-formed block of exactly `len` words. */
static int parse(const int64_t *blob, int64_t len, csr_t *m)
{
    if (len < HEADER) return 0;
    const int64_t n_rows = blob[3], n_cols = blob[4], nnz = blob[5];
    if (n_rows < 0 || n_cols < 0 || nnz < 0 || n_rows >= len || nnz >= len
        || HEADER + n_rows + 1 + nnz != len)
        return 0;
    m->n_rows = n_rows;
    m->nnz = nnz;
    m->ptr = blob + HEADER;
    m->idx = m->ptr + n_rows + 1;
    if (m->ptr[0] != 0 || m->ptr[n_rows] != nnz) return 0;
    for (int64_t r = 0; r < n_rows; r++)
        if (m->ptr[r + 1] < m->ptr[r]) return 0;
    return 1;
}

int64_t tck_count(
    const int64_t *t_blob, int64_t t_len,
    const int64_t *u_blob, int64_t u_len,
    const int64_t *l_blob, int64_t l_len,
    int64_t modified_hashing, int64_t early_stop, int64_t doubly_sparse,
    int64_t *out) /* N_OUT counters, zeroed */
{
    csr_t T, U, L;
    if (!parse(t_blob, t_len, &T) || !parse(u_blob, u_len, &U)
        || !parse(l_blob, l_len, &L) || T.n_rows != U.n_rows)
        return -1;
    for (int64_t k = 0; k < T.nnz; k++)
        if (T.idx[k] < 0 || T.idx[k] >= L.n_rows) return -2;

    int64_t longest = 4, cap = 4;
    for (int64_t r = 0; r < U.n_rows; r++)
        if (U.ptr[r + 1] - U.ptr[r] > longest) longest = U.ptr[r + 1] - U.ptr[r];
    while (cap < longest) cap <<= 1;
    int64_t *stamp = calloc(2 * (size_t)cap, sizeof *stamp);
    if (stamp == NULL) return -3;
    int64_t *keys = stamp + cap;
    const uint64_t mask = (uint64_t)cap - 1;
    const int shift = 64 - __builtin_ctzll((uint64_t)cap);
    int64_t gen = 0, live = 0;

    for (int64_t j = 0; j < T.n_rows; j++) {
        const int64_t t_lo = T.ptr[j], t_hi = T.ptr[j + 1];
        const int64_t u_lo = U.ptr[j], u_hi = U.ptr[j + 1];
        if (t_lo == t_hi) continue;
        live++;
        if (u_lo == u_hi) continue;

        int64_t ntasks = 0;
        for (int64_t t = t_lo; t < t_hi; t++)
            ntasks += L.ptr[T.idx[t] + 1] > L.ptr[T.idx[t]];
        if (ntasks == 0) continue;
        out[TASKS] += ntasks;

        const int64_t n = u_hi - u_lo;
        int fast = modified_hashing != 0;
        if (fast) { /* direct-mask attempt: abandoned at the first clash */
            gen++;
            for (int64_t k = u_lo; k < u_hi && fast; k++) {
                const uint64_t s = (uint64_t)U.idx[k] & mask;
                if (stamp[s] == gen) fast = 0;
                stamp[s] = gen;
                keys[s] = U.idx[k];
            }
        }
        if (!fast) {
            gen++;
            for (int64_t k = u_lo; k < u_hi; k++) {
                uint64_t s = ((uint64_t)U.idx[k] * FIB) >> shift;
                int64_t steps = 1;
                while (stamp[s] == gen) { s = (s + 1) & mask; steps++; }
                stamp[s] = gen;
                keys[s] = U.idx[k];
                out[INS_SLOW] += steps;
            }
        } else {
            out[INS_FAST] += n;
        }
        out[BUILDS]++;
        out[FAST_BUILDS] += fast;

        const int64_t u_min = U.idx[u_lo];
        for (int64_t t = t_lo; t < t_hi; t++) {
            const int64_t c = T.idx[t], l_lo = L.ptr[c];
            int64_t hits = 0;
            for (int64_t k = L.ptr[c + 1] - 1; k >= l_lo; k--) {
                const int64_t q = L.idx[k];
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
        }
    }
    out[ROW_VISITS] = doubly_sparse ? live : T.n_rows;
    free(stamp);
    return 0;
}
