/* The Lindley recursion and simqueue's event loop, in C99: serve runs all
 * six disciplines, each an order on the waiting jobs and a preemption rule.
 *
 * Each function repeats the Python function of the same name in
 * simqueue.py operation for operation: the same double-double updates in
 * the same order, completion before arrival on a tie, and the heap
 * ordered on (key, rl, index) as Python orders tuples.  Their outputs are
 * therefore bitwise those of the Python loops, provided every operation
 * rounds to double on its own: build with -ffp-contract=off (no fused
 * multiply-add) and never with -ffast-math or -Ofast.
 *
 * The caller allocates every array, outputs and scratch alike; nothing
 * here allocates, and scratch is touched only as deep as the queue gets.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "double operations must round to double one at a time"
#endif

/* job i with remaining work rh + rl, waiting on its key in serve's heap;
 * _kernels.JOB mirrors it */
typedef struct {
    double key, rh, rl;
    int64_t i;
} job;

/* the completion at (ch, cl) comes before an arrival at t */
static int done_by(double ch, double cl, double t)
{
    return ch < t || (ch == t && cl <= 0.0);
}

/* start work b at an exact arrival t */
static void start(double t, double b, double *ch, double *cl)
{
    double s = t + b;
    double bb = s - t;
    double lo = 0.0 + ((t - (s - bb)) + (b - bb));
    *ch = s + lo;
    *cl = lo - (*ch - s);
}

/* chain work (rh, rl) on at (ch, cl) */
static void chain(double rh, double rl, double *ch, double *cl)
{
    double s = *ch + rh;
    double bb = s - *ch;
    double lo = *cl + rl + ((*ch - (s - bb)) + (rh - bb));
    *ch = s + lo;
    *cl = lo - (*ch - s);
}

/* the work of the active job r left at an arrival t */
static void left(double ch, double cl, double t, job *r)
{
    double s = ch - t;
    double bb = s - ch;
    double lo = cl + ((ch - (s - bb)) - (t + bb));
    r->rh = s + lo;
    r->rl = lo - (r->rh - s);
}

void lindley_workload(const double *a, const double *b, int64_t n, double *w)
{
    double x = 0.0;
    if (n > 0)
        w[0] = 0.0;
    for (int64_t k = 1; k < n; k++) {
        x = x + b[k - 1] - a[k];
        if (x < 0.0)
            x = 0.0;
        w[k] = x;
    }
}

/* The orders of the waiting jobs in serve; simqueue uses the same codes. */
enum { FIFO, LIFO, SRPT, PRIO };

/* (key, rl, i) compared like a Python tuple */
static int before(const job *x, const job *y)
{
    if (x->key != y->key)
        return x->key < y->key;
    if (x->rl != y->rl)
        return x->rl < y->rl;
    return x->i < y->i;
}

/* put x at slot k of the heap, or above it where it sorts first */
static void sift_up(job *heap, int64_t k, job x)
{
    while (k > 0) {
        int64_t up = (k - 1) / 2;
        if (!before(&x, &heap[up]))
            break;
        heap[k] = heap[up];
        k = up;
    }
    heap[k] = x;
}

/* take the first job: its slot sinks to a leaf along the lesser children,
 * and the last job rises from there, as Python's heapq does */
static job heap_pop(job *heap, int64_t *size)
{
    job top = heap[0];
    int64_t k = 0, c, m = --*size;
    while ((c = 2 * k + 1) < m) {
        if (c + 1 < m && before(&heap[c + 1], &heap[c]))
            c++;
        heap[k] = heap[c];
        k = c;
    }
    sift_up(heap, k, heap[m]);
    return top;
}

/* The six disciplines: the waiting jobs in one heap on their key, which is
 * the index i under FIFO, -i under LIFO, the work left under SRPT and the
 * class, then the index, under PRIO.  A preemptive arrival displaces the
 * active job when its key sorts first.  The loop runs over the arrivals and
 * then one at +inf, which drains the system. */
void serve(const double *arrival, const double *service, const int8_t *cls,
           int64_t n, int order, int preemptive, double *first,
           double *depart, job *heap)
{
    int64_t size = 0;
    job active = {0.0, 0.0, 0.0, -1};
    double ch = 0.0, cl = 0.0;
    for (int64_t i = 0; i <= n; i++) {
        double t = i < n ? arrival[i] : INFINITY;
        while (active.i >= 0 && done_by(ch, cl, t)) {
            double now = ch + cl;
            depart[active.i] = now;
            if (size == 0) {
                active.i = -1;
                break;
            }
            active = heap_pop(heap, &size);
            if (first[active.i] != first[active.i])
                first[active.i] = now;
            chain(active.rh, active.rl, &ch, &cl);
        }
        if (i == n)
            break;
        double b = service[i];
        double key = order == SRPT ? b : order == LIFO ? -(double)i
                     : (double)(order == PRIO && cls[i] != 1 ? n + i : i);
        job fresh = {key, b, 0.0, i};
        if (active.i >= 0) {
            job held = active;
            if (preemptive) {
                left(ch, cl, t, &held);
                if (order == SRPT)
                    held.key = held.rh;
            }
            if (!preemptive || !before(&fresh, &held)) {
                sift_up(heap, size++, fresh);
                continue;
            }
            sift_up(heap, size++, held);
        }
        first[i] = t;
        start(t, b, &ch, &cl);
        active = fresh;
    }
}
