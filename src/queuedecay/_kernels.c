/* The Lindley recursion and the event loops of simqueue, in C99.
 *
 * Each function repeats the Python function of the same name in
 * simqueue.py operation for operation: the same double-double updates in
 * the same order, completion before arrival on a tie, and the SRPT heap
 * ordered on (rh, rl, index) as Python orders tuples.  Their outputs are
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

/* a job waiting with remaining work rh + rl; _kernels.JOB mirrors it */
typedef struct {
    double rh, rl;
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

/* the work of job i left at an arrival t */
static job left(double ch, double cl, double t, int64_t i)
{
    double s = ch - t;
    double bb = s - ch;
    double lo = cl + ((ch - (s - bb)) - (t + bb));
    job r;
    r.rh = s + lo;
    r.rl = lo - (r.rh - s);
    r.i = i;
    return r;
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

void fifo(const double *arrival, const double *service, int64_t n,
          double *first, double *depart)
{
    double ch = -INFINITY, cl = 0.0, now = 0.0;
    for (int64_t k = 0; k < n; k++) {
        double t = arrival[k];
        if (done_by(ch, cl, t)) {
            first[k] = t;
            start(t, service[k], &ch, &cl);
        } else {
            first[k] = now;
            chain(service[k], 0.0, &ch, &cl);
        }
        now = ch + cl;
        depart[k] = now;
    }
}

/* The loops below run over the arrivals and then one at +inf, which
 * drains the system. */

void lifo_pr(const double *arrival, const double *service, int64_t n,
             double *depart, job *stack)
{
    int64_t top = 0, active = -1;
    double ch = 0.0, cl = 0.0;
    for (int64_t i = 0; i <= n; i++) {
        double t = i < n ? arrival[i] : INFINITY;
        while (active >= 0 && done_by(ch, cl, t)) {
            depart[active] = ch + cl;
            if (top == 0) {
                active = -1;
                break;
            }
            job r = stack[--top];
            active = r.i;
            chain(r.rh, r.rl, &ch, &cl);
        }
        if (i == n)
            break;
        if (active >= 0)
            stack[top++] = left(ch, cl, t, active);
        start(t, service[i], &ch, &cl);
        active = i;
    }
}

/* (rh, rl, i) compared like a Python tuple */
static int before(const job *x, const job *y)
{
    if (x->rh != y->rh)
        return x->rh < y->rh;
    if (x->rl != y->rl)
        return x->rl < y->rl;
    return x->i < y->i;
}

static void heap_push(job *heap, int64_t *size, job x)
{
    int64_t k = (*size)++;
    while (k > 0) {
        int64_t up = (k - 1) / 2;
        if (!before(&x, &heap[up]))
            break;
        heap[k] = heap[up];
        k = up;
    }
    heap[k] = x;
}

static job heap_pop(job *heap, int64_t *size)
{
    job top = heap[0];
    job x = heap[--*size];
    int64_t k = 0, m = *size;
    for (;;) {
        int64_t c = 2 * k + 1;
        if (c >= m)
            break;
        if (c + 1 < m && before(&heap[c + 1], &heap[c]))
            c++;
        if (!before(&heap[c], &x))
            break;
        heap[k] = heap[c];
        k = c;
    }
    heap[k] = x;
    return top;
}

void srpt(const double *arrival, const double *service, int64_t n,
          int preemptive, double *first, double *depart, job *heap)
{
    int64_t size = 0, active = -1;
    double ch = 0.0, cl = 0.0;
    for (int64_t i = 0; i <= n; i++) {
        double t = i < n ? arrival[i] : INFINITY;
        while (active >= 0 && done_by(ch, cl, t)) {
            double now = ch + cl;
            depart[active] = now;
            if (size == 0) {
                active = -1;
                break;
            }
            job r = heap_pop(heap, &size);
            active = r.i;
            if (first[active] != first[active])
                first[active] = now;
            chain(r.rh, r.rl, &ch, &cl);
        }
        if (i == n)
            break;
        double b = service[i];
        job fresh = {b, 0.0, i};
        if (active >= 0) {
            if (!preemptive) {
                heap_push(heap, &size, fresh);
                continue;
            }
            job r = left(ch, cl, t, active);
            if (!(b < r.rh || (b == r.rh && r.rl > 0.0))) {
                heap_push(heap, &size, fresh);
                continue;
            }
            heap_push(heap, &size, r);
        }
        first[i] = t;
        start(t, b, &ch, &cl);
        active = i;
    }
}

/* A FIFO queue in jobs[head, tail).  It restarts at slot 1 whenever it
 * empties, so it walks no further than its longest nonempty stretch, and
 * slot 0 is free for the one job a preemption puts back at the head: a
 * class-2 job is active only when the preempted one before it has been
 * taken off the head again, so there is never a second. */
typedef struct {
    job *jobs;
    int64_t head, tail;
} queue;

static job take(queue *q)
{
    job r = q->jobs[q->head++];
    if (q->head == q->tail)
        q->head = q->tail = 1;
    return r;
}

void priority(const double *arrival, const double *service,
              const int8_t *cls, int64_t n, int preemptive, double *first,
              double *depart, job *scratch1, job *scratch2)
{
    queue q1 = {scratch1, 1, 1}, q2 = {scratch2, 1, 1};
    int64_t active = -1;
    double ch = 0.0, cl = 0.0;
    for (int64_t i = 0; i <= n; i++) {
        double t = i < n ? arrival[i] : INFINITY;
        while (active >= 0 && done_by(ch, cl, t)) {
            double now = ch + cl;
            depart[active] = now;
            job r;
            if (q1.head < q1.tail) {
                r = take(&q1);
            } else if (q2.head < q2.tail) {
                r = take(&q2);
            } else {
                active = -1;
                break;
            }
            active = r.i;
            if (first[active] != first[active])
                first[active] = now;
            chain(r.rh, r.rl, &ch, &cl);
        }
        if (i == n)
            break;
        double b = service[i];
        job fresh = {b, 0.0, i};
        if (active >= 0) {
            if (cls[i] != 1) {
                q2.jobs[q2.tail++] = fresh;
                continue;
            }
            if (!(preemptive && cls[active] == 2)) {
                q1.jobs[q1.tail++] = fresh;
                continue;
            }
            q2.jobs[--q2.head] = left(ch, cl, t, active);
        }
        first[i] = t;
        start(t, b, &ch, &cl);
        active = i;
    }
}
