/* Compiled event core: C implementations of the scheduler and the
 * network burst path — two kernels. The history recorder
 * (repro.core.history) and the delay models (repro.sim.delays) have no
 * compiled twin: a send draws its delay by calling delay_model.sample().
 *
 * The pure-Python modules (repro.sim.scheduler, repro.sim.network) are
 * the authoritative reference; everything here must be *bit-identical*
 * to them — same callback order, same rng stream, same counters, same
 * error messages. Cross-core digest property tests enforce that
 * (tests/accel/).
 *
 * Layout mirrors the pure modules:
 *   _Entry / TimerHandle / Scheduler   <- repro.sim.scheduler
 *   _ChannelState / _Burst / NetworkCore <- repro.sim.network
 * NetworkCore has two ways in, send() for one message and fanout() for
 * one per destination; both run network_send_one() per message.
 *
 * setup.py defines REPRO_CCORE_SHA256, the sha256 of this file, and the
 * module exports it as _SOURCE_SHA256 so repro._accel can refuse a build
 * left over from a different source.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

/* ------------------------------------------------------------------ */
/* Module-level state (single-phase module; no subinterpreter support) */
/* ------------------------------------------------------------------ */

static PyObject *g_sim_error;        /* repro.errors.SimulationError */
static PyObject *g_noop;             /* parked-entry callback */
static PyObject *g_message_type;     /* repro.core.messages.Message */
static PyObject *g_empty_tuple, *g_one;

/* interned strings */
static PyObject *s_app, *s_protocol, *s_system;
static PyObject *s_sample, *s_deliver;
static PyObject *s_open_unbatched;
static PyObject *s_sender, *s_seq, *s_payload, *s_next_seq;

static PyObject *ERR(void)
{
    /* SimulationError once installed; RuntimeError before that. */
    return g_sim_error ? g_sim_error : PyExc_RuntimeError;
}

static int
error_installed(void)
{
    if (g_sim_error == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "repro._accel._ccore is not initialised; import "
                        "repro._accel (which calls _install_error) first");
        return 0;
    }
    return 1;
}

/* ------------------------------------------------------------------ */
/* _Entry                                                             */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    double time;
    long long seq;
    PyObject *callback;
    char cancelled;
    char periodic;
    char finished;
} EntryObject;

static PyTypeObject Entry_Type;

#define Entry_CheckExact(op) Py_IS_TYPE((op), &Entry_Type)

static inline int
entry_lt(EntryObject *a, EntryObject *b)
{
    double ta = a->time, tb = b->time;
    return ta < tb || (ta == tb && a->seq < b->seq);
}

static int
Entry_init(EntryObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"time", "seq", "callback", "cancelled",
                             "periodic", "finished", NULL};
    double time;
    long long seq;
    PyObject *callback;
    int cancelled = 0, periodic = 0, finished = 0;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "dLO|ppp", kwlist,
                                     &time, &seq, &callback, &cancelled,
                                     &periodic, &finished))
        return -1;
    self->time = time;
    self->seq = seq;
    Py_XSETREF(self->callback, Py_NewRef(callback));
    self->cancelled = (char)cancelled;
    self->periodic = (char)periodic;
    self->finished = (char)finished;
    return 0;
}

static int
Entry_traverse(EntryObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->callback);
    return 0;
}

static int
Entry_clear(EntryObject *self)
{
    Py_CLEAR(self->callback);
    return 0;
}

static void
Entry_dealloc(EntryObject *self)
{
    PyObject_GC_UnTrack(self);
    Py_XDECREF(self->callback);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
Entry_richcompare(PyObject *a, PyObject *b, int op)
{
    if (op != Py_LT || !Entry_CheckExact(a) || !Entry_CheckExact(b))
        Py_RETURN_NOTIMPLEMENTED;
    if (entry_lt((EntryObject *)a, (EntryObject *)b))
        Py_RETURN_TRUE;
    Py_RETURN_FALSE;
}

static PyObject *
Entry_repr(EntryObject *self)
{
    char flags[8];
    char *p = flags;
    if (self->cancelled) *p++ = 'C';
    if (self->periodic)  *p++ = 'P';
    if (self->finished)  *p++ = 'F';
    *p = '\0';
    PyObject *t = PyFloat_FromDouble(self->time);
    if (t == NULL)
        return NULL;
    PyObject *r;
    if (flags[0])
        r = PyUnicode_FromFormat("_Entry(t=%S, seq=%lld, %s)", t,
                                 self->seq, flags);
    else
        r = PyUnicode_FromFormat("_Entry(t=%S, seq=%lld)", t, self->seq);
    Py_DECREF(t);
    return r;
}

static PyMemberDef Entry_members[] = {
    {"time", T_DOUBLE, offsetof(EntryObject, time), 0, NULL},
    {"seq", T_LONGLONG, offsetof(EntryObject, seq), 0, NULL},
    {"callback", T_OBJECT_EX, offsetof(EntryObject, callback), 0, NULL},
    {"cancelled", T_BOOL, offsetof(EntryObject, cancelled), 0, NULL},
    {"periodic", T_BOOL, offsetof(EntryObject, periodic), 0, NULL},
    {"finished", T_BOOL, offsetof(EntryObject, finished), 0, NULL},
    {NULL}
};

static PyTypeObject Entry_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._accel._ccore._Entry",
    .tp_basicsize = sizeof(EntryObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC |
                Py_TPFLAGS_BASETYPE,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Entry_init,
    .tp_dealloc = (destructor)Entry_dealloc,
    .tp_traverse = (traverseproc)Entry_traverse,
    .tp_clear = (inquiry)Entry_clear,
    .tp_richcompare = Entry_richcompare,
    .tp_repr = (reprfunc)Entry_repr,
    .tp_members = Entry_members,
    .tp_doc = "One queued callback, ordered by (time, seq).",
};

/* ------------------------------------------------------------------ */
/* Heap of _Entry objects (keys live in the C struct)                 */
/* ------------------------------------------------------------------ */

static void
heap_siftdown(PyObject *heap, Py_ssize_t startpos, Py_ssize_t pos)
{
    EntryObject *newitem = (EntryObject *)PyList_GET_ITEM(heap, pos);
    while (pos > startpos) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        EntryObject *parent =
            (EntryObject *)PyList_GET_ITEM(heap, parentpos);
        if (!entry_lt(newitem, parent))
            break;
        PyList_SET_ITEM(heap, pos, (PyObject *)parent);
        pos = parentpos;
    }
    PyList_SET_ITEM(heap, pos, (PyObject *)newitem);
}

static void
heap_siftup(PyObject *heap, Py_ssize_t pos)
{
    Py_ssize_t endpos = PyList_GET_SIZE(heap);
    Py_ssize_t startpos = pos;
    EntryObject *newitem = (EntryObject *)PyList_GET_ITEM(heap, pos);
    Py_ssize_t childpos = 2 * pos + 1;
    while (childpos < endpos) {
        Py_ssize_t rightpos = childpos + 1;
        if (rightpos < endpos &&
            !entry_lt((EntryObject *)PyList_GET_ITEM(heap, childpos),
                      (EntryObject *)PyList_GET_ITEM(heap, rightpos)))
            childpos = rightpos;
        PyList_SET_ITEM(heap, pos, PyList_GET_ITEM(heap, childpos));
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    PyList_SET_ITEM(heap, pos, (PyObject *)newitem);
    heap_siftdown(heap, startpos, pos);
}

static int
heap_push(PyObject *heap, PyObject *entry)
{
    if (PyList_Append(heap, entry) < 0)
        return -1;
    heap_siftdown(heap, 0, PyList_GET_SIZE(heap) - 1);
    return 0;
}

/* Returns a NEW reference; heap must be non-empty. */
static PyObject *
heap_pop(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *last = PyList_GET_ITEM(heap, n - 1);
    Py_INCREF(last);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(last);
        return NULL;
    }
    if (PyList_GET_SIZE(heap) > 0) {
        PyObject *ret = PyList_GET_ITEM(heap, 0);  /* ref moves to us */
        PyList_SET_ITEM(heap, 0, last);
        heap_siftup(heap, 0);
        return ret;
    }
    return last;
}

static void
heap_heapify(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    for (Py_ssize_t i = n / 2 - 1; i >= 0; i--)
        heap_siftup(heap, i);
}

/* ------------------------------------------------------------------ */
/* Scheduler                                                          */
/* ------------------------------------------------------------------ */

#define MIN_COMPACT_SIZE 32

typedef struct {
    PyObject_HEAD
    PyObject *queue;         /* list of EntryObject* (heap order) */
    long long seq;
    long long last_seq;
    long long processed;
    double now;
    Py_ssize_t pending;
    Py_ssize_t pending_nonperiodic;
    Py_ssize_t cancelled_in_heap;
    char stop_requested;
} SchedulerObject;

static PyTypeObject Scheduler_Type;

#define Scheduler_Check(op) PyObject_TypeCheck((op), &Scheduler_Type)

/* A queue-ready entry (what the pure core builds with _Entry(...)). */
static EntryObject *
scheduler_new_entry(double time, long long seq, PyObject *callback,
                    int periodic)
{
    EntryObject *e =
        (EntryObject *)Entry_Type.tp_alloc(&Entry_Type, 0);
    if (e == NULL)
        return NULL;
    e->time = time;
    e->seq = seq;
    e->callback = Py_NewRef(callback);
    e->cancelled = 0;
    e->periodic = (char)periodic;
    e->finished = 0;
    return e;
}

static int
Scheduler_init(SchedulerObject *self, PyObject *args, PyObject *kwds)
{
    if (!error_installed())
        return -1;
    if ((args && PyTuple_GET_SIZE(args)) || (kwds && PyDict_GET_SIZE(kwds))) {
        PyErr_SetString(PyExc_TypeError, "Scheduler() takes no arguments");
        return -1;
    }
    Py_XSETREF(self->queue, PyList_New(0));
    if (self->queue == NULL)
        return -1;
    self->seq = 0;
    self->now = 0.0;
    self->processed = 0;
    self->pending = 0;
    self->pending_nonperiodic = 0;
    self->cancelled_in_heap = 0;
    self->last_seq = -1;
    self->stop_requested = 0;
    return 0;
}

static int
Scheduler_traverse(SchedulerObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->queue);
    return 0;
}

static int
Scheduler_clear_refs(SchedulerObject *self)
{
    Py_CLEAR(self->queue);
    return 0;
}

static void
Scheduler_dealloc(SchedulerObject *self)
{
    PyObject_GC_UnTrack(self);
    Scheduler_clear_refs(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
scheduler_compact(SchedulerObject *self)
{
    PyObject *queue = self->queue;
    Py_ssize_t n = PyList_GET_SIZE(queue);
    PyObject *kept = PyList_New(0);
    if (kept == NULL)
        return -1;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *item = PyList_GET_ITEM(queue, i);
        if (!((EntryObject *)item)->cancelled &&
            PyList_Append(kept, item) < 0) {
            Py_DECREF(kept);
            return -1;
        }
    }
    /* In place: run loops hold the list in a local binding. */
    int r = PyList_SetSlice(queue, 0, PyList_GET_SIZE(queue), kept);
    Py_DECREF(kept);
    if (r < 0)
        return -1;
    heap_heapify(queue);
    self->cancelled_in_heap = 0;
    return 0;
}

/* Accounting for a first-time cancellation (TimerHandle.cancel). */
static int
scheduler_on_cancel(SchedulerObject *self, EntryObject *entry)
{
    self->pending -= 1;
    if (!entry->periodic)
        self->pending_nonperiodic -= 1;
    self->cancelled_in_heap += 1;
    Py_ssize_t qn = PyList_GET_SIZE(self->queue);
    if (qn >= MIN_COMPACT_SIZE && self->cancelled_in_heap * 2 > qn)
        return scheduler_compact(self);
    return 0;
}

/* Shared tail of schedule_at/schedule_callback_at/reschedule_interrupted:
 * build the entry, push, bump the pending counters. */
static int
scheduler_push_new(SchedulerObject *self, double time, long long seq,
                   PyObject *callback, int periodic)
{
    EntryObject *entry = scheduler_new_entry(time, seq, callback, periodic);
    if (entry == NULL)
        return -1;
    int r = heap_push(self->queue, (PyObject *)entry);
    Py_DECREF(entry);
    if (r < 0)
        return -1;
    self->pending += 1;
    if (!periodic)
        self->pending_nonperiodic += 1;
    return 0;
}

/* Raise SimulationError "...: {time} < now {now}" with the *original*
 * time object (pure formats the int a caller passed, not float(time)). */
static void
raise_past(const char *what, PyObject *time_obj, double now)
{
    PyObject *now_f = PyFloat_FromDouble(now);
    if (now_f == NULL)
        return;
    PyErr_Format(ERR(), "cannot %s into the past: %S < now %S",
                 what, time_obj, now_f);
    Py_DECREF(now_f);
}

/* ------------------------------------------------------------------ */
/* TimerHandle                                                        */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject *entry;      /* EntryObject */
    PyObject *scheduler;  /* SchedulerObject */
} TimerHandleObject;

static PyTypeObject TimerHandle_Type;

static int
TimerHandle_init(TimerHandleObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"entry", "scheduler", NULL};
    PyObject *entry, *scheduler;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!O!", kwlist,
                                     &Entry_Type, &entry,
                                     &Scheduler_Type, &scheduler))
        return -1;
    Py_XSETREF(self->entry, Py_NewRef(entry));
    Py_XSETREF(self->scheduler, Py_NewRef(scheduler));
    return 0;
}

static int
TimerHandle_traverse(TimerHandleObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->entry);
    Py_VISIT(self->scheduler);
    return 0;
}

static int
TimerHandle_clear(TimerHandleObject *self)
{
    Py_CLEAR(self->entry);
    Py_CLEAR(self->scheduler);
    return 0;
}

static void
TimerHandle_dealloc(TimerHandleObject *self)
{
    PyObject_GC_UnTrack(self);
    TimerHandle_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
TimerHandle_cancel(TimerHandleObject *self, PyObject *noarg)
{
    EntryObject *entry = (EntryObject *)self->entry;
    if (entry->cancelled)
        Py_RETURN_NONE;
    entry->cancelled = 1;
    if (!entry->finished &&
        scheduler_on_cancel((SchedulerObject *)self->scheduler, entry) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
TimerHandle_get_cancelled(TimerHandleObject *self, void *closure)
{
    return PyBool_FromLong(((EntryObject *)self->entry)->cancelled);
}

static PyObject *
TimerHandle_get_active(TimerHandleObject *self, void *closure)
{
    EntryObject *entry = (EntryObject *)self->entry;
    return PyBool_FromLong(!entry->cancelled && !entry->finished);
}

static PyObject *
TimerHandle_get_when(TimerHandleObject *self, void *closure)
{
    return PyFloat_FromDouble(((EntryObject *)self->entry)->time);
}

static PyMethodDef TimerHandle_methods[] = {
    {"cancel", (PyCFunction)TimerHandle_cancel, METH_NOARGS,
     "Prevent the callback from running (idempotent)."},
    {NULL}
};

static PyGetSetDef TimerHandle_getset[] = {
    {"cancelled", (getter)TimerHandle_get_cancelled, NULL, NULL, NULL},
    {"active", (getter)TimerHandle_get_active, NULL, NULL, NULL},
    {"when", (getter)TimerHandle_get_when, NULL, NULL, NULL},
    {NULL}
};

static PyMemberDef TimerHandle_members[] = {
    {"_entry", T_OBJECT_EX, offsetof(TimerHandleObject, entry), READONLY,
     NULL},
    {"_scheduler", T_OBJECT_EX, offsetof(TimerHandleObject, scheduler),
     READONLY, NULL},
    {NULL}
};

static PyTypeObject TimerHandle_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._accel._ccore.TimerHandle",
    .tp_basicsize = sizeof(TimerHandleObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC |
                Py_TPFLAGS_BASETYPE,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)TimerHandle_init,
    .tp_dealloc = (destructor)TimerHandle_dealloc,
    .tp_traverse = (traverseproc)TimerHandle_traverse,
    .tp_clear = (inquiry)TimerHandle_clear,
    .tp_methods = TimerHandle_methods,
    .tp_getset = TimerHandle_getset,
    .tp_members = TimerHandle_members,
    .tp_doc = "Cancellation handle for a scheduled callback.",
};

/* ------------------------------------------------------------------ */
/* Scheduler methods                                                  */
/* ------------------------------------------------------------------ */

static PyObject *
make_handle(EntryObject *entry, SchedulerObject *scheduler)
{
    TimerHandleObject *h = (TimerHandleObject *)
        TimerHandle_Type.tp_alloc(&TimerHandle_Type, 0);
    if (h == NULL)
        return NULL;
    h->entry = Py_NewRef((PyObject *)entry);
    h->scheduler = Py_NewRef((PyObject *)scheduler);
    return (PyObject *)h;
}

static PyObject *
Scheduler_schedule_at(SchedulerObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"time", "callback", "periodic", NULL};
    PyObject *time_obj, *callback, *periodic_obj = Py_False;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO|O", kwlist,
                                     &time_obj, &callback, &periodic_obj))
        return NULL;
    double time = PyFloat_AsDouble(time_obj);
    if (time == -1.0 && PyErr_Occurred())
        return NULL;
    int periodic = PyObject_IsTrue(periodic_obj);
    if (periodic < 0)
        return NULL;
    if (time < self->now) {
        raise_past("schedule", time_obj, self->now);
        return NULL;
    }
    long long seq = self->seq;
    self->seq = seq + 1;
    self->last_seq = seq;
    EntryObject *entry = scheduler_new_entry(time, seq, callback, periodic);
    if (entry == NULL)
        return NULL;
    if (heap_push(self->queue, (PyObject *)entry) < 0) {
        Py_DECREF(entry);
        return NULL;
    }
    self->pending += 1;
    if (!periodic)
        self->pending_nonperiodic += 1;
    PyObject *handle = make_handle(entry, self);
    Py_DECREF(entry);
    return handle;
}

static PyObject *
Scheduler_schedule(SchedulerObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"delay", "callback", "periodic", NULL};
    PyObject *delay_obj, *callback, *periodic_obj = Py_False;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO|O", kwlist,
                                     &delay_obj, &callback, &periodic_obj))
        return NULL;
    double delay = PyFloat_AsDouble(delay_obj);
    if (delay == -1.0 && PyErr_Occurred())
        return NULL;
    if (delay < 0) {
        PyErr_Format(ERR(), "negative delay %S", delay_obj);
        return NULL;
    }
    int periodic = PyObject_IsTrue(periodic_obj);
    if (periodic < 0)
        return NULL;
    double time = self->now + delay;
    /* time >= now by construction; no past check needed */
    long long seq = self->seq;
    self->seq = seq + 1;
    self->last_seq = seq;
    EntryObject *entry = scheduler_new_entry(time, seq, callback, periodic);
    if (entry == NULL)
        return NULL;
    if (heap_push(self->queue, (PyObject *)entry) < 0) {
        Py_DECREF(entry);
        return NULL;
    }
    self->pending += 1;
    if (!periodic)
        self->pending_nonperiodic += 1;
    PyObject *handle = make_handle(entry, self);
    Py_DECREF(entry);
    return handle;
}

static PyObject *
Scheduler_schedule_callback_at(SchedulerObject *self, PyObject *args,
                               PyObject *kwds)
{
    static char *kwlist[] = {"time", "callback", "periodic", NULL};
    PyObject *time_obj, *callback, *periodic_obj = Py_False;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO|O", kwlist,
                                     &time_obj, &callback, &periodic_obj))
        return NULL;
    double time = PyFloat_AsDouble(time_obj);
    if (time == -1.0 && PyErr_Occurred())
        return NULL;
    int periodic = PyObject_IsTrue(periodic_obj);
    if (periodic < 0)
        return NULL;
    if (time < self->now) {
        raise_past("schedule", time_obj, self->now);
        return NULL;
    }
    long long seq = self->seq;
    self->seq = seq + 1;
    self->last_seq = seq;
    if (scheduler_push_new(self, time, seq, callback, periodic) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Scheduler_reschedule_interrupted(SchedulerObject *self, PyObject *args,
                                 PyObject *kwds)
{
    static char *kwlist[] = {"time", "seq", "callback", "periodic", NULL};
    PyObject *time_obj, *callback, *periodic_obj = Py_False;
    long long seq;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OLO|O", kwlist,
                                     &time_obj, &seq, &callback,
                                     &periodic_obj))
        return NULL;
    double time = PyFloat_AsDouble(time_obj);
    if (time == -1.0 && PyErr_Occurred())
        return NULL;
    int periodic = PyObject_IsTrue(periodic_obj);
    if (periodic < 0)
        return NULL;
    if (time < self->now) {
        raise_past("reschedule", time_obj, self->now);
        return NULL;
    }
    /* last_seq deliberately not advanced (burst-resume contract). */
    if (scheduler_push_new(self, time, seq, callback, periodic) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* reschedule_interrupted for the C burst-resume path (no arg objects). */
static int
scheduler_resched_c(SchedulerObject *self, double time, long long seq,
                    PyObject *callback, int periodic)
{
    if (time < self->now) {
        PyObject *t = PyFloat_FromDouble(time);
        if (t != NULL) {
            raise_past("reschedule", t, self->now);
            Py_DECREF(t);
        }
        return -1;
    }
    return scheduler_push_new(self, time, seq, callback, periodic);
}

static PyObject *
Scheduler_step(SchedulerObject *self, PyObject *noarg)
{
    PyObject *queue = self->queue;
    Py_INCREF(queue);
    while (PyList_GET_SIZE(queue) > 0) {
        PyObject *eobj = heap_pop(queue);
        if (eobj == NULL)
            goto error;
        EntryObject *entry = (EntryObject *)eobj;
        if (entry->cancelled) {
            self->cancelled_in_heap -= 1;
            Py_DECREF(eobj);
            continue;
        }
        entry->finished = 1;
        self->pending -= 1;
        if (!entry->periodic)
            self->pending_nonperiodic -= 1;
        self->now = entry->time;
        self->processed += 1;
        PyObject *res = PyObject_CallNoArgs(entry->callback);
        Py_DECREF(eobj);
        if (res == NULL)
            goto error;
        Py_DECREF(res);
        Py_DECREF(queue);
        Py_RETURN_TRUE;
    }
    Py_DECREF(queue);
    Py_RETURN_FALSE;
error:
    Py_DECREF(queue);
    return NULL;
}

static PyObject *
Scheduler_run(SchedulerObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"until", "max_events", NULL};
    PyObject *until_obj = Py_None, *max_obj = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|OO", kwlist,
                                     &until_obj, &max_obj))
        return NULL;
    int has_until = until_obj != Py_None;
    double until = 0.0;
    if (has_until) {
        until = PyFloat_AsDouble(until_obj);
        if (until == -1.0 && PyErr_Occurred())
            return NULL;
    }
    int has_max = max_obj != Py_None;
    long long max_events = 0;
    if (has_max) {
        int overflow = 0;
        max_events = PyLong_AsLongLongAndOverflow(max_obj, &overflow);
        if (max_events == -1 && !overflow && PyErr_Occurred())
            return NULL;
        if (overflow > 0)
            max_events = LLONG_MAX;
        else if (overflow < 0)
            max_events = LLONG_MIN;
    }
    long long executed = 0;
    PyObject *queue = self->queue;  /* compact mutates in place */
    Py_INCREF(queue);
    while (PyList_GET_SIZE(queue) > 0) {
        if (self->stop_requested)
            break;
        if (has_max && executed >= max_events)
            break;
        EntryObject *head = (EntryObject *)PyList_GET_ITEM(queue, 0);
        if (head->cancelled) {
            PyObject *popped = heap_pop(queue);
            if (popped == NULL)
                goto error;
            Py_DECREF(popped);
            self->cancelled_in_heap -= 1;
            continue;
        }
        double time = head->time;
        if (has_until && time > until) {
            if (until > self->now)
                self->now = until;
            break;
        }
        PyObject *eobj = heap_pop(queue);
        if (eobj == NULL)
            goto error;
        EntryObject *entry = (EntryObject *)eobj;
        entry->finished = 1;
        self->pending -= 1;
        if (!entry->periodic)
            self->pending_nonperiodic -= 1;
        self->now = time;
        self->processed += 1;
        PyObject *res = PyObject_CallNoArgs(entry->callback);
        Py_DECREF(eobj);
        if (res == NULL)
            goto error;
        Py_DECREF(res);
        executed += 1;
    }
    Py_DECREF(queue);
    return PyLong_FromLongLong(executed);
error:
    Py_DECREF(queue);
    return NULL;
}

static PyObject *
Scheduler_run_to_quiescence(SchedulerObject *self, PyObject *args,
                            PyObject *kwds)
{
    static char *kwlist[] = {"max_events", "ignore_periodic", NULL};
    PyObject *max_obj = NULL;
    int ignore_periodic = 1;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|Op", kwlist,
                                     &max_obj, &ignore_periodic))
        return NULL;
    long long max_events = 1000000;
    if (max_obj != NULL) {
        int overflow = 0;
        max_events = PyLong_AsLongLongAndOverflow(max_obj, &overflow);
        if (max_events == -1 && !overflow && PyErr_Occurred())
            return NULL;
        if (overflow > 0)
            max_events = LLONG_MAX;
        else if (overflow < 0)
            max_events = LLONG_MIN;
    }
    long long executed = 0;
    PyObject *queue = self->queue;
    Py_INCREF(queue);
    for (;;) {
        if (self->stop_requested)
            break;
        Py_ssize_t remaining =
            ignore_periodic ? self->pending_nonperiodic : self->pending;
        if (remaining == 0)
            break;
        if (executed >= max_events) {
            if (max_obj != NULL)
                PyErr_Format(ERR(),
                             "no quiescence after %S events; likely a "
                             "livelock in the system under test", max_obj);
            else
                PyErr_Format(ERR(),
                             "no quiescence after %lld events; likely a "
                             "livelock in the system under test",
                             max_events);
            goto error;
        }
        EntryObject *entry = NULL;
        PyObject *eobj = NULL;
        while (PyList_GET_SIZE(queue) > 0) {
            PyObject *popped = heap_pop(queue);
            if (popped == NULL)
                goto error;
            if (((EntryObject *)popped)->cancelled) {
                self->cancelled_in_heap -= 1;
                Py_DECREF(popped);
                continue;
            }
            eobj = popped;
            entry = (EntryObject *)popped;
            break;
        }
        if (entry == NULL)
            break;
        entry->finished = 1;
        self->pending -= 1;
        if (!entry->periodic)
            self->pending_nonperiodic -= 1;
        self->now = entry->time;
        self->processed += 1;
        PyObject *res = PyObject_CallNoArgs(entry->callback);
        Py_DECREF(eobj);
        if (res == NULL)
            goto error;
        Py_DECREF(res);
        executed += 1;
    }
    Py_DECREF(queue);
    return PyLong_FromLongLong(executed);
error:
    Py_DECREF(queue);
    return NULL;
}

static PyObject *
Scheduler__on_cancel(SchedulerObject *self, PyObject *entry)
{
    if (!Entry_CheckExact(entry)) {
        PyErr_SetString(PyExc_TypeError, "_on_cancel expects an _Entry");
        return NULL;
    }
    if (scheduler_on_cancel(self, (EntryObject *)entry) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Scheduler__compact(SchedulerObject *self, PyObject *noarg)
{
    if (scheduler_compact(self) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Scheduler_request_stop(SchedulerObject *self, PyObject *noarg)
{
    self->stop_requested = 1;
    Py_RETURN_NONE;
}

static PyObject *
Scheduler_clear_stop(SchedulerObject *self, PyObject *noarg)
{
    self->stop_requested = 0;
    Py_RETURN_NONE;
}

static PyObject *
Scheduler_pending_nonperiodic(SchedulerObject *self, PyObject *noarg)
{
    return PyLong_FromSsize_t(self->pending_nonperiodic);
}

static PyObject *
Scheduler_clear_queue(SchedulerObject *self, PyObject *noarg)
{
    PyObject *queue = self->queue;
    Py_ssize_t n = PyList_GET_SIZE(queue);
    for (Py_ssize_t i = 0; i < n; i++) {
        EntryObject *entry = (EntryObject *)PyList_GET_ITEM(queue, i);
        Py_XSETREF(entry->callback, Py_NewRef(g_noop));
    }
    if (PyList_SetSlice(queue, 0, PyList_GET_SIZE(queue), NULL) < 0)
        return NULL;
    self->pending = 0;
    self->pending_nonperiodic = 0;
    self->cancelled_in_heap = 0;
    Py_RETURN_NONE;
}

static PyObject *
Scheduler_get_now(SchedulerObject *self, void *closure)
{
    return PyFloat_FromDouble(self->now);
}

static PyObject *
Scheduler_get_processed(SchedulerObject *self, void *closure)
{
    return PyLong_FromLongLong(self->processed);
}

static PyObject *
Scheduler_get_pending(SchedulerObject *self, void *closure)
{
    return PyLong_FromSsize_t(self->pending);
}

static PyObject *
Scheduler_get_last_seq(SchedulerObject *self, void *closure)
{
    return PyLong_FromLongLong(self->last_seq);
}

static PyObject *
Scheduler_get_stop_requested(SchedulerObject *self, void *closure)
{
    return PyBool_FromLong(self->stop_requested);
}

static PyMethodDef Scheduler_methods[] = {
    {"schedule", (PyCFunction)Scheduler_schedule,
     METH_VARARGS | METH_KEYWORDS,
     "Run callback after delay units of virtual time."},
    {"schedule_at", (PyCFunction)Scheduler_schedule_at,
     METH_VARARGS | METH_KEYWORDS,
     "Run callback at absolute virtual time (>= now)."},
    {"schedule_callback_at", (PyCFunction)Scheduler_schedule_callback_at,
     METH_VARARGS | METH_KEYWORDS,
     "schedule_at without materialising a TimerHandle."},
    {"reschedule_interrupted",
     (PyCFunction)Scheduler_reschedule_interrupted,
     METH_VARARGS | METH_KEYWORDS,
     "Requeue interrupted work at its original (time, seq) priority."},
    {"step", (PyCFunction)Scheduler_step, METH_NOARGS,
     "Execute the next callback; False when nothing is queued."},
    {"run", (PyCFunction)Scheduler_run, METH_VARARGS | METH_KEYWORDS,
     "Process queued callbacks in order."},
    {"run_to_quiescence", (PyCFunction)Scheduler_run_to_quiescence,
     METH_VARARGS | METH_KEYWORDS,
     "Run until no (non-periodic) work remains."},
    {"request_stop", (PyCFunction)Scheduler_request_stop, METH_NOARGS,
     "Halt run/run_to_quiescence before the next step."},
    {"clear_stop", (PyCFunction)Scheduler_clear_stop, METH_NOARGS,
     "Re-arm a scheduler halted by request_stop."},
    {"pending_nonperiodic", (PyCFunction)Scheduler_pending_nonperiodic,
     METH_NOARGS, "Queued, uncancelled, non-periodic callbacks (O(1))."},
    {"clear_queue", (PyCFunction)Scheduler_clear_queue, METH_NOARGS,
     "Drop every queued callback (end-of-life cycle breaking)."},
    {"_on_cancel", (PyCFunction)Scheduler__on_cancel, METH_O, NULL},
    {"_compact", (PyCFunction)Scheduler__compact, METH_NOARGS, NULL},
    {NULL}
};

static PyGetSetDef Scheduler_getset[] = {
    {"now", (getter)Scheduler_get_now, NULL, "Current virtual time.",
     NULL},
    {"processed", (getter)Scheduler_get_processed, NULL,
     "Number of callbacks executed so far.", NULL},
    {"pending", (getter)Scheduler_get_pending, NULL,
     "Number of queued, uncancelled callbacks (O(1)).", NULL},
    {"last_scheduled_seq", (getter)Scheduler_get_last_seq, NULL,
     "Sequence number of the most recently scheduled entry.", NULL},
    {"stop_requested", (getter)Scheduler_get_stop_requested, NULL,
     "Whether a mid-run halt has been requested.", NULL},
    {NULL}
};

static PyMemberDef Scheduler_members[] = {
    {"_queue", T_OBJECT_EX, offsetof(SchedulerObject, queue), READONLY,
     NULL},
    {"_seq", T_LONGLONG, offsetof(SchedulerObject, seq), 0, NULL},
    {"_last_seq", T_LONGLONG, offsetof(SchedulerObject, last_seq), 0,
     NULL},
    {"_processed", T_LONGLONG, offsetof(SchedulerObject, processed), 0,
     NULL},
    {"_now", T_DOUBLE, offsetof(SchedulerObject, now), 0, NULL},
    {"_pending", T_PYSSIZET, offsetof(SchedulerObject, pending), 0, NULL},
    {"_pending_nonperiodic", T_PYSSIZET,
     offsetof(SchedulerObject, pending_nonperiodic), 0, NULL},
    {"_cancelled_in_heap", T_PYSSIZET,
     offsetof(SchedulerObject, cancelled_in_heap), 0, NULL},
    {"_stop_requested", T_BOOL,
     offsetof(SchedulerObject, stop_requested), 0, NULL},
    {NULL}
};

static PyTypeObject Scheduler_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._accel._ccore.Scheduler",
    .tp_basicsize = sizeof(SchedulerObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC |
                Py_TPFLAGS_BASETYPE,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Scheduler_init,
    .tp_dealloc = (destructor)Scheduler_dealloc,
    .tp_traverse = (traverseproc)Scheduler_traverse,
    .tp_clear = (inquiry)Scheduler_clear_refs,
    .tp_methods = Scheduler_methods,
    .tp_getset = Scheduler_getset,
    .tp_members = Scheduler_members,
    .tp_doc = "A deterministic virtual-time event loop (compiled core).",
};

/* ------------------------------------------------------------------ */
/* _ChannelState                                                      */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    double clock;        /* earliest time the next delivery may occur */
    PyObject *held;      /* list of (msg, kind) tuples */
    char blocked;
    long long sent;
    long long delivered;
    PyObject *burst;     /* pending _Burst or None */
} ChannelStateObject;

static PyTypeObject ChannelState_Type;

static int
ChannelState_init(ChannelStateObject *self, PyObject *args, PyObject *kwds)
{
    if ((args && PyTuple_GET_SIZE(args)) || (kwds && PyDict_GET_SIZE(kwds))) {
        PyErr_SetString(PyExc_TypeError,
                        "_ChannelState() takes no arguments");
        return -1;
    }
    self->clock = 0.0;
    PyObject *held = PyList_New(0);
    if (held == NULL)
        return -1;
    Py_XSETREF(self->held, held);
    self->blocked = 0;
    self->sent = 0;
    self->delivered = 0;
    Py_XSETREF(self->burst, Py_NewRef(Py_None));
    return 0;
}

static int
ChannelState_traverse(ChannelStateObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->held);
    Py_VISIT(self->burst);
    return 0;
}

static int
ChannelState_clear(ChannelStateObject *self)
{
    Py_CLEAR(self->held);
    Py_CLEAR(self->burst);
    return 0;
}

static void
ChannelState_dealloc(ChannelStateObject *self)
{
    PyObject_GC_UnTrack(self);
    ChannelState_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMemberDef ChannelState_members[] = {
    {"clock", T_DOUBLE, offsetof(ChannelStateObject, clock), 0, NULL},
    {"held", T_OBJECT_EX, offsetof(ChannelStateObject, held), 0, NULL},
    {"blocked", T_BOOL, offsetof(ChannelStateObject, blocked), 0, NULL},
    {"sent", T_LONGLONG, offsetof(ChannelStateObject, sent), 0, NULL},
    {"delivered", T_LONGLONG, offsetof(ChannelStateObject, delivered), 0,
     NULL},
    {"burst", T_OBJECT, offsetof(ChannelStateObject, burst), 0, NULL},
    {NULL}
};

static PyTypeObject ChannelState_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._accel._ccore._ChannelState",
    .tp_basicsize = sizeof(ChannelStateObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC |
                Py_TPFLAGS_BASETYPE,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)ChannelState_init,
    .tp_dealloc = (destructor)ChannelState_dealloc,
    .tp_traverse = (traverseproc)ChannelState_traverse,
    .tp_clear = (inquiry)ChannelState_clear,
    .tp_members = ChannelState_members,
    .tp_doc = "Per-channel bookkeeping (compiled core).",
};

/* ------------------------------------------------------------------ */
/* NetworkCore struct (needed by _Burst.fire)                         */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject *scheduler;       /* SchedulerObject */
    Py_ssize_t n;
    PyObject *delay_model;
    PyObject *rng;
    PyObject *deliver_fn;      /* callable or None */
    char batch;
    PyObject *channels;        /* dict (src, dst) -> state */
    PyObject *flat;            /* list, src * n + dst -> state/None */
    PyObject *hold_predicates; /* list */
    long long sent_app, sent_protocol, sent_system;
    long long messages_delivered;
    long long delivery_entries;
    PyObject *targets;         /* list of processes or None */
} NetworkCoreObject;

static PyTypeObject NetworkCore_Type;

/* ------------------------------------------------------------------ */
/* _Burst                                                             */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject *network;  /* NetworkCoreObject */
    PyObject *state;    /* ChannelStateObject */
    long long src, dst;
    PyObject *msg;      /* Message */
    PyObject *kind;     /* str */
    PyObject *queue;    /* overflow list of (msg, kind) or None */
    Py_ssize_t qhead;   /* popleft position into queue */
    double due;
    char periodic;
    long long seq;
} BurstObject;

static PyTypeObject Burst_Type;

#define Burst_CheckExact(op) Py_IS_TYPE((op), &Burst_Type)

static int
Burst_init(BurstObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"network", "state", "src", "dst", "msg",
                             "kind", "due", "periodic", NULL};
    PyObject *network, *state, *msg, *kind;
    long long src, dst;
    double due;
    int periodic;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOLLOOdp", kwlist,
                                     &network, &state, &src, &dst, &msg,
                                     &kind, &due, &periodic))
        return -1;
    Py_XSETREF(self->network, Py_NewRef(network));
    Py_XSETREF(self->state, Py_NewRef(state));
    self->src = src;
    self->dst = dst;
    Py_XSETREF(self->msg, Py_NewRef(msg));
    Py_XSETREF(self->kind, Py_NewRef(kind));
    Py_CLEAR(self->queue);
    self->qhead = 0;
    self->due = due;
    self->periodic = (char)periodic;
    self->seq = -1;  /* filled right after the entry is scheduled */
    return 0;
}

static int
Burst_traverse(BurstObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->network);
    Py_VISIT(self->state);
    Py_VISIT(self->msg);
    Py_VISIT(self->kind);
    Py_VISIT(self->queue);
    return 0;
}

static int
Burst_clear(BurstObject *self)
{
    Py_CLEAR(self->network);
    Py_CLEAR(self->state);
    Py_CLEAR(self->msg);
    Py_CLEAR(self->kind);
    Py_CLEAR(self->queue);
    return 0;
}

static void
Burst_dealloc(BurstObject *self)
{
    PyObject_GC_UnTrack(self);
    Burst_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* Drain the burst in send order — the scheduled callback (tp_call). */
static PyObject *
burst_fire(BurstObject *self)
{
    /* Detach from channel state before draining (never rejoined). */
    ChannelStateObject *state = (ChannelStateObject *)self->state;
    if (state != NULL && (PyObject *)state != Py_None &&
        state->burst == (PyObject *)self)
        Py_SETREF(state->burst, Py_NewRef(Py_None));
    NetworkCoreObject *network = (NetworkCoreObject *)self->network;
    if (network == NULL || (PyObject *)network == Py_None) {
        PyErr_SetString(ERR(), "delivery burst has no network");
        return NULL;
    }
    long long src = self->src;
    PyObject *src_obj = PyLong_FromLongLong(src);
    if (src_obj == NULL)
        return NULL;
    PyObject *deliver = NULL;   /* bound targets[dst].deliver */
    PyObject *deliver_fn = NULL;
    PyObject *dst_obj = NULL;
    if (network->targets != NULL && network->targets != Py_None) {
        PyObject *proc = PySequence_GetItem(network->targets,
                                            (Py_ssize_t)self->dst);
        if (proc == NULL)
            goto error;
        deliver = PyObject_GetAttr(proc, s_deliver);
        Py_DECREF(proc);
        if (deliver == NULL)
            goto error;
    }
    else {
        deliver_fn = network->deliver_fn;
        if (deliver_fn == NULL || deliver_fn == Py_None) {
            PyErr_SetString(ERR(),
                            "network has no delivery callback installed");
            goto error;
        }
        Py_INCREF(deliver_fn);
        dst_obj = PyLong_FromLongLong(self->dst);
        if (dst_obj == NULL)
            goto error;
    }
    /* First message delivered unconditionally (progress before any stop
     * check, matching the per-message path). */
    {
        state->delivered += 1;
        network->messages_delivered += 1;
        PyObject *res;
        if (deliver != NULL)
            res = PyObject_CallFunctionObjArgs(
                deliver, src_obj, self->msg, self->kind, NULL);
        else
            res = PyObject_CallFunctionObjArgs(
                deliver_fn, src_obj, dst_obj, self->msg, self->kind, NULL);
        if (res == NULL)
            goto error;
        Py_DECREF(res);
    }
    PyObject *queue = self->queue;
    if (queue != NULL && self->qhead < PyList_GET_SIZE(queue)) {
        SchedulerObject *scheduler = (SchedulerObject *)network->scheduler;
        while (self->qhead < PyList_GET_SIZE(queue)) {
            if (scheduler->stop_requested) {
                /* Requeue the remainder at the burst entry's own
                 * (time, seq) priority — see the pure fire(). */
                PyObject *pair = PyList_GET_ITEM(queue, self->qhead);
                self->qhead += 1;
                Py_XSETREF(self->msg,
                           Py_NewRef(PyTuple_GET_ITEM(pair, 0)));
                Py_XSETREF(self->kind,
                           Py_NewRef(PyTuple_GET_ITEM(pair, 1)));
                network->delivery_entries += 1;
                if (scheduler_resched_c(scheduler, self->due, self->seq,
                                        (PyObject *)self,
                                        self->periodic) < 0)
                    goto error;
                Py_XDECREF(deliver);
                Py_XDECREF(deliver_fn);
                Py_XDECREF(dst_obj);
                Py_DECREF(src_obj);
                Py_RETURN_NONE;
            }
            PyObject *pair = PyList_GET_ITEM(queue, self->qhead);
            self->qhead += 1;
            PyObject *bmsg = Py_NewRef(PyTuple_GET_ITEM(pair, 0));
            PyObject *bkind = Py_NewRef(PyTuple_GET_ITEM(pair, 1));
            state->delivered += 1;
            network->messages_delivered += 1;
            PyObject *res;
            if (deliver != NULL)
                res = PyObject_CallFunctionObjArgs(
                    deliver, src_obj, bmsg, bkind, NULL);
            else
                res = PyObject_CallFunctionObjArgs(
                    deliver_fn, src_obj, dst_obj, bmsg, bkind, NULL);
            Py_DECREF(bmsg);
            Py_DECREF(bkind);
            if (res == NULL)
                goto error;
            Py_DECREF(res);
        }
    }
    Py_XDECREF(deliver);
    Py_XDECREF(deliver_fn);
    Py_XDECREF(dst_obj);
    Py_DECREF(src_obj);
    Py_RETURN_NONE;
error:
    Py_XDECREF(deliver);
    Py_XDECREF(deliver_fn);
    Py_XDECREF(dst_obj);
    Py_DECREF(src_obj);
    return NULL;
}

static PyObject *
Burst_call(BurstObject *self, PyObject *args, PyObject *kwds)
{
    if ((args && PyTuple_GET_SIZE(args)) || (kwds && PyDict_GET_SIZE(kwds))) {
        PyErr_SetString(PyExc_TypeError, "_Burst.fire() takes no arguments");
        return NULL;
    }
    return burst_fire(self);
}

static PyObject *
Burst_fire_method(BurstObject *self, PyObject *noarg)
{
    return burst_fire(self);
}

static PyMethodDef Burst_methods[] = {
    {"fire", (PyCFunction)Burst_fire_method, METH_NOARGS,
     "Drain the burst in send order (the scheduled callback)."},
    {NULL}
};

static PyMemberDef Burst_members[] = {
    {"network", T_OBJECT, offsetof(BurstObject, network), 0, NULL},
    {"state", T_OBJECT, offsetof(BurstObject, state), 0, NULL},
    {"src", T_LONGLONG, offsetof(BurstObject, src), 0, NULL},
    {"dst", T_LONGLONG, offsetof(BurstObject, dst), 0, NULL},
    {"msg", T_OBJECT, offsetof(BurstObject, msg), 0, NULL},
    {"kind", T_OBJECT, offsetof(BurstObject, kind), 0, NULL},
    {"queue", T_OBJECT, offsetof(BurstObject, queue), 0, NULL},
    {"due", T_DOUBLE, offsetof(BurstObject, due), 0, NULL},
    {"periodic", T_BOOL, offsetof(BurstObject, periodic), 0, NULL},
    {"seq", T_LONGLONG, offsetof(BurstObject, seq), 0, NULL},
    {NULL}
};

static PyTypeObject Burst_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._accel._ccore._Burst",
    .tp_basicsize = sizeof(BurstObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC |
                Py_TPFLAGS_BASETYPE,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Burst_init,
    .tp_dealloc = (destructor)Burst_dealloc,
    .tp_traverse = (traverseproc)Burst_traverse,
    .tp_clear = (inquiry)Burst_clear,
    .tp_call = (ternaryfunc)Burst_call,
    .tp_methods = Burst_methods,
    .tp_members = Burst_members,
    .tp_doc = "One scheduled delivery entry and the messages on it.",
};

/* ------------------------------------------------------------------ */
/* NetworkCore                                                        */
/* ------------------------------------------------------------------ */

static int
py_str_eq(PyObject *a, PyObject *b)
{
    if (a == b)
        return 1;
    if (PyUnicode_Check(a) && PyUnicode_Check(b))
        return PyUnicode_Compare(a, b) == 0 && !PyErr_Occurred();
    return 0;
}

/* 0=app, 1=protocol, 2=system, -1=unknown. */
static int
kind_index(PyObject *kind)
{
    if (kind == s_app)
        return 0;
    if (kind == s_protocol)
        return 1;
    if (kind == s_system)
        return 2;
    if (py_str_eq(kind, s_app))
        return 0;
    if (py_str_eq(kind, s_protocol))
        return 1;
    if (py_str_eq(kind, s_system))
        return 2;
    return -1;
}

static int
NetworkCore_init(NetworkCoreObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"scheduler", "n", "delay_model", "rng",
                             "deliver", "batch", NULL};
    PyObject *scheduler, *delay_model, *rng, *deliver;
    Py_ssize_t n;
    int batch;
    if (!error_installed())
        return -1;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OnOOOp", kwlist,
                                     &scheduler, &n, &delay_model, &rng,
                                     &deliver, &batch))
        return -1;
    if (!Scheduler_Check(scheduler)) {
        PyErr_SetString(PyExc_TypeError,
                        "NetworkCore requires a compiled Scheduler");
        return -1;
    }
    Py_XSETREF(self->scheduler, Py_NewRef(scheduler));
    self->n = n;
    Py_XSETREF(self->delay_model, Py_NewRef(delay_model));
    Py_XSETREF(self->rng, Py_NewRef(rng));
    Py_XSETREF(self->deliver_fn, Py_NewRef(deliver));
    self->batch = (char)batch;
    PyObject *channels = PyDict_New();
    if (channels == NULL)
        return -1;
    Py_XSETREF(self->channels, channels);
    PyObject *flat = PyList_New(n * n);
    if (flat == NULL)
        return -1;
    for (Py_ssize_t i = 0; i < n * n; i++)
        PyList_SET_ITEM(flat, i, Py_NewRef(Py_None));
    Py_XSETREF(self->flat, flat);
    PyObject *preds = PyList_New(0);
    if (preds == NULL)
        return -1;
    Py_XSETREF(self->hold_predicates, preds);
    self->sent_app = self->sent_protocol = self->sent_system = 0;
    self->messages_delivered = 0;
    self->delivery_entries = 0;
    Py_XSETREF(self->targets, Py_NewRef(Py_None));
    return 0;
}

static int
NetworkCore_traverse(NetworkCoreObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->scheduler);
    Py_VISIT(self->delay_model);
    Py_VISIT(self->rng);
    Py_VISIT(self->deliver_fn);
    Py_VISIT(self->channels);
    Py_VISIT(self->flat);
    Py_VISIT(self->hold_predicates);
    Py_VISIT(self->targets);
    return 0;
}

static int
NetworkCore_clear(NetworkCoreObject *self)
{
    Py_CLEAR(self->scheduler);
    Py_CLEAR(self->delay_model);
    Py_CLEAR(self->rng);
    Py_CLEAR(self->deliver_fn);
    Py_CLEAR(self->channels);
    Py_CLEAR(self->flat);
    Py_CLEAR(self->hold_predicates);
    Py_CLEAR(self->targets);
    return 0;
}

static void
NetworkCore_dealloc(NetworkCoreObject *self)
{
    PyObject_GC_UnTrack(self);
    NetworkCore_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* _state(src, dst): fetch-or-create, mirroring the pure inline form. */
static ChannelStateObject *
network_state(NetworkCoreObject *self, Py_ssize_t src, Py_ssize_t dst)
{
    Py_ssize_t idx = src * self->n + dst;
    PyObject *state = PyList_GET_ITEM(self->flat, idx);  /* borrowed */
    if (state != Py_None)
        return (ChannelStateObject *)state;
    ChannelStateObject *fresh = (ChannelStateObject *)
        ChannelState_Type.tp_alloc(&ChannelState_Type, 0);
    if (fresh == NULL)
        return NULL;
    fresh->clock = 0.0;
    fresh->held = PyList_New(0);
    if (fresh->held == NULL) {
        Py_DECREF(fresh);
        return NULL;
    }
    fresh->blocked = 0;
    fresh->sent = 0;
    fresh->delivered = 0;
    fresh->burst = Py_NewRef(Py_None);
    PyObject *key = Py_BuildValue("(nn)", src, dst);
    if (key == NULL) {
        Py_DECREF(fresh);
        return NULL;
    }
    int r = PyDict_SetItem(self->channels, key, (PyObject *)fresh);
    Py_DECREF(key);
    if (r < 0) {
        Py_DECREF(fresh);
        return NULL;
    }
    Py_INCREF(fresh);
    PyList_SetItem(self->flat, idx, (PyObject *)fresh);  /* steals */
    Py_DECREF(fresh);  /* flat + channels keep it alive: return borrowed */
    return fresh;
}

static int
network_matches_hold(NetworkCoreObject *self, Py_ssize_t src,
                     Py_ssize_t dst, PyObject *msg)
{
    PyObject *src_obj = PyLong_FromSsize_t(src);
    PyObject *dst_obj = src_obj ? PyLong_FromSsize_t(dst) : NULL;
    if (dst_obj == NULL) {
        Py_XDECREF(src_obj);
        return -1;
    }
    int hit = 0;
    PyObject *preds = self->hold_predicates;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(preds); i++) {
        PyObject *pred = PyList_GET_ITEM(preds, i);
        PyObject *res = PyObject_CallFunctionObjArgs(
            pred, src_obj, dst_obj, msg, NULL);
        if (res == NULL) {
            hit = -1;
            break;
        }
        int truth = PyObject_IsTrue(res);
        Py_DECREF(res);
        if (truth < 0) {
            hit = -1;
            break;
        }
        if (truth) {
            hit = 1;
            break;
        }
    }
    Py_DECREF(src_obj);
    Py_DECREF(dst_obj);
    return hit;
}

/* Open a fresh delivery entry (burst or single) at `due`.
 * Mirrors Network._open_delivery, including the inlined scheduler push
 * with the past-time guard dropped (due >= now by construction). */
static int
network_open_delivery(NetworkCoreObject *self, ChannelStateObject *state,
                      Py_ssize_t src, Py_ssize_t dst, PyObject *msg,
                      PyObject *kind, double due, int periodic)
{
    SchedulerObject *sched = (SchedulerObject *)self->scheduler;
    if (self->batch) {
        BurstObject *burst =
            (BurstObject *)Burst_Type.tp_alloc(&Burst_Type, 0);
        if (burst == NULL)
            return -1;
        burst->network = Py_NewRef((PyObject *)self);
        burst->state = Py_NewRef((PyObject *)state);
        burst->src = src;
        burst->dst = dst;
        burst->msg = Py_NewRef(msg);
        burst->kind = Py_NewRef(kind);
        burst->queue = NULL;
        burst->qhead = 0;
        burst->due = due;
        burst->periodic = (char)periodic;
        Py_XSETREF(state->burst, Py_NewRef((PyObject *)burst));
        self->delivery_entries += 1;
        long long seq = sched->seq;
        sched->seq = seq + 1;
        sched->last_seq = seq;
        burst->seq = seq;
        /* The burst object is the callback: it is callable (tp_call ->
         * fire), saving the bound-method allocation per entry. */
        EntryObject *entry =
            scheduler_new_entry(due, seq, (PyObject *)burst, periodic);
        if (entry == NULL) {
            Py_DECREF(burst);
            return -1;
        }
        int r = heap_push(sched->queue, (PyObject *)entry);
        Py_DECREF(entry);
        Py_DECREF(burst);
        if (r < 0)
            return -1;
        sched->pending += 1;
        if (!periodic)
            sched->pending_nonperiodic += 1;
        return 0;
    }
    /* Unbatched: delegate to the Python-level hook on the Network
     * subclass, which builds the per-message closure and books it via
     * schedule_callback_at (cold path by construction). */
    PyObject *src_obj = PyLong_FromSsize_t(src);
    PyObject *dst_obj = src_obj ? PyLong_FromSsize_t(dst) : NULL;
    PyObject *due_obj = dst_obj ? PyFloat_FromDouble(due) : NULL;
    if (due_obj == NULL) {
        Py_XDECREF(src_obj);
        Py_XDECREF(dst_obj);
        return -1;
    }
    PyObject *res = PyObject_CallMethodObjArgs(
        (PyObject *)self, s_open_unbatched, (PyObject *)state,
        src_obj, dst_obj, msg, kind, due_obj,
        periodic ? Py_True : Py_False, NULL);
    Py_DECREF(src_obj);
    Py_DECREF(dst_obj);
    Py_DECREF(due_obj);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* Shared tail of send/_schedule_delivery: draw the delay with
 * delay_model.sample(rng, src, dst), clamp the due time to the FIFO
 * channel clock, then join the channel's pending burst when provably
 * order-preserving (same due, same periodic class, burst entry still the
 * scheduler's most recent) or open a fresh delivery. */
static int
network_queue_delivery(NetworkCoreObject *self, ChannelStateObject *state,
                       Py_ssize_t src, Py_ssize_t dst, PyObject *msg,
                       PyObject *kind, int periodic)
{
    PyObject *src_obj = PyLong_FromSsize_t(src);
    PyObject *dst_obj = src_obj ? PyLong_FromSsize_t(dst) : NULL;
    if (dst_obj == NULL) {
        Py_XDECREF(src_obj);
        return -1;
    }
    PyObject *call_args[4] = {self->delay_model, self->rng, src_obj, dst_obj};
    PyObject *delay_obj = PyObject_VectorcallMethod(s_sample, call_args, 4,
                                                    NULL);
    Py_DECREF(src_obj);
    Py_DECREF(dst_obj);
    if (delay_obj == NULL)
        return -1;
    double delay = PyFloat_AsDouble(delay_obj);
    if (delay == -1.0 && PyErr_Occurred()) {
        Py_DECREF(delay_obj);
        return -1;
    }
    if (delay < 0) {
        PyErr_Format(ERR(), "delay model produced negative delay %S",
                     delay_obj);
        Py_DECREF(delay_obj);
        return -1;
    }
    Py_DECREF(delay_obj);
    SchedulerObject *sched = (SchedulerObject *)self->scheduler;
    double due = sched->now + delay;
    if (state->clock > due)
        due = state->clock;
    state->clock = due;
    PyObject *b = state->burst;
    if (self->batch && b != NULL && b != Py_None && Burst_CheckExact(b)) {
        BurstObject *burst = (BurstObject *)b;
        if (burst->due == due && burst->periodic == (char)periodic &&
            burst->seq == sched->last_seq) {
            PyObject *pair = PyTuple_Pack(2, msg, kind);
            if (pair == NULL)
                return -1;
            if (burst->queue == NULL) {
                burst->queue = PyList_New(0);
                if (burst->queue == NULL) {
                    Py_DECREF(pair);
                    return -1;
                }
            }
            int r = PyList_Append(burst->queue, pair);
            Py_DECREF(pair);
            return r;
        }
    }
    return network_open_delivery(self, state, src, dst, msg, kind, due,
                                 periodic);
}

/* The per-message send body, shared by send() and fanout(): universe /
 * delivery-callback / kind checks, per-channel and per-kind counters,
 * blocked-channel and hold-predicate test, then network_queue_delivery
 * (delay draw, FIFO clamp, burst join). Returns 0, or -1 with an
 * exception set and the message not accepted. */
static int
network_send_one(NetworkCoreObject *self, Py_ssize_t src, Py_ssize_t dst,
                 PyObject *msg, PyObject *kind)
{
    if (src < 0 || src >= self->n || dst < 0 || dst >= self->n) {
        PyErr_Format(ERR(), "send outside process universe: %zd->%zd",
                     src, dst);
        return -1;
    }
    if (self->deliver_fn == NULL || self->deliver_fn == Py_None) {
        PyErr_SetString(ERR(), "network has no delivery callback installed");
        return -1;
    }
    int kind_idx = kind_index(kind);
    if (kind_idx < 0) {
        PyErr_Format(ERR(), "unknown message kind %R", kind);
        return -1;
    }
    ChannelStateObject *state = network_state(self, src, dst);
    if (state == NULL)
        return -1;
    state->sent += 1;
    switch (kind_idx) {
    case 0: self->sent_app += 1; break;
    case 1: self->sent_protocol += 1; break;
    default: self->sent_system += 1; break;
    }
    int held = state->blocked;
    if (!held && self->hold_predicates != NULL &&
        PyList_GET_SIZE(self->hold_predicates) > 0) {
        held = network_matches_hold(self, src, dst, msg);
        if (held < 0)
            return -1;
    }
    if (held) {
        state->blocked = 1;
        PyObject *pair = PyTuple_Pack(2, msg, kind);
        if (pair == NULL)
            return -1;
        if (!PyList_Check(state->held)) {
            Py_DECREF(pair);
            PyErr_SetString(PyExc_TypeError, "channel held queue not a list");
            return -1;
        }
        int r = PyList_Append(state->held, pair);
        Py_DECREF(pair);
        return r;
    }
    return network_queue_delivery(self, state, src, dst, msg, kind,
                                  kind_idx == 2);
}

static PyObject *
NetworkCore_send(NetworkCoreObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"src", "dst", "msg", "kind", NULL};
    Py_ssize_t src, dst;
    PyObject *msg, *kind = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "nnO|O", kwlist,
                                     &src, &dst, &msg, &kind))
        return NULL;
    if (network_send_one(self, src, dst, msg, kind ? kind : s_app) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* Message(sender, seq, payload) without re-entering Python: allocate the
 * instance and fill its three slots through PyObject_GenericSetAttr —
 * what the frozen dataclass's generated __init__ does with
 * object.__setattr__ (Message defines no __post_init__). */
static PyObject *
mint_message(PyObject *sender, PyObject *seq, PyObject *payload)
{
    PyTypeObject *type = (PyTypeObject *)g_message_type;
    PyObject *msg = type->tp_new(type, g_empty_tuple, NULL);
    if (msg == NULL)
        return NULL;
    if (PyObject_GenericSetAttr(msg, s_sender, sender) < 0 ||
        PyObject_GenericSetAttr(msg, s_seq, seq) < 0 ||
        PyObject_GenericSetAttr(msg, s_payload, payload) < 0) {
        Py_DECREF(msg);
        return NULL;
    }
    return msg;
}

/* fanout(src, dsts, mint, payload, kind): one message per destination,
 * minted from `mint` and sent in destination order through
 * network_send_one — n sends, minus the n Python calls. A message that
 * is refused leaves mint._next_seq where the last accepted one put it. */
static PyObject *
NetworkCore_fanout(NetworkCoreObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"src", "dsts", "mint", "payload", "kind", NULL};
    Py_ssize_t src;
    PyObject *dsts, *mint, *payload, *kind;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "nOOOO", kwlist,
                                     &src, &dsts, &mint, &payload, &kind))
        return NULL;
    if (g_message_type == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "repro._accel._ccore has no Message type; import "
                        "repro.sim.network (which calls _install_message) "
                        "first");
        return NULL;
    }
    PyObject *minted = NULL, *sender = NULL, *seq = NULL;
    PyObject *fast = PySequence_Fast(dsts, "fanout needs a sequence of "
                                           "destinations");
    if (fast == NULL)
        return NULL;
    minted = PyList_New(0);
    sender = minted ? PyObject_GetAttr(mint, s_sender) : NULL;
    seq = sender ? PyObject_GetAttr(mint, s_next_seq) : NULL;
    if (seq == NULL)
        goto error;
    /* The size is re-read each round: the per-message body calls back
     * into Python (hold predicates, the delay model). */
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(fast); i++) {
        Py_ssize_t dst = PyNumber_AsSsize_t(
            PySequence_Fast_GET_ITEM(fast, i), PyExc_OverflowError);
        if (dst == -1 && PyErr_Occurred())
            goto error;
        PyObject *msg = mint_message(sender, seq, payload);
        if (msg == NULL)
            goto error;
        int r = network_send_one(self, src, dst, msg, kind);
        if (r == 0)
            r = PyList_Append(minted, msg);
        Py_DECREF(msg);
        if (r < 0)
            goto error;
        PyObject *next = PyNumber_Add(seq, g_one);
        if (next == NULL)
            goto error;
        Py_SETREF(seq, next);
        if (PyObject_SetAttr(mint, s_next_seq, seq) < 0)
            goto error;
    }
    Py_DECREF(fast);
    Py_DECREF(sender);
    Py_DECREF(seq);
    return minted;
error:
    Py_DECREF(fast);
    Py_XDECREF(minted);
    Py_XDECREF(sender);
    Py_XDECREF(seq);
    return NULL;
}

static PyObject *
NetworkCore__schedule_delivery(NetworkCoreObject *self, PyObject *args,
                               PyObject *kwds)
{
    static char *kwlist[] = {"state", "src", "dst", "msg", "kind", NULL};
    PyObject *state_obj, *msg, *kind;
    Py_ssize_t src, dst;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OnnOO", kwlist,
                                     &state_obj, &src, &dst, &msg, &kind))
        return NULL;
    if (!PyObject_TypeCheck(state_obj, &ChannelState_Type)) {
        PyErr_SetString(PyExc_TypeError,
                        "_schedule_delivery needs a _ChannelState");
        return NULL;
    }
    if (network_queue_delivery(self, (ChannelStateObject *)state_obj, src,
                               dst, msg, kind, kind_index(kind) == 2) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
NetworkCore__state(NetworkCoreObject *self, PyObject *args)
{
    Py_ssize_t src, dst;
    if (!PyArg_ParseTuple(args, "nn", &src, &dst))
        return NULL;
    ChannelStateObject *state = network_state(self, src, dst);
    if (state == NULL)
        return NULL;
    return Py_NewRef((PyObject *)state);
}

static PyObject *
NetworkCore_set_deliver(NetworkCoreObject *self, PyObject *deliver)
{
    Py_XSETREF(self->deliver_fn, Py_NewRef(deliver));
    Py_RETURN_NONE;
}

static PyObject *
NetworkCore_set_delivery_table(NetworkCoreObject *self, PyObject *processes)
{
    Py_XSETREF(self->targets, Py_NewRef(processes));
    Py_RETURN_NONE;
}

static PyObject *
NetworkCore_get_sent_by_kind(NetworkCoreObject *self, void *closure)
{
    return Py_BuildValue("{OLOLOL}", s_app, self->sent_app, s_protocol,
                         self->sent_protocol, s_system, self->sent_system);
}

static PyObject *
NetworkCore_get_n(NetworkCoreObject *self, void *closure)
{
    return PyLong_FromSsize_t(self->n);
}

static PyObject *
NetworkCore_get_app_sent(NetworkCoreObject *self, void *closure)
{
    return PyLong_FromLongLong(self->sent_app);
}

static PyObject *
NetworkCore_get_protocol_sent(NetworkCoreObject *self, void *closure)
{
    return PyLong_FromLongLong(self->sent_protocol);
}

static PyObject *
NetworkCore_get_system_sent(NetworkCoreObject *self, void *closure)
{
    return PyLong_FromLongLong(self->sent_system);
}

static PyMethodDef NetworkCore_methods[] = {
    {"send", (PyCFunction)NetworkCore_send,
     METH_VARARGS | METH_KEYWORDS,
     "Accept a message for eventual FIFO delivery on C_{src,dst}."},
    {"fanout", (PyCFunction)NetworkCore_fanout,
     METH_VARARGS | METH_KEYWORDS,
     "Mint and send one message per destination, in order."},
    {"_schedule_delivery", (PyCFunction)NetworkCore__schedule_delivery,
     METH_VARARGS | METH_KEYWORDS,
     "Sample a delay and queue one delivery on the channel."},
    {"_state", (PyCFunction)NetworkCore__state, METH_VARARGS,
     "Fetch-or-create the channel state for (src, dst)."},
    {"set_deliver", (PyCFunction)NetworkCore_set_deliver, METH_O,
     "Install the delivery callback (done by the World during wiring)."},
    {"set_delivery_table", (PyCFunction)NetworkCore_set_delivery_table,
     METH_O, "Install direct per-process delivery for the hot path."},
    {NULL}
};

static PyGetSetDef NetworkCore_getsets[] = {
    {"sent_by_kind", (getter)NetworkCore_get_sent_by_kind, NULL,
     "Per-kind accepted-message counters (fresh dict per access).", NULL},
    {"n", (getter)NetworkCore_get_n, NULL, "Number of processes.", NULL},
    {"app_messages_sent", (getter)NetworkCore_get_app_sent, NULL,
     "Application (modelled) messages accepted so far.", NULL},
    {"protocol_messages_sent", (getter)NetworkCore_get_protocol_sent, NULL,
     "Failure-detection protocol messages accepted so far.", NULL},
    {"system_messages_sent", (getter)NetworkCore_get_system_sent, NULL,
     "Heartbeat/system messages accepted so far.", NULL},
    {NULL}
};

static PyMemberDef NetworkCore_members[] = {
    {"_scheduler", T_OBJECT_EX, offsetof(NetworkCoreObject, scheduler),
     READONLY, NULL},
    {"_n", T_PYSSIZET, offsetof(NetworkCoreObject, n), READONLY, NULL},
    {"_delay_model", T_OBJECT_EX, offsetof(NetworkCoreObject, delay_model),
     0, NULL},
    {"_rng", T_OBJECT_EX, offsetof(NetworkCoreObject, rng), 0, NULL},
    {"_deliver_fn", T_OBJECT, offsetof(NetworkCoreObject, deliver_fn), 0,
     NULL},
    {"_batch", T_BOOL, offsetof(NetworkCoreObject, batch), 0, NULL},
    {"_channels", T_OBJECT_EX, offsetof(NetworkCoreObject, channels),
     READONLY, NULL},
    {"_flat", T_OBJECT_EX, offsetof(NetworkCoreObject, flat), READONLY,
     NULL},
    {"_hold_predicates", T_OBJECT_EX,
     offsetof(NetworkCoreObject, hold_predicates), READONLY, NULL},
    {"_targets", T_OBJECT, offsetof(NetworkCoreObject, targets), 0, NULL},
    {"messages_delivered", T_LONGLONG,
     offsetof(NetworkCoreObject, messages_delivered), 0, NULL},
    {"delivery_entries", T_LONGLONG,
     offsetof(NetworkCoreObject, delivery_entries), 0, NULL},
    {NULL}
};

static PyTypeObject NetworkCore_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._accel._ccore.NetworkCore",
    .tp_basicsize = sizeof(NetworkCoreObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC |
                Py_TPFLAGS_BASETYPE,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)NetworkCore_init,
    .tp_dealloc = (destructor)NetworkCore_dealloc,
    .tp_traverse = (traverseproc)NetworkCore_traverse,
    .tp_clear = (inquiry)NetworkCore_clear,
    .tp_methods = NetworkCore_methods,
    .tp_getset = NetworkCore_getsets,
    .tp_members = NetworkCore_members,
    .tp_doc = "FIFO channel fabric hot path (compiled core).",
};

/* ------------------------------------------------------------------ */
/* Module functions                                                   */
/* ------------------------------------------------------------------ */

static PyObject *
mod_noop(PyObject *module, PyObject *noarg)
{
    Py_RETURN_NONE;
}

static PyObject *
mod_install_error(PyObject *module, PyObject *error)
{
    Py_XSETREF(g_sim_error, Py_NewRef(error));
    Py_RETURN_NONE;
}

static PyObject *
mod_install_message(PyObject *module, PyObject *type)
{
    if (!PyType_Check(type)) {
        PyErr_SetString(PyExc_TypeError, "_install_message needs a class");
        return NULL;
    }
    Py_XSETREF(g_message_type, Py_NewRef(type));
    Py_RETURN_NONE;
}

static PyMethodDef module_methods[] = {
    {"_noop", (PyCFunction)mod_noop, METH_NOARGS,
     "Callback of entries parked by clear_queue."},
    {"_install_error", (PyCFunction)mod_install_error, METH_O,
     "Install SimulationError (the exception raised by the core)."},
    {"_install_message", (PyCFunction)mod_install_message, METH_O,
     "Install Message (the class NetworkCore.fanout mints)."},
    {NULL}
};

static struct PyModuleDef ccore_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro._accel._ccore",
    .m_doc = "Compiled event core (see repro._accel).",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC
PyInit__ccore(void)
{
#define INTERN(var, text)                        \
    do {                                         \
        (var) = PyUnicode_InternFromString(text);\
        if ((var) == NULL)                       \
            return NULL;                         \
    } while (0)
    INTERN(s_app, "app");
    INTERN(s_protocol, "protocol");
    INTERN(s_system, "system");
    INTERN(s_sample, "sample");
    INTERN(s_deliver, "deliver");
    INTERN(s_open_unbatched, "_open_unbatched");
    INTERN(s_sender, "sender");
    INTERN(s_seq, "seq");
    INTERN(s_payload, "payload");
    INTERN(s_next_seq, "_next_seq");
#undef INTERN
    g_empty_tuple = PyTuple_New(0);
    g_one = PyLong_FromLong(1);
    if (g_empty_tuple == NULL || g_one == NULL)
        return NULL;
    if (PyType_Ready(&Entry_Type) < 0 ||
        PyType_Ready(&TimerHandle_Type) < 0 ||
        PyType_Ready(&Scheduler_Type) < 0 ||
        PyType_Ready(&ChannelState_Type) < 0 ||
        PyType_Ready(&Burst_Type) < 0 ||
        PyType_Ready(&NetworkCore_Type) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&ccore_module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddObjectRef(m, "_Entry", (PyObject *)&Entry_Type) < 0 ||
        PyModule_AddObjectRef(m, "TimerHandle",
                              (PyObject *)&TimerHandle_Type) < 0 ||
        PyModule_AddObjectRef(m, "Scheduler",
                              (PyObject *)&Scheduler_Type) < 0 ||
        PyModule_AddObjectRef(m, "_ChannelState",
                              (PyObject *)&ChannelState_Type) < 0 ||
        PyModule_AddObjectRef(m, "_Burst", (PyObject *)&Burst_Type) < 0 ||
        PyModule_AddObjectRef(m, "NetworkCore",
                              (PyObject *)&NetworkCore_Type) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    g_noop = PyObject_GetAttrString(m, "_noop");
    if (g_noop == NULL ||
        PyModule_AddStringConstant(m, "_SOURCE_SHA256",
                                   REPRO_CCORE_SHA256) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
