#pragma once

// Process-wide thread pool and deterministic parallel-for.
//
// The independent unit of work is one whole sample or radar frame: the
// conv layers fan a batch out per sample and the dataset builder fans a
// block out per frame.  `parallel_for` hands those indices to a lazily-
// initialized pool of worker threads; callers guarantee that each index
// writes a disjoint, pre-sized output slice, so results are bitwise
// identical to the serial path regardless of thread count — no
// reductions, no atomics in user code, no ordering effects.
//
// Thread count resolution, in priority order:
//   1. `set_num_threads(n)` (runtime override, used by tests and benches),
//   2. the `MMHAND_THREADS` environment variable at first use,
//   3. `std::thread::hardware_concurrency()`.
// `MMHAND_THREADS=1` (or `set_num_threads(1)`) forces the exact serial
// path: `parallel_for` degenerates to a plain loop on the calling thread
// and never touches the pool.

#include <cstdint>

#include "mmhand/common/function_ref.hpp"

namespace mmhand {

/// Number of threads `parallel_for` currently targets (>= 1).
int num_threads();

/// The fewest indices a `parallel_for` needs to run on every target
/// thread, or 1 when the target is one thread (nothing fans out).  A
/// caller that picks how much work one `parallel_for` gets uses it to
/// keep the fan-out while bounding the work, and memory, per call.
std::int64_t fan_out_indices();

/// Overrides the target thread count at runtime (clamped to [1, 256]).
/// The pool grows on demand; shrinking only idles workers.  Safe to call
/// between parallel regions; do not call from inside a `parallel_for` body.
void set_num_threads(int n);

/// True while the calling thread is executing a `parallel_for` body.
/// Nested `parallel_for` calls observe this and fall back to serial.
bool in_parallel_region();

/// Opaque per-task context pointer, propagated from the thread that
/// submits a `parallel_for` region to every pool worker that
/// participates in it (and restored when the region drains).  The pool
/// never dereferences it; the observability layer stores its
/// frame-scoped trace context here so spans recorded on workers can be
/// attributed to the frame that spawned them.  Null by default.
void* task_context();
void set_task_context(void* context);

/// Callbacks invoked on each pool worker around its participation in a
/// region — after the submitted task context is installed, before it is
/// restored.  `begin` returns a token passed to `end`; both may be
/// null.  The submitting thread (which already owns the context) never
/// triggers them.  Install-once, before the pool is busy; used by the
/// observability layer to record per-worker spans.
struct WorkerObserver {
  void* (*begin)() = nullptr;
  void (*end)(void* token) = nullptr;
};
void set_worker_observer(const WorkerObserver& observer);

/// Applies `fn(i)` for every i in [begin, end), one whole sample or
/// frame per index.  Threads claim indices dynamically, so `fn` must not
/// depend on which thread runs which index.  At most one thread per four
/// indices takes part, so runs serially (on the calling thread, in
/// order) when the range holds fewer than eight indices, the pool is
/// limited to one thread, or the call is nested inside another parallel
/// region.  The first exception thrown by any worker is
/// rethrown on the calling thread after the region completes.
///
/// `fn` is taken as a non-owning `FunctionRef`, so lambda temporaries
/// in the call expression bind without a heap-backed `std::function`
/// copy; the callable only has to live until `parallel_for` returns,
/// which the blocking submit guarantees.
void parallel_for(std::int64_t begin, std::int64_t end,
                  FunctionRef<void(std::int64_t)> fn);

}  // namespace mmhand
