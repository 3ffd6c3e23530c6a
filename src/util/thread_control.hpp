// Thin RAII control over the OpenMP thread count.
//
// The strong-scaling bench (Fig. 3) sweeps thread counts; tests pin a known
// count so results are deterministic. omp_set_num_threads is process-global,
// so the guard restores the previous value on scope exit.
#pragma once

#include <cstddef>

namespace spkadd::util {

/// Number of threads OpenMP will use for the next parallel region.
[[nodiscard]] int current_max_threads();

/// Set the process-global OpenMP thread count (clamped to >= 1).
void set_num_threads(int n);

/// Logical CPUs available to this process (never returns 0).
[[nodiscard]] std::size_t online_cpu_count();

/// RAII guard: sets the thread count for the enclosing scope, restores the
/// previous setting on destruction.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int n);
  ~ThreadCountGuard();
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  int previous_;
};

}  // namespace spkadd::util
