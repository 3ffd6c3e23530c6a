#include "util/thread_control.hpp"

#include "util/omp_compat.hpp"

#include <algorithm>
#include <thread>

namespace spkadd::util {

int current_max_threads() { return omp_get_max_threads(); }

void set_num_threads(int n) { omp_set_num_threads(std::max(1, n)); }

std::size_t online_cpu_count() {
  const unsigned n = std::thread::hardware_concurrency();
  return n != 0 ? static_cast<std::size_t>(n) : 1;
}

ThreadCountGuard::ThreadCountGuard(int n) : previous_(omp_get_max_threads()) {
  set_num_threads(n);
}

ThreadCountGuard::~ThreadCountGuard() { set_num_threads(previous_); }

}  // namespace spkadd::util
