#include "util/affinity.hpp"

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

namespace ea::util {

int online_cpus() {
  long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

bool pin_thread(std::thread& thread, const std::vector<int>& cpus) {
  if (cpus.empty()) return true;
  const int ncpu = online_cpus();
  cpu_set_t set;
  CPU_ZERO(&set);
  bool any = false;
  for (int cpu : cpus) {
    if (cpu < 0) continue;
    CPU_SET(cpu % ncpu, &set);
    any = true;
  }
  if (!any) return true;
  return pthread_setaffinity_np(thread.native_handle(), sizeof(set), &set) == 0;
}

}  // namespace ea::util
