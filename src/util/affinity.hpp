// Thread-to-CPU pinning used by workers.
//
// The paper binds each worker to an explicit CPU set (Fig. 2). On machines
// with fewer CPUs than the configuration names, pinning requests are clamped
// so deployments written for larger boxes still run.
#pragma once

#include <thread>
#include <vector>

namespace ea::util {

// Pins `thread` to the given CPU ids (clamped to the CPUs that actually
// exist). An empty vector leaves affinity unchanged.
// Returns true if the affinity call succeeded or was a no-op.
bool pin_thread(std::thread& thread, const std::vector<int>& cpus);

// Number of online CPUs.
int online_cpus();

}  // namespace ea::util
