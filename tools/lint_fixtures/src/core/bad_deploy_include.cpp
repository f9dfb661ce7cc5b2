// Fixture: a trusted module reaching into the untrusted deployment-config
// parser, which would pull it into the enclave's TCB.
#include "core/runtime.hpp"
#include "deploy/config.hpp"  // EXPECT: deploy-include
#include <deploy/config.hpp>  // EXPECT: deploy-include

// Paths and strings merely *containing* deploy/ must not fire.
#include "core/deploy/notes.hpp"

namespace fixture {

const char* kDoc = "#include \"deploy/config.hpp\"";

}  // namespace fixture
