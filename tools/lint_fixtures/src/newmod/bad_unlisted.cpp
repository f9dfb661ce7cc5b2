// Fixture: a module in neither policy list.  // EXPECT: module-unlisted
// It is linted as trusted until it is listed, so the mutex fires too.
#include <mutex>  // EXPECT: mutex-blocking-sync
