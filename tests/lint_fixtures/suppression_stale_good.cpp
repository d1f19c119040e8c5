// Fixture twin: every allow() shields a live finding, whichever rule
// family it names -- a convention or a flow rule, one stale-suppression
// pass judges both.  Zero findings expected.
#include <atomic>

namespace fixture {

std::atomic<int> counter_value{0};

int still_violating() {
  // rds_analyze: allow(atomic-memory-order) -- fixture: suppression in use
  return counter_value.load();
}

unsigned long long grow(unsigned long long capacity, unsigned long long n) {
  // rds_analyze: allow(capacity-arith) -- fixture: a flow rule's suppression
  return capacity + n;
}

}  // namespace fixture
