// Fixture: suppressions that must NOT silence the finding.
#include <atomic>

namespace fixture {

std::atomic<int> counter_value{0};

int missing_reason() {
  // rds_analyze: allow(atomic-memory-order)
  return counter_value.load();
}

int wrong_rule() {
  // rds_analyze: allow(metrics-naming) -- reason for a different rule
  return counter_value.load();
}

int too_far_away() {
  // rds_analyze: allow(atomic-memory-order) -- only spans to the NEXT code line
  int unrelated = 0;
  return counter_value.load() + unrelated;
}

}  // namespace fixture
