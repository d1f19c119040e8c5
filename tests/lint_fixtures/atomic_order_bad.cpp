// Fixture: every implicit-seq_cst atomic call shape the rule must catch.
// Not compiled -- consumed as text by test_rds_analyze.
#include <atomic>

namespace fixture {

std::atomic<int> counter_value{0};

int bad_load() { return counter_value.load(); }

void bad_store(int v) { counter_value.store(v); }

void bad_rmw() { counter_value.fetch_add(1); }

bool bad_cas_no_orders(int& expected) {
  return counter_value.compare_exchange_weak(expected, 7);
}

bool bad_cas_one_order(int& expected) {
  // Only the success order is spelled out; the failure order is implied.
  return counter_value.compare_exchange_strong(expected, 7,
                                               std::memory_order_acq_rel);
}

}  // namespace fixture
